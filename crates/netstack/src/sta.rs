//! The client (station) state machine: the frame-by-frame sequence of
//! §3.1, from probe to a DHCP lease.

use crate::arp::ArpPacket;
use crate::dhcp::{DhcpMessage, DhcpMsgType};
use crate::ipv4::{self, Ipv4Addr};
use crate::wpa::Supplicant;
use wile_dot11::data::{
    build_data_to_ap, DataFrame, ETHERTYPE_ARP, ETHERTYPE_EAPOL, ETHERTYPE_IPV4,
};
use wile_dot11::eapol::KeyFrame;
use wile_dot11::mac::{MacAddr, SeqControl};
use wile_dot11::mgmt::{AssocReqBuilder, AssocResp, Auth, AuthBuilder, ProbeReqBuilder};

/// Where the client is in the connection sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StaPhase {
    /// Radio up, nothing sent yet.
    Idle,
    /// Probe request sent, awaiting response.
    Probing,
    /// Authentication request sent.
    Authenticating,
    /// Association request sent.
    Associating,
    /// 4-way handshake in progress.
    Handshaking,
    /// DHCP in progress.
    Dhcp,
    /// Resolving the gateway MAC.
    Arp,
    /// Fully connected: IP configured, gateway resolved.
    Connected,
    /// The AP rejected us (association denied) or kicked us
    /// (deauthentication) — terminal until the next wake cycle.
    Failed,
}

/// What the station wants transmitted next.
#[derive(Debug, Clone)]
pub struct StaTx {
    /// The complete MPDU.
    pub frame: Vec<u8>,
    /// True for frames carrying higher-layer payloads (DHCP/ARP) — the
    /// paper counts these separately from MAC management frames.
    pub(crate) higher_layer: bool,
}

/// The client state machine.
#[derive(Debug)]
pub struct Station {
    /// The station's MAC address.
    pub mac: MacAddr,
    ssid: Vec<u8>,
    passphrase: String,
    ap_mac: MacAddr,
    phase: StaPhase,
    supplicant: Option<Supplicant>,
    seq: SeqControl,
    xid: u32,
    /// Association id granted by the AP.
    pub aid: Option<u16>,
    /// Leased IP address.
    pub ip: Option<Ipv4Addr>,
    /// DHCP server / gateway IP.
    pub gateway_ip: Option<Ipv4Addr>,
    /// Resolved gateway MAC.
    pub gateway_mac: Option<MacAddr>,
    snonce_seed: u8,
}

impl Station {
    /// A station ready to join (`ssid`, `passphrase`) via `ap_mac`.
    pub fn new(mac: MacAddr, ssid: &[u8], passphrase: &str, ap_mac: MacAddr, xid: u32) -> Self {
        Station {
            mac,
            ssid: ssid.to_vec(),
            passphrase: passphrase.to_string(),
            ap_mac,
            phase: StaPhase::Idle,
            supplicant: None,
            seq: SeqControl::new(0, 0),
            xid,
            aid: None,
            ip: None,
            gateway_ip: None,
            gateway_mac: None,
            snonce_seed: xid as u8 ^ 0x5A,
        }
    }

    /// Current phase.
    pub(crate) fn phase(&self) -> StaPhase {
        self.phase
    }

    /// True once the full sequence (through ARP) completed.
    pub fn is_connected(&self) -> bool {
        self.phase == StaPhase::Connected
    }

    fn next_seq(&mut self) -> SeqControl {
        let s = self.seq;
        self.seq = self.seq.next_seq();
        s
    }

    /// Kick off the sequence: the probe request.
    pub fn start(&mut self) -> StaTx {
        assert_eq!(self.phase, StaPhase::Idle, "start() once");
        self.phase = StaPhase::Probing;
        let seq = self.next_seq();
        StaTx {
            frame: ProbeReqBuilder::new(self.mac, &self.ssid).seq(seq).build(),
            higher_layer: false,
        }
    }

    /// Re-issue the probe request after a scan timeout (valid only while
    /// still probing).
    pub(crate) fn reprobe(&mut self) -> StaTx {
        assert_eq!(self.phase, StaPhase::Probing, "reprobe only while probing");
        let seq = self.next_seq();
        StaTx {
            frame: ProbeReqBuilder::new(self.mac, &self.ssid).seq(seq).build(),
            higher_layer: false,
        }
    }

    /// Feed a received frame; returns the frames to transmit in response
    /// (excluding MAC ACKs, which the caller emits for any unicast
    /// reception).
    pub(crate) fn handle_frame(&mut self, frame: &[u8]) -> Vec<StaTx> {
        // A deauthentication from our AP terminates any phase.
        if let Ok(deauth) = wile_dot11::mgmt::Deauth::new_checked(frame) {
            if deauth.sender() == self.ap_mac {
                self.phase = StaPhase::Failed;
                self.supplicant = None;
                self.aid = None;
                return Vec::new();
            }
        }
        match self.phase {
            StaPhase::Probing => self.on_probe_resp(frame),
            StaPhase::Authenticating => self.on_auth_resp(frame),
            StaPhase::Associating => self.on_assoc_resp(frame),
            StaPhase::Handshaking => self.on_eapol(frame),
            StaPhase::Dhcp => self.on_dhcp(frame),
            StaPhase::Arp => self.on_arp(frame),
            StaPhase::Idle | StaPhase::Connected | StaPhase::Failed => Vec::new(),
        }
    }

    fn on_probe_resp(&mut self, frame: &[u8]) -> Vec<StaTx> {
        // A probe response from our AP moves us forward.
        use wile_dot11::mac::{MgmtHeader, MgmtSubtype, MGMT_HEADER_LEN};
        let Ok(hdr) = MgmtHeader::new_checked(frame) else {
            return Vec::new();
        };
        if hdr.frame_control().mgmt_subtype() != Ok(MgmtSubtype::ProbeResp)
            || hdr.addr3() != self.ap_mac
        {
            return Vec::new();
        }
        // The elements follow the 12 bytes of fixed fields (timestamp,
        // beacon interval, capabilities); a response too short to hold
        // them is ignored.
        let Some(body) = frame.get(MGMT_HEADER_LEN + 12..) else {
            return Vec::new();
        };
        // Security check: if the AP advertises an RSN we cannot do
        // (no CCMP pairwise or no PSK), joining is pointless — fail
        // early instead of burning energy through auth/assoc.
        if let Ok(el) = wile_dot11::ie::find(body, wile_dot11::ie::ElementId::Rsn) {
            match wile_dot11::ie::Rsn::parse(el.data) {
                Ok(rsn) if rsn.supports_wpa2_psk() => {}
                _ => {
                    self.phase = StaPhase::Failed;
                    return Vec::new();
                }
            }
        }
        self.phase = StaPhase::Authenticating;
        let seq = self.next_seq();
        vec![StaTx {
            frame: AuthBuilder::request(self.mac, self.ap_mac).seq(seq).build(),
            higher_layer: false,
        }]
    }

    fn on_auth_resp(&mut self, frame: &[u8]) -> Vec<StaTx> {
        let Ok(auth) = Auth::new_checked(frame) else {
            return Vec::new();
        };
        if auth.transaction_seq() != 2 || !auth.status().is_success() {
            return Vec::new();
        }
        self.phase = StaPhase::Associating;
        let seq = self.next_seq();
        vec![StaTx {
            frame: AssocReqBuilder::new(self.mac, self.ap_mac, &self.ssid)
                .listen_interval(3)
                .seq(seq)
                .build(),
            higher_layer: false,
        }]
    }

    fn on_assoc_resp(&mut self, frame: &[u8]) -> Vec<StaTx> {
        let Ok(resp) = AssocResp::new_checked(frame) else {
            return Vec::new();
        };
        if !resp.status().is_success() {
            // Denied (e.g. AP at capacity): give up this wake cycle.
            self.phase = StaPhase::Failed;
            return Vec::new();
        }
        self.aid = Some(resp.aid());
        let mut snonce = [0u8; 32];
        snonce[0] = self.snonce_seed;
        snonce[31] = 0x5B;
        self.supplicant = Some(Supplicant::new(
            &self.passphrase,
            &self.ssid,
            self.ap_mac,
            self.mac,
            snonce,
        ));
        self.phase = StaPhase::Handshaking;
        Vec::new() // wait for EAPOL M1
    }

    fn on_eapol(&mut self, frame: &[u8]) -> Vec<StaTx> {
        let Ok(data) = DataFrame::new_checked(frame) else {
            return Vec::new();
        };
        if data.ethertype() != Some(ETHERTYPE_EAPOL) {
            return Vec::new();
        }
        let Some(payload) = data.payload() else {
            return Vec::new();
        };
        let Ok(key) = KeyFrame::parse(payload) else {
            return Vec::new();
        };
        let sup = self.supplicant.as_mut().expect("handshaking phase");
        if !key.has_mic() {
            // Message 1 → reply with message 2.
            if let Ok(m2) = sup.handle_message_1(&key) {
                let f = self.eapol_frame(&m2);
                return vec![f];
            }
        } else if let Ok(m4) = sup.handle_message_3(&key) {
            // Message 3 → reply with message 4 and open the port: DHCP.
            let m4f = self.eapol_frame(&m4);
            self.phase = StaPhase::Dhcp;
            let discover = DhcpMessage::discover(self.xid, self.mac);
            let d = self.dhcp_frame(&discover);
            return vec![m4f, d];
        }
        Vec::new()
    }

    fn eapol_frame(&mut self, key: &KeyFrame) -> StaTx {
        let seq = self.next_seq();
        StaTx {
            frame: build_data_to_ap(
                self.mac,
                self.ap_mac,
                self.ap_mac,
                ETHERTYPE_EAPOL,
                &key.to_bytes(),
                seq,
            ),
            higher_layer: false, // EAPOL counts among the MAC-layer 20
        }
    }

    fn dhcp_frame(&mut self, msg: &DhcpMessage) -> StaTx {
        let pkt = ipv4::build_ipv4_udp(
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            crate::dhcp::CLIENT_PORT,
            crate::dhcp::SERVER_PORT,
            &msg.to_bytes(),
        );
        let seq = self.next_seq();
        StaTx {
            frame: build_data_to_ap(
                self.mac,
                self.ap_mac,
                MacAddr::BROADCAST,
                ETHERTYPE_IPV4,
                &pkt,
                seq,
            ),
            higher_layer: true,
        }
    }

    fn on_dhcp(&mut self, frame: &[u8]) -> Vec<StaTx> {
        let Ok(data) = DataFrame::new_checked(frame) else {
            return Vec::new();
        };
        if data.ethertype() != Some(ETHERTYPE_IPV4) {
            return Vec::new();
        }
        let Some(udp) = data.payload().and_then(ipv4::parse_ipv4_udp) else {
            return Vec::new();
        };
        if udp.dst_port != crate::dhcp::CLIENT_PORT {
            return Vec::new();
        }
        let Some(msg) = DhcpMessage::parse(udp.payload) else {
            return Vec::new();
        };
        if msg.xid != self.xid {
            return Vec::new();
        }
        match msg.msg_type {
            DhcpMsgType::Offer => {
                let req = msg.request_for();
                vec![self.dhcp_frame(&req)]
            }
            DhcpMsgType::Ack => {
                self.ip = Some(msg.your_ip);
                self.gateway_ip = Some(msg.server_ip);
                self.phase = StaPhase::Arp;
                // Resolve the gateway before first transmission.
                let arp = ArpPacket::request(self.mac, msg.your_ip, msg.server_ip);
                vec![self.arp_frame(&arp, MacAddr::BROADCAST)]
            }
            _ => Vec::new(),
        }
    }

    fn arp_frame(&mut self, arp: &ArpPacket, dest: MacAddr) -> StaTx {
        let seq = self.next_seq();
        StaTx {
            frame: build_data_to_ap(
                self.mac,
                self.ap_mac,
                dest,
                ETHERTYPE_ARP,
                &arp.to_bytes(),
                seq,
            ),
            higher_layer: true,
        }
    }

    fn on_arp(&mut self, frame: &[u8]) -> Vec<StaTx> {
        let Ok(data) = DataFrame::new_checked(frame) else {
            return Vec::new();
        };
        if data.ethertype() != Some(ETHERTYPE_ARP) {
            return Vec::new();
        }
        let Some(arp) = data.payload().and_then(ArpPacket::parse) else {
            return Vec::new();
        };
        if arp.op != crate::arp::ArpOp::Reply || Some(arp.sender_ip) != self.gateway_ip {
            return Vec::new();
        }
        self.gateway_mac = Some(arp.sender_mac);
        self.phase = StaPhase::Connected;
        // Gratuitous ARP announcing our lease — the 7th higher-layer frame.
        let g = ArpPacket::gratuitous(self.mac, self.ip.expect("leased"));
        vec![self.arp_frame(&g, MacAddr::BROADCAST)]
    }

    /// Build the application data frame (a sensor reading in a UDP
    /// datagram to the gateway) — only valid once connected.
    pub fn sensor_data_frame(&mut self, payload: &[u8]) -> StaTx {
        assert!(self.is_connected(), "connect first");
        let pkt = ipv4::build_ipv4_udp(
            self.ip.unwrap(),
            self.gateway_ip.unwrap(),
            40_000,
            5_683,
            payload,
        );
        let seq = self.next_seq();
        StaTx {
            frame: build_data_to_ap(
                self.mac,
                self.ap_mac,
                self.gateway_mac.unwrap(),
                ETHERTYPE_IPV4,
                &pkt,
                seq,
            ),
            higher_layer: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::AccessPoint;

    fn pair() -> (Station, AccessPoint) {
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta_mac = MacAddr::new([2, 0, 0, 0, 0, 5]);
        let ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);
        let sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, 0x1234);
        (sta, ap)
    }

    /// The AP's answer to a probe request for its SSID.
    fn probe_response(ap: &mut AccessPoint, sta: &Station) -> Vec<u8> {
        let probe = wile_dot11::mgmt::ProbeReqBuilder::new(sta.mac, &ap.ssid).build();
        ap.handle_frame(&probe).remove(0).frame
    }

    /// Pump frames between STA and AP until quiescent; returns
    /// (mac_frames, higher_layer_frames) counted per the paper's split.
    fn pump(sta: &mut Station, ap: &mut AccessPoint) -> (usize, usize) {
        let mut mac_frames = 0;
        let mut higher = 0;
        let mut to_ap: Vec<StaTx> = vec![sta.start()];
        mac_frames += 1;
        for _round in 0..40 {
            let mut to_sta = Vec::new();
            for tx in to_ap.drain(..) {
                for resp in ap.handle_frame(&tx.frame) {
                    to_sta.push(resp.frame);
                }
            }
            if to_sta.is_empty() {
                break;
            }
            for f in to_sta {
                use wile_dot11::data::{DataFrame, ETHERTYPE_EAPOL};
                use wile_dot11::mac::{FrameType, MgmtHeader};
                let is_ack = MgmtHeader::new_checked(&f[..])
                    .map(|h| h.frame_control().frame_type() == FrameType::Control)
                    .unwrap_or(true);
                if is_ack {
                    mac_frames += 1; // AP's MAC ACK
                    continue;
                }
                // Classify AP frames like the paper: DHCP/ARP payloads
                // are higher-layer, everything else is MAC-layer.
                let is_higher = DataFrame::new_checked(&f[..])
                    .ok()
                    .and_then(|d| d.ethertype())
                    .map(|e| e != ETHERTYPE_EAPOL)
                    .unwrap_or(false);
                if is_higher {
                    higher += 1;
                } else {
                    mac_frames += 1;
                }
                for tx in sta.handle_frame(&f) {
                    if tx.higher_layer {
                        higher += 1;
                    } else {
                        mac_frames += 1;
                    }
                    to_ap.push(tx);
                }
            }
        }
        (mac_frames, higher)
    }

    #[test]
    fn full_connection_reaches_connected() {
        let (mut sta, mut ap) = pair();
        pump(&mut sta, &mut ap);
        assert!(sta.is_connected());
        assert_eq!(sta.aid, Some(1));
        assert!(sta.ip.is_some());
        assert_eq!(sta.gateway_mac, Some(ap.mac));
        assert!(ap.handshake_complete(&sta.mac));
        assert_eq!(ap.lease_of(&sta.mac), sta.ip);
    }

    #[test]
    fn frame_counts_match_paper_claims() {
        // §3.1: ~20 MAC-layer frames, 7 higher-layer frames.
        let (mut sta, mut ap) = pair();
        let (mac_frames, higher) = pump(&mut sta, &mut ap);
        assert_eq!(higher, 7, "higher-layer frames");
        assert!((18..=24).contains(&mac_frames), "MAC frames {mac_frames}");
    }

    #[test]
    fn wrong_passphrase_stalls_at_handshake() {
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta_mac = MacAddr::new([2, 0, 0, 0, 0, 5]);
        let mut ap = AccessPoint::new(b"HomeNet", "correct", ap_mac, 6);
        let mut sta = Station::new(sta_mac, b"HomeNet", "wrong", ap_mac, 1);
        pump(&mut sta, &mut ap);
        assert!(!sta.is_connected());
        assert_eq!(sta.phase(), StaPhase::Handshaking);
        assert!(!ap.handshake_complete(&sta_mac));
    }

    #[test]
    fn sensor_frame_after_connect() {
        let (mut sta, mut ap) = pair();
        pump(&mut sta, &mut ap);
        let tx = sta.sensor_data_frame(b"t=21.5C");
        let data = DataFrame::new_checked(&tx.frame[..]).unwrap();
        assert_eq!(data.ethertype(), Some(ETHERTYPE_IPV4));
        let udp = ipv4::parse_ipv4_udp(data.payload().unwrap()).unwrap();
        assert_eq!(udp.payload, b"t=21.5C");
        assert_eq!(udp.dst, ap.ip);
    }

    #[test]
    #[should_panic(expected = "connect first")]
    fn sensor_frame_requires_connection() {
        let (mut sta, _) = pair();
        sta.sensor_data_frame(b"x");
    }

    #[test]
    fn unsupported_rsn_fails_early() {
        // A TKIP-only legacy AP: our CCMP-only supplicant refuses at the
        // scan stage instead of burning energy through auth/assoc.
        use wile_dot11::ie::Rsn;
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let mut sta = Station::new(MacAddr::new([2, 0, 0, 0, 0, 5]), b"OldNet", "pw", ap_mac, 1);
        sta.start();
        let legacy_rsn = Rsn {
            version: 1,
            // TKIP (legacy WPA) cipher, 802.1X (enterprise) AKM.
            group_cipher: [0x00, 0x0F, 0xAC, 0x02],
            pairwise_ciphers: vec![[0x00, 0x0F, 0xAC, 0x02]],
            akm_suites: vec![[0x00, 0x0F, 0xAC, 0x01]],
            capabilities: 0,
        };
        let resp = wile_dot11::mgmt::ProbeRespBuilder::new(ap_mac, sta.mac)
            .ssid(b"OldNet")
            .rsn(&legacy_rsn)
            .build();
        assert!(sta.handle_frame(&resp).is_empty());
        assert_eq!(sta.phase(), StaPhase::Failed);
    }

    #[test]
    fn denied_association_fails_the_station() {
        let (mut sta, mut ap) = pair();
        ap.max_stations = 0;
        pump(&mut sta, &mut ap);
        assert_eq!(sta.phase(), StaPhase::Failed);
        assert!(!sta.is_connected());
        assert_eq!(sta.aid, None);
    }

    #[test]
    fn deauth_from_our_ap_fails_any_phase() {
        let (mut sta, mut ap) = pair();
        pump(&mut sta, &mut ap);
        assert!(sta.is_connected());
        let deauth = wile_dot11::mgmt::DeauthBuilder::new(
            ap.mac,
            sta.mac,
            ap.mac,
            wile_dot11::mgmt::ReasonCode::Inactivity,
        )
        .build();
        assert!(sta.handle_frame(&deauth).is_empty());
        assert_eq!(sta.phase(), StaPhase::Failed);
        assert_eq!(sta.aid, None);
    }

    #[test]
    fn deauth_from_stranger_ignored() {
        let (mut sta, mut ap) = pair();
        pump(&mut sta, &mut ap);
        let stranger = MacAddr::new([9; 6]);
        let deauth = wile_dot11::mgmt::DeauthBuilder::new(
            stranger,
            sta.mac,
            stranger,
            wile_dot11::mgmt::ReasonCode::Unspecified,
        )
        .build();
        sta.handle_frame(&deauth);
        assert!(sta.is_connected());
    }

    #[test]
    fn irrelevant_frames_ignored_mid_sequence() {
        let (mut sta, mut ap) = pair();
        sta.start();
        // A beacon, or a probe response from a different BSS, must not
        // advance the probe phase.
        let other = wile_dot11::mgmt::BeaconBuilder::new(MacAddr::new([9; 6]))
            .ssid(b"x")
            .build();
        assert!(sta.handle_frame(&other).is_empty());
        let stranger = wile_dot11::mgmt::ProbeRespBuilder::new(MacAddr::new([9; 6]), sta.mac)
            .ssid(b"HomeNet")
            .build();
        assert!(sta.handle_frame(&stranger).is_empty());
        assert_eq!(sta.phase(), StaPhase::Probing);
        // Our AP's own probe response does advance it.
        let out = sta.handle_frame(&probe_response(&mut ap, &sta));
        assert_eq!(out.len(), 1);
        assert_eq!(sta.phase(), StaPhase::Authenticating);
    }

    #[test]
    fn a_truncated_probe_response_is_ignored() {
        // A probe response from our AP that ends inside its fixed fields
        // gets no reply and leaves the station probing.
        let (mut sta, mut ap) = pair();
        sta.start();
        let resp = probe_response(&mut ap, &sta);
        assert!(sta.handle_frame(&resp[..30]).is_empty());
        assert_eq!(sta.phase(), StaPhase::Probing);
    }
}

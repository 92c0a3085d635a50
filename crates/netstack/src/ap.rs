//! The access-point side: probe/auth/assoc responder, WPA2
//! authenticator, DHCP server, ARP responder and beacons.
//!
//! Stands in for the paper's Google WiFi AP. The AP is mains-powered, so
//! it has no power trace — only protocol behaviour and reply latencies
//! (which *do* shape the client's energy, dominating the DHCP/ARP phase
//! of Fig. 3a).

use crate::arp::ArpPacket;
use crate::dhcp::{DhcpMessage, DhcpMsgType};
use crate::ipv4::{self, Ipv4Addr};
use crate::wpa::Authenticator;
use std::collections::HashMap;
use wile_dot11::ctrl::build_ack;
use wile_dot11::data::{
    build_data_from_ap, DataFrame, ETHERTYPE_ARP, ETHERTYPE_EAPOL, ETHERTYPE_IPV4,
};
use wile_dot11::eapol::KeyFrame;
use wile_dot11::ie::Tim;
use wile_dot11::mac::{FrameType, MacAddr, MgmtHeader, MgmtSubtype, SeqControl};
use wile_dot11::mgmt::{
    AssocReq, AssocRespBuilder, Auth, AuthBuilder, BeaconBuilder, CapabilityInfo, ProbeReq,
    ProbeRespBuilder, StatusCode,
};
use wile_radio::time::Duration;

/// Reply latencies of the AP and its network side. Calibrated so the
/// client's connection trace reproduces the phase boundaries of Fig. 3a.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApDelays {
    /// ACK turnaround (SIFS).
    pub(crate) ack: Duration,
    /// Probe response latency (scan dwell on the client side).
    pub(crate) probe: Duration,
    /// Authentication response latency.
    pub(crate) auth: Duration,
    /// Association response latency.
    pub(crate) assoc: Duration,
    /// Delay before EAPOL message 1 after association.
    pub(crate) eapol_m1: Duration,
    /// Authenticator processing between M2 and M3.
    pub(crate) eapol_m3: Duration,
    /// DHCP server latency: DISCOVER → OFFER.
    pub(crate) dhcp_offer: Duration,
    /// DHCP server latency: REQUEST → ACK.
    pub(crate) dhcp_ack: Duration,
    /// ARP reply latency.
    pub(crate) arp: Duration,
}

impl Default for ApDelays {
    fn default() -> Self {
        ApDelays {
            ack: Duration::from_us(10),
            probe: Duration::from_ms(50),
            auth: Duration::from_ms(18),
            assoc: Duration::from_ms(22),
            eapol_m1: Duration::from_ms(45),
            eapol_m3: Duration::from_ms(35),
            dhcp_offer: Duration::from_ms(190),
            dhcp_ack: Duration::from_ms(160),
            arp: Duration::from_ms(65),
        }
    }
}

/// One frame the AP wants transmitted `delay` after the stimulus.
#[derive(Debug, Clone)]
pub struct Response {
    /// Delay relative to receiving the stimulus frame.
    pub delay: Duration,
    /// The complete MPDU.
    pub frame: Vec<u8>,
}

#[derive(Debug)]
struct StaEntry {
    aid: u16,
    authenticator: Option<Authenticator>,
    handshake_done: bool,
    ip: Option<Ipv4Addr>,
}

/// The access point.
#[derive(Debug)]
pub struct AccessPoint {
    /// SSID.
    pub ssid: Vec<u8>,
    passphrase: String,
    /// BSSID.
    pub mac: MacAddr,
    /// The AP/router's IP (also the DHCP server id).
    pub ip: Ipv4Addr,
    /// WiFi channel.
    pub(crate) channel: u8,
    delays: ApDelays,
    stations: HashMap<MacAddr, StaEntry>,
    next_aid: u16,
    seq: SeqControl,
    next_lease: u8,
    nonce_counter: u8,
    /// DTIM period advertised in beacons.
    pub dtim_period: u8,
    dtim_count: u8,
    /// Maximum simultaneous associations (association requests beyond
    /// this are denied with [`StatusCode::ApFull`]).
    pub(crate) max_stations: usize,
}

impl AccessPoint {
    /// A WPA2 AP on `channel`.
    pub fn new(ssid: &[u8], passphrase: &str, mac: MacAddr, channel: u8) -> Self {
        AccessPoint {
            ssid: ssid.to_vec(),
            passphrase: passphrase.to_string(),
            mac,
            ip: Ipv4Addr([192, 168, 86, 1]),
            channel,
            delays: ApDelays::default(),
            stations: HashMap::new(),
            next_aid: 1,
            seq: SeqControl::new(0, 0),
            next_lease: 10,
            nonce_counter: 0,
            dtim_period: 3,
            dtim_count: 0,
            max_stations: 128,
        }
    }

    fn next_seq(&mut self) -> SeqControl {
        let s = self.seq;
        self.seq = self.seq.next_seq();
        s
    }

    /// Station's association id, if associated.
    pub fn aid_of(&self, sta: &MacAddr) -> Option<u16> {
        self.stations.get(sta).map(|e| e.aid)
    }

    /// True once `sta` completed the 4-way handshake.
    pub fn handshake_complete(&self, sta: &MacAddr) -> bool {
        self.stations
            .get(sta)
            .map(|e| e.handshake_done)
            .unwrap_or(false)
    }

    /// The IP the AP leased to `sta`, if any.
    pub fn lease_of(&self, sta: &MacAddr) -> Option<Ipv4Addr> {
        self.stations.get(sta).and_then(|e| e.ip)
    }

    /// Build the AP's next periodic beacon (its TIM counts down to the
    /// next DTIM).
    pub fn beacon(&mut self, timestamp_us: u64) -> Vec<u8> {
        let tim = Tim::empty(self.dtim_count, self.dtim_period);
        self.dtim_count = if self.dtim_count == 0 {
            self.dtim_period - 1
        } else {
            self.dtim_count - 1
        };
        let seq = self.next_seq();
        BeaconBuilder::new(self.mac)
            .timestamp(timestamp_us)
            .interval_tu(100)
            .capability(CapabilityInfo::ap_wpa2())
            .ssid(&self.ssid.clone())
            .supported_rates(&[0x82, 0x84, 0x8B, 0x96, 0x24, 0x30, 0x48, 0x6C])
            .channel(self.channel)
            .rsn(&wile_dot11::ie::Rsn::wpa2_psk())
            .tim(&tim)
            .seq(seq)
            .build()
    }

    /// Process one received frame and produce scheduled responses.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Vec<Response> {
        let Ok(hdr) = MgmtHeader::new_checked(frame) else {
            return Vec::new();
        };
        let fc = hdr.frame_control();
        match fc.frame_type() {
            FrameType::Management => self.handle_mgmt(frame),
            FrameType::Data => self.handle_data(frame),
            FrameType::Control => Vec::new(), // ACKs are handled by the caller loops
            FrameType::Extension => Vec::new(),
        }
    }

    fn ack_to(&self, sta: MacAddr) -> Response {
        Response {
            delay: self.delays.ack,
            frame: build_ack(sta),
        }
    }

    fn handle_mgmt(&mut self, frame: &[u8]) -> Vec<Response> {
        let hdr = MgmtHeader::new_checked(frame).unwrap();
        let Ok(subtype) = hdr.frame_control().mgmt_subtype() else {
            return Vec::new();
        };
        match subtype {
            MgmtSubtype::ProbeReq => {
                let Ok(req) = ProbeReq::new_checked(frame) else {
                    return Vec::new();
                };
                let probed = req.ssid().unwrap_or(b"");
                if !probed.is_empty() && probed != &self.ssid[..] {
                    return Vec::new();
                }
                let resp = ProbeRespBuilder::new(self.mac, req.sta())
                    .ssid(&self.ssid.clone())
                    .capability(CapabilityInfo::ap_wpa2())
                    .supported_rates(&[0x82, 0x84, 0x8B, 0x96])
                    .channel(self.channel)
                    .rsn(&wile_dot11::ie::Rsn::wpa2_psk())
                    .build();
                vec![Response {
                    delay: self.delays.probe,
                    frame: resp,
                }]
            }
            MgmtSubtype::Auth => {
                let Ok(req) = Auth::new_checked(frame) else {
                    return Vec::new();
                };
                let sta = req.sender();
                let resp = AuthBuilder::response(self.mac, sta, StatusCode::Success)
                    .seq(self.next_seq())
                    .build();
                vec![
                    self.ack_to(sta),
                    Response {
                        delay: self.delays.auth,
                        frame: resp,
                    },
                ]
            }
            MgmtSubtype::AssocReq => {
                let Ok(req) = AssocReq::new_checked(frame) else {
                    return Vec::new();
                };
                let sta = req.sta();
                if !self.stations.contains_key(&sta) && self.stations.len() >= self.max_stations {
                    let resp = AssocRespBuilder::new(self.mac, sta, StatusCode::ApFull, 0)
                        .seq(self.next_seq())
                        .build();
                    return vec![
                        self.ack_to(sta),
                        Response {
                            delay: self.delays.assoc,
                            frame: resp,
                        },
                    ];
                }
                let aid = self.next_aid;
                self.next_aid += 1;
                self.nonce_counter = self.nonce_counter.wrapping_add(1);
                let mut anonce = [0u8; 32];
                anonce[0] = self.nonce_counter;
                anonce[31] = 0xA1;
                let auth = Authenticator::new(&self.passphrase, &self.ssid, self.mac, sta, anonce);
                let m1 = auth.message_1();
                self.stations.insert(
                    sta,
                    StaEntry {
                        aid,
                        authenticator: Some(auth),
                        handshake_done: false,
                        ip: None,
                    },
                );
                let resp = AssocRespBuilder::new(self.mac, sta, StatusCode::Success, aid)
                    .seq(self.next_seq())
                    .build();
                let m1_frame = self.eapol_to_sta(sta, &m1);
                vec![
                    self.ack_to(sta),
                    Response {
                        delay: self.delays.assoc,
                        frame: resp,
                    },
                    Response {
                        delay: self.delays.assoc + self.delays.eapol_m1,
                        frame: m1_frame,
                    },
                ]
            }
            MgmtSubtype::Deauth | MgmtSubtype::Disassoc => {
                let sta = hdr.addr2();
                self.stations.remove(&sta);
                vec![self.ack_to(sta)]
            }
            _ => Vec::new(),
        }
    }

    fn eapol_to_sta(&mut self, sta: MacAddr, key: &KeyFrame) -> Vec<u8> {
        let seq = self.next_seq();
        build_data_from_ap(
            self.mac,
            sta,
            self.mac,
            ETHERTYPE_EAPOL,
            &key.to_bytes(),
            seq,
        )
    }

    fn handle_data(&mut self, frame: &[u8]) -> Vec<Response> {
        let Ok(data) = DataFrame::new_checked(frame) else {
            return Vec::new();
        };
        let sta = data.header().addr2();
        let mut out = vec![self.ack_to(sta)];
        match data.ethertype() {
            Some(ETHERTYPE_EAPOL) => {
                if let Some(payload) = data.payload() {
                    if let Ok(key) = KeyFrame::parse(payload) {
                        out.extend(self.handle_eapol(sta, &key));
                    }
                }
            }
            Some(ETHERTYPE_IPV4) => {
                if let Some(payload) = data.payload() {
                    out.extend(self.handle_ipv4(sta, payload));
                }
            }
            Some(ETHERTYPE_ARP) => {
                if let Some(payload) = data.payload() {
                    out.extend(self.handle_arp(sta, payload));
                }
            }
            _ => {}
        }
        out
    }

    fn handle_eapol(&mut self, sta: MacAddr, key: &KeyFrame) -> Vec<Response> {
        let delay_m3 = self.delays.eapol_m3;
        let Some(entry) = self.stations.get_mut(&sta) else {
            return Vec::new();
        };
        let Some(auth) = entry.authenticator.as_mut() else {
            return Vec::new();
        };
        if !auth.is_complete() && auth.ptk().is_none() {
            // Expecting message 2.
            if let Ok(m3) = auth.handle_message_2(key) {
                let frame = self.eapol_to_sta(sta, &m3);
                return vec![Response {
                    delay: delay_m3,
                    frame,
                }];
            }
        } else if auth.handle_message_4(key).is_ok() {
            entry.handshake_done = true;
        }
        Vec::new()
    }

    fn handle_ipv4(&mut self, sta: MacAddr, payload: &[u8]) -> Vec<Response> {
        if !self.handshake_complete(&sta) {
            return Vec::new(); // 802.1X port still closed
        }
        let Some(udp) = ipv4::parse_ipv4_udp(payload) else {
            return Vec::new();
        };
        if udp.dst_port != crate::dhcp::SERVER_PORT {
            return Vec::new(); // plain data, accepted silently
        }
        let Some(msg) = DhcpMessage::parse(udp.payload) else {
            return Vec::new();
        };
        match msg.msg_type {
            DhcpMsgType::Discover => {
                let lease = Ipv4Addr([192, 168, 86, self.next_lease]);
                self.next_lease = self.next_lease.wrapping_add(1).max(10);
                let offer = msg.offer(lease, self.ip);
                let frame = self.dhcp_to_sta(sta, &offer);
                vec![Response {
                    delay: self.delays.dhcp_offer,
                    frame,
                }]
            }
            DhcpMsgType::Request => {
                let ack = msg.ack_for();
                if let Some(e) = self.stations.get_mut(&sta) {
                    e.ip = Some(ack.your_ip);
                }
                let frame = self.dhcp_to_sta(sta, &ack);
                vec![Response {
                    delay: self.delays.dhcp_ack,
                    frame,
                }]
            }
            _ => Vec::new(),
        }
    }

    fn dhcp_to_sta(&mut self, sta: MacAddr, msg: &DhcpMessage) -> Vec<u8> {
        let pkt = ipv4::build_ipv4_udp(
            self.ip,
            Ipv4Addr::BROADCAST,
            crate::dhcp::SERVER_PORT,
            crate::dhcp::CLIENT_PORT,
            &msg.to_bytes(),
        );
        let seq = self.next_seq();
        build_data_from_ap(self.mac, sta, self.mac, ETHERTYPE_IPV4, &pkt, seq)
    }

    fn handle_arp(&mut self, sta: MacAddr, payload: &[u8]) -> Vec<Response> {
        let Some(arp) = ArpPacket::parse(payload) else {
            return Vec::new();
        };
        if arp.is_gratuitous() || arp.target_ip != self.ip {
            return Vec::new();
        }
        let reply = arp.reply_to(self.mac, self.ip);
        let seq = self.next_seq();
        let frame = build_data_from_ap(
            self.mac,
            sta,
            self.mac,
            ETHERTYPE_ARP,
            &reply.to_bytes(),
            seq,
        );
        vec![Response {
            delay: self.delays.arp,
            frame,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_dot11::mgmt::Beacon;

    fn ap() -> AccessPoint {
        AccessPoint::new(
            b"HomeNet",
            "hunter22",
            MacAddr::new([0xAA, 0, 0, 0, 0, 1]),
            6,
        )
    }
    fn sta_mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 5])
    }

    #[test]
    fn responds_to_matching_probe() {
        let mut a = ap();
        let probe = wile_dot11::mgmt::ProbeReqBuilder::new(sta_mac(), b"HomeNet").build();
        let rs = a.handle_frame(&probe);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].delay, a.delays.probe);
    }

    #[test]
    fn ignores_probe_for_other_ssid() {
        let mut a = ap();
        let probe = wile_dot11::mgmt::ProbeReqBuilder::new(sta_mac(), b"OtherNet").build();
        assert!(a.handle_frame(&probe).is_empty());
    }

    #[test]
    fn wildcard_probe_answered() {
        let mut a = ap();
        let probe = wile_dot11::mgmt::ProbeReqBuilder::new(sta_mac(), b"").build();
        assert_eq!(a.handle_frame(&probe).len(), 1);
    }

    #[test]
    fn auth_gets_ack_plus_response() {
        let mut a = ap();
        let auth = AuthBuilder::request(sta_mac(), a.mac).build();
        let rs = a.handle_frame(&auth);
        assert_eq!(rs.len(), 2);
        assert!(rs[0].delay < rs[1].delay);
    }

    #[test]
    fn assoc_allocates_aid_and_starts_eapol() {
        let mut a = ap();
        let req = wile_dot11::mgmt::AssocReqBuilder::new(sta_mac(), a.mac, b"HomeNet").build();
        let rs = a.handle_frame(&req);
        // ACK + assoc resp + EAPOL M1.
        assert_eq!(rs.len(), 3);
        assert_eq!(a.aid_of(&sta_mac()), Some(1));
        // The third response is an EAPOL data frame.
        let data = DataFrame::new_checked(&rs[2].frame[..]).unwrap();
        assert_eq!(data.ethertype(), Some(ETHERTYPE_EAPOL));
        let key = KeyFrame::parse(data.payload().unwrap()).unwrap();
        assert!(key.wants_ack());
    }

    #[test]
    fn dtim_counts_down() {
        let mut a = ap();
        let counts: Vec<u8> = (0..6)
            .map(|i| {
                let b = a.beacon(i);
                Beacon::new_checked(&b[..])
                    .unwrap()
                    .tim()
                    .unwrap()
                    .dtim_count
            })
            .collect();
        assert_eq!(counts, [0, 2, 1, 0, 2, 1]);
    }

    #[test]
    fn dhcp_blocked_before_handshake() {
        let mut a = ap();
        let req = wile_dot11::mgmt::AssocReqBuilder::new(sta_mac(), a.mac, b"HomeNet").build();
        a.handle_frame(&req);
        // Try DHCP without completing EAPOL: only the MAC ACK comes back.
        let discover = DhcpMessage::discover(1, sta_mac());
        let pkt = ipv4::build_ipv4_udp(
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            68,
            67,
            &discover.to_bytes(),
        );
        let frame = wile_dot11::data::build_data_to_ap(
            sta_mac(),
            a.mac,
            MacAddr::BROADCAST,
            ETHERTYPE_IPV4,
            &pkt,
            SeqControl::new(0, 0),
        );
        let rs = a.handle_frame(&frame);
        assert_eq!(rs.len(), 1); // just the ACK
    }

    #[test]
    fn full_ap_denies_association() {
        let mut a = ap();
        a.max_stations = 1;
        let first = wile_dot11::mgmt::AssocReqBuilder::new(sta_mac(), a.mac, b"HomeNet").build();
        a.handle_frame(&first);
        assert_eq!(a.aid_of(&sta_mac()), Some(1));
        // A second station is denied.
        let other = MacAddr::new([2, 0, 0, 0, 0, 6]);
        let second = wile_dot11::mgmt::AssocReqBuilder::new(other, a.mac, b"HomeNet").build();
        let rs = a.handle_frame(&second);
        assert_eq!(rs.len(), 2); // ACK + denial, no EAPOL M1
        let resp = wile_dot11::mgmt::AssocResp::new_checked(&rs[1].frame[..]).unwrap();
        assert_eq!(resp.status(), StatusCode::ApFull);
        assert_eq!(a.aid_of(&other), None);
        // Re-association of the existing station is still allowed.
        let again = a.handle_frame(&first);
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn garbage_frames_ignored() {
        let mut a = ap();
        assert!(a.handle_frame(&[0u8; 5]).is_empty());
        assert!(a.handle_frame(&[0xFF; 40]).is_empty());
    }
}

//! DHCP (RFC 2131) — the four-message DISCOVER/OFFER/REQUEST/ACK lease
//! acquisition a freshly associated client performs. Real BOOTP layout
//! with the magic cookie and option TLVs.

use crate::ipv4::Ipv4Addr;
use wile_dot11::MacAddr;

/// DHCP client port.
pub(crate) const CLIENT_PORT: u16 = 68;
/// DHCP server port.
pub(crate) const SERVER_PORT: u16 = 67;
/// The BOOTP options magic cookie.
pub(crate) const MAGIC_COOKIE: [u8; 4] = [99, 130, 83, 99];

/// DHCP message type (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum DhcpMsgType {
    Discover,
    Offer,
    Request,
    Ack,
    Nak,
}

impl DhcpMsgType {
    fn to_u8(self) -> u8 {
        match self {
            DhcpMsgType::Discover => 1,
            DhcpMsgType::Offer => 2,
            DhcpMsgType::Request => 3,
            DhcpMsgType::Ack => 5,
            DhcpMsgType::Nak => 6,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => DhcpMsgType::Discover,
            2 => DhcpMsgType::Offer,
            3 => DhcpMsgType::Request,
            5 => DhcpMsgType::Ack,
            6 => DhcpMsgType::Nak,
            _ => return None,
        })
    }
}

/// A decoded DHCP message (the fields this reproduction uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// Message type.
    pub(crate) msg_type: DhcpMsgType,
    /// Transaction id, echoed across the four messages.
    pub(crate) xid: u32,
    /// `yiaddr` — the address being offered/assigned.
    pub your_ip: Ipv4Addr,
    /// `siaddr`/server-id — the DHCP server.
    pub(crate) server_ip: Ipv4Addr,
    /// Client hardware address.
    pub(crate) client_mac: MacAddr,
    /// Requested IP (option 50), if present.
    pub requested_ip: Option<Ipv4Addr>,
}

impl DhcpMessage {
    /// A client DISCOVER.
    pub fn discover(xid: u32, client_mac: MacAddr) -> Self {
        DhcpMessage {
            msg_type: DhcpMsgType::Discover,
            xid,
            your_ip: Ipv4Addr::UNSPECIFIED,
            server_ip: Ipv4Addr::UNSPECIFIED,
            client_mac,
            requested_ip: None,
        }
    }

    /// The server's OFFER in response to a DISCOVER.
    pub fn offer(&self, offered: Ipv4Addr, server: Ipv4Addr) -> Self {
        DhcpMessage {
            msg_type: DhcpMsgType::Offer,
            xid: self.xid,
            your_ip: offered,
            server_ip: server,
            client_mac: self.client_mac,
            requested_ip: None,
        }
    }

    /// The client's REQUEST for an offered address.
    pub fn request_for(&self) -> Self {
        DhcpMessage {
            msg_type: DhcpMsgType::Request,
            xid: self.xid,
            your_ip: Ipv4Addr::UNSPECIFIED,
            server_ip: self.server_ip,
            client_mac: self.client_mac,
            requested_ip: Some(self.your_ip),
        }
    }

    /// The server's ACK confirming a REQUEST.
    pub fn ack_for(&self) -> Self {
        DhcpMessage {
            msg_type: DhcpMsgType::Ack,
            xid: self.xid,
            your_ip: self.requested_ip.unwrap_or(Ipv4Addr::UNSPECIFIED),
            server_ip: self.server_ip,
            client_mac: self.client_mac,
            requested_ip: None,
        }
    }

    /// Serialize to the BOOTP wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = vec![0u8; 240];
        let is_reply = matches!(
            self.msg_type,
            DhcpMsgType::Offer | DhcpMsgType::Ack | DhcpMsgType::Nak
        );
        b[0] = if is_reply { 2 } else { 1 }; // op
        b[1] = 1; // htype Ethernet
        b[2] = 6; // hlen
        b[4..8].copy_from_slice(&self.xid.to_be_bytes());
        b[10] = 0x80; // broadcast flag: client has no unicast IP yet
        b[16..20].copy_from_slice(&self.your_ip.0);
        b[20..24].copy_from_slice(&self.server_ip.0);
        b[28..34].copy_from_slice(&self.client_mac.octets());
        b[236..240].copy_from_slice(&MAGIC_COOKIE);
        // Options.
        b.extend_from_slice(&[53, 1, self.msg_type.to_u8()]);
        if let Some(ip) = self.requested_ip {
            b.extend_from_slice(&[50, 4]);
            b.extend_from_slice(&ip.0);
        }
        if self.server_ip != Ipv4Addr::UNSPECIFIED {
            b.extend_from_slice(&[54, 4]);
            b.extend_from_slice(&self.server_ip.0);
        }
        b.push(255); // end
        b
    }

    /// Parse from the BOOTP wire format.
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 241 || b[236..240] != MAGIC_COOKIE {
            return None;
        }
        let xid = u32::from_be_bytes(b[4..8].try_into().unwrap());
        let your_ip = Ipv4Addr([b[16], b[17], b[18], b[19]]);
        let mut server_ip = Ipv4Addr([b[20], b[21], b[22], b[23]]);
        let client_mac = MacAddr::from_slice(&b[28..34]).ok()?;
        let mut msg_type = None;
        let mut requested_ip = None;
        let mut opts = &b[240..];
        while opts.len() >= 2 && opts[0] != 255 {
            if opts[0] == 0 {
                opts = &opts[1..];
                continue;
            }
            let len = opts[1] as usize;
            if opts.len() < 2 + len {
                return None;
            }
            let data = &opts[2..2 + len];
            match opts[0] {
                53 if len == 1 => msg_type = DhcpMsgType::from_u8(data[0]),
                50 if len == 4 => {
                    requested_ip = Some(Ipv4Addr([data[0], data[1], data[2], data[3]]))
                }
                54 if len == 4 => server_ip = Ipv4Addr([data[0], data[1], data[2], data[3]]),
                _ => {}
            }
            opts = &opts[2 + len..];
        }
        Some(DhcpMessage {
            msg_type: msg_type?,
            xid,
            your_ip,
            server_ip,
            client_mac,
            requested_ip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 7])
    }

    #[test]
    fn full_four_message_exchange() {
        let server_ip = Ipv4Addr([192, 168, 86, 1]);
        let lease = Ipv4Addr([192, 168, 86, 42]);
        let discover = DhcpMessage::discover(0xDEADBEEF, mac());
        let offer = discover.offer(lease, server_ip);
        let request = offer.request_for();
        let ack = request.ack_for();

        assert_eq!(offer.xid, 0xDEADBEEF);
        assert_eq!(request.requested_ip, Some(lease));
        assert_eq!(ack.your_ip, lease);
        assert_eq!(ack.msg_type, DhcpMsgType::Ack);
    }

    #[test]
    fn wire_round_trip_all_types() {
        let server_ip = Ipv4Addr([192, 168, 86, 1]);
        let lease = Ipv4Addr([192, 168, 86, 42]);
        let d = DhcpMessage::discover(7, mac());
        let o = d.offer(lease, server_ip);
        let r = o.request_for();
        let a = r.ack_for();
        for msg in [d, o, r, a] {
            let parsed = DhcpMessage::parse(&msg.to_bytes()).unwrap();
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn magic_cookie_required() {
        let mut b = DhcpMessage::discover(1, mac()).to_bytes();
        b[236] = 0;
        assert!(DhcpMessage::parse(&b).is_none());
    }

    #[test]
    fn op_field_direction() {
        let d = DhcpMessage::discover(1, mac());
        assert_eq!(d.to_bytes()[0], 1);
        let o = d.offer(Ipv4Addr([1, 2, 3, 4]), Ipv4Addr([1, 2, 3, 1]));
        assert_eq!(o.to_bytes()[0], 2);
    }

    #[test]
    fn truncated_options_rejected() {
        let mut b = DhcpMessage::discover(1, mac()).to_bytes();
        // Claim an option longer than the buffer.
        let n = b.len();
        b[n - 1] = 50; // replace END with option 50
        b.push(200); // absurd length, no data
        assert!(DhcpMessage::parse(&b).is_none());
    }

    #[test]
    fn message_without_type_option_rejected() {
        let mut b = DhcpMessage::discover(1, mac()).to_bytes();
        b[241] = 99; // corrupt option 53's tag
        assert!(DhcpMessage::parse(&b).is_none());
    }
}

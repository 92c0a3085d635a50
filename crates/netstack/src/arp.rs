//! ARP (RFC 826) over Ethernet/IPv4 — the client resolves the gateway's
//! MAC before its first IP transmission (part of the paper's "7
//! higher-layer frames").

use crate::ipv4::Ipv4Addr;
use wile_dot11::MacAddr;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// An ARP packet for Ethernet/IPv4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub(crate) op: ArpOp,
    /// Sender hardware address.
    pub(crate) sender_mac: MacAddr,
    /// Sender protocol address.
    pub(crate) sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub(crate) target_mac: MacAddr,
    /// Target protocol address.
    pub(crate) target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A who-has request from (`mac`, `ip`) for `target_ip`.
    pub fn request(mac: MacAddr, ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// A gratuitous ARP announcing (`mac`, `ip`) — DHCP clients send one
    /// after accepting a lease.
    pub(crate) fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: ip,
        }
    }

    /// The reply this request solicits, from (`mac`, `ip`).
    pub fn reply_to(&self, mac: MacAddr, ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: self.sender_mac,
            target_ip: self.sender_ip,
        }
    }

    /// Serialize (28 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28);
        out.extend_from_slice(&1u16.to_be_bytes()); // HTYPE Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // PTYPE IPv4
        out.push(6); // HLEN
        out.push(4); // PLEN
        out.extend_from_slice(
            &match self.op {
                ArpOp::Request => 1u16,
                ArpOp::Reply => 2u16,
            }
            .to_be_bytes(),
        );
        out.extend_from_slice(&self.sender_mac.octets());
        out.extend_from_slice(&self.sender_ip.0);
        out.extend_from_slice(&self.target_mac.octets());
        out.extend_from_slice(&self.target_ip.0);
        out
    }

    /// Parse.
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 28 || b[..6] != [0, 1, 8, 0, 6, 4] {
            return None;
        }
        let op = match u16::from_be_bytes([b[6], b[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpPacket {
            op,
            sender_mac: MacAddr::from_slice(&b[8..14]).ok()?,
            sender_ip: Ipv4Addr([b[14], b[15], b[16], b[17]]),
            target_mac: MacAddr::from_slice(&b[18..24]).ok()?,
            target_ip: Ipv4Addr([b[24], b[25], b[26], b[27]]),
        })
    }

    /// True for gratuitous announcements (sender ip == target ip).
    pub(crate) fn is_gratuitous(&self) -> bool {
        self.op == ArpOp::Request && self.sender_ip == self.target_ip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    #[test]
    fn request_reply_round_trip() {
        let req = ArpPacket::request(mac(1), Ipv4Addr([10, 0, 0, 5]), Ipv4Addr([10, 0, 0, 1]));
        let bytes = req.to_bytes();
        assert_eq!(bytes.len(), 28);
        let parsed = ArpPacket::parse(&bytes).unwrap();
        assert_eq!(parsed, req);

        let reply = req.reply_to(mac(2), Ipv4Addr([10, 0, 0, 1]));
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.target_mac, mac(1));
        let parsed = ArpPacket::parse(&reply.to_bytes()).unwrap();
        assert_eq!(parsed, reply);
    }

    #[test]
    fn gratuitous_detection() {
        let g = ArpPacket::gratuitous(mac(3), Ipv4Addr([10, 0, 0, 9]));
        assert!(g.is_gratuitous());
        let req = ArpPacket::request(mac(3), Ipv4Addr([10, 0, 0, 9]), Ipv4Addr([10, 0, 0, 1]));
        assert!(!req.is_gratuitous());
    }

    #[test]
    fn parse_rejects_non_ethernet_ipv4() {
        let mut bytes = ArpPacket::gratuitous(mac(1), Ipv4Addr([1, 2, 3, 4])).to_bytes();
        bytes[1] = 6; // HTYPE = IEEE 802
        assert!(ArpPacket::parse(&bytes).is_none());
    }

    #[test]
    fn parse_rejects_short() {
        assert!(ArpPacket::parse(&[0, 1, 8, 0, 6, 4, 0, 1]).is_none());
    }
}

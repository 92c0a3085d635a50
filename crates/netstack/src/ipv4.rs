//! Minimal IPv4 + UDP encoding — just enough to carry DHCP, with real
//! header checksums.

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// 0.0.0.0 — the unconfigured source a DHCP client uses.
    pub(crate) const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0, 0, 0, 0]);
    /// 255.255.255.255 — limited broadcast.
    pub(crate) const BROADCAST: Ipv4Addr = Ipv4Addr([255, 255, 255, 255]);
}

impl core::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol number for UDP.
pub(crate) const PROTO_UDP: u8 = 17;

/// The Internet checksum (RFC 1071) over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Build an IPv4 packet around a UDP datagram.
pub fn build_ipv4_udp(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp_len = 8 + payload.len();
    let total_len = 20 + udp_len;
    let mut ip = Vec::with_capacity(total_len);
    ip.push(0x45); // version 4, IHL 5
    ip.push(0); // DSCP/ECN
    ip.extend_from_slice(&(total_len as u16).to_be_bytes());
    ip.extend_from_slice(&[0, 0]); // identification
    ip.extend_from_slice(&[0, 0]); // flags/fragment
    ip.push(64); // TTL
    ip.push(PROTO_UDP);
    ip.extend_from_slice(&[0, 0]); // checksum placeholder
    ip.extend_from_slice(&src.0);
    ip.extend_from_slice(&dst.0);
    let csum = internet_checksum(&ip[..20]);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());

    ip.extend_from_slice(&src_port.to_be_bytes());
    ip.extend_from_slice(&dst_port.to_be_bytes());
    ip.extend_from_slice(&(udp_len as u16).to_be_bytes());
    ip.extend_from_slice(&[0, 0]); // UDP checksum optional over IPv4
    ip.extend_from_slice(payload);
    ip
}

/// Parsed view of an IPv4+UDP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// UDP payload.
    pub payload: &'a [u8],
}

/// Parse an IPv4+UDP packet, verifying the IP header checksum.
pub fn parse_ipv4_udp(b: &[u8]) -> Option<UdpView<'_>> {
    if b.len() < 28 || b[0] != 0x45 || b[9] != PROTO_UDP {
        return None;
    }
    if internet_checksum(&b[..20]) != 0 {
        return None;
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]) as usize;
    if total_len > b.len() || total_len < 28 {
        return None;
    }
    let udp_len = u16::from_be_bytes([b[24], b[25]]) as usize;
    if 20 + udp_len > total_len {
        return None;
    }
    Some(UdpView {
        src: Ipv4Addr([b[12], b[13], b[14], b[15]]),
        dst: Ipv4Addr([b[16], b[17], b[18], b[19]]),
        src_port: u16::from_be_bytes([b[20], b[21]]),
        dst_port: u16::from_be_bytes([b[22], b[23]]),
        payload: &b[28..20 + udp_len],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_rfc1071_example() {
        // Classic example: checksum over 0x0001 0xf203 0xf4f5 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        // Trailing byte padded with zero.
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn udp_round_trip() {
        let pkt = build_ipv4_udp(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST, 68, 67, b"dhcp");
        let v = parse_ipv4_udp(&pkt).unwrap();
        assert_eq!(v.src, Ipv4Addr::UNSPECIFIED);
        assert_eq!(v.dst, Ipv4Addr::BROADCAST);
        assert_eq!(v.src_port, 68);
        assert_eq!(v.dst_port, 67);
        assert_eq!(v.payload, b"dhcp");
    }

    #[test]
    fn header_checksum_verifies_and_detects_damage() {
        let mut pkt = build_ipv4_udp(Ipv4Addr([10, 0, 0, 1]), Ipv4Addr([10, 0, 0, 2]), 1, 2, b"x");
        assert_eq!(internet_checksum(&pkt[..20]), 0);
        pkt[8] ^= 0x01; // TTL
        assert!(parse_ipv4_udp(&pkt).is_none());
    }

    #[test]
    fn truncated_rejected() {
        let pkt = build_ipv4_udp(
            Ipv4Addr([1, 1, 1, 1]),
            Ipv4Addr([2, 2, 2, 2]),
            1,
            2,
            b"hello",
        );
        assert!(parse_ipv4_udp(&pkt[..27]).is_none());
    }

    #[test]
    fn display_address() {
        assert_eq!(Ipv4Addr([192, 168, 86, 1]).to_string(), "192.168.86.1");
    }
}

//! IEEE 802 48-bit MAC addresses.

use crate::error::{Error, Result};
use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// ```
/// use wile_dot11::MacAddr;
/// let a: MacAddr = "02:d0:17:1e:00:01".parse().unwrap();
/// assert!(a.is_locally_administered());
/// assert_eq!(a.to_string(), "02:d0:17:1e:00:01");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff` — the receiver address of
    /// every beacon frame, including injected Wi-LE beacons.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// The all-zero address (used as a placeholder before assignment).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Parse from a 6-byte slice.
    pub fn from_slice(b: &[u8]) -> Result<Self> {
        if b.len() < 6 {
            return Err(Error::Truncated);
        }
        Ok(MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]))
    }

    /// True for `ff:ff:ff:ff:ff:ff`.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True when the universal/local bit is set. Wi-LE devices use locally
    /// administered addresses so they can never collide with real vendors.
    pub const fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// The 24-bit organizationally unique identifier (first three octets).
    pub const fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Derive a deterministic locally-administered unicast address from a
    /// 32-bit device identifier. Used by the Wi-LE device registry.
    pub const fn from_device_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 prefix: locally administered, unicast.
        MacAddr([0x02, 0x1E, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl FromStr for MacAddr {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let mut octets = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for o in octets.iter_mut() {
            let p = parts.next().ok_or(Error::BadValue)?;
            *o = u8::from_str_radix(p, 16).map_err(|_| Error::BadValue)?;
        }
        if parts.next().is_some() {
            return Err(Error::BadValue);
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "00:11:22:33:44:55",
            "ff:ff:ff:ff:ff:ff",
            "02:d0:17:1e:00:01",
        ] {
            let a: MacAddr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn parse_dash_separated() {
        let a: MacAddr = "00-11-22-33-44-55".parse().unwrap();
        assert_eq!(a.octets(), [0, 0x11, 0x22, 0x33, 0x44, 0x55]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn from_slice_checks_length() {
        assert_eq!(MacAddr::from_slice(&[1, 2, 3]), Err(Error::Truncated));
        assert!(MacAddr::from_slice(&[1, 2, 3, 4, 5, 6, 7]).is_ok());
    }

    #[test]
    fn device_id_addresses_are_local_unicast_and_distinct() {
        let a = MacAddr::from_device_id(1);
        let b = MacAddr::from_device_id(2);
        assert_ne!(a, b);
        for m in [a, b, MacAddr::from_device_id(u32::MAX)] {
            assert!(m.is_locally_administered());
            assert_eq!(m.octets()[0] & 0x01, 0, "unicast");
        }
    }

    #[test]
    fn oui_extraction() {
        let a: MacAddr = "d0:17:1e:00:00:07".parse().unwrap();
        assert_eq!(a.oui(), [0xD0, 0x17, 0x1E]);
    }
}

//! AD structures: the TLV encoding inside AdvData.
//!
//! Each structure is `length (1) | type (1) | data (length-1)`. IoT
//! sensors put their readings in Manufacturer Specific Data (0xFF),
//! which is the BLE analogue of the vendor-specific IE Wi-LE uses.

/// AD type: Manufacturer Specific Data.
pub(crate) const AD_MANUFACTURER: u8 = 0xFF;

/// Append one AD structure; returns false (appending nothing) if it
/// would exceed the 31-byte AdvData budget.
pub fn push_ad(out: &mut Vec<u8>, ad_type: u8, data: &[u8]) -> bool {
    let needed = 2 + data.len();
    if out.len() + needed > crate::pdu::MAX_ADV_DATA || data.len() > 29 {
        return false;
    }
    out.push((1 + data.len()) as u8);
    out.push(ad_type);
    out.extend_from_slice(data);
    true
}

/// Append a Manufacturer Specific Data structure (16-bit company id,
/// little-endian, then payload).
pub fn push_manufacturer(out: &mut Vec<u8>, company_id: u16, payload: &[u8]) -> bool {
    let mut data = Vec::with_capacity(2 + payload.len());
    data.extend_from_slice(&company_id.to_le_bytes());
    data.extend_from_slice(payload);
    push_ad(out, AD_MANUFACTURER, &data)
}

/// Iterate AD structures as `(type, data)` pairs; stops at malformation.
pub fn iter_ads(adv_data: &[u8]) -> impl Iterator<Item = (u8, &[u8])> + '_ {
    let mut rest = adv_data;
    std::iter::from_fn(move || {
        if rest.len() < 2 {
            return None;
        }
        let len = rest[0] as usize;
        if len == 0 || rest.len() < 1 + len {
            return None;
        }
        let ad_type = rest[1];
        let data = &rest[2..1 + len];
        rest = &rest[1 + len..];
        Some((ad_type, data))
    })
}

/// Find the manufacturer payload for `company_id`, if present.
pub fn find_manufacturer(adv_data: &[u8], company_id: u16) -> Option<&[u8]> {
    iter_ads(adv_data).find_map(|(t, d)| {
        if t == AD_MANUFACTURER && d.len() >= 2 && u16::from_le_bytes([d[0], d[1]]) == company_id {
            Some(&d[2..])
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AD type: Flags.
    const AD_FLAGS: u8 = 0x01;

    #[test]
    fn build_and_iterate() {
        let mut adv = Vec::new();
        assert!(push_ad(&mut adv, AD_FLAGS, &[0x06]));
        assert!(push_manufacturer(&mut adv, 0x0059, b"t=21"));
        let ads: Vec<_> = iter_ads(&adv).collect();
        assert_eq!(ads.len(), 2);
        assert_eq!(ads[0], (AD_FLAGS, &[0x06][..]));
        assert_eq!(ads[1].0, AD_MANUFACTURER);
    }

    #[test]
    fn find_manufacturer_by_company() {
        let mut adv = Vec::new();
        push_manufacturer(&mut adv, 0x0059, b"nordic");
        push_manufacturer(&mut adv, 0x000D, b"ti");
        assert_eq!(find_manufacturer(&adv, 0x000D), Some(&b"ti"[..]));
        assert_eq!(find_manufacturer(&adv, 0x0059), Some(&b"nordic"[..]));
        assert_eq!(find_manufacturer(&adv, 0xFFFF), None);
    }

    #[test]
    fn budget_enforced() {
        let mut adv = Vec::new();
        assert!(push_ad(&mut adv, AD_FLAGS, &[0x06]));
        // 3 bytes used; a 28-byte-data AD needs 30 → exceeds 31.
        assert!(!push_ad(&mut adv, AD_MANUFACTURER, &[0u8; 28]));
        assert_eq!(adv.len(), 3); // nothing was appended
                                  // Exactly filling works: 28 more bytes = 2 + 26.
        assert!(push_ad(&mut adv, AD_MANUFACTURER, &[0u8; 26]));
        assert_eq!(adv.len(), 31);
    }

    #[test]
    fn malformed_tail_stops_iteration() {
        // Valid flags AD then a length that overruns.
        let adv = [2u8, AD_FLAGS, 0x06, 30, 0xFF, 1, 2];
        let ads: Vec<_> = iter_ads(&adv).collect();
        assert_eq!(ads.len(), 1);
    }

    #[test]
    fn zero_length_ad_stops_iteration() {
        let adv = [0u8, 0, 0];
        assert_eq!(iter_ads(&adv).count(), 0);
    }
}

//! Beacon-stuffing — the §2 related work ("the work closest to ours",
//! Chandra et al. 2007; Zehl et al. 2016).
//!
//! Beacon-stuffing overloads fields of the *access point's* beacons to
//! multicast data (location ads, configuration) to nearby clients
//! without association. Wi-LE inverts the direction: the *IoT device*
//! injects beacons to get data out. Implementing both on the same
//! substrate makes the §2 comparison concrete:
//!
//! * beacon-stuffing needs AP cooperation and is downlink-only;
//! * Wi-LE needs no infrastructure at all and is uplink;
//! * both ride the same vendor-IE carrier, so the codecs are shared.

use crate::ap::AccessPoint;
use wile_dot11::ie;
use wile_dot11::mgmt::Beacon;

/// The OUI beacon-stuffed payloads ride under (distinct from Wi-LE's,
/// so both can coexist in the same air).
pub(crate) const STUFFING_OUI: [u8; 3] = [0xB5, 0x7F, 0x01];
/// Vendor subtype for stuffed content.
pub(crate) const STUFFING_VTYPE: u8 = 0x10;

/// Build the AP's next beacon with `content` stuffed into a vendor IE
/// (on top of its normal SSID/TIM duties).
pub fn stuffed_beacon(ap: &mut AccessPoint, timestamp_us: u64, content: &[u8]) -> Vec<u8> {
    assert!(
        content.len() <= ie::VENDOR_MAX_PAYLOAD,
        "stuffing payload too large"
    );
    let base = ap.beacon(timestamp_us);
    // Splice the vendor IE in before the FCS and refresh it.
    let mut frame = base;
    frame.truncate(frame.len() - 4);
    ie::push_vendor(&mut frame, STUFFING_OUI, STUFFING_VTYPE, content).expect("bounded");
    wile_dot11::fcs::append_fcs(&mut frame);
    frame
}

/// Client side: extract stuffed content from any beacon.
pub fn extract_stuffed<'a>(beacon: &'a Beacon<&'a [u8]>) -> Option<&'a [u8]> {
    ie::vendor_elements(beacon.elements(), STUFFING_OUI, STUFFING_VTYPE)
        .next()
        .map(|v| v.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_dot11::MacAddr;

    fn ap() -> AccessPoint {
        AccessPoint::new(b"CoffeeShop", "pw", MacAddr::new([0xAA; 6]), 6)
    }

    #[test]
    fn stuffed_beacon_round_trip() {
        let mut a = ap();
        let frame = stuffed_beacon(&mut a, 1000, b"50% off lattes until 3pm");
        assert!(wile_dot11::fcs::check_fcs(&frame));
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(extract_stuffed(&b), Some(&b"50% off lattes until 3pm"[..]));
        // The beacon still works as a normal AP beacon.
        assert_eq!(b.ssid().unwrap(), Some(&b"CoffeeShop"[..]));
        assert!(b.tim().is_ok());
    }

    #[test]
    fn unstuffed_beacon_yields_none() {
        let mut a = ap();
        let frame = a.beacon(0);
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert_eq!(extract_stuffed(&b), None);
    }

    #[test]
    fn stuffing_and_wile_coexist_without_crosstalk() {
        // A Wi-LE gateway must not deliver stuffed AP content, and a
        // stuffing client must not see Wi-LE payloads.
        let mut a = ap();
        let stuffed = stuffed_beacon(&mut a, 0, b"ad");
        let b = Beacon::new_checked(&stuffed[..]).unwrap();
        // Wi-LE fragments filter by the Wi-LE OUI: none here.
        assert!(
            wile_dot11::ie::vendor_elements(b.elements(), [0xD0, 0x17, 0x1E], 1)
                .next()
                .is_none()
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_stuffing_rejected() {
        let mut a = ap();
        stuffed_beacon(&mut a, 0, &[0u8; 300]);
    }

    #[test]
    fn direction_contrast_with_wile() {
        // Beacon-stuffing frames originate at the AP (BSSID == AP MAC
        // with a visible SSID); Wi-LE frames originate at devices
        // (hidden SSID, locally administered source). The structural
        // difference §2 describes, checked on bytes. (Use a real-vendor
        // style universal MAC for the AP here: 0xA8 has the U/L bit
        // clear, unlike the 0xAA used elsewhere in these tests.)
        let mut a = AccessPoint::new(b"CoffeeShop", "pw", MacAddr::new([0xA8, 1, 2, 3, 4, 5]), 6);
        let stuffed = stuffed_beacon(&mut a, 0, b"x");
        let sb = Beacon::new_checked(&stuffed[..]).unwrap();
        assert!(!sb.is_hidden_ssid());
        assert!(!sb.bssid().is_locally_administered());
    }
}

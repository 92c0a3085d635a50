//! BLE advertising channels.
//!
//! BLE places its three advertising channels (37, 38, 39) at 2402, 2426
//! and 2480 MHz — deliberately between WiFi channels 1, 6 and 11. The
//! paper's motivation section notes Wi-LE can instead move to 5 GHz to
//! "avoid the increasingly crowded 2.4 GHz spectrum used by BLE".

/// The three advertising channel indices.
pub(crate) const ADV_CHANNELS: [u8; 3] = [37, 38, 39];

/// Centre frequency in MHz of a BLE RF channel index (0–39).
pub(crate) fn freq_mhz(channel_idx: u8) -> u16 {
    match channel_idx {
        37 => 2402,
        38 => 2426,
        39 => 2480,
        // Data channels 0..=36 fill the remaining 2 MHz slots.
        i if i <= 10 => 2404 + 2 * i as u16,
        i if i <= 36 => 2428 + 2 * (i as u16 - 11),
        _ => panic!("BLE channel index 0-39"),
    }
}

/// True when a BLE RF channel overlaps the *occupied* bandwidth of a
/// WiFi OFDM channel centred per the 2.4 GHz plan (2412 + 5·(n−1) MHz).
/// OFDM occupies ≈16.6 MHz of the nominal 20; BLE channels are 2 MHz
/// wide, so the threshold is 8.3 + 1 ≈ 9.3 MHz; advertising channel 37
/// (2402 MHz) thus clears WiFi 1 (2412 MHz) by design.
pub fn overlaps_wifi_channel(ble_idx: u8, wifi_channel: u8) -> bool {
    let wifi_centre = 2412.0 + 5.0 * (wifi_channel as f64 - 1.0);
    let ble = freq_mhz(ble_idx) as f64;
    (ble - wifi_centre).abs() < 9.3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advertising_channel_frequencies() {
        assert_eq!(freq_mhz(37), 2402);
        assert_eq!(freq_mhz(38), 2426);
        assert_eq!(freq_mhz(39), 2480);
    }

    #[test]
    fn data_channels_tile_the_band() {
        assert_eq!(freq_mhz(0), 2404);
        assert_eq!(freq_mhz(10), 2424);
        assert_eq!(freq_mhz(11), 2428);
        assert_eq!(freq_mhz(36), 2478);
    }

    #[test]
    fn adv_channels_dodge_wifi_1_6_11() {
        // The design intent: the three advertising channels avoid the
        // standard non-overlapping WiFi trio.
        for ble in ADV_CHANNELS {
            for wifi in [1u8, 6, 11] {
                assert!(
                    !overlaps_wifi_channel(ble, wifi),
                    "BLE {ble} overlaps WiFi {wifi}"
                );
            }
        }
    }

    #[test]
    fn data_channels_do_overlap_wifi() {
        assert!(overlaps_wifi_channel(0, 1)); // 2404 vs 2412
        assert!(overlaps_wifi_channel(11, 6)); // 2428 vs 2437
    }

    #[test]
    #[should_panic]
    fn invalid_channel_panics() {
        freq_mhz(40);
    }
}

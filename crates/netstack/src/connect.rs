//! The full connection choreography over the simulated medium — the
//! code path behind Figure 3a and the WiFi-DC column of Table 1.
//!
//! A duty-cycled client wakes from deep sleep, boots, brings up the WiFi
//! stack, exchanges the whole §3.1 sequence with the AP (every frame
//! actually crossing the simulated air), transmits one sensor reading,
//! and drops back into deep sleep. The client's [`wile_device::Mcu`] is
//! driven through the matching power states so the resulting trace can
//! be sampled and integrated exactly like the paper's measurement.

use crate::ap::AccessPoint;
use crate::sta::{StaPhase, StaTx, Station};
use wile_device::{Mcu, StateTrace};
use wile_dot11::ctrl::build_ack;
use wile_dot11::data::{DataFrame, ETHERTYPE_EAPOL};
use wile_dot11::mac::{FrameType, MgmtHeader};
use wile_dot11::phy::{ack_airtime_us, frame_airtime_us, PhyRate};
use wile_radio::medium::{Medium, RadioId, TxParams};
use wile_radio::time::{Duration, Instant};

/// Tunables of one connection run.
#[derive(Debug, Clone)]
pub struct ConnectConfig {
    /// Deep sleep shown before the wake ramp (Fig. 3a starts at 0.2 s).
    pub(crate) sleep_before: Duration,
    /// The sensor payload to deliver once connected.
    pub(crate) payload: Vec<u8>,
    /// On-MCU PBKDF2 passphrase→PSK derivation time (4096 HMAC-SHA1
    /// rounds on an 80 MHz core).
    pub(crate) psk_compute: Duration,
    /// Client-side processing before each protocol transmission.
    pub(crate) proc_delay: Duration,
    /// Extra client-side work while committing the DHCP lease.
    pub(crate) lease_commit: Duration,
    /// PHY rate for management and data exchanges.
    pub rate: PhyRate,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// How long to listen for a probe response before re-probing.
    pub probe_timeout: Duration,
    /// Probe attempts before declaring the AP unreachable and going
    /// back to sleep (what a real supplicant's scan does).
    pub(crate) max_probe_attempts: u32,
}

impl Default for ConnectConfig {
    fn default() -> Self {
        ConnectConfig {
            sleep_before: Duration::from_ms(200),
            payload: b"t=21.5C".to_vec(),
            psk_compute: Duration::from_ms(80),
            proc_delay: Duration::from_ms(2),
            lease_commit: Duration::from_ms(55),
            rate: PhyRate::Ofdm(24),
            tx_power_dbm: 0.0,
            probe_timeout: Duration::from_ms(120),
            max_probe_attempts: 3,
        }
    }
}

/// What one connection run produced.
#[derive(Debug)]
pub struct ConnectionOutcome {
    /// The client's power trace (sample it with `wile-instrument`).
    pub trace: StateTrace,
    /// Whether the sequence completed and the sensor reading was sent.
    pub connected: bool,
    /// MAC-layer frames on the air (management + control + EAPOL),
    /// the paper's "20 MAC-layer frames" population.
    pub mac_frames: usize,
    /// Higher-layer frames (DHCP, ARP, sensor data).
    pub higher_layer_frames: usize,
    /// Wake instant (start of the boot ramp).
    pub t_wake: Instant,
    /// Instant the sensor payload finished transmitting.
    pub t_data_sent: Instant,
    /// Instant the device re-entered deep sleep.
    pub t_sleep: Instant,
}

impl ConnectionOutcome {
    /// The active window the paper integrates for energy/packet: wake
    /// ramp through return to sleep.
    pub fn active_window(&self) -> (Instant, Instant) {
        (self.t_wake, self.t_sleep)
    }
}

fn tx_params(rate: PhyRate, power_dbm: f64, len: usize) -> TxParams {
    TxParams {
        airtime: Duration::from_us(frame_airtime_us(rate, len)),
        power_dbm,
        min_snr_db: rate.min_snr_db(),
    }
}

/// Run one full connect-transmit-sleep cycle.
///
/// `sta_radio`/`ap_radio` must already be attached to `medium` within
/// range of each other; the exchange asserts on frame loss (the paper's
/// bench setup is a meter apart — retransmission modelling lives in the
/// medium tests, not here).
#[allow(clippy::too_many_arguments)]
pub fn run_connection(
    medium: &mut Medium,
    sta_radio: RadioId,
    ap_radio: RadioId,
    ap: &mut AccessPoint,
    sta: &mut Station,
    mcu: &mut Mcu,
    cfg: &ConnectConfig,
) -> ConnectionOutcome {
    let ack_dur = Duration::from_us(ack_airtime_us(cfg.rate));
    let mut mac_frames = 0usize;
    let mut higher = 0usize;

    // Phase: sleep before wake (the left edge of Fig. 3a).
    mcu.begin_phase("Sleep");
    mcu.stay(wile_device::PowerState::DeepSleep, cfg.sleep_before);
    let t_wake = mcu.now();

    // Phase: microcontroller boot + WiFi bring-up.
    mcu.begin_phase("MC/WiFi init");
    mcu.wake_from_deep_sleep();
    mcu.wifi_init_station();

    // Phase: MAC management exchange.
    mcu.begin_phase("Probe/Auth./Associate");
    let mut psk_computed = false;
    let mut in_dhcp_phase = false;
    let mut t_data_sent = mcu.now();

    // Frames the client wants to send now.
    let mut outbox: Vec<StaTx> = vec![sta.start()];

    // The ping-pong loop: send client frames, collect AP responses
    // (each with its latency), receive them in order, feed the client.
    let mut probe_attempts = 1u32;
    'outer: for _round in 0..64 {
        if outbox.is_empty() {
            // Scan timeout path: no response yet and still probing —
            // dwell, then re-probe like a real supplicant scan loop.
            if sta.phase() == StaPhase::Probing {
                mcu.listen(cfg.probe_timeout);
                if probe_attempts >= cfg.max_probe_attempts {
                    break;
                }
                probe_attempts += 1;
                outbox.push(sta.reprobe());
            } else {
                break;
            }
        }
        // Scheduled AP responses: (absolute time, frame).
        let mut ap_queue: Vec<(Instant, Vec<u8>)> = Vec::new();
        for tx in std::mem::take(&mut outbox) {
            mcu.stay(wile_device::PowerState::Active { mhz: 80 }, cfg.proc_delay);
            if tx.higher_layer {
                higher += 1;
            } else {
                mac_frames += 1;
            }
            let params = tx_params(cfg.rate, cfg.tx_power_dbm, tx.frame.len());
            let (tx_start, tx_end) = mcu.transmit(params.airtime, cfg.tx_power_dbm);
            medium.transmit(sta_radio, tx_start, params, tx.frame.clone());
            mcu.wait_until(tx_end);
            for resp in ap.handle_frame(&tx.frame) {
                ap_queue.push((tx_end + resp.delay, resp.frame));
            }
        }
        ap_queue.sort_by_key(|(t, _)| *t);

        for (at, frame) in ap_queue {
            // Wait for the response: listening during the management
            // exchange, DFS+light-sleep waits once in the DHCP phase.
            if at > mcu.now() {
                let wait = at.since(mcu.now());
                if in_dhcp_phase {
                    mcu.dfs_wait(wait);
                } else {
                    mcu.listen(wait);
                }
            }
            let params = tx_params(cfg.rate, 20.0, frame.len());
            medium.transmit(ap_radio, mcu.now().max(at), params, frame.clone());
            mcu.receive(params.airtime);

            // Control frames are shorter than a full MAC header; treat
            // anything that does not parse as a management/data header
            // as control (ACKs are 14 bytes).
            let hdr = MgmtHeader::new_checked(&frame[..]);
            let is_ctrl = hdr
                .as_ref()
                .map(|h| h.frame_control().frame_type() == FrameType::Control)
                .unwrap_or(true);
            if is_ctrl {
                mac_frames += 1; // the AP's MAC ACK
                continue;
            }
            // Classify the AP frame for the paper's two counters.
            let is_higher = DataFrame::new_checked(&frame[..])
                .ok()
                .and_then(|d| d.ethertype())
                .map(|e| e != ETHERTYPE_EAPOL)
                .unwrap_or(false);
            if is_higher {
                higher += 1;
            } else {
                mac_frames += 1;
            }

            // The client MAC-ACKs every unicast reception.
            let ack = build_ack(ap.mac);
            let ack_params = TxParams {
                airtime: ack_dur,
                power_dbm: cfg.tx_power_dbm,
                min_snr_db: PhyRate::Ofdm(24).min_snr_db(),
            };
            let (s, e) = mcu.transmit(ack_dur, cfg.tx_power_dbm);
            medium.transmit(sta_radio, s, ack_params, ack);
            mcu.wait_until(e);
            mac_frames += 1;

            // First EAPOL frame: account the PSK derivation.
            let is_eapol = DataFrame::new_checked(&frame[..])
                .ok()
                .and_then(|d| d.ethertype())
                == Some(ETHERTYPE_EAPOL);
            if is_eapol && !psk_computed {
                mcu.stay(wile_device::PowerState::Active { mhz: 80 }, cfg.psk_compute);
                psk_computed = true;
            }

            let was_connected = sta.is_connected();
            let replies = sta.handle_frame(&frame);
            // Phase transition: the first DHCP transmission opens the
            // network-layer phase of Fig. 3a.
            if !in_dhcp_phase && sta.phase() == StaPhase::Dhcp {
                in_dhcp_phase = true;
                mcu.begin_phase("DHCP/ARP");
            }
            if !was_connected && sta.is_connected() {
                mcu.stay(
                    wile_device::PowerState::Active { mhz: 80 },
                    cfg.lease_commit,
                );
            }
            outbox.extend(replies);

            if sta.is_connected() && outbox.iter().all(|t| t.higher_layer) && outbox.len() <= 1 {
                // Send any trailing frame (gratuitous ARP), then the data.
                continue;
            }
        }
        if sta.is_connected() && outbox.is_empty() {
            break 'outer;
        }
    }

    let connected = sta.is_connected();
    if connected {
        // Phase: the actual sensor transmission (the red arrow in
        // Fig. 3a).
        mcu.begin_phase("Tx");
        let tx = sta.sensor_data_frame(&cfg.payload);
        higher += 1;
        let params = tx_params(cfg.rate, cfg.tx_power_dbm, tx.frame.len());
        let (s, e) = mcu.transmit(params.airtime, cfg.tx_power_dbm);
        medium.transmit(sta_radio, s, params, tx.frame);
        mcu.wait_until(e);
        // AP's ACK.
        mcu.listen(Duration::from_us(10));
        let ack = build_ack(sta.mac);
        let ack_params = TxParams {
            airtime: ack_dur,
            power_dbm: 20.0,
            min_snr_db: PhyRate::Ofdm(24).min_snr_db(),
        };
        medium.transmit(ap_radio, mcu.now(), ack_params, ack);
        mcu.receive(ack_dur);
        mac_frames += 1;
        t_data_sent = mcu.now();
    }

    // Phase: back to deep sleep.
    mcu.begin_phase("Sleep (after)");
    mcu.deep_sleep();
    let t_sleep = mcu.now();
    mcu.end_phase();

    ConnectionOutcome {
        trace: mcu.trace().clone(),
        connected,
        mac_frames,
        higher_layer_frames: higher,
        t_wake,
        t_data_sent,
        t_sleep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_dot11::MacAddr;
    use wile_instrument::energy::energy_mj;
    use wile_radio::channel::ChannelModel;
    use wile_radio::medium::RadioConfig;

    fn setup() -> (Medium, RadioId, RadioId, AccessPoint, Station, Mcu) {
        let mut medium = Medium::new(ChannelModel::default(), 42);
        let sta_radio = medium.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        let ap_radio = medium.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let sta_mac = MacAddr::new([2, 0, 0, 0, 0, 5]);
        let ap = AccessPoint::new(b"HomeNet", "hunter22", ap_mac, 6);
        let sta = Station::new(sta_mac, b"HomeNet", "hunter22", ap_mac, 0xBEEF);
        let mcu = Mcu::esp32(Instant::ZERO);
        (medium, sta_radio, ap_radio, ap, sta, mcu)
    }

    #[test]
    fn connection_completes_on_air() {
        let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = setup();
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        assert!(out.connected);
        assert!(out.t_sleep > out.t_data_sent);
        assert!(medium.tx_count() > 20);
    }

    #[test]
    fn frame_counts_match_section_3_1() {
        let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = setup();
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        assert_eq!(
            out.higher_layer_frames, 8,
            "7 connection frames + 1 sensor payload"
        );
        // §3.1: "at least 20 MAC-layer frames" — our exchange lands at
        // 27 (the paper's 20 excludes some of the ACKs we transmit).
        assert!(
            out.mac_frames >= 20 && out.mac_frames <= 30,
            "MAC frames {}",
            out.mac_frames
        );
    }

    #[test]
    fn phase_boundaries_match_fig3a() {
        let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = setup();
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        let phases = out.trace.phases();
        let find = |label: &str| {
            phases
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("phase {label} missing"))
        };
        let init = find("MC/WiFi init");
        let assoc = find("Probe/Auth./Associate");
        let dhcp = find("DHCP/ARP");
        // Fig. 3a: init 0.2-0.85 s, assoc 0.85-1.15 s, DHCP ~0.6 s.
        let init_s = init.end.since(init.start).as_secs_f64();
        let assoc_s = assoc.end.since(assoc.start).as_secs_f64();
        let dhcp_s = dhcp.end.since(dhcp.start).as_secs_f64();
        assert!((init_s - 0.65).abs() < 0.05, "init {init_s}");
        assert!((0.22..=0.40).contains(&assoc_s), "assoc {assoc_s}");
        assert!((0.35..=0.75).contains(&dhcp_s), "dhcp {dhcp_s}");
    }

    #[test]
    fn energy_per_packet_near_table1_wifi_dc() {
        let (mut medium, sr, ar, mut ap, mut sta, mut mcu) = setup();
        let model = *mcu.model();
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        let (from, to) = out.active_window();
        let mj = energy_mj(&out.trace, &model, from, to);
        // Table 1: WiFi-DC 238.2 mJ (±20 % acceptance band).
        assert!((190.0..=290.0).contains(&mj), "WiFi-DC energy {mj:.1} mJ");
    }

    #[test]
    fn unreachable_ap_retries_probes_then_sleeps() {
        // The AP answers to a different SSID: the client scans, re-probes
        // max_probe_attempts times, gives up and deep-sleeps — a failure
        // mode whose energy a duty-cycled deployment pays on every AP
        // outage.
        let (mut medium, sr, ar, _, _, mut mcu) = setup();
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let mut ap = AccessPoint::new(b"OtherNet", "pw", ap_mac, 6);
        let mut sta = Station::new(
            MacAddr::new([2, 0, 0, 0, 0, 5]),
            b"HomeNet",
            "pw",
            ap_mac,
            1,
        );
        let cfg = ConnectConfig::default();
        let out = run_connection(&mut medium, sr, ar, &mut ap, &mut sta, &mut mcu, &cfg);
        assert!(!out.connected);
        // Three probe requests went on air, nothing else.
        assert_eq!(out.mac_frames, 3);
        assert_eq!(out.higher_layer_frames, 0);
        // The active window includes three dwell timeouts.
        let (f, t) = out.active_window();
        let active = t.since(f).as_secs_f64();
        let min = 0.65 + 3.0 * cfg.probe_timeout.as_secs_f64();
        assert!(active >= min, "active {active} < {min}");
        assert!(active < min + 0.1, "active {active}");
    }

    #[test]
    fn failed_scan_energy_is_still_substantial() {
        // Even a *failed* wake costs nearly as much as a successful
        // association (boot+init ≈ 118 mJ and three 120 ms listen dwells
        // ≈ 113 mJ) — AP outages do not save a duty-cycled client any
        // energy, an operational hazard the paper's steady-state numbers
        // do not surface.
        use wile_instrument::energy::energy_mj;
        let (mut medium, sr, ar, _, _, mut mcu) = setup();
        let model = *mcu.model();
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let mut ap = AccessPoint::new(b"OtherNet", "pw", ap_mac, 6);
        let mut sta = Station::new(
            MacAddr::new([2, 0, 0, 0, 0, 5]),
            b"HomeNet",
            "pw",
            ap_mac,
            1,
        );
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        let (f, t) = out.active_window();
        let mj = energy_mj(&out.trace, &model, f, t);
        assert!((240.0 * 0.7..=240.0 * 1.1).contains(&mj), "{mj} mJ");
    }

    #[test]
    fn wrong_passphrase_fails_but_still_sleeps() {
        let (mut medium, sr, ar, _, _, mut mcu) = setup();
        let ap_mac = MacAddr::new([0xAA, 0, 0, 0, 0, 1]);
        let mut ap = AccessPoint::new(b"HomeNet", "correct", ap_mac, 6);
        let mut sta = Station::new(
            MacAddr::new([2, 0, 0, 0, 0, 5]),
            b"HomeNet",
            "wrong",
            ap_mac,
            1,
        );
        let out = run_connection(
            &mut medium,
            sr,
            ar,
            &mut ap,
            &mut sta,
            &mut mcu,
            &Default::default(),
        );
        assert!(!out.connected);
        // Device still returns to deep sleep (watchdog behaviour).
        assert!(out.t_sleep > out.t_wake);
    }
}

//! The receiver side of Wi-LE.
//!
//! "A simple Android or iOS application or other software running on a
//! host can retrieve the sensor's data. This application looks for
//! special beacon frames transmitted by IoT devices and extracts their
//! data from the beacon frames." (§4)
//!
//! [`Gateway`] is that application: it pulls frames from a radio's
//! inbox, keeps only valid-FCS Wi-LE beacons, checks that their
//! fragments reassemble, deduplicates on (device id, sequence number),
//! and optionally decrypts against a [`crate::registry::Registry`].
//!
//! A copy is validated in place and deduplicated before anything is
//! built, so a duplicate costs no allocation, and a delivered
//! single-fragment message's [`Payload`] is a view that takes the
//! received frame's shared `Arc` (see [`crate::payload`]).

use crate::beacon::wile_fragment_payloads;
use crate::encode::validate_fragments;
use crate::linkhealth::{LinkHealth, LinkHealthConfig, Observation};
use crate::payload::{Payload, Spans};
use crate::registry::Registry;
use crate::security::decrypt_message;
use crate::seqset::SeqSet;
use std::collections::HashMap;
use wile_dot11::mgmt::Beacon;
use wile_dot11::Error;
use wile_radio::medium::{Medium, RadioId};
use wile_radio::time::Instant;
use wile_telemetry::registry::{Label, Registry as Metrics};

/// One delivered Wi-LE reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Received {
    /// Sending device.
    pub device_id: u32,
    /// Message sequence number.
    pub seq: u16,
    /// Payload (plaintext, or ciphertext when `encrypted`). A
    /// single-fragment payload reads from the received frame and keeps
    /// it alive.
    pub payload: Payload,
    /// Whether the payload is still sealed.
    pub encrypted: bool,
    /// Arrival time (end of the beacon on air).
    pub at: Instant,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
}

/// Counters the gateway keeps while scanning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames pulled from the radio.
    pub frames_seen: u64,
    /// Frames dropped for a bad FCS (fault injection, collisions).
    pub bad_fcs: u64,
    /// Valid beacons that were not Wi-LE (ordinary APs).
    pub foreign_beacons: u64,
    /// Wi-LE messages dropped as duplicates.
    pub duplicates: u64,
    /// Wi-LE beacons whose fragments did not reassemble.
    pub reassembly_failures: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Copies the link-health window rejected as stale replays (only
    /// counted when link health is enabled).
    pub stale_replays: u64,
}

impl GatewayStats {
    /// Publish these counters into a telemetry registry under `labels`
    /// (typically `lane=<n>`), with absolute `set` semantics.
    pub fn record_telemetry(&self, reg: &mut Metrics, labels: &[Label]) {
        reg.counter_set("gateway.frames_seen", labels, self.frames_seen);
        reg.counter_set("gateway.bad_fcs", labels, self.bad_fcs);
        reg.counter_set("gateway.foreign_beacons", labels, self.foreign_beacons);
        reg.counter_set("gateway.duplicates", labels, self.duplicates);
        reg.counter_set(
            "gateway.reassembly_failures",
            labels,
            self.reassembly_failures,
        );
        reg.counter_set("gateway.delivered", labels, self.delivered);
        reg.counter_set("gateway.stale_replays", labels, self.stale_replays);
    }
}

/// A point-in-time checkpoint of a [`Gateway`]'s mutable state: the
/// dedup set (held sorted so the snapshot itself is deterministic and
/// digestable), the counters, and the link-health table. Produced by
/// [`Gateway::snapshot`] and consumed by [`Gateway::restore`]; the
/// cluster layer uses it to bring a crashed gateway lane back up from
/// its last periodic checkpoint instead of cold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewaySnapshot {
    /// The `(device, seq)` dedup set, sorted.
    pub seen: Vec<(u32, u16)>,
    /// Counters as of the snapshot.
    pub stats: GatewayStats,
    /// The link-health table, if the gateway tracks one.
    pub(crate) health: Option<LinkHealth>,
}

/// The scanning receiver.
#[derive(Debug, Default)]
pub struct Gateway {
    /// The `(device, seq)` dedup set: one exact [`SeqSet`] per device.
    seen: HashMap<u32, SeqSet>,
    stats: GatewayStats,
    health: Option<LinkHealth>,
}

impl Gateway {
    /// A fresh gateway.
    pub fn new() -> Self {
        Self::default()
    }

    /// A gateway that additionally tracks per-device link health (loss
    /// estimates, hysteresis status, stale eviction) from the message
    /// stream it polls. The estimates feed the two-way feedback loop
    /// driving [`crate::reliability::AdaptiveRepeat`].
    pub fn with_link_health(cfg: LinkHealthConfig) -> Self {
        Gateway {
            health: Some(LinkHealth::new(cfg)),
            ..Default::default()
        }
    }

    /// The link-health table, if enabled.
    pub fn link_health(&self) -> Option<&LinkHealth> {
        self.health.as_ref()
    }

    /// Mutable link-health access (status queries update hysteresis
    /// latches; eviction mutates the table).
    pub fn link_health_mut(&mut self) -> Option<&mut LinkHealth> {
        self.health.as_mut()
    }

    /// The running counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Pull everything that arrived at `radio` by `up_to` and return the
    /// new Wi-LE messages, in arrival order.
    pub fn poll(&mut self, medium: &mut Medium, radio: RadioId, up_to: Instant) -> Vec<Received> {
        self.ingest(medium.take_inbox(radio, up_to))
    }

    /// Process raw received frames (already pulled from a radio) through
    /// the full gateway pipeline: FCS check, Wi-LE filtering, fragment
    /// validation, link-health observation, (device, seq) dedup, and
    /// only then the payload. Each frame costs one CRC pass and no
    /// allocation: a delivered single-fragment message's payload takes
    /// the frame's `Arc` (a multi-fragment one allocates its own
    /// buffer). This is the entry point for harnesses that sit between
    /// the medium and the gateway — e.g. the fault-campaign runner,
    /// which drops or corrupts frames per its fault timeline before the
    /// gateway may see them.
    pub fn ingest(
        &mut self,
        frames: impl IntoIterator<Item = wile_radio::RxFrame>,
    ) -> Vec<Received> {
        let mut out = Vec::new();
        for rx in frames {
            self.stats.frames_seen += 1;
            let beacon = match Beacon::new_fcs_checked(&rx.bytes[..]) {
                Ok(b) => b,
                Err(Error::BadFcs) => {
                    self.stats.bad_fcs += 1;
                    continue;
                }
                Err(_) => {
                    self.stats.foreign_beacons += 1;
                    continue;
                }
            };
            let mut frags = wile_fragment_payloads(&beacon).peekable();
            if frags.peek().is_none() {
                self.stats.foreign_beacons += 1;
                continue;
            }
            let Some(msg) = validate_fragments(frags) else {
                self.stats.reassembly_failures += 1;
                continue;
            };
            let spans = Spans::locate(&rx.bytes, msg.chunks());
            // Every valid copy feeds link health (duplicates refresh
            // the last-seen clock and are classified by its own
            // replay window), independent of dedup below.
            if let Some(h) = self.health.as_mut() {
                if h.observe(msg.device_id, msg.seq, rx.at) == Observation::Stale {
                    self.stats.stale_replays += 1;
                }
            }
            if !self.seen.entry(msg.device_id).or_default().insert(msg.seq) {
                self.stats.duplicates += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push(Received {
                device_id: msg.device_id,
                seq: msg.seq,
                encrypted: msg.is_encrypted(),
                payload: spans.into_payload(rx.bytes),
                at: rx.at,
                rssi_dbm: rx.rssi_dbm,
            });
        }
        out
    }

    /// Like [`Gateway::poll`], but decrypt sealed payloads against
    /// `registry` (messages that fail to decrypt are dropped and counted
    /// as reassembly failures — an attacker should be indistinguishable
    /// from noise).
    pub fn poll_decrypt(
        &mut self,
        medium: &mut Medium,
        radio: RadioId,
        up_to: Instant,
        registry: &Registry,
        epoch: u16,
    ) -> Vec<Received> {
        self.poll(medium, radio, up_to)
            .into_iter()
            .filter_map(|mut r| {
                if !r.encrypted {
                    return Some(r);
                }
                let identity = registry.get(r.device_id)?;
                let msg = crate::message::Message {
                    device_id: r.device_id,
                    seq: r.seq,
                    flags: crate::message::FLAG_ENCRYPTED,
                    payload: r.payload.to_vec(),
                };
                match decrypt_message(identity, epoch, &msg) {
                    Ok(plain) => {
                        r.payload = plain.into();
                        r.encrypted = false;
                        Some(r)
                    }
                    Err(_) => {
                        self.stats.reassembly_failures += 1;
                        self.stats.delivered -= 1;
                        None
                    }
                }
            })
            .collect()
    }

    /// Forget dedup state older than the current generation (call
    /// occasionally on long-running gateways to bound memory; sequence
    /// numbers wrap at 65536 so a full clear per epoch is correct).
    pub fn clear_dedup(&mut self) {
        self.seen.clear();
    }

    /// Checkpoint the gateway's mutable state. The dedup set is sorted
    /// into the snapshot, so two gateways in the same state produce
    /// equal (and digest-identical) snapshots regardless of hash-map
    /// iteration order.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let mut devices: Vec<(&u32, &SeqSet)> = self.seen.iter().collect();
        devices.sort_unstable_by_key(|&(&d, _)| d);
        let seen = devices
            .into_iter()
            .flat_map(|(&d, seqs)| seqs.iter().map(move |s| (d, s)))
            .collect();
        GatewaySnapshot {
            seen,
            stats: self.stats,
            health: self.health.clone(),
        }
    }

    /// Replace this gateway's state with a checkpoint taken earlier via
    /// [`Gateway::snapshot`]. A restored gateway continues exactly as
    /// the snapshotted one would have: same dedup decisions, same
    /// counters, same link-health estimates.
    pub fn restore(&mut self, snap: &GatewaySnapshot) {
        self.seen.clear();
        for &(d, s) in &snap.seen {
            self.seen.entry(d).or_default().insert(s);
        }
        self.stats = snap.stats;
        self.health = snap.health.clone();
    }

    /// Reset to a cold, just-booted state: dedup set, counters, and
    /// link-health *contents* are gone, but the link-health *policy*
    /// (whether a table exists, and its tuning) is preserved — a
    /// restarted process runs the same binary with the same config.
    pub fn reset_cold(&mut self) {
        self.seen.clear();
        self.stats = GatewayStats::default();
        self.health = self.health.as_ref().map(|h| LinkHealth::new(h.config()));
    }

    /// Publish this gateway's counters ([`GatewayStats::record_telemetry`])
    /// and, when link health is enabled, its table into a telemetry
    /// registry under `labels` (typically `lane=<n>`). Per-device EWMA
    /// loss lands in the `gateway.health.loss_pm` histogram quantized
    /// to per-mille, iterated in sorted device order so the snapshot
    /// is deterministic.
    pub fn record_telemetry(&self, reg: &mut Metrics, labels: &[Label]) {
        self.stats.record_telemetry(reg, labels);
        if let Some(h) = &self.health {
            reg.counter_set("gateway.health.late_fills", labels, h.late_fills());
            let mut received = 0u64;
            let mut expected = 0u64;
            for dev in h.devices() {
                if let Some(loss) = h.loss_estimate(dev) {
                    reg.observe(
                        "gateway.health.loss_pm",
                        labels,
                        (loss * 1000.0).round() as u64,
                    );
                }
                if let Some((rx, exp)) = h.counters(dev) {
                    received += rx;
                    expected += exp;
                }
            }
            reg.counter_set("gateway.health.received", labels, received);
            reg.counter_set("gateway.health.expected", labels, expected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use wile_dot11::mgmt::BeaconBuilder;
    use wile_dot11::MacAddr;
    use wile_radio::medium::{RadioConfig, TxParams};
    use wile_radio::time::Duration;

    fn setup() -> (Medium, RadioId, RadioId) {
        let mut medium = Medium::new(Default::default(), 5);
        let sensor = medium.attach(RadioConfig::default());
        let phone = medium.attach(RadioConfig {
            position_m: (3.0, 0.0),
            ..Default::default()
        });
        (medium, sensor, phone)
    }

    #[test]
    fn end_to_end_delivery() {
        let (mut medium, sensor, phone) = setup();
        let mut inj = Injector::new(DeviceIdentity::new(42), Instant::ZERO);
        inj.inject(&mut medium, sensor, b"t=21.5C");
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, phone, Instant::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].device_id, 42);
        assert_eq!(got[0].payload, b"t=21.5C");
        assert!(!got[0].encrypted);
        assert!(got[0].rssi_dbm < 0.0);
        assert_eq!(gw.stats().delivered, 1);
    }

    #[test]
    fn duplicates_are_dropped() {
        let (mut medium, sensor, phone) = setup();
        // Two identical beacons (same device, same seq) — e.g. an
        // application-level repeat for reliability.
        let msg = Message::new(1, 9, b"x");
        for i in 0..2u64 {
            let frame = crate::beacon::build_wile_beacon(
                MacAddr::from_device_id(1),
                &msg,
                wile_dot11::mac::SeqControl::new(i as u16, 0),
                0,
            )
            .unwrap();
            medium.transmit(
                sensor,
                Instant::from_ms(1 + i),
                TxParams {
                    airtime: Duration::from_us(50),
                    power_dbm: 0.0,
                    min_snr_db: 5.0,
                },
                frame,
            );
        }
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, phone, Instant::from_secs(1));
        assert_eq!(got.len(), 1);
        assert_eq!(gw.stats().duplicates, 1);
    }

    #[test]
    fn foreign_beacons_counted_not_delivered() {
        let (mut medium, sensor, phone) = setup();
        let ap_beacon = BeaconBuilder::new(MacAddr::new([9; 6]))
            .ssid(b"HomeNet")
            .build();
        medium.transmit(
            sensor,
            Instant::from_ms(1),
            TxParams {
                airtime: Duration::from_us(100),
                power_dbm: 20.0,
                min_snr_db: 4.0,
            },
            ap_beacon,
        );
        let mut gw = Gateway::new();
        assert!(gw
            .poll(&mut medium, phone, Instant::from_secs(1))
            .is_empty());
        assert_eq!(gw.stats().foreign_beacons, 1);
    }

    #[test]
    fn corrupted_frames_dropped_by_fcs() {
        let (mut medium, sensor, phone) = setup();
        let msg = Message::new(1, 0, b"data");
        let mut frame = crate::beacon::build_wile_beacon(
            MacAddr::from_device_id(1),
            &msg,
            wile_dot11::mac::SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        frame[30] ^= 0xFF; // corrupt without fixing FCS
        medium.transmit(
            sensor,
            Instant::from_ms(1),
            TxParams {
                airtime: Duration::from_us(50),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            frame,
        );
        let mut gw = Gateway::new();
        assert!(gw
            .poll(&mut medium, phone, Instant::from_secs(1))
            .is_empty());
        assert_eq!(gw.stats().bad_fcs, 1);
    }

    #[test]
    fn encrypted_end_to_end_with_registry() {
        let (mut medium, sensor, phone) = setup();
        let registry = Registry::provision_fleet(b"deploy", 5);
        let mut inj = Injector::new(registry.get(3).unwrap().clone(), Instant::ZERO);
        inj.inject_sealed(&mut medium, sensor, b"secret=42");
        let mut gw = Gateway::new();
        let got = gw.poll_decrypt(&mut medium, phone, Instant::from_secs(5), &registry, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"secret=42");
        assert!(!got[0].encrypted);
    }

    #[test]
    fn unknown_device_ciphertext_dropped() {
        let (mut medium, sensor, phone) = setup();
        let registry = Registry::provision_fleet(b"deploy", 2);
        // Device 9 is not in the registry.
        let mut inj = Injector::new(DeviceIdentity::with_key(9, b"deploy"), Instant::ZERO);
        inj.inject_sealed(&mut medium, sensor, b"whoami");
        let mut gw = Gateway::new();
        let got = gw.poll_decrypt(&mut medium, phone, Instant::from_secs(5), &registry, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn poll_without_decrypt_passes_ciphertext_through() {
        let (mut medium, sensor, phone) = setup();
        let mut inj = Injector::new(DeviceIdentity::with_key(7, b"s"), Instant::ZERO);
        inj.inject_sealed(&mut medium, sensor, b"sealed!");
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, phone, Instant::from_secs(5));
        assert_eq!(got.len(), 1);
        assert!(got[0].encrypted);
        assert_ne!(got[0].payload, b"sealed!");
    }

    #[test]
    fn clear_dedup_allows_seq_reuse() {
        let (mut medium, sensor, phone) = setup();
        let mut gw = Gateway::new();
        let mut inj = Injector::new(DeviceIdentity::new(1), Instant::ZERO);
        inj.inject(&mut medium, sensor, b"a");
        assert_eq!(gw.poll(&mut medium, phone, Instant::from_secs(1)).len(), 1);
        gw.clear_dedup();
        // Same (device, seq) again after an epoch clear: delivered.
        let msg = Message::new(1, 0, b"a");
        let frame = crate::beacon::build_wile_beacon(
            MacAddr::from_device_id(1),
            &msg,
            wile_dot11::mac::SeqControl::new(5, 0),
            0,
        )
        .unwrap();
        medium.transmit(
            sensor,
            inj.now() + Duration::from_secs(2),
            TxParams {
                airtime: Duration::from_us(50),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            frame,
        );
        assert_eq!(gw.poll(&mut medium, phone, Instant::from_secs(10)).len(), 1);
    }

    #[test]
    fn link_health_tracks_sequence_gaps_across_polls() {
        let (mut medium, sensor, phone) = setup();
        let mut gw = Gateway::with_link_health(Default::default());
        let mut inj = Injector::new(DeviceIdentity::new(6), Instant::ZERO);
        // Only even sequence numbers make it to the air — the odd ones
        // stand in for messages lost in a burst.
        for i in (0..20u16).step_by(2) {
            inj.sleep_until(Instant::from_secs(1 + i as u64));
            let msg = Message::new(6, i, b"r");
            inj.inject_message(&mut medium, sensor, &msg);
        }
        gw.poll(&mut medium, phone, Instant::from_secs(60));
        let h = gw.link_health().unwrap();
        assert_eq!(h.devices(), vec![6]);
        let loss = h.loss_estimate(6).unwrap();
        assert!(loss > 0.25, "loss {loss}");
        assert_eq!(
            gw.link_health_mut()
                .unwrap()
                .status(6, Instant::from_secs(60)),
            crate::linkhealth::LinkStatus::Degraded
        );
        // A plain gateway carries no table.
        assert!(Gateway::new().link_health().is_none());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_stream() {
        // Feed half a stream, checkpoint, feed the rest down two paths:
        // the original gateway and a restored-from-snapshot one. Both
        // must make identical dedup decisions and end in equal state.
        let (mut medium, sensor, phone) = setup();
        let mut inj = Injector::new(DeviceIdentity::new(3), Instant::ZERO);
        for i in 0..6 {
            inj.sleep_until(Instant::from_secs(1 + i));
            inj.inject(&mut medium, sensor, format!("r{i}").as_bytes());
        }
        let mut gw = Gateway::with_link_health(Default::default());
        let first = gw.poll(&mut medium, phone, Instant::from_secs(4));
        assert!(!first.is_empty());
        let snap = gw.snapshot();
        // Snapshots are deterministic values: same state, same snapshot.
        assert_eq!(snap, gw.snapshot());

        let mut restored = Gateway::new();
        restored.restore(&snap);
        let tail = medium.take_inbox(phone, Instant::from_secs(60));
        let a = gw.ingest(tail.clone());
        let b = restored.ingest(tail);
        assert_eq!(a, b, "continuation diverged after restore");
        assert_eq!(gw.stats(), restored.stats());
        assert_eq!(gw.snapshot(), restored.snapshot());
    }

    #[test]
    fn reset_cold_forgets_state_but_keeps_health_policy() {
        let (mut medium, sensor, phone) = setup();
        let mut inj = Injector::new(DeviceIdentity::new(9), Instant::ZERO);
        inj.inject(&mut medium, sensor, b"x");
        let cfg = LinkHealthConfig {
            offline_after: Duration::from_secs(7),
            evict_after: Duration::from_secs(9),
            ..Default::default()
        };
        let mut gw = Gateway::with_link_health(cfg);
        assert_eq!(gw.poll(&mut medium, phone, Instant::from_secs(2)).len(), 1);
        gw.reset_cold();
        assert_eq!(gw.stats(), GatewayStats::default());
        let h = gw.link_health().expect("health table survives as policy");
        assert!(h.devices().is_empty(), "contents are gone");
        assert_eq!(h.config(), cfg, "tuning survives");
        // A cold gateway happily re-delivers a (device, seq) it saw
        // before the reset — that is what lost_in_crash accounting and
        // the cluster-level dedup are for.
        let msg = Message::new(9, 0, b"x");
        let frame = crate::beacon::build_wile_beacon(
            MacAddr::from_device_id(9),
            &msg,
            wile_dot11::mac::SeqControl::new(1, 0),
            0,
        )
        .unwrap();
        medium.transmit(
            sensor,
            inj.now() + Duration::from_secs(2),
            TxParams {
                airtime: Duration::from_us(50),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            frame,
        );
        assert_eq!(gw.poll(&mut medium, phone, Instant::from_secs(10)).len(), 1);
    }

    #[test]
    fn a_payload_is_a_view_of_one_fragment_and_a_copy_of_several() {
        use crate::encode::encode_fragments;
        let frame_of = |msg: &Message, reverse: bool| -> wile_radio::RxFrame {
            let mut frags = encode_fragments(msg).unwrap();
            if reverse {
                frags.reverse();
            }
            let mut b = BeaconBuilder::new(MacAddr::from_device_id(msg.device_id)).hidden_ssid();
            for f in &frags {
                b = b.vendor_specific(crate::WILE_OUI, crate::VTYPE_DATA, f);
            }
            wile_radio::RxFrame {
                at: Instant::from_ms(1),
                from: RadioId(0),
                rssi_dbm: -50.0,
                snr_db: 30.0,
                bytes: b.build().into(),
            }
        };
        let one = Message::new(1, 0, b"short");
        let big: Vec<u8> = (0..600u32).map(|i| (i * 7) as u8).collect();
        let several = Message::new(2, 0, &big);
        let (f1, f2) = (frame_of(&one, false), frame_of(&several, true));
        let (b1, b2) = (f1.bytes.clone(), f2.bytes.clone());
        let got = Gateway::new().ingest([f1, f2]);
        assert_eq!(got.len(), 2);
        // One fragment: the payload reads the frame's own bytes.
        assert_eq!(got[0].payload, b"short");
        assert!(b1.as_ptr_range().contains(&got[0].payload.as_ptr()));
        // Three fragments, sent in reverse IE order: concatenated in
        // index order into a buffer of their own.
        assert_eq!(got[1].payload, big);
        assert!(!b2.as_ptr_range().contains(&got[1].payload.as_ptr()));
    }

    #[test]
    fn multi_fragment_message_delivered() {
        let (mut medium, sensor, phone) = setup();
        let mut inj = Injector::new(DeviceIdentity::new(2), Instant::ZERO);
        let big: Vec<u8> = (0..700u32).map(|i| i as u8).collect();
        inj.inject(&mut medium, sensor, &big);
        let mut gw = Gateway::new();
        let got = gw.poll(&mut medium, phone, Instant::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, big);
    }
}

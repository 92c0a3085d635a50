//! The gateway against hostile bytes, and its dedup checkpoint.
//!
//! Real Wi-LE beacons are mutated two ways: with the FCS recomputed
//! after the mutation, so the bytes get past the CRC and into the
//! beacon, IE and fragment parsers; and as raw bytes, which the FCS
//! check must stop. Either way `Gateway::ingest` must not panic, and
//! every frame must land in exactly one bucket of the gateway's ledger.
//! The gateway validates a copy's fragments in place and dedups it
//! before it builds the payload; a short model of the copying order
//! (decode, then link health, then dedup) must agree with it on every
//! delivery, every counter and the link-health table.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use wile::beacon::{build_wile_beacon, wile_fragment_payloads};
use wile::encode::decode_fragments;
use wile::linkhealth::{LinkHealth, LinkHealthConfig, Observation};
use wile::message::{Message, FLAG_ENCRYPTED};
use wile::monitor::{Gateway, GatewayStats, Received};
use wile_dot11::fcs;
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::Beacon;
use wile_dot11::Error;
use wile_dot11::MacAddr;
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::Instant;

/// One byte-level edit; positions wrap modulo the frame length.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(u16, u8),
    Set(u16, u8),
    Truncate(u16),
    Insert(u16, u8),
    Delete(u16),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..5, any::<u16>(), any::<u8>()).prop_map(|(k, at, b)| match k {
        0 => Mutation::Flip(at, b | 1),
        1 => Mutation::Set(at, b),
        2 => Mutation::Truncate(at),
        3 => Mutation::Insert(at, b),
        _ => Mutation::Delete(at),
    })
}

fn apply(bytes: &mut Vec<u8>, m: &Mutation) {
    let at = |p: u16, len: usize| p as usize % len.max(1);
    match *m {
        Mutation::Flip(p, mask) if !bytes.is_empty() => {
            let i = at(p, bytes.len());
            bytes[i] ^= mask;
        }
        Mutation::Set(p, b) if !bytes.is_empty() => {
            let i = at(p, bytes.len());
            bytes[i] = b;
        }
        Mutation::Truncate(p) => bytes.truncate(at(p, bytes.len() + 1)),
        Mutation::Insert(p, b) => {
            let i = at(p, bytes.len() + 1);
            bytes.insert(i, b);
        }
        Mutation::Delete(p) if !bytes.is_empty() => {
            let i = at(p, bytes.len());
            bytes.remove(i);
        }
        _ => {}
    }
}

fn beacon(device: u32, seq: u16, payload_len: usize) -> Vec<u8> {
    flagged_beacon(device, seq, payload_len, 0)
}

fn flagged_beacon(device: u32, seq: u16, payload_len: usize, flags: u8) -> Vec<u8> {
    let payload: Vec<u8> = (0..payload_len).map(|i| (i as u8) ^ (seq as u8)).collect();
    let mut msg = Message::new(device, seq, &payload);
    msg.flags = flags;
    build_wile_beacon(
        MacAddr::from_device_id(device),
        &msg,
        SeqControl::new(seq & 0x0FFF, 0),
        0,
    )
    .unwrap()
}

/// What a delivery says, without where its bytes live.
type Delivery = (u32, u16, Vec<u8>, bool);

fn delivery(r: &Received) -> Delivery {
    (r.device_id, r.seq, r.payload.to_vec(), r.encrypted)
}

/// The gateway in its copying order: decode each copy's fragments into
/// a payload `Vec`, then observe link health, then dedup on
/// `(device, seq)`.
struct CopyingGateway {
    seen: HashSet<(u32, u16)>,
    health: Option<LinkHealth>,
    stats: GatewayStats,
}

impl CopyingGateway {
    fn ingest(&mut self, frames: &[RxFrame]) -> Vec<Delivery> {
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
            let Some(msg) = decode_fragments(frags) else {
                self.stats.reassembly_failures += 1;
                continue;
            };
            if let Some(h) = self.health.as_mut() {
                if h.observe(msg.device_id, msg.seq, rx.at) == Observation::Stale {
                    self.stats.stale_replays += 1;
                }
            }
            if !self.seen.insert((msg.device_id, msg.seq)) {
                self.stats.duplicates += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push((
                msg.device_id,
                msg.seq,
                msg.payload.clone(),
                msg.is_encrypted(),
            ));
        }
        out
    }
}

fn rx(at_ms: u64, bytes: Vec<u8>) -> RxFrame {
    RxFrame {
        at: Instant::from_ms(at_ms),
        from: RadioId(0),
        rssi_dbm: -50.0,
        snr_db: 30.0,
        bytes: bytes.into(),
    }
}

proptest! {
    #[test]
    fn hostile_bytes_never_panic_and_the_ledger_closes(
        msgs in prop::collection::vec((1u32..4, 0u16..6, 0usize..600), 1..6),
        edits in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(mutation(), 0..4)),
            1..16,
        ),
        health in any::<bool>(),
    ) {
        let beacons: Vec<Vec<u8>> = msgs.iter().map(|&(d, s, n)| beacon(d, s, n)).collect();
        let mut frames = Vec::new();
        for (i, (refcs, mutations)) in edits.iter().enumerate() {
            let mut bytes = beacons[i % beacons.len()].clone();
            // With `refcs`, mutate the MPDU without its FCS and append a
            // fresh one: the frame passes the CRC and reaches the parsers.
            if *refcs {
                bytes.truncate(bytes.len() - 4);
            }
            for m in mutations {
                apply(&mut bytes, m);
            }
            if *refcs {
                fcs::append_fcs(&mut bytes);
            }
            frames.push(rx(1 + i as u64, bytes));
        }
        let mut gw = if health {
            Gateway::with_link_health(LinkHealthConfig::default())
        } else {
            Gateway::new()
        };
        let (first, second) = frames.split_at(frames.len() / 2);
        let mut delivered = gw.ingest(first.to_vec()).len();
        delivered += gw.ingest(second.to_vec()).len();
        let s = gw.stats();
        prop_assert_eq!(s.frames_seen as usize, frames.len());
        prop_assert_eq!(s.delivered as usize, delivered);
        prop_assert_eq!(
            s.frames_seen,
            s.bad_fcs + s.foreign_beacons + s.reassembly_failures + s.duplicates + s.delivered
        );
    }

    #[test]
    fn validating_before_the_copy_matches_the_copying_order(
        msgs in prop::collection::vec(
            (1u32..4, 0u16..6, 0usize..800, any::<bool>()),
            1..6,
        ),
        edits in prop::collection::vec(
            (0usize..6, any::<bool>(), prop::collection::vec(mutation(), 0..3)),
            1..24,
        ),
        health in any::<bool>(),
    ) {
        // Beacons of one to four fragments, some flagged as sealed;
        // each copy is a beacon as sent (often several times: dups) or
        // mutated with or without a fresh FCS.
        let beacons: Vec<Vec<u8>> = msgs
            .iter()
            .map(|&(d, s, n, sealed)| {
                flagged_beacon(d, s, n, if sealed { FLAG_ENCRYPTED } else { 0 })
            })
            .collect();
        let frames: Vec<RxFrame> = edits
            .iter()
            .enumerate()
            .map(|(i, (pick, refcs, mutations))| {
                let mut bytes = beacons[pick % beacons.len()].clone();
                if *refcs {
                    bytes.truncate(bytes.len() - 4);
                }
                for m in mutations {
                    apply(&mut bytes, m);
                }
                if *refcs {
                    fcs::append_fcs(&mut bytes);
                }
                rx(1 + i as u64, bytes)
            })
            .collect();
        let cfg = LinkHealthConfig::default();
        let mut gw = if health { Gateway::with_link_health(cfg) } else { Gateway::new() };
        let mut model = CopyingGateway {
            seen: HashSet::new(),
            health: health.then(|| LinkHealth::new(cfg)),
            stats: GatewayStats::default(),
        };
        let (first, second) = frames.split_at(frames.len() / 2);
        for part in [first, second] {
            let got: Vec<Delivery> = gw.ingest(part.to_vec()).iter().map(delivery).collect();
            prop_assert_eq!(got, model.ingest(part));
            prop_assert_eq!(gw.stats(), model.stats);
            prop_assert_eq!(gw.link_health(), model.health.as_ref());
        }
    }

    #[test]
    fn snapshot_is_the_sorted_dedup_set_and_restores_exactly(
        pairs in prop::collection::vec((0u32..6, any::<u16>()), 0..40),
        dense in 0u16..200,
    ) {
        // Scattered pairs plus one device counting 0..dense, so both the
        // sparse and the dense shape of a device's numbers appear.
        let mut all = pairs;
        all.extend((0..dense).map(|s| (9, s)));
        let frames: Vec<RxFrame> = all
            .iter()
            .enumerate()
            .map(|(i, &(d, s))| rx(1 + i as u64, beacon(d, s, 4)))
            .collect();
        let mut gw = Gateway::new();
        let got = gw.ingest(frames.clone());

        let want: BTreeSet<(u32, u16)> = all.iter().copied().collect();
        let snap = gw.snapshot();
        prop_assert_eq!(&snap.seen, &want.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(snap.stats.duplicates as usize, all.len() - want.len());

        let mut restored = Gateway::new();
        restored.restore(&snap);
        prop_assert_eq!(&restored.snapshot(), &snap);
        // The restored set makes the same decisions: all duplicates now.
        prop_assert!(restored.ingest(frames).is_empty());
        prop_assert_eq!(restored.stats().duplicates, snap.stats.duplicates + all.len() as u64);
    }
}

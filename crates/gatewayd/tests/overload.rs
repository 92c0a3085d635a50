//! Overload accounting: drive the daemon pipeline at 10× its admission
//! rate and require that nothing is lost silently — the extended
//! conservation law `delivered + suppressions + queue_drops + shed ==
//! hears` closes *exactly*, the tail-drop arithmetic is predictable to
//! the frame, and the drop counters and queue high-water gauges surface
//! in the scrape output.

use wile::beacon::BeaconTemplate;
use wile::registry::DeviceIdentity;
use wile_dot11::mac::SeqControl;
use wile_gatewayd::daemon::{Daemon, DaemonOptions};
use wile_gatewayd::wire::{LaneFrame, WcapHeader, WireRecord};
use wile_gatewayd::{GatewaydConfig, GatewaydCore};
use wile_radio::medium::{RadioId, RxFrame};
use wile_radio::time::{Duration, Instant};

const LANES: usize = 2;
const QUEUE_CAP: usize = 50;
/// 10× the per-window admission (the lane queue bound).
const PER_WINDOW: usize = QUEUE_CAP * 10;
const WINDOWS: u64 = 4;
const POLL_SECS: u64 = 10;

fn overload_config() -> GatewaydConfig {
    GatewaydConfig {
        gateways: LANES,
        queue_capacity: Some(QUEUE_CAP),
        poll_every: Duration::from_secs(POLL_SECS),
        stale_after: Duration::from_secs(3600),
        horizon: Instant::from_secs(WINDOWS * POLL_SECS),
        keep_deliveries: false,
        workers: 1,
        log_polls: false,
    }
}

/// Synthesize the 10×-admission frame schedule: per lane and poll
/// window, `PER_WINDOW` distinct (device, seq) beacons with strictly
/// increasing arrival stamps inside the window. Every frame is a valid
/// Wi-LE beacon (FCS and all), heard by exactly one lane — so dedup
/// suppressions stay zero and the tail-drop arithmetic is exact.
fn overload_frames() -> Vec<(u32, RxFrame)> {
    let mut frames = Vec::new();
    // One render per frame is wasteful; one template per device, and a
    // device per (lane, slot) so each frame is a unique (device, seq).
    let mut templates: Vec<Vec<BeaconTemplate>> = (0..LANES)
        .map(|lane| {
            (0..PER_WINDOW)
                .map(|slot| {
                    let device_id = (lane * 100_000 + slot + 1) as u32;
                    let identity = DeviceIdentity::new(device_id);
                    BeaconTemplate::new(identity.mac, device_id, 4).expect("small payload")
                })
                .collect()
        })
        .collect();
    let window_ns = Duration::from_secs(POLL_SECS).as_nanos();
    let step_ns = window_ns / (PER_WINDOW as u64 + 1);
    for window in 0..WINDOWS {
        for slot in 0..PER_WINDOW {
            // Strictly inside (window*P, (window+1)*P]: earlier polls
            // never claim these, the window's own poll takes them all.
            let at = Instant::from_nanos(window * window_ns + (slot as u64 + 1) * step_ns);
            for (lane, lane_templates) in templates.iter_mut().enumerate() {
                let seq = window as u16;
                let bytes = lane_templates[slot].render(
                    seq,
                    SeqControl::new(seq & 0x0FFF, 0),
                    &(slot as u32).to_le_bytes(),
                );
                frames.push((
                    lane as u32,
                    RxFrame {
                        at,
                        from: RadioId(1_000_000 + lane as u32),
                        rssi_dbm: -55.0,
                        snr_db: 25.0,
                        bytes: bytes.into(),
                    },
                ));
            }
        }
    }
    frames
}

/// At 10× admission the core keeps exact books: every hear is either
/// delivered or tail-dropped, and the counts match the queue bound to
/// the frame.
#[test]
fn conservation_law_closes_at_10x_admission() {
    let mut core = GatewaydCore::new(overload_config());
    let mut out = Vec::new();
    for (lane, frame) in overload_frames() {
        core.offer(lane, frame, &mut out)
            .expect("schedule is clean");
    }
    // finish() asserts conserves_offered_load() and the frame ledger
    // internally; the report lets us check the arithmetic exactly.
    let report = core.finish(&mut out);

    let hears = report.stats.total_hears();
    let delivered = report.stats.delivered;
    let suppressions = report.stats.total_suppressions();
    let drops = report.stats.total_drops();
    let shed = report.stats.total_shed();

    // The law, spelled out (finish() already asserted it — this is the
    // explicit 10×-admission witness).
    assert_eq!(
        delivered + suppressions + drops + shed,
        hears,
        "delivered + suppressions + queue_drops + shed must equal hears"
    );

    // Exact tail-drop arithmetic: each lane hears PER_WINDOW frames per
    // window but the queue admits QUEUE_CAP; the rest tail-drop.
    let expected_hears = (LANES * PER_WINDOW) as u64 * WINDOWS;
    let expected_delivered = (LANES * QUEUE_CAP) as u64 * WINDOWS;
    assert_eq!(hears, expected_hears);
    assert_eq!(delivered, expected_delivered);
    assert_eq!(suppressions, 0, "one hearer per frame: nothing to dedup");
    assert_eq!(shed, 0, "no faults armed");
    assert_eq!(drops, expected_hears - expected_delivered);
    assert!(drops > 0, "overload must actually overflow the queue");

    // Per-lane books close too, and the high-water mark pegs at the
    // bound.
    for lane in &report.stats.lanes {
        assert_eq!(lane.hears, (PER_WINDOW as u64) * WINDOWS);
        assert_eq!(
            lane.queue_drops,
            ((PER_WINDOW - QUEUE_CAP) as u64) * WINDOWS
        );
        assert_eq!(lane.queue_high_water, QUEUE_CAP);
    }
    assert!(report.frames_ledger_closes());
}

/// The same overload stream through the daemon shell: the scrape
/// output carries the drop counters and queue high-water gauges.
#[test]
fn scrape_output_surfaces_drops_and_high_water() {
    let header = WcapHeader {
        gateways: LANES as u32,
        queue_capacity: Some(QUEUE_CAP),
        poll_every: Duration::from_secs(POLL_SECS),
        stale_after: Duration::from_secs(3600),
        horizon: Instant::from_secs(WINDOWS * POLL_SECS),
        seed: 0,
        devices: (LANES * PER_WINDOW) as u64,
    };
    let mut wire = Vec::new();
    WireRecord::Header(header).encode(&mut wire);
    for (lane, frame) in overload_frames() {
        WireRecord::Frame(LaneFrame { lane, frame }).encode(&mut wire);
    }
    WireRecord::Shutdown.encode(&mut wire);

    let mut daemon = Daemon::new(DaemonOptions::default(), None).expect("daemon");
    let state = daemon.state();
    let report = daemon.serve_reader(&wire[..]).expect("serve");
    assert!(report.frames_ledger_closes());

    let metrics = state.lock().unwrap().render_metrics();
    let expected_drops = ((PER_WINDOW - QUEUE_CAP) as u64) * WINDOWS;
    for lane in 0..LANES {
        let drop_line = format!("counter cluster.lane.queue_drops{{lane={lane}}} {expected_drops}");
        assert!(
            metrics.contains(&drop_line),
            "scrape must carry exact per-lane drops; missing {drop_line:?} in:\n{metrics}"
        );
        let hw_line =
            format!("gauge   cluster.lane.queue.high_water{{lane={lane}}} last={QUEUE_CAP} high_water={QUEUE_CAP}");
        assert!(
            metrics.contains(&hw_line),
            "scrape must carry the queue high-water gauge; missing {hw_line:?} in:\n{metrics}"
        );
    }
    // The daemon front-door ledger is scraped alongside.
    assert!(metrics.contains("counter gatewayd.frames_in"));
    assert!(metrics.contains("counter gatewayd.rejected"));
}

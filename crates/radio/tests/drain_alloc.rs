//! A warm gateway drain allocates only the frames it hears first.
//!
//! Once every link a gateway can hear is in its link row, its scratch
//! lists are grown and the arena recycles its chunks, a poll's drains
//! into a reused buffer plus the `release_all` behind them touch the
//! allocator once per transmission heard for the first time: the
//! `Arc<[u8]>` its receivers share. That holds whether the frames were
//! copied into the medium's arena or logged by key and rendered by a
//! [`FrameSource`] on first hear. Any other allocation (a link-row
//! insert or resize, a per-drain list, a per-receiver copy, a
//! per-render buffer) breaks the count. Counting allocations instead
//! of timing them makes the check immune to a noisy host. The
//! allocator counts only on the thread that switched counting on, so
//! libtest's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use wile_radio::medium::{FrameSource, Medium, RadioConfig, RadioId, RxFrame, TxParams};
use wile_radio::time::{Duration, Instant};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations while
/// [`COUNTING`] is set.
struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only touches const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const BEACON: &[u8] = b"a beacon of the drain allocation guard";

/// Renders key `k` as [`BEACON`] followed by `k`'s eight little-endian
/// bytes, into the medium's buffer: no allocation of its own.
#[derive(Debug)]
struct Beacons;

impl FrameSource for Beacons {
    fn render(&self, key: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(BEACON);
        out.extend_from_slice(&key.to_le_bytes());
    }
}

#[test]
fn a_warm_poll_allocates_one_arc_per_first_hear() {
    assert_warm_poll_allocates_one_arc_per_first_hear(false);
}

#[test]
fn a_warm_poll_of_keyed_frames_allocates_one_arc_per_first_hear() {
    assert_warm_poll_allocates_one_arc_per_first_hear(true);
}

/// Two periods of beacons, each followed by a poll; the second poll's
/// allocations are counted. With `by_key` every beacon goes through
/// [`Medium::transmit_from`] with a per-transmission key.
fn assert_warm_poll_allocates_one_arc_per_first_hear(by_key: bool) {
    const DEVICES: u64 = 800;
    let period = Duration::from_secs(10);
    let stagger = Duration::from_ms(2);
    let params = TxParams {
        airtime: Duration::from_us(300),
        power_dbm: 0.0,
        min_snr_db: 4.0,
    };
    let mut medium = Medium::new(Default::default(), 42);
    medium.retire_consumed(true);
    let source = medium.add_source(Arc::new(Beacons));
    let keyed_len = (BEACON.len() + 8) as u16;
    // A 2×2 gateway grid over a 40×20 device grid at 4 m pitch: the
    // gateways' horizons (~54 m) overlap, so most beacons are heard by
    // several gateways and each first hear is shared.
    let gateways: Vec<RadioId> = [(40.0, 20.0), (120.0, 20.0), (40.0, 60.0), (120.0, 60.0)]
        .into_iter()
        .map(|position_m| {
            medium.attach(RadioConfig {
                position_m,
                ..Default::default()
            })
        })
        .collect();
    let devices: Vec<RadioId> = (0..DEVICES)
        .map(|d| {
            medium.attach(RadioConfig {
                position_m: ((d % 40) as f64 * 4.0, (d / 40) as f64 * 4.0),
                ..Default::default()
            })
        })
        .collect();
    let mut heard: Vec<RxFrame> = Vec::new();
    // Period `k`: every device beacons once, then the poll drains each
    // gateway into `heard` and releases the period.
    let period_of_beacons = |medium: &mut Medium, k: u64| {
        let start = Instant::ZERO + Duration::from_nanos(k * period.as_nanos());
        for (d, &radio) in devices.iter().enumerate() {
            let at = start + Duration::from_nanos(d as u64 * stagger.as_nanos());
            if by_key {
                medium.transmit_from(radio, at, params, source, k * DEVICES + d as u64, keyed_len);
            } else {
                medium.transmit(radio, at, params, BEACON);
            }
        }
        start + period
    };
    let poll = |medium: &mut Medium, heard: &mut Vec<RxFrame>, up_to: Instant| {
        for &gw in &gateways {
            medium.take_inbox_into(gw, up_to, heard);
        }
        medium.release_all(up_to);
    };

    // Warm-up: every link enters its row, the buffer and the scratch
    // lists reach their working size, and retirement stocks the arena's
    // spare chunks.
    let up_to = period_of_beacons(&mut medium, 0);
    poll(&mut medium, &mut heard, up_to);
    heard.clear();
    heard.reserve(4 * DEVICES as usize);
    let warm = medium.stats();

    let up_to = period_of_beacons(&mut medium, 1);
    let n = allocations_in(|| poll(&mut medium, &mut heard, up_to));
    let stats = medium.stats();
    assert_eq!(
        stats.cache_misses, warm.cache_misses,
        "every link was cached"
    );
    let first_hears = heard
        .iter()
        .map(|f| (f.from, f.at))
        .collect::<BTreeSet<_>>()
        .len() as u64;
    assert!(first_hears > 0);
    assert!(
        heard.len() as u64 > first_hears,
        "the world must share first hears between gateways"
    );
    assert_eq!(
        n,
        first_hears,
        "{n} allocations in a warm poll that heard {first_hears} transmissions \
         ({} receptions)",
        heard.len()
    );
}

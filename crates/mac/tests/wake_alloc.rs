//! A fleet wake does not touch the allocator once the medium is warm.
//!
//! A [`BeaconFleet`] wake renders its beacon into the shared template
//! and the medium copies it into its own chunked arena; retirement
//! recycles whole chunks. So after one warm-up period, a further period
//! of wakes plus the poll's `release_all` must make no allocation at
//! all. Counting allocations instead of timing them makes the check
//! immune to a noisy host. This test is the only one in its binary, and
//! the allocator counts only on the thread that switched counting on,
//! so libtest's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wile_mac::{AirCtx, BeaconFleet};
use wile_radio::medium::{Medium, RadioConfig};
use wile_radio::time::{Duration, Instant};
use wile_telemetry::Telemetry;

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

#[test]
fn a_warm_period_of_wakes_allocates_nothing() {
    const DEVICES: u32 = 1_000;
    let period = Duration::from_secs(10);
    let mut medium = Medium::new(Default::default(), 42);
    medium.retire_consumed(true);
    let mut fleet = BeaconFleet::new(period, Instant::from_secs(3_600));
    for d in 0..DEVICES {
        let radio = medium.attach(RadioConfig {
            position_m: ((d % 40) as f64 * 25.0, (d / 40) as f64 * 25.0),
            ..Default::default()
        });
        fleet.push_device(d + 1, radio);
    }
    let (first, stagger) = fleet.wake_train();
    let mut tel = Telemetry::off();
    // One period of wakes in wake order, then the poll's release.
    let mut period_of_wakes = |k: u64| {
        let start = first + Duration::from_nanos(k * period.as_nanos());
        for d in 0..DEVICES {
            let now = start + Duration::from_nanos(d as u64 * stagger.as_nanos());
            let mut air = AirCtx::bare(&mut medium, now, &mut tel);
            fleet.wake(&mut air, d);
        }
        medium.release_all(start + period);
    };
    period_of_wakes(0);
    let n = allocations_in(|| period_of_wakes(1));
    assert_eq!(n, 0, "{n} allocations in a warm period of {DEVICES} wakes");
}

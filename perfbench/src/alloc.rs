//! A counting global allocator: live heap bytes and their peak, for
//! `peak_heap_mib` and `heap.bytes_per_device`.
//!
//! Every allocation goes to the system allocator; the counter only adds
//! and subtracts sizes. Statistics carry no other data, so `Relaxed`
//! ordering is enough (the benchmark runs one worker thread anyway).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator plus live/peak byte counters.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest `live` since the last [`reset_peak`](Self::reset_peak).
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Start a new peak window at the current live heap; returns that
    /// baseline.
    pub fn reset_peak(&self) -> usize {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged, so `System`'s guarantees carry over; the counters never
// touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A private counter (not the process-wide one, which parallel
    /// tests also move) returns to its baseline once the allocation it
    /// saw is freed, and its peak keeps the high point.
    #[test]
    fn counter_returns_to_baseline_after_free() {
        let a = CountingAlloc::new();
        let base = a.reset_peak();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: non-zero size; the pointer is freed with its layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.live(), base + 4096);
            let p = a.realloc(p, layout, 8192);
            assert!(!p.is_null());
            assert_eq!(a.live(), base + 8192);
            a.dealloc(p, Layout::from_size_align(8192, 8).unwrap());
        }
        assert_eq!(a.live(), base);
        assert_eq!(a.peak(), base + 8192);
    }
}

//! Deterministic parallel run engine.
//!
//! [`run_cells`] has two callers: the fault campaign's cells (one
//! campaign per config) and the cluster aggregator's device shards.
//! Each is a set of *independent cells*: each cell reads shared
//! immutable state, writes at most state that only it can reach (an
//! aggregator cell locks and folds its own device shard, which no other
//! cell touches), and owns whatever it produces. That makes them safe
//! to fan across a [`std::thread::scope`] work pool, and because
//! results are merged back **by cell index**, the output is
//! byte-for-byte identical to running the same cells serially, for any
//! worker count. `tests/engine.rs` (in
//! `wile-scenarios`, which re-exports this module) proves this for the
//! fault campaign across seeds and 1/2/8-worker configurations;
//! `tests/cluster_diff.rs` proves it for the sharded cluster
//! aggregation.
//!
//! No work queue crate, no rayon: a shared atomic cursor hands out cell
//! indices, which both balances load (cells vary in cost — a shard
//! whose devices were busy vs one that heard little) and keeps the
//! engine dependency-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use wile_telemetry::{prof_count, prof_enabled, prof_record, ProfScope};

/// Number of workers to use by default: the `WILE_WORKERS` environment
/// variable when set, otherwise the machine's available parallelism
/// (1 if that cannot be determined).
pub fn available_workers() -> usize {
    if let Ok(v) = std::env::var("WILE_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    hardware_threads()
}

/// The machine's available parallelism (1 if that cannot be
/// determined), read once per process.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `cells(0..n)` on `workers` threads and return the results in
/// cell order.
///
/// The closure must be a function of its index alone: it may read
/// shared configuration through its environment, and write only state
/// that belongs to its index (say, behind a lock per cell) — the engine
/// guarantees each index runs exactly once and the output vector is
/// ordered by index, so the merged result cannot depend on scheduling.
/// `workers` is capped at the cell count and at the machine's hardware
/// threads (more threads than cores only add switching); `workers <=
/// 1`, `n <= 1` or a single hardware thread degrade to a plain serial
/// loop on the caller's thread.
pub fn run_cells<T, F>(n: usize, workers: usize, cell: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n).min(hardware_threads());
    if workers <= 1 {
        let _scope = ProfScope::new("engine.serial");
        prof_count("engine.cells", n as u64);
        return (0..n).map(cell).collect();
    }
    // Per-worker cell counts and finish skew are wall-clock facts, so
    // they go to the nondeterministic prof section (WILE_PROF=1 only)
    // and never near the deterministic snapshot.
    let profiling = prof_enabled();
    let _scope = ProfScope::new("engine.parallel");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let finishes: Mutex<Vec<std::time::Instant>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut processed = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = cell(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                    processed += 1;
                }
                if profiling {
                    prof_count("engine.cells", processed);
                    finishes
                        .lock()
                        .expect("prof state poisoned")
                        .push(std::time::Instant::now());
                }
            });
        }
    });
    if profiling {
        // Merge wait: how long the first-finished worker idled before
        // the slowest one released the scope barrier.
        let finishes = finishes.lock().expect("prof state poisoned");
        if let (Some(first), Some(last)) = (finishes.iter().min(), finishes.iter().max()) {
            prof_record(
                "engine.merge_wait",
                last.duration_since(*first).as_nanos() as u64,
            );
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("cell ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_are_in_cell_order_for_any_worker_count() {
        let serial: Vec<usize> = run_cells(37, 1, |i| i * i);
        for workers in [2, 3, 8, 64] {
            assert_eq!(
                run_cells(37, workers, |i| i * i),
                serial,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let counters: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        run_cells(100, 8, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "cell {i}");
        }
    }

    #[test]
    fn zero_and_one_cells() {
        assert!(run_cells(0, 8, |i| i).is_empty());
        assert_eq!(run_cells(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_cell_cost_still_merges_in_order() {
        // Early cells are the slow ones: workers finish out of order,
        // the merge must not care.
        let out = run_cells(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}

//! The work-stealing worker pool.
//!
//! [`run_ordered`] fans a batch of items out over `crossbeam` scoped
//! threads that steal work from a shared injector queue, and returns the
//! results **in item order** regardless of which worker computed what or
//! in what interleaving — each worker tags its outputs with the item
//! index and the results are reassembled into index-order slots at the
//! end. With a pure work function the output is therefore bit-identical
//! for any worker count.
//!
//! Per-worker throughput counters (items processed, busy time) come back
//! alongside the results.

use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal};

/// One worker's throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Items this worker processed.
    pub items: u64,
    /// Time spent inside the work function.
    pub busy: Duration,
    /// Successful steals from the shared injector (equals `items` in the
    /// current single-queue design; kept separate so the telemetry layer
    /// reports queue behaviour, not a derived quantity).
    pub steals: u64,
    /// `Steal::Retry` collisions observed while taking from the injector.
    pub retries: u64,
}

impl WorkerStats {
    /// A zeroed counter block for `worker`.
    pub fn new(worker: usize) -> Self {
        WorkerStats { worker, items: 0, busy: Duration::ZERO, steals: 0, retries: 0 }
    }
}

impl WorkerStats {
    /// Items per busy second (0 when the worker never ran).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

/// Results of one pool run.
#[derive(Debug, Clone)]
pub struct PoolRun<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

/// Worker count to use by default: the machine's available parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Split `slots` pool slots between batch-level parallelism and per-run
/// engine threads: `(outer, inner)` with `outer` concurrent jobs, each
/// allowed `inner` intra-run threads (`cluster_sim::Engine::run_parallel`).
///
/// Campaign-level scenarios come first — they parallelise perfectly — and
/// only *spare* slots are donated to intra-run threading, so a wide batch
/// (`jobs >= slots`) gets sequential runs and a narrow batch (few
/// scenarios, many ranks) gets multi-threaded ones. Never oversubscribes:
/// `outer * inner <= slots` (with the usual minimum of one each).
pub fn nested_plan(slots: usize, jobs: usize) -> (usize, usize) {
    let slots = slots.max(1);
    if jobs == 0 {
        return (1, slots);
    }
    let outer = slots.min(jobs);
    let inner = (slots / outer).max(1);
    (outer, inner)
}

/// Per-run engine thread override from the `PACE_SIM_THREADS` environment
/// variable — the hook CI's `threads=4` matrix leg uses to route every
/// replication campaign through the parallel engine. Results are
/// bit-identical either way; only wall-clock behaviour changes.
pub fn sim_threads_override() -> Option<usize> {
    let raw = std::env::var("PACE_SIM_THREADS").ok()?;
    raw.trim().parse().ok().filter(|&t| t > 0)
}

/// Apply `work` to every item on a pool of `workers` threads, returning
/// results in item order. `workers <= 1` runs inline on the caller's
/// thread (no spawn), which is also the serial reference for determinism
/// tests.
pub fn run_ordered<T, R, F>(items: Vec<T>, workers: usize, work: F) -> PoolRun<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_ordered_with_worker(items, workers, |_, item| work(item))
}

/// Like [`run_ordered`], but the work function also receives the index of
/// the worker executing the item — the hook the telemetry layer uses to
/// attribute per-scenario wall spans to pool threads.
pub fn run_ordered_with_worker<T, R, F>(items: Vec<T>, workers: usize, work: F) -> PoolRun<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));

    if workers <= 1 {
        let t0 = Instant::now();
        let results: Vec<R> = items.iter().map(|item| work(0, item)).collect();
        let stats = WorkerStats {
            items: n as u64,
            busy: t0.elapsed(),
            steals: n as u64,
            ..WorkerStats::new(0)
        };
        return PoolRun { results, workers: vec![stats], wall: started.elapsed() };
    }

    let injector = Injector::new();
    for indexed in items.into_iter().enumerate() {
        injector.push(indexed);
    }

    let outputs = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let injector = &injector;
                let work = &work;
                s.spawn(move |_| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut stats = WorkerStats::new(w);
                    loop {
                        match injector.steal() {
                            Steal::Success((i, item)) => {
                                stats.steals += 1;
                                let t0 = Instant::now();
                                let r = work(w, &item);
                                stats.busy += t0.elapsed();
                                stats.items += 1;
                                local.push((i, r));
                            }
                            Steal::Empty => break,
                            Steal::Retry => {
                                stats.retries += 1;
                                std::hint::spin_loop();
                            }
                        }
                    }
                    (stats, local)
                })
            })
            .collect();
        // Re-raise a worker's panic with its own payload, so the caller
        // sees the real cause rather than an opaque join error.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut worker_stats = Vec::with_capacity(workers);
    for (stats, local) in outputs {
        worker_stats.push(stats);
        for (i, r) in local {
            debug_assert!(slots[i].is_none(), "item {i} computed twice");
            slots[i] = Some(r);
        }
    }
    worker_stats.sort_by_key(|s| s.worker);
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("item {i} never evaluated")))
        .collect();
    PoolRun { results, workers: worker_stats, wall: started.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_panic_surfaces_its_own_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_ordered((0..16u32).collect(), 2, |&x| {
                if x == 5 {
                    std::panic::panic_any(String::from("virtual time overflow"));
                }
                x
            })
        });
        let payload = caught.expect_err("the panicking item must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("virtual time overflow")
        );
    }

    #[test]
    fn empty_batch() {
        let run = run_ordered(Vec::<u32>::new(), 4, |x| x * 2);
        assert!(run.results.is_empty());
        assert_eq!(run.workers.len(), 1);
    }

    #[test]
    fn order_is_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        for workers in [1, 2, 3, 8] {
            let run = run_ordered(items.clone(), workers, |&x| x * x);
            assert_eq!(
                run.results,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn every_item_counted_exactly_once() {
        let run = run_ordered((0..57u64).collect(), 4, |&x| x);
        let total: u64 = run.workers.iter().map(|w| w.items).sum();
        assert_eq!(total, 57);
        assert_eq!(
            run.workers.iter().map(|w| w.worker).collect::<Vec<_>>(),
            (0..run.workers.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_workers_than_items_is_clamped() {
        let run = run_ordered(vec![1, 2, 3], 64, |&x: &i32| x + 1);
        assert_eq!(run.results, vec![2, 3, 4]);
        assert!(run.workers.len() <= 3);
    }

    #[test]
    fn nested_plan_spends_slots_on_jobs_first() {
        assert_eq!(nested_plan(8, 3), (3, 2)); // spare slots donated inward
        assert_eq!(nested_plan(8, 8), (8, 1)); // saturated: sequential runs
        assert_eq!(nested_plan(8, 16), (8, 1)); // oversubscribed batch
        assert_eq!(nested_plan(8, 1), (1, 8)); // one big run gets everything
        assert_eq!(nested_plan(1, 5), (1, 1)); // single slot
        assert_eq!(nested_plan(4, 0), (1, 4)); // degenerate empty batch
        assert_eq!(nested_plan(0, 3), (1, 1)); // degenerate zero slots
        for slots in 1..=16 {
            for jobs in 0..=20 {
                let (outer, inner) = nested_plan(slots, jobs);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer * inner <= slots.max(1), "oversubscribed at {slots}/{jobs}");
            }
        }
    }

    #[test]
    fn throughput_counter_is_sane() {
        let stats =
            WorkerStats { items: 10, busy: Duration::from_millis(100), ..WorkerStats::new(0) };
        assert!((stats.items_per_sec() - 100.0).abs() < 1.0);
        let idle = WorkerStats::new(1);
        assert_eq!(idle.items_per_sec(), 0.0);
    }

    #[test]
    fn steal_counters_cover_every_item() {
        for workers in [1, 4] {
            let run = run_ordered((0..40u64).collect(), workers, |&x| x);
            let steals: u64 = run.workers.iter().map(|w| w.steals).sum();
            assert_eq!(steals, 40, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_fast_path_spawns_no_threads() {
        let caller = std::thread::current().id();
        let run = run_ordered_with_worker((0..16u64).collect(), 1, |w, &x| {
            assert_eq!(w, 0, "inline path is always worker 0");
            (std::thread::current().id(), x)
        });
        assert_eq!(run.workers.len(), 1);
        for &(tid, _) in &run.results {
            assert_eq!(tid, caller, "workers==1 must run inline on the caller thread");
        }
        // Two or more workers do spawn: every item runs off the caller.
        let spawned = run_ordered_with_worker((0..16u64).collect(), 2, |_, &x| {
            (std::thread::current().id(), x)
        });
        assert!(
            spawned.results.iter().all(|&(tid, _)| tid != caller),
            "workers>=2 must run on pool threads"
        );
    }

    #[test]
    fn worker_index_is_within_pool_bounds() {
        let run = run_ordered_with_worker((0..100u64).collect(), 4, |w, &x| (w, x * 2));
        let pool_size = run.workers.len();
        for (i, &(w, doubled)) in run.results.iter().enumerate() {
            assert!(w < pool_size);
            assert_eq!(doubled, (i as u64) * 2);
        }
    }
}

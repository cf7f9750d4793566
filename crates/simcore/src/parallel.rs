//! Bounded fan-out for independent repetitions.
//!
//! Repetitions of a deterministic simulation are embarrassingly
//! parallel — each builds its own state from `(config, seed)` — so the
//! engine's trials and the grid's campaigns fan them out over
//! [`parallel_map`]. Determinism is preserved: each repetition's seed
//! is a pure function of `(base_seed, index)`
//! ([`repetition_seed`](crate::repetition_seed)), results come back in
//! index order, and callers fold them in that order — so statistics are
//! bit-identical to the sequential path regardless of thread
//! scheduling. The fan-out runs on at most `available_parallelism`
//! worker threads however many jobs there are.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `0..n` on a scoped pool of at most
/// `available_parallelism` workers, returning results in index order.
/// Work is claimed through an atomic cursor so uneven job costs balance
/// across workers; output order is fixed by index, not by completion
/// order, keeping downstream folds deterministic.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("parallel_map result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("parallel_map result slot poisoned")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{OnlineStats, RepetitionRunner};

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(257, |i| i * 3);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn matches_sequential_runner() {
        // Folding the fan-out's results in index order is the
        // sequential runner's fold, bit for bit.
        let runner = RepetitionRunner::new().repetitions(64).base_seed(9);
        let f = |seed: u64| (seed as f64).sqrt() / 7.0;
        let seq = runner.run(f);
        let mut par = OnlineStats::new();
        for v in parallel_map(64, |rep| f(runner.seed_for(rep as u32))) {
            par.push(v);
        }
        let par = par.summary();
        assert_eq!(seq.n, par.n);
        assert_eq!(seq.mean.to_bits(), par.mean.to_bits());
        assert_eq!(seq.stddev.to_bits(), par.stddev.to_bits());
        assert_eq!(seq.min, par.min);
        assert_eq!(seq.max, par.max);
    }

    #[test]
    fn at_most_available_parallelism_jobs_run_at_once() {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = parallel_map(64, |i| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Hold the job until a job beyond the cap starts beside it,
            // or for a bounded number of yields: a fan-out of one
            // thread per job fails the bound below at once.
            for _ in 0..1000 {
                if running.load(Ordering::SeqCst) > workers {
                    break;
                }
                std::thread::yield_now();
            }
            running.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= workers,
            "{peak} jobs ran at once on {workers} workers"
        );
    }
}

//! Statistics toolkit.
//!
//! The paper repeats every measurement "at least 50 times" and reports
//! means normalized against the native environment. This module provides
//! the same machinery: online mean/variance accumulation (Welford),
//! normal-approximation confidence intervals, and a repetition runner that
//! executes a seeded experiment closure N times and summarizes.

/// Welford online accumulator for mean and variance.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; NaN when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; NaN when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// 95 % confidence interval for the mean (normal approximation; the
    /// repetition counts used in the testbed, >= 50, make the t vs z
    /// distinction negligible).
    pub fn ci95(&self) -> ConfidenceInterval {
        let half = 1.96 * self.stderr();
        ConfidenceInterval {
            lo: self.mean() - half,
            hi: self.mean() + half,
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot summary.
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stddev: self.stddev(),
            min: self.min(),
            max: self.max(),
            ci95: self.ci95(),
        }
    }
}

/// Counters describing a discrete-event loop's activity over one run.
///
/// Filled in by the OS layer's event loop and aggregated across trials by
/// the experiment engine. The headline figure for the slice-coalescing
/// fast path is [`EventLoopStats::events_coalesced`]: scheduler quanta
/// that were accounted analytically instead of each costing a heap pop,
/// a contention solve and a retime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventLoopStats {
    /// Events popped from the queue and handled.
    pub events_handled: u64,
    /// Scheduler quantum boundaries crossed (analytically or via events).
    pub quanta_crossed: u64,
    /// Quantum boundaries that were materialized as actual `SliceEnd`
    /// events (per-quantum reference mode makes every boundary one).
    pub quantum_events: u64,
    /// Past-scheduled events clamped forward by the queue (release builds
    /// only; should always be 0).
    pub clamped_events: u64,
    /// Contention-model memoization hits.
    pub memo_hits: u64,
    /// Contention-model memoization misses (full solver runs).
    pub memo_misses: u64,
    /// Simulated seconds covered by the run.
    pub sim_seconds: f64,
}

impl EventLoopStats {
    /// Quantum boundaries that did *not* cost an event: crossed
    /// analytically by the coalescing fast path.
    pub fn events_coalesced(&self) -> u64 {
        self.quanta_crossed.saturating_sub(self.quantum_events)
    }

    /// Events handled per simulated second; 0 for an empty run.
    pub fn events_per_sim_second(&self) -> f64 {
        if self.sim_seconds > 0.0 {
            self.events_handled as f64 / self.sim_seconds
        } else {
            0.0
        }
    }

    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: &EventLoopStats) {
        self.events_handled += other.events_handled;
        self.quanta_crossed += other.quanta_crossed;
        self.quantum_events += other.quantum_events;
        self.clamped_events += other.clamped_events;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.sim_seconds += other.sim_seconds;
    }

    /// Human-readable one-line summary for verbose/trace output.
    pub fn render(&self) -> String {
        format!(
            "events={} coalesced={} quanta={} ev/simsec={:.1} memo={}/{} clamped={}",
            self.events_handled,
            self.events_coalesced(),
            self.quanta_crossed,
            self.events_per_sim_second(),
            self.memo_hits,
            self.memo_hits + self.memo_misses,
            self.clamped_events,
        )
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
    /// True if `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Frozen summary of a set of observations.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// 95 % confidence interval on the mean.
    pub ci95: ConfidenceInterval,
}

impl Summary {
    /// Relative standard deviation (coefficient of variation); 0 when the
    /// mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean.abs()
        }
    }
}

/// Base seed of every repetition stream that sets none: the
/// [`RepetitionRunner`] default, the engine's trials and the grid's
/// campaigns, so unseeded trials and campaigns agree.
pub const DEFAULT_BASE_SEED: u64 = 0xD0A1_57E5_7BED_5EED;

/// Seed of repetition `rep` of a `repetitions`-long stream from
/// `base_seed`. A single repetition uses the base seed verbatim (it pins
/// one specific simulation); repeated runs derive independent
/// per-repetition seeds with [`RepetitionRunner::seed_for`].
pub fn repetition_seed(base_seed: u64, repetitions: u32, rep: u32) -> u64 {
    if repetitions <= 1 {
        base_seed
    } else {
        RepetitionRunner::new().base_seed(base_seed).seed_for(rep)
    }
}

/// Runs a seeded experiment closure a configurable number of times
/// (default 50, matching the paper's methodology) and accumulates the
/// scalar metric each run produces.
///
/// The closure receives the repetition index, from which it should derive
/// its seed so that repetitions are independent but the whole sweep is
/// reproducible.
#[derive(Debug, Clone)]
pub struct RepetitionRunner {
    repetitions: u32,
    base_seed: u64,
}

impl Default for RepetitionRunner {
    fn default() -> Self {
        RepetitionRunner {
            repetitions: 50,
            base_seed: DEFAULT_BASE_SEED,
        }
    }
}

impl RepetitionRunner {
    /// Runner with the paper's default of 50 repetitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the repetition count (minimum 1).
    pub fn repetitions(mut self, n: u32) -> Self {
        self.repetitions = n.max(1);
        self
    }

    /// Set the base seed mixed into every repetition's seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Seed for repetition `rep`.
    pub fn seed_for(&self, rep: u32) -> u64 {
        // SplitMix-style mix of base seed and repetition index.
        let mut z = self
            .base_seed
            .wrapping_add((rep as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Run `f(seed)` for each repetition and summarize the returned metric.
    pub fn run<F>(&self, mut f: F) -> Summary
    where
        F: FnMut(u64) -> f64,
    {
        let mut acc = OnlineStats::new();
        for rep in 0..self.repetitions {
            acc.push(f(self.seed_for(rep)));
        }
        acc.summary()
    }
}

/// Geometric mean, used by the NBench-style index computation.
/// Returns 0 for an empty slice; panics on non-positive entries.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric mean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert_eq!(s.stderr(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary().n, before.n);
        assert_eq!(a.summary().mean, before.mean);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        // Same spread, different n.
        for i in 0..10 {
            small.push((i % 2) as f64);
        }
        for i in 0..1000 {
            large.push((i % 2) as f64);
        }
        assert!(large.ci95().half_width() < small.ci95().half_width());
        assert!(large.ci95().contains(0.5));
    }

    #[test]
    fn repetition_runner_is_deterministic() {
        let runner = RepetitionRunner::new().repetitions(50);
        let s1 = runner.run(|seed| (seed % 1000) as f64);
        let s2 = runner.run(|seed| (seed % 1000) as f64);
        assert_eq!(s1.n, 50);
        assert_eq!(s1.mean, s2.mean);
        assert_eq!(s1.stddev, s2.stddev);
    }

    #[test]
    fn repetition_seeds_are_distinct() {
        let runner = RepetitionRunner::new().repetitions(50);
        let mut seeds: Vec<u64> = (0..50).map(|r| runner.seed_for(r)).collect();
        // simlint: allow(unstable-sort) -- u64 keys are total; order of equals unobservable
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 50);
    }

    #[test]
    fn different_base_seed_changes_streams() {
        let a = RepetitionRunner::new().base_seed(1);
        let b = RepetitionRunner::new().base_seed(2);
        assert_ne!(a.seed_for(0), b.seed_for(0));
    }

    #[test]
    fn geometric_mean_basic() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn event_loop_stats_derive_and_merge() {
        let mut a = EventLoopStats {
            events_handled: 10,
            quanta_crossed: 100,
            quantum_events: 4,
            clamped_events: 0,
            memo_hits: 8,
            memo_misses: 2,
            sim_seconds: 5.0,
        };
        assert_eq!(a.events_coalesced(), 96);
        assert!((a.events_per_sim_second() - 2.0).abs() < 1e-12);
        let b = EventLoopStats {
            events_handled: 5,
            quanta_crossed: 7,
            quantum_events: 7,
            sim_seconds: 5.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events_handled, 15);
        assert_eq!(a.quanta_crossed, 107);
        assert_eq!(a.events_coalesced(), 96);
        assert!((a.sim_seconds - 10.0).abs() < 1e-12);
        assert_eq!(EventLoopStats::default().events_per_sim_second(), 0.0);
        assert!(a.render().contains("coalesced=96"));
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let mut s = OnlineStats::new();
        for _ in 0..10 {
            s.push(5.0);
        }
        assert_eq!(s.summary().cv(), 0.0);
    }
}

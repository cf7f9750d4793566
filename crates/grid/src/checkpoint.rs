//! Client-side robustness: checkpoint durability, refetch backoff and
//! quorum validation.
//!
//! These are the mechanisms that let a volunteer project survive the
//! churn injected by [`crate::faults`]: periodic checkpoints bound how
//! much work an interruption destroys, exponential backoff keeps idle
//! hosts from hammering an empty server queue, and replication + quorum
//! turn unreliable per-host results into validated science.

use vgrid_simcore::SimDuration;

/// Disk write bandwidth used to cost checkpoint writes, bytes/sec
/// (the testbed disk's sequential write rate).
pub const DISK_WRITE_BW: f64 = 55.0e6;

/// Fraction of host time spent writing checkpoint state of
/// `state_bytes` every `interval`. A zero interval means checkpointing
/// is disabled: no write overhead (and no durability either).
pub fn write_overhead_frac(state_bytes: u64, interval: SimDuration) -> f64 {
    if interval.is_zero() {
        return 0.0;
    }
    (state_bytes as f64 / DISK_WRITE_BW) / interval.as_secs_f64().max(1.0)
}

/// Progress (in reference seconds) surviving a destructive fault:
/// rolled back to the last whole checkpoint `quantum`, never below
/// `prior` durable progress (pre-existing checkpoints or migrated
/// state). A non-positive quantum means checkpointing is disabled —
/// only `prior` survives.
pub fn durable_progress(new_progress: f64, prior: f64, quantum: f64) -> f64 {
    if quantum <= 0.0 {
        return prior;
    }
    let kept = (new_progress / quantum).floor() * quantum;
    kept.max(prior)
}

/// Exponential-backoff parameters for work refetch after an empty
/// scheduler reply (BOINC clients behave the same way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Delay ceiling.
    pub cap: SimDuration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_secs(60),
            cap: SimDuration::from_secs(4 * 3600),
        }
    }
}

/// Per-host backoff state: doubles on every empty reply, resets when
/// work is assigned.
#[derive(Debug, Clone, Copy)]
pub struct BackoffState {
    next: SimDuration,
}

impl BackoffState {
    /// Fresh state starting at the policy's base delay.
    pub fn new(policy: &BackoffPolicy) -> Self {
        BackoffState { next: policy.base }
    }

    /// The delay to wait before the next refetch; doubles the stored
    /// delay toward the cap.
    pub fn next_delay(&mut self, policy: &BackoffPolicy) -> SimDuration {
        let d = self.next;
        self.next = self.next.scale(2.0).min(policy.cap);
        d
    }

    /// Work arrived: start over from the base delay.
    pub fn reset(&mut self, policy: &BackoffPolicy) {
        self.next = policy.base;
    }
}

/// What [`QuorumValidator::record`] decided about one returned result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The result completed the quorum: its work unit just validated.
    NewlyValidated,
    /// A good result counted toward a not-yet-met quorum.
    Counted,
    /// The result failed validation (computation error).
    Rejected,
    /// A good result for an already-validated work unit (redundant).
    Late,
}

/// Server-side replication/quorum bookkeeping: counts matching results
/// per work unit, declares validation at quorum, and attributes the CPU
/// time of quorum-contributing results as *useful* (everything else a
/// campaign spends is waste — lost to churn, bad results, or redundant
/// late returns).
#[derive(Debug, Clone)]
pub struct QuorumValidator {
    quorum: u32,
    units: Vec<UnitState>,
    validated_count: u32,
    useful_cpu_secs: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct UnitState {
    good: u32,
    validated: bool,
    /// CPU seconds of good results received before validation.
    pending_cpu: f64,
}

impl QuorumValidator {
    /// Bookkeeping for `workunits` units validating at `quorum` matches.
    pub fn new(workunits: u32, quorum: u32) -> Self {
        QuorumValidator {
            quorum,
            units: vec![UnitState::default(); workunits as usize],
            validated_count: 0,
            useful_cpu_secs: 0.0,
        }
    }

    /// Whether `wu` has validated.
    pub fn is_validated(&self, wu: usize) -> bool {
        self.units[wu].validated
    }

    /// Work units validated so far.
    pub fn validated_count(&self) -> u32 {
        self.validated_count
    }

    /// CPU seconds of the results that produced validated work units.
    pub fn useful_cpu_secs(&self) -> f64 {
        self.useful_cpu_secs
    }

    /// Record a returned result for `wu` that cost `cpu_secs` of
    /// volunteer compute time.
    pub fn record(&mut self, wu: usize, good: bool, cpu_secs: f64) -> RecordOutcome {
        if !good {
            return RecordOutcome::Rejected;
        }
        let unit = &mut self.units[wu];
        if unit.validated {
            return RecordOutcome::Late;
        }
        unit.good += 1;
        unit.pending_cpu += cpu_secs;
        if unit.good >= self.quorum {
            unit.validated = true;
            self.validated_count += 1;
            self.useful_cpu_secs += unit.pending_cpu;
            return RecordOutcome::NewlyValidated;
        }
        RecordOutcome::Counted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_progress_quantizes_to_checkpoints() {
        // 2.7 quanta of 100 ref-secs: 200 survive.
        assert_eq!(durable_progress(270.0, 0.0, 100.0), 200.0);
        // Never below prior durable progress.
        assert_eq!(durable_progress(270.0, 250.0, 100.0), 250.0);
        // Checkpointing disabled: only prior survives.
        assert_eq!(durable_progress(270.0, 0.0, 0.0), 0.0);
        assert_eq!(durable_progress(270.0, 50.0, 0.0), 50.0);
    }

    #[test]
    fn write_overhead_scales_with_state_and_interval() {
        let vm = write_overhead_frac(300 << 20, SimDuration::from_secs(600));
        let native = write_overhead_frac(1 << 20, SimDuration::from_secs(600));
        assert!(vm > native);
        assert!(vm < 0.05, "overhead fraction stays small: {vm}");
        assert_eq!(write_overhead_frac(300 << 20, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let policy = BackoffPolicy::default();
        let mut st = BackoffState::new(&policy);
        let mut last = SimDuration::ZERO;
        for _ in 0..12 {
            let d = st.next_delay(&policy);
            assert!(d >= last);
            assert!(d <= policy.cap);
            last = d;
        }
        assert_eq!(last, policy.cap);
        st.reset(&policy);
        assert_eq!(st.next_delay(&policy), policy.base);
    }

    #[test]
    fn quorum_validation_attributes_useful_cpu() {
        let mut v = QuorumValidator::new(2, 2);
        assert_eq!(v.record(0, true, 100.0), RecordOutcome::Counted);
        assert_eq!(v.validated_count(), 0);
        assert_eq!(v.useful_cpu_secs(), 0.0);
        assert_eq!(v.record(0, false, 40.0), RecordOutcome::Rejected);
        assert_eq!(v.record(0, true, 120.0), RecordOutcome::NewlyValidated);
        assert!(v.is_validated(0));
        assert_eq!(v.validated_count(), 1);
        // Both quorum contributions count; the bad result does not.
        assert_eq!(v.useful_cpu_secs(), 220.0);
        assert_eq!(v.record(0, true, 99.0), RecordOutcome::Late);
        assert_eq!(v.useful_cpu_secs(), 220.0);
    }
}

//! Whole-trial analytic fast-forward: prefix trajectory reuse and lazy
//! work-queue materialization.
//!
//! The paper's figures are parameter sweeps (VMM × workload ×
//! checkpoint interval × churn), and neighbouring sweep points re-run
//! near-identical trajectories. This module holds the two reuse layers
//! the sweep hot loop leans on (DESIGN.md §13):
//!
//! 1. **Trajectory cache** — a completed campaign's loop-exit state is
//!    snapshotted per full configuration key (project, pool, deploy,
//!    churn, seed — everything *except* the horizon, the one divergence
//!    axis that provably only affects the future). A later trial of the
//!    same configuration with a longer horizon resumes from the stored
//!    prefix instead of t=0. This is what turns the engine's
//!    whole-`TrialResult` cache into partial-trajectory reuse, and it is
//!    the only process-wide grid cache.
//! 2. **Lazy work queue** — fresh task copies stay a virtual cursor
//!    until a host takes one, instead of being materialized up front.
//!
//! Everything here is behaviour-transparent by contract: the
//! hydrated-reference substrate and the kill switch
//! (`RunOptions::fastforward`, `--no-fastforward` on the CLI) skip the
//! trajectory cache and run the eager queue, and the equivalence suites
//! plus the churn-sweep digest pinned in `tests/sim_output_pins.rs` hold
//! the fast path bit-identical to both.

use crate::faults::ChurnConfig;
use crate::model::{DeployConfig, PoolConfig, ProjectConfig};
use crate::sim::{CampaignCheckpoint, TaskCopy, Work};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vgrid_simcore::{DetMap, SimTime};

/// Upper bound on distinct configurations the trajectory cache retains;
/// the oldest-inserted configuration is evicted beyond it. Eviction only
/// costs a future cold run — results are bit-identical either way.
const TRAJECTORY_CONFIG_CAP: usize = 128;

/// Snapshots retained per configuration (one per distinct horizon);
/// the smallest-horizon snapshot is dropped first, since resume always
/// wants the largest stored prefix at or below the requested horizon.
const TRAJECTORY_HORIZON_CAP: usize = 4;

/// Pools larger than this are never snapshotted: a million-host
/// checkpoint would cost more memory than the replay it saves.
const TRAJECTORY_MAX_HOSTS: usize = 20_000;

static TRAJECTORY_HITS: AtomicU64 = AtomicU64::new(0);
static TRAJECTORY_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide fast-forward hit/miss counters, surfaced through
/// `simobs::MetricsRegistry` by observed runs (delta over the capture).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Always zero: no segment or probe memo is left to hit. Kept
    /// because the repository benchmark (`perfbench/child.rs`) reads it.
    pub segment_hits: u64,
    /// Always zero, like [`FastForwardStats::segment_hits`].
    pub segment_misses: u64,
    /// Campaigns resumed from a stored prefix trajectory.
    pub trajectory_hits: u64,
    /// Campaigns that ran cold (no usable prefix stored).
    pub trajectory_misses: u64,
}

/// Snapshot the process-wide counters.
pub fn stats() -> FastForwardStats {
    FastForwardStats {
        trajectory_hits: TRAJECTORY_HITS.load(Ordering::Relaxed),
        trajectory_misses: TRAJECTORY_MISSES.load(Ordering::Relaxed),
        ..FastForwardStats::default()
    }
}

// ---------------------------------------------------------------------
// Trajectory cache (prefix reuse across trials).
// ---------------------------------------------------------------------

struct TrajectoryCache {
    /// Config key → snapshots sorted by ascending horizon.
    entries: DetMap<String, Vec<(SimTime, CampaignCheckpoint)>>,
    /// Insertion order of config keys, for capacity eviction.
    order: VecDeque<String>,
}

static TRAJECTORIES: Mutex<Option<TrajectoryCache>> = Mutex::new(None);

/// Full configuration identity of a campaign trajectory: everything
/// that shapes the event stream *except* the horizon. The horizon is
/// the one spec axis whose divergence point is provably in the future —
/// it appears only in the loop break check and final accounting — so it
/// is the resume axis rather than part of the key (DESIGN.md §13).
pub(crate) fn trajectory_key(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
) -> String {
    format!("{project:?}|{pool:?}|{deploy:?}|{churn:?}|seed={seed:#x}")
}

/// Largest stored prefix snapshot at or below `horizon` with its stored
/// horizon, cloned out of the cache. Counted as one trajectory hit or
/// miss per campaign.
pub(crate) fn trajectory_lookup(
    key: &str,
    horizon: SimTime,
) -> Option<(SimTime, CampaignCheckpoint)> {
    let guard = TRAJECTORIES
        .lock()
        .expect("grid::fastforward::TRAJECTORIES poisoned");
    let hit = guard.as_ref().and_then(|cache| {
        cache.entries.get(key).and_then(|snaps| {
            snaps
                .iter()
                .rev()
                .find(|(h, _)| *h <= horizon)
                .map(|(h, ckpt)| (*h, ckpt.clone()))
        })
    });
    drop(guard);
    if hit.is_some() {
        TRAJECTORY_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        TRAJECTORY_MISSES.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Store a loop-exit snapshot for `key` at `horizon`. Pools above
/// [`TRAJECTORY_MAX_HOSTS`] are skipped (memory), duplicate horizons are
/// kept-first (determinism makes them identical), and both per-config
/// and whole-cache capacity bounds evict deterministically under
/// sequential callers. Eviction affects future speed only, never bits.
pub(crate) fn trajectory_store(key: &str, horizon: SimTime, ckpt: CampaignCheckpoint) {
    if ckpt.host_count() > TRAJECTORY_MAX_HOSTS {
        return;
    }
    let mut guard = TRAJECTORIES
        .lock()
        .expect("grid::fastforward::TRAJECTORIES poisoned");
    let cache = guard.get_or_insert_with(|| TrajectoryCache {
        entries: DetMap::new(),
        order: VecDeque::new(),
    });
    if !cache.entries.contains_key(key) {
        cache.order.push_back(key.to_string());
        while cache.order.len() > TRAJECTORY_CONFIG_CAP {
            if let Some(evict) = cache.order.pop_front() {
                cache.entries.remove(&evict);
            }
        }
    }
    let snaps = cache.entries.or_insert_with(key.to_string(), Vec::new);
    if snaps.iter().any(|(h, _)| *h == horizon) {
        return;
    }
    snaps.push((horizon, ckpt));
    snaps.sort_by_key(|(h, _)| *h);
    while snaps.len() > TRAJECTORY_HORIZON_CAP {
        snaps.remove(0);
    }
}

// ---------------------------------------------------------------------
// Lazy work queue.
// ---------------------------------------------------------------------

/// The campaign's server-side work queue. The legacy simulator eagerly
/// materialized every `TaskCopy` (workunits × replication of them) and
/// issued them all at t=0 — ~75 % of a zero-churn sweep point's cost.
/// The lazy form keeps fresh copies as a virtual cursor and
/// materializes a copy only when a host actually takes it.
///
/// Bit-transparency: copy indices are internal lookup keys that never
/// reach a report, both forms materialize copies through
/// `TaskCopy::issue`, and pop order (front resumes → fresh cursor →
/// back reissues) is exactly the eager queue's order. The reference
/// substrate and the `--no-fastforward` arm use [`WorkQueue::eager`],
/// which reproduces the legacy setup verbatim. The default is the empty
/// queue a parked host's settled flips see.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkQueue {
    /// Migrated resumes jump the queue (legacy `push_front`).
    front: VecDeque<Work>,
    /// Next fresh copy the cursor will materialize.
    fresh_next: u32,
    /// Total fresh copies the cursor covers (workunits × replication).
    fresh_total: u32,
    replication: u32,
    /// Replacement/reissued copies go behind all fresh work.
    back: VecDeque<Work>,
}

impl WorkQueue {
    /// Lazy queue: fresh copies materialize on pop.
    pub(crate) fn lazy(project: &ProjectConfig) -> Self {
        WorkQueue {
            front: VecDeque::new(),
            fresh_next: 0,
            fresh_total: project.workunits * project.replication,
            replication: project.replication,
            back: VecDeque::new(),
        }
    }

    /// Eager queue: the legacy setup loop, materializing and issuing
    /// every copy up front (reference substrate / kill switch).
    pub(crate) fn eager(project: &ProjectConfig, copies: &mut Vec<TaskCopy>) -> Self {
        let mut queue = WorkQueue {
            front: VecDeque::new(),
            fresh_next: 0,
            fresh_total: 0,
            replication: project.replication,
            back: VecDeque::new(),
        };
        for wu_idx in 0..project.workunits as usize {
            for _ in 0..project.replication {
                queue.back.push_back(TaskCopy::issue(copies, wu_idx));
            }
        }
        queue
    }

    /// Pop the next piece of work, materializing a fresh copy if the
    /// cursor is the head of the queue.
    pub(crate) fn pop_front(&mut self, copies: &mut Vec<TaskCopy>) -> Option<Work> {
        if let Some(work) = self.front.pop_front() {
            return Some(work);
        }
        if self.fresh_next < self.fresh_total {
            let wu_idx = (self.fresh_next / self.replication) as usize;
            self.fresh_next += 1;
            return Some(TaskCopy::issue(copies, wu_idx));
        }
        self.back.pop_front()
    }

    /// Jump the queue (migrated resumes).
    pub(crate) fn push_front(&mut self, work: Work) {
        self.front.push_front(work);
    }

    /// Append behind all fresh work (replacements, deadline reissues).
    pub(crate) fn push_back(&mut self, work: Work) {
        self.back.push_back(work);
    }

    /// Whether any work (materialized or virtual) remains.
    pub(crate) fn is_empty(&self) -> bool {
        self.front.is_empty() && self.fresh_next >= self.fresh_total && self.back.is_empty()
    }
}

/// Test hook, registered in `GLOBALS.toml`: drop every stored
/// trajectory and zero the counters so a test can force a provably
/// cold state.
pub fn reset_all() {
    *TRAJECTORIES
        .lock()
        .expect("grid::fastforward::TRAJECTORIES poisoned") = None;
    TRAJECTORY_HITS.store(0, Ordering::SeqCst);
    TRAJECTORY_MISSES.store(0, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_vmm::VmmProfile;

    #[test]
    fn reset_all_restores_a_cold_cache() {
        // Pool size unique to this test so sibling tests running in
        // parallel never store or look up the same trajectory key.
        let project = ProjectConfig {
            workunits: 4,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 13,
            ..Default::default()
        };
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let churn = ChurnConfig::off();
        let horizon = SimTime::from_secs(24 * 3600);
        let options = crate::options::RunOptions::default();
        crate::sim::run_campaign_substrate(&project, &pool, &deploy, &churn, 5, horizon, &options);
        let key = trajectory_key(&project, &pool, &deploy, &churn, 5);
        assert!(
            trajectory_lookup(&key, horizon).is_some(),
            "snapshot stored"
        );
        reset_all();
        assert!(
            trajectory_lookup(&key, horizon).is_none(),
            "reset_all must drop every stored trajectory"
        );
    }

    #[test]
    fn lazy_queue_pops_in_eager_order() {
        let project = ProjectConfig {
            workunits: 3,
            replication: 2,
            ..Default::default()
        };
        let mut lazy_copies = Vec::new();
        let mut lazy = WorkQueue::lazy(&project);
        let mut eager_copies = Vec::new();
        let mut eager = WorkQueue::eager(&project, &mut eager_copies);
        // Interleave a resume (jumps the queue) and a reissue (goes
        // behind the fresh cursor) and check the popped work-unit
        // sequence matches.
        for queue in [&mut lazy, &mut eager] {
            queue.push_front(Work::Resume {
                copy: 0,
                remaining_ref: 1.0,
            });
        }
        let mut lazy_seq = Vec::new();
        let mut eager_seq = Vec::new();
        loop {
            let a = lazy.pop_front(&mut lazy_copies);
            let b = eager.pop_front(&mut eager_copies);
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    let wu = |w: Work, copies: &[TaskCopy]| match w {
                        Work::Fresh(c) => copies[c].wu as isize,
                        Work::Resume { .. } => -1,
                    };
                    lazy_seq.push(wu(a, &lazy_copies));
                    eager_seq.push(wu(b, &eager_copies));
                }
                (a, b) => panic!("queue length divergence: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(lazy_seq, eager_seq);
        assert_eq!(lazy_seq, vec![-1, 0, 0, 1, 1, 2, 2]);
        // The lazy side issued exactly the copies the eager side did.
        let issued = |copies: &[TaskCopy]| {
            let mut wus: Vec<usize> = copies.iter().map(|c| c.wu).collect();
            wus.sort();
            wus
        };
        assert_eq!(issued(&lazy_copies), issued(&eager_copies));
    }
}

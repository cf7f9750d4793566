//! Whole-trial analytic fast-forward: cross-sweep memoization, prefix
//! trajectory reuse, and arena-batched repetitions.
//!
//! The paper's figures are parameter sweeps (VMM × workload ×
//! checkpoint interval × churn), and neighbouring sweep points re-run
//! near-identical trajectories. This module holds the three process-wide
//! reuse layers the sweep hot loop leans on (DESIGN.md §13):
//!
//! 1. **Segment-solution cache** — generalizes the per-mode
//!    `vm_cpu_factor` memo of [`crate::archetype`] to the full
//!    contention-steady segment identity (deploy mode × checkpoint
//!    state × interval), mirroring `machine`'s `ContentionCache` keying
//!    discipline. The cache stores solver *inputs* only; the per-host
//!    rate is still evaluated in the exact legacy operation order, so a
//!    hit can never move a bit.
//! 2. **Trajectory cache** — a completed campaign's loop-exit state is
//!    snapshotted per full configuration key (project, pool, deploy,
//!    churn, seed — everything *except* the horizon, the one divergence
//!    axis that provably only affects the future). A later trial of the
//!    same configuration with a longer horizon resumes from the stored
//!    prefix instead of t=0. This is what turns the engine's
//!    whole-`TrialResult` cache into partial-trajectory reuse.
//! 3. **Campaign arena** — a thread-local buffer pool recycling the
//!    per-repetition host/copy/event scratch vectors, so batched
//!    independent repetitions stop paying a fresh round of large
//!    allocations per trial.
//!
//! Everything here is behaviour-transparent by contract: the
//! hydrated-reference substrate and the kill switch
//! (`RunOptions::fastforward`, `--no-fastforward` on the CLI) bypass
//! every cache, and the equivalence suites plus `bench.sh --check` pin
//! the fast path bit-identical to both.

use crate::faults::ChurnConfig;
use crate::model::{DeployConfig, ExecutionMode, PoolConfig, ProjectConfig};
use crate::sim::{CampaignCheckpoint, HostSlot, TaskCopy, Work};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vgrid_simcore::{DetMap, SimTime};
use vgrid_simobs::fnv1a64;

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

static SEGMENT_HITS: AtomicU64 = AtomicU64::new(0);
static SEGMENT_MISSES: AtomicU64 = AtomicU64::new(0);
static TRAJECTORY_HITS: AtomicU64 = AtomicU64::new(0);
static TRAJECTORY_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide fast-forward hit/miss counters, surfaced through
/// `simobs::MetricsRegistry` by observed runs (delta over the capture).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Segment-solution + probe-measurement cache hits.
    pub segment_hits: u64,
    /// Segment-solution + probe-measurement cache misses (cold solves).
    pub segment_misses: u64,
    /// Campaigns resumed from a stored prefix trajectory.
    pub trajectory_hits: u64,
    /// Campaigns that ran cold (no usable prefix stored).
    pub trajectory_misses: u64,
}

/// Snapshot the process-wide counters.
pub fn stats() -> FastForwardStats {
    FastForwardStats {
        segment_hits: SEGMENT_HITS.load(Ordering::Relaxed),
        segment_misses: SEGMENT_MISSES.load(Ordering::Relaxed),
        trajectory_hits: TRAJECTORY_HITS.load(Ordering::Relaxed),
        trajectory_misses: TRAJECTORY_MISSES.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Segment-solution cache (cross-sweep, process-wide).
// ---------------------------------------------------------------------

/// Canonical identity of a contention-steady segment: the deploy mode's
/// full solver key (FNV-digested, like the engine's `TrialKey`) plus
/// the checkpoint state/interval that shape the write-overhead
/// fraction. Mirrors `machine::ContentionCache`'s keying (runnable-set
/// ≘ the steady single-task segment, mode, and — at the consumer — the
/// host's speed band, which scales the rate outside the cached
/// constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SegmentKey {
    /// FNV-1a digest of [`crate::archetype::solver_key`] for the mode.
    solver: u64,
    /// Checkpoint state size in bytes (zero when checkpointing is off).
    ckpt_bytes: u64,
    /// Checkpoint interval in integer picoseconds.
    interval_ps: u64,
}

fn segment_key(deploy: &DeployConfig) -> SegmentKey {
    SegmentKey {
        solver: fnv1a64(crate::archetype::solver_key(&deploy.mode).as_bytes()),
        ckpt_bytes: crate::archetype::checkpoint_state_bytes(deploy),
        interval_ps: deploy.checkpoint_interval.as_picos(),
    }
}

static SEGMENT_MEMO: Mutex<Option<DetMap<SegmentKey, crate::archetype::SegmentSolution>>> =
    Mutex::new(None);

/// Segment solution for a deploy config behind the process-wide cache.
/// Stores solver *inputs* only (DESIGN.md §12/§13); both fields are pure
/// functions of the deploy config, so hits are bit-identical in any
/// call order.
pub(crate) fn segment_solution(deploy: &DeployConfig) -> crate::archetype::SegmentSolution {
    let key = segment_key(deploy);
    {
        let mut guard = SEGMENT_MEMO
            .lock()
            .expect("grid::fastforward::SEGMENT_MEMO poisoned");
        if let Some(&solution) = guard.get_or_insert_with(DetMap::new).get(&key) {
            SEGMENT_HITS.fetch_add(1, Ordering::Relaxed);
            return solution;
        }
    }
    SEGMENT_MISSES.fetch_add(1, Ordering::Relaxed);
    let solution = crate::archetype::SegmentSolution {
        vm_factor: crate::archetype::memoized_vm_cpu_factor(&deploy.mode),
        ckpt_frac: crate::checkpoint::write_overhead_frac(
            crate::archetype::checkpoint_state_bytes(deploy),
            deploy.checkpoint_interval,
        ),
    };
    let mut guard = SEGMENT_MEMO
        .lock()
        .expect("grid::fastforward::SEGMENT_MEMO poisoned");
    guard.get_or_insert_with(DetMap::new).insert(key, solution);
    solution
}

/// FNV-1a digest of a mode's [`crate::archetype::solver_key`], keying
/// the probe-dilation cache without retaining the full `Debug` string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct DilationKey(u64);

static MEASURED_DILATION: Mutex<Option<DetMap<DilationKey, f64>>> = Mutex::new(None);

/// Hydration-probe dilation for a mode behind the process-wide cache:
/// the measurement is a pure function of the mode (fixed probe seed),
/// so a hit returns the bit-identical ratio the reference substrate
/// measures from scratch. Only the batched substrate consults this —
/// the per-campaign hydration memo bookkeeping (and therefore
/// `HydrationStats`) is untouched.
pub(crate) fn measured_dilation(mode: &ExecutionMode) -> f64 {
    let key = DilationKey(fnv1a64(crate::archetype::solver_key(mode).as_bytes()));
    {
        let mut guard = MEASURED_DILATION
            .lock()
            .expect("grid::fastforward::MEASURED_DILATION poisoned");
        if let Some(&factor) = guard.get_or_insert_with(DetMap::new).get(&key) {
            SEGMENT_HITS.fetch_add(1, Ordering::Relaxed);
            return factor;
        }
    }
    SEGMENT_MISSES.fetch_add(1, Ordering::Relaxed);
    let factor = crate::hydrate::measure_dilation_direct(mode);
    let mut guard = MEASURED_DILATION
        .lock()
        .expect("grid::fastforward::MEASURED_DILATION poisoned");
    guard.get_or_insert_with(DetMap::new).insert(key, factor);
    factor
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

/// Largest stored prefix snapshot at or below `horizon`, cloned out of
/// the cache. Counted as one trajectory hit or miss per campaign.
pub(crate) fn trajectory_lookup(key: &str, horizon: SimTime) -> Option<CampaignCheckpoint> {
    let guard = TRAJECTORIES
        .lock()
        .expect("grid::fastforward::TRAJECTORIES poisoned");
    let hit = guard.as_ref().and_then(|cache| {
        cache.entries.get(key).and_then(|snaps| {
            snaps
                .iter()
                .rev()
                .find(|(h, _)| *h <= horizon)
                .map(|(_, ckpt)| ckpt.clone())
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
/// reach a report, `QuorumValidator::note_issued` bookkeeping is never
/// read back by the simulator, and pop order (front resumes → fresh
/// cursor → back reissues) is exactly the eager queue's order. The
/// reference substrate and the `--no-fastforward` arm use
/// [`WorkQueue::eager`], which reproduces the legacy setup verbatim.
#[derive(Debug, Clone)]
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
    pub(crate) fn eager(
        project: &ProjectConfig,
        copies: &mut Vec<TaskCopy>,
        validator: &mut crate::checkpoint::QuorumValidator,
    ) -> Self {
        let mut queue = WorkQueue {
            front: VecDeque::new(),
            fresh_next: 0,
            fresh_total: 0,
            replication: project.replication,
            back: VecDeque::new(),
        };
        for wu_idx in 0..project.workunits as usize {
            for _ in 0..project.replication {
                copies.push(TaskCopy {
                    wu: wu_idx,
                    returned: false,
                    cpu_spent: 0.0,
                    rescued: false,
                });
                queue.back.push_back(Work::Fresh(copies.len() - 1));
                validator.note_issued(wu_idx);
            }
        }
        queue
    }

    /// Pop the next piece of work, materializing a fresh copy if the
    /// cursor is the head of the queue.
    pub(crate) fn pop_front(
        &mut self,
        copies: &mut Vec<TaskCopy>,
        validator: &mut crate::checkpoint::QuorumValidator,
    ) -> Option<Work> {
        if let Some(work) = self.front.pop_front() {
            return Some(work);
        }
        if self.fresh_next < self.fresh_total {
            let wu_idx = (self.fresh_next / self.replication) as usize;
            self.fresh_next += 1;
            copies.push(TaskCopy {
                wu: wu_idx,
                returned: false,
                cpu_spent: 0.0,
                rescued: false,
            });
            validator.note_issued(wu_idx);
            return Some(Work::Fresh(copies.len() - 1));
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

// ---------------------------------------------------------------------
// Campaign arena.
// ---------------------------------------------------------------------

/// Thread-local buffer pool recycling the per-repetition scratch
/// allocations of the campaign loop. Lifetime contract (DESIGN.md §13):
/// buffers are taken at campaign start, owned exclusively for the run,
/// cleared (not shrunk) and returned at campaign end; trajectory
/// snapshots are deep clones, never arena-backed, so a stored
/// checkpoint can outlive any number of later arena reuses.
#[derive(Debug, Default)]
pub(crate) struct CampaignArena {
    pub(crate) hosts: Vec<HostSlot>,
    pub(crate) copies: Vec<TaskCopy>,
}

thread_local! {
    // simlint: allow(send-clean) -- thread-confined by construction: buffers are taken and returned on one thread, and trajectory snapshots are deep clones, never arena-backed
    static ARENA: RefCell<CampaignArena> = RefCell::new(CampaignArena::default());
}

/// Take the thread's arena buffers (empty, capacity retained).
pub(crate) fn arena_take() -> CampaignArena {
    ARENA.with(|cell| std::mem::take(&mut *cell.borrow_mut()))
}

/// Return buffers to the thread's arena for the next repetition.
pub(crate) fn arena_put(mut arena: CampaignArena) {
    arena.hosts.clear();
    arena.copies.clear();
    ARENA.with(|cell| *cell.borrow_mut() = arena);
}

/// Test hook, registered in `GLOBALS.toml`: clear every fast-forward
/// reuse layer and counter (plus the archetype vm-factor memo and the
/// calling thread's arena) so a test can force a provably cold state.
/// Locks are taken one at a time in rank order, never nested.
pub fn reset_all() {
    *SEGMENT_MEMO
        .lock()
        .expect("grid::fastforward::SEGMENT_MEMO poisoned") = None;
    *MEASURED_DILATION
        .lock()
        .expect("grid::fastforward::MEASURED_DILATION poisoned") = None;
    *TRAJECTORIES
        .lock()
        .expect("grid::fastforward::TRAJECTORIES poisoned") = None;
    crate::migration::reset_transfer_memo();
    SEGMENT_HITS.store(0, Ordering::SeqCst);
    SEGMENT_MISSES.store(0, Ordering::SeqCst);
    TRAJECTORY_HITS.store(0, Ordering::SeqCst);
    TRAJECTORY_MISSES.store(0, Ordering::SeqCst);
    crate::archetype::reset_vm_factor_memo();
    ARENA.with(|cell| *cell.borrow_mut() = CampaignArena::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype;
    use crate::model::DeployConfig;
    use vgrid_vmm::VmmProfile;

    #[test]
    fn segment_cache_matches_direct_solve_bitwise() {
        for deploy in [
            DeployConfig::native(),
            DeployConfig::vm(VmmProfile::qemu(), 300 << 20),
        ] {
            let direct = archetype::solve_direct(&deploy);
            // Cold miss then warm hit must both agree with the
            // from-scratch reference solve.
            for _ in 0..2 {
                let cached = segment_solution(&deploy);
                assert_eq!(cached.vm_factor.to_bits(), direct.vm_factor.to_bits());
                assert_eq!(cached.ckpt_frac.to_bits(), direct.ckpt_frac.to_bits());
            }
        }
    }

    #[test]
    fn segment_key_separates_checkpoint_config() {
        let vm = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let mut no_ckpt = vm.clone();
        no_ckpt.checkpoint_interval = vgrid_simcore::SimDuration::ZERO;
        assert_ne!(segment_key(&vm), segment_key(&no_ckpt));
        assert_ne!(segment_key(&vm), segment_key(&DeployConfig::native()));
        // The checkpoint axes stay plain integers (not digested), so
        // the key separates them even under solver-digest equality.
        assert_eq!(segment_key(&vm).solver, segment_key(&no_ckpt).solver);
        assert_eq!(segment_key(&no_ckpt).interval_ps, 0);
    }

    #[test]
    fn reset_all_restores_a_cold_cache() {
        // Memory size unique to this test so sibling tests running in
        // parallel never insert the same key into the shared memo.
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 123 << 20);
        let warm = segment_solution(&deploy);
        reset_all();
        let before = stats();
        // The post-reset lookup must re-solve (cold miss) and still
        // land bit-identical to the pre-reset solution.
        let cold = segment_solution(&deploy);
        let after = stats();
        assert!(after.segment_misses > before.segment_misses);
        assert_eq!(cold.vm_factor.to_bits(), warm.vm_factor.to_bits());
        assert_eq!(cold.ckpt_frac.to_bits(), warm.ckpt_frac.to_bits());
    }

    #[test]
    fn measured_dilation_matches_direct_probe_bitwise() {
        let mode = ExecutionMode::Vm(VmmProfile::vmplayer());
        let direct = crate::hydrate::measure_dilation_direct(&mode);
        assert_eq!(measured_dilation(&mode).to_bits(), direct.to_bits());
        assert_eq!(measured_dilation(&mode).to_bits(), direct.to_bits());
    }

    #[test]
    fn lazy_queue_pops_in_eager_order() {
        let project = ProjectConfig {
            workunits: 3,
            replication: 2,
            ..Default::default()
        };
        let mut lazy_copies = Vec::new();
        let mut lazy_v = crate::checkpoint::QuorumValidator::new(3, 2);
        let mut lazy = WorkQueue::lazy(&project);
        let mut eager_copies = Vec::new();
        let mut eager_v = crate::checkpoint::QuorumValidator::new(3, 2);
        let mut eager = WorkQueue::eager(&project, &mut eager_copies, &mut eager_v);
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
            let a = lazy.pop_front(&mut lazy_copies, &mut lazy_v);
            let b = eager.pop_front(&mut eager_copies, &mut eager_v);
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
        // The lazy side issued exactly what the eager side did.
        for wu in 0..3 {
            assert_eq!(lazy_v.issued(wu), eager_v.issued(wu));
        }
    }

    #[test]
    fn arena_retains_capacity_across_runs() {
        let mut arena = arena_take();
        arena.hosts.reserve(64);
        let cap = arena.hosts.capacity();
        arena.hosts.clear();
        arena_put(arena);
        let again = arena_take();
        assert!(again.hosts.capacity() >= cap, "capacity must be retained");
        arena_put(again);
    }
}

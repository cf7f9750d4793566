//! The desktop-grid campaign simulator.
//!
//! A coarse-grained DES over the volunteer pool: hosts churn between
//! online/offline spans, download the VM image once (initialization
//! workunit), then cycle through fetch -> download input -> compute
//! (with periodic checkpoints) -> upload -> report. The per-task CPU
//! dilation of VM execution is *derived from the calibrated monitor
//! profiles* by dilating the Einstein@home surrogate's measured
//! instruction mix through the machine model — the quantitative link
//! from the paper's microbenchmarks to deployment-scale cost.
//!
//! Hosts are modeled coarsely (rate-based, not full `vgrid-os` systems):
//! a campaign simulates hundreds of hosts for simulated weeks, where
//! per-instruction fidelity would add nothing — the VM overhead enters
//! through the measured dilation factor, image transfers and checkpoint
//! costs.
//!
//! On top of the availability baseline, [`crate::faults::ChurnConfig`]
//! layers owner preemptions, hard sandbox kills and Weibull-shaped
//! spans; [`crate::checkpoint`] provides the durability, backoff and
//! quorum machinery that absorbs them. A fully disabled churn config
//! reproduces the pre-churn simulator **byte for byte**: fault draws
//! come from a forked per-host stream (forking never advances the
//! parent), span draws collapse to the exact legacy `exponential`
//! calls, and no fault event is ever scheduled.
//!
//! A campaign in flight is one [`Run`]: the mutable [`SimState`], the
//! event queue and the time of the current event, next to the borrowed
//! configs. Each event kind has one handler method on it (DESIGN.md §12).
//!
//! Without churn or a migration policy, a host that holds the image and
//! no work while the work queue is empty *parks* on the batched
//! substrate: its next availability flip is held next to it instead of
//! being queued, and the same `up`/`down` handlers apply its flips only
//! where its state is read (a kick handing out work, the loop exit). A
//! held flip due at the same picosecond as another event has no queue
//! order, so a campaign that meets one reruns cold with every flip
//! queued (DESIGN.md §12, "Parked hosts").
//!
//! On the same substrate, a host's owner arrivals and departures,
//! sandbox kills, activity completions and evacuation audits are queued
//! only when due before its next availability flip: a later one would
//! pop after that flip and find its generation retired (DESIGN.md §12,
//! "Span-bound events").

use crate::archetype::{self, ArchetypeKey, SegmentSolution};
use crate::checkpoint::{
    durable_progress, BackoffPolicy, BackoffState, QuorumValidator, RecordOutcome,
};
use crate::fastforward::{self, WorkQueue};
use crate::faults::{self, ChurnConfig};
use crate::hydrate::{HydrationPool, ProbeSpec};
use crate::migration;
use crate::model::{DeployConfig, ExecutionMode, GridReport, PoolConfig, ProjectConfig};
use crate::options::RunOptions;
use std::sync::Arc;
use vgrid_machine::MachineSpec;
use vgrid_simcore::{DetMap, EventQueue, EventScheduler, RadixQueue, SimDuration, SimRng, SimTime};
use vgrid_workloads::einstein::EinsteinKernel;
use vgrid_workloads::kernel::characterize;

/// The Einstein-style surrogate instruction block every grid task is
/// modeled on — shared by the analytic dilation solver below and the
/// full-fidelity hydration probes in [`crate::hydrate`]. The kernel runs
/// once per process ([`characterize`] memoizes it).
pub(crate) fn science_block() -> vgrid_machine::ops::OpBlock {
    characterize(&EinsteinKernel {
        fft_len: 4096,
        templates: 4,
        seed: 0x617d,
    })
    .block
    .with_label("grid-task")
}

/// Derive the CPU slowdown of VM execution for the Einstein-style
/// workload from a monitor profile, via the machine model.
pub fn vm_cpu_factor(mode: &ExecutionMode) -> f64 {
    match mode {
        ExecutionMode::Native => 1.0,
        ExecutionMode::Vm(profile) => {
            let block = science_block();
            let cpu = MachineSpec::core2_duo_6600().cpu_model();
            let native = cpu.solo_estimate(&block).duration.as_secs_f64();
            let dilated = cpu
                .solo_estimate(&profile.dilate(&block))
                .duration
                .as_secs_f64();
            dilated / native
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    ImageDl {
        remaining: f64,
    },
    InputDl {
        remaining: f64,
        task: usize,
    },
    /// Downloading a migrated task's checkpointed state.
    StateDl {
        remaining: f64,
        task: usize,
        remaining_ref: f64,
    },
    Compute {
        task: usize,
        remaining_ref: f64,
        progress_ref: f64,
    },
    Upload {
        remaining: f64,
        task: usize,
    },
}

/// A queue entry: fresh work, or a migrated task resuming elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    Fresh(usize),
    Resume { copy: usize, remaining_ref: f64 },
}

/// Thin per-host record of the batched substrate: everything a host
/// needs to advance analytically between events. Full-fidelity
/// `System` state lives in [`crate::hydrate::HydrationPool`] instead,
/// materialized only in windows around interesting events.
#[derive(Debug, Clone)]
pub(crate) struct HostSlot {
    speed: f64,
    excluded: bool,
    up: bool,
    life_gen: u64,
    act_gen: u64,
    has_image: bool,
    activity: Option<Activity>,
    act_started: SimTime,
    up_since: SimTime,
    uptime_total: f64,
    rng: SimRng,
    /// Fault stream: every churn-layer draw comes from here, so a
    /// disabled churn config cannot perturb the legacy `rng` sequence.
    frng: SimRng,
    /// The owner is using the machine; the sandbox is preempted.
    paused: bool,
    /// A backoff refetch event is already in flight.
    refetch_pending: bool,
    backoff: BackoffState,
}

impl HostSlot {
    /// The host is computing task copy `copy`.
    fn computes(&self, copy: usize) -> bool {
        matches!(self.activity, Some(Activity::Compute { task, .. }) if task == copy)
    }

    /// The host can take work: up, eligible, unpaused and between
    /// activities.
    fn idle(&self) -> bool {
        self.up && !self.excluded && !self.paused && self.activity.is_none()
    }

    /// An event armed in up-span `gen` still applies: that span is the
    /// current one and the host is up and eligible.
    fn live(&self, gen: u64) -> bool {
        gen == self.life_gen && self.up && !self.excluded
    }

    /// The availability flip that ends this host's current span, as
    /// host `h`'s event.
    fn flip(&self, h: usize) -> Ev {
        let gen = self.life_gen;
        if self.up {
            Ev::Down { h, gen }
        } else {
            Ev::Up { h, gen }
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TaskCopy {
    pub(crate) wu: usize,
    pub(crate) returned: bool,
    /// CPU seconds this copy has consumed (for goodput/waste accounting).
    pub(crate) cpu_spent: f64,
    /// The straggler-rescue policy re-homed this copy's checkpoint; a
    /// later validation counts as a rescue win.
    pub(crate) rescued: bool,
    /// The host that last took this copy (a fresh hand-out or a fetched
    /// resume); `u32::MAX` before the first. A copy leaves a host only
    /// by clearing that host's activity, so this host is the only one
    /// that can be computing it. A `u32` fits the struct's padding.
    pub(crate) holder: u32,
}

impl TaskCopy {
    /// Materialize a fresh, never-handed-out copy of work unit `wu` and
    /// return it as queue work.
    pub(crate) fn issue(copies: &mut Vec<TaskCopy>, wu: usize) -> Work {
        copies.push(TaskCopy {
            wu,
            returned: false,
            cpu_spent: 0.0,
            rescued: false,
            holder: u32::MAX,
        });
        Work::Fresh(copies.len() - 1)
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Ev {
    Up {
        h: usize,
        gen: u64,
    },
    Down {
        h: usize,
        gen: u64,
    },
    ActDone {
        h: usize,
        gen: u64,
    },
    Deadline {
        copy: usize,
    },
    /// The machine's owner starts an interactive session (churn only).
    OwnerArrive {
        h: usize,
        gen: u64,
    },
    /// The owner session ends; the sandbox may resume (churn only).
    OwnerLeave {
        h: usize,
        gen: u64,
    },
    /// The sandbox is killed outright (churn only).
    VmKill {
        h: usize,
        gen: u64,
    },
    /// Exponential-backoff work refetch by an idle client (churn only).
    Refetch {
        h: usize,
    },
    /// Deadline-slack straggler audit of an issued copy (scheduled only
    /// when the migration policy's `rescue` arm is on).
    RescueCheck {
        copy: usize,
        deadline: SimTime,
    },
    /// Periodic predicted-interruption audit of a computing host
    /// (scheduled only when the policy's `evacuate` arm is on, under
    /// churn). Carries the `act_gen` at arming so any interruption
    /// retires the chain.
    EvacCheck {
        h: usize,
        gen: u64,
    },
    /// An exported checkpoint finished crossing the server NIC; the
    /// state becomes fetchable (migration policy only).
    XferDone {
        copy: usize,
        remaining_ref: f64,
    },
}

/// The churn config with the constants derived from it once per
/// campaign.
struct FaultCtx<'a> {
    churn: &'a ChurnConfig,
    backoff: BackoffPolicy,
    /// False when the churn config is fully inert: the simulator must
    /// take exactly the legacy code paths.
    on: bool,
    /// The Weibull divisor Γ(1 + 1/k) of the availability shape, once
    /// per campaign, for every span draw and interruption hazard.
    span_gamma: f64,
}

impl<'a> FaultCtx<'a> {
    fn new(churn: &'a ChurnConfig) -> Self {
        FaultCtx {
            churn,
            backoff: BackoffPolicy::default(),
            on: !churn.is_off(),
            span_gamma: faults::span_gamma(churn.availability_shape),
        }
    }
}

/// Which host substrate executes a campaign. The two substrates are
/// **bit-identical by contract**: they share every piece of
/// host-stepping logic, the segment solver, the hydration probes and
/// the transfer price, and differ only in the event queue, in how the
/// work queue materializes, in whether idle hosts' flips are held off
/// the queue (parked), in whether events past their host's next flip
/// are queued, and in trajectory reuse — all validated by the
/// grid oracle (`crates/grid/tests/oracle.rs`) and `hydration_reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateMode {
    /// Archetype-batched analytic substrate on the radix-heap event
    /// queue, with the lazy work queue, parked hosts, no span-bound
    /// event past its host's next flip and the trajectory cache while
    /// fast-forward is on (the default).
    Batched,
    /// Reference substrate: flat binary-heap event queue, eager work
    /// queue, no trajectory reuse (`--hydrated-reference`).
    HydratedReference,
}

/// Run one campaign under explicit execution options; stops when all
/// work units validate or at `horizon`. The campaign API
/// ([`crate::campaign::Campaign`]) is the public entry point.
/// `options.scheduler` is ignored: campaigns never run per-quantum
/// (hydration probes always use the coalescing scheduler).
///
/// On the batched substrate with fast-forward on — the default — the
/// trial first consults the process-wide trajectory cache: a stored
/// loop-exit snapshot of the same configuration at a horizon at or
/// below the requested one resumes mid-stream instead of replaying
/// from t=0 (see [`crate::fastforward`]). Resumed and cold runs are
/// bit-identical by contract. A hit whose stored horizon equals the
/// requested one resumes without re-storing: the cache already holds
/// that snapshot and would drop the duplicate.
pub(crate) fn run_campaign_substrate(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
    horizon: SimTime,
    options: &RunOptions,
) -> GridReport {
    let ff = options.fastforward;
    match options.substrate {
        SubstrateMode::Batched => {
            let key = ff.then(|| fastforward::trajectory_key(project, pool, deploy, churn, seed));
            let key = key.as_deref();
            run_batched(project, pool, deploy, churn, seed, horizon, key).unwrap_or_else(|Tie| {
                // A held flip met another event of its picosecond: rerun
                // cold with the kill switch's eager setup, the eager
                // order itself.
                let q = RadixQueue::new();
                let run = Run::start(project, pool, deploy, churn, seed, false, q);
                run.finish(horizon, key)
                    .expect("a campaign that parks no host meets no tie")
            })
        }
        SubstrateMode::HydratedReference => {
            let q = EventQueue::new();
            let run = Run::start(project, pool, deploy, churn, seed, false, q);
            run.finish(horizon, None)
                .expect("a campaign that parks no host meets no tie")
        }
    }
}

/// One campaign on the batched substrate, parking idle hosts while the
/// fast-forward trajectory key `key` is given: a resume from the
/// largest stored prefix, else a cold run. [`Tie`] when a held flip met
/// another event of its picosecond; nothing is stored then.
fn run_batched(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
    horizon: SimTime,
    key: Option<&str>,
) -> Result<GridReport, Tie> {
    if let Some((stored, ckpt)) = key.and_then(|k| fastforward::trajectory_lookup(k, horizon)) {
        // Re-scheduling the pending events in pop order preserves
        // same-instant FIFO ties.
        let mut q = RadixQueue::new();
        for (time, ev) in ckpt.pending {
            q.schedule(time, ev);
        }
        let run = Run {
            st: ckpt.state,
            q,
            now: SimTime::ZERO,
            tie: false,
            project,
            pool,
            deploy,
            fctx: FaultCtx::new(churn),
        };
        return run.finish(horizon, key.filter(|_| stored != horizon));
    }
    let lazy = key.is_some();
    Run::start(project, pool, deploy, churn, seed, lazy, RadixQueue::new()).finish(horizon, key)
}

/// A campaign whose hosts parked met a held flip due at the same
/// picosecond as another event it may be ordered against: at a kick, at
/// the makespan, or popped after a same-instant event once re-queued.
/// Its outcome may differ from the eager order's, so it is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tie;

/// Everything the campaign loop mutates, bundled so the loop exit can
/// be snapshotted into a [`CampaignCheckpoint`] and resumed later.
/// Loop-invariant derived constants (`eligible_rate`, and the probe
/// spec, whose segment solution sets every host's rate) ride along so a
/// resume never recomputes them in a different order.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    hosts: Vec<HostSlot>,
    report: GridReport,
    hpool: HydrationPool,
    probe: ProbeSpec,
    eligible_rate: f64,
    validator: QuorumValidator,
    copies: Vec<TaskCopy>,
    queue: WorkQueue,
    makespan: Option<SimTime>,
    idle: IdleSet,
    park: Parking,
    /// Each host's next availability flip: queued, held while parked,
    /// or past once the host left for good.
    next_flip: Vec<SimTime>,
    /// Span-bound events due at or after their host's next flip are not
    /// queued (DESIGN.md §12, "Span-bound events"). Decided once, in
    /// [`Run::start`]: on exactly where the work queue is lazy.
    prune: bool,
    /// Checkpoint exports currently crossing the server NIC; each new
    /// export contends with these (migration policy only — always zero
    /// otherwise).
    inflight_xfers: u32,
}

/// A campaign trajectory frozen at its loop exit: the full mutable
/// state (parked hosts settled to the exit, their next flips still
/// held) plus the event queue's surviving entries in pop order. The
/// first pending entry is the event the break check popped and
/// discarded — a resume re-pops it first, reproducing the cold run's
/// tie-breaking exactly.
#[derive(Debug, Clone)]
pub(crate) struct CampaignCheckpoint {
    state: SimState,
    pending: Vec<(SimTime, Ev)>,
}

impl CampaignCheckpoint {
    /// Volunteer count of the snapshotted pool (memory-bound gating).
    pub(crate) fn host_count(&self) -> usize {
        self.state.hosts.len()
    }
}

/// One campaign in flight: the mutable state, the event queue and the
/// time of the event being handled, next to the borrowed configs. The
/// context is generic over the event queue, so both substrates run
/// literally the same handlers.
struct Run<'a, Q: EventScheduler<Ev>> {
    st: SimState,
    q: Q,
    /// Time of the event being handled.
    now: SimTime,
    /// A held flip met another event of its picosecond ([`Tie`]); the
    /// loop stops at the next pop.
    tie: bool,
    project: &'a ProjectConfig,
    pool: &'a PoolConfig,
    deploy: &'a DeployConfig,
    fctx: FaultCtx<'a>,
}

impl<'a, Q: EventScheduler<Ev>> Run<'a, Q> {
    /// Build a cold campaign: the initial state and the staggered
    /// power-ons, every random draw in the exact legacy order. `lazy`
    /// (batched substrate, fast-forward on) materializes fresh copies
    /// when a host takes them, queues no span-bound event past its
    /// host's next flip, and parks hosts while churn and the migration
    /// policy are off; otherwise every copy is materialized up front and
    /// every event is queued (the reference substrate, the kill switch
    /// and the tie fallback).
    fn start(
        project: &'a ProjectConfig,
        pool: &'a PoolConfig,
        deploy: &'a DeployConfig,
        churn: &'a ChurnConfig,
        seed: u64,
        lazy: bool,
        mut q: Q,
    ) -> Self {
        let fctx = FaultCtx::new(churn);
        let rng = SimRng::new(seed ^ 0x617d_517d);
        // Per-archetype segment solve, identical on both substrates.
        let solution = archetype::solve(deploy);
        let guest_ram = match &deploy.mode {
            ExecutionMode::Native => 0u64,
            ExecutionMode::Vm(p) => p.guest_ram,
        };

        let mut report = GridReport {
            mode: deploy.mode.name().to_string(),
            ..Default::default()
        };

        // Lazy-hydration pool: full-fidelity probe systems materialized
        // in windows around interesting events, cross-checking the
        // analytic ledger. Probes observe only — they draw no host
        // randomness.
        let hpool = HydrationPool::new();
        let probe = ProbeSpec {
            key: archetype::solver_key(&deploy.mode),
            mode: deploy.mode.clone(),
            solution,
        };

        // Build hosts, counting each into its archetype as we go (keyed
        // by speed band and RAM eligibility: a million-host pool
        // collapses to a handful of archetypes).
        let mut arch_counts: DetMap<(u16, bool), u32> = DetMap::new();
        let mut hosts: Vec<HostSlot> = Vec::new();
        hosts.extend((0..pool.volunteers).map(|i| {
            let mut hrng = rng.fork(1000 + i as u64);
            // Fork the fault stream *before* the legacy draws; forking
            // never advances `hrng`, so speed/RAM draws are unchanged.
            let frng = hrng.fork(77);
            let speed = hrng.range_f64(pool.speed_range.0, pool.speed_range.1);
            // Saturating: a full-width `u64` RAM range or headroom must
            // not wrap (every narrower input keeps its bits).
            let ram = pool.ram_range.0
                + hrng.next_below((pool.ram_range.1 - pool.ram_range.0).saturating_add(1));
            let excluded =
                guest_ram > 0 && ram < guest_ram.saturating_add(deploy.host_headroom_bytes);
            *arch_counts.or_insert_with((archetype::speed_band(speed), !excluded), || 0) += 1;
            HostSlot {
                speed,
                excluded,
                up: false,
                life_gen: 0,
                act_gen: 0,
                has_image: deploy.image_bytes == 0,
                activity: None,
                act_started: SimTime::ZERO,
                up_since: SimTime::ZERO,
                uptime_total: 0.0,
                rng: hrng,
                frng,
                paused: false,
                refetch_pending: false,
                backoff: BackoffState::new(&fctx.backoff),
            }
        }));
        report.hosts_excluded_ram = hosts.iter().filter(|h| h.excluded).count() as u32;
        // Canonical archetype census: sorted by key.
        let cclass = archetype::churn_class(churn);
        let mut census: Vec<(ArchetypeKey, u32)> = arch_counts
            .iter()
            .map(|(&(band, ok), &n)| (ArchetypeKey::new(deploy, &cclass, band, ok), n))
            .collect();
        census.sort();
        report.archetype_hosts = census.into_iter().map(|(k, n)| (k.label(), n)).collect();
        // Ideal-makespan denominator: the RAM-eligible pool's aggregate
        // compute rate, as if always on and perfectly scheduled.
        let eligible_rate: f64 = hosts
            .iter()
            .filter(|h| !h.excluded)
            .map(|h| solution.rate(h.speed))
            .sum(); // simlint: allow(float-fold-order) -- host order is fixed; this sum order is part of the bit-identity contract

        // Server state. The batched substrate issues fresh copies lazily
        // (materialized when a host takes them); the reference
        // substrate, the kill switch and the tie fallback run the legacy
        // eager setup. Copy indices are internal lookup keys, so the two
        // schemes are report-identical.
        let mut copies = Vec::new();
        let queue = if lazy {
            WorkQueue::lazy(project)
        } else {
            WorkQueue::eager(project, &mut copies)
        };

        // Stagger initial power-ons.
        let mut next_flip = Vec::with_capacity(hosts.len());
        for (h, host) in hosts.iter_mut().enumerate() {
            let delay = host.rng.exponential(pool.mean_downtime_secs / 4.0);
            let at = SimTime::from_secs_f64(delay);
            next_flip.push(at);
            q.schedule(at, Ev::Up { h, gen: 0 });
        }

        // Hosts currently idle — kept in lockstep with host state so
        // server pushes touch only the hosts that can take work instead
        // of scanning the pool. Only the migration audits read the
        // fastest-first order.
        let idle = if deploy.migration.is_off() {
            IdleSet::new(hosts.len())
        } else {
            let speeds: Vec<f64> = hosts.iter().map(|h| h.speed).collect();
            IdleSet::with_speed_order(&speeds)
        };
        // Churn and the migration audits read idle hosts between their
        // flips, so only campaigns without either park.
        let park = if lazy && !fctx.on && deploy.migration.is_off() {
            Parking::new(hosts.len())
        } else {
            Parking::default()
        };

        Run {
            st: SimState {
                hosts,
                report,
                hpool,
                probe,
                eligible_rate,
                validator: QuorumValidator::new(project.workunits, project.quorum),
                copies,
                queue,
                makespan: None,
                idle,
                park,
                next_flip,
                prune: lazy,
                inflight_xfers: 0,
            },
            q,
            now: SimTime::ZERO,
            tie: false,
            project,
            pool,
            deploy,
            fctx,
        }
    }

    /// Run the loop to its exit, settle the parked hosts, snapshot the
    /// loop-exit state into the trajectory cache when `store_key` is
    /// set, then fold the final accounting. Cold and resumed runs both
    /// end here. The snapshot is taken *before* accounting so a resumed
    /// run re-derives the final report through the identical code path.
    fn finish(mut self, horizon: SimTime, store_key: Option<&str>) -> Result<GridReport, Tie> {
        // Schedules past the time range saturate onto `SimTime::MAX`;
        // the loop stops a picosecond short of it, so such an event
        // never fires and a flip there never re-arms itself.
        let last = horizon.min(SimTime::from_picos(SimTime::MAX.as_picos() - 1));
        let carried = self.run_loop(last);
        self.settle_parked(last)?;
        if let Some(key) = store_key {
            // Drain the queue in pop order: re-scheduling this sequence
            // into a fresh queue preserves same-instant FIFO ties, so a
            // resumed run pops the identical event stream. The carried
            // event (popped by the break check, never processed) leads.
            let mut pending: Vec<(SimTime, Ev)> = carried.into_iter().collect();
            while let Some(entry) = self.q.pop() {
                pending.push(entry);
            }
            fastforward::trajectory_store(
                key,
                horizon,
                CampaignCheckpoint {
                    state: self.st.clone(),
                    pending,
                },
            );
        }
        Ok(finalize(self.st, self.project, self.deploy, horizon))
    }

    /// Drive the event loop until the horizon, quorum completion, queue
    /// exhaustion or a [`Tie`]. Returns the popped-but-unprocessed event
    /// when a break check fired (it belongs at the head of any stored
    /// trajectory).
    fn run_loop(&mut self, horizon: SimTime) -> Option<(SimTime, Ev)> {
        while let Some((now, ev)) = self.q.pop() {
            // The makespan is set when the last work unit validates.
            if now > horizon || self.st.makespan.is_some() {
                return Some((now, ev));
            }
            if self.st.park.on && self.tied_at_pop(now, &ev) {
                return None;
            }
            if let Ev::OwnerArrive { h, gen } | Ev::OwnerLeave { h, gen } | Ev::VmKill { h, gen } =
                ev
            {
                debug_assert!(
                    !self.st.prune || self.st.hosts[h].live(gen),
                    "{ev:?} of host {h} was queued past the host's flip"
                );
            }
            self.now = now;
            match ev {
                Ev::Up { h, gen } => self.up(h, gen),
                Ev::Down { h, gen } => self.down(h, gen),
                Ev::ActDone { h, gen } => self.act_done(h, gen),
                Ev::Deadline { copy } => self.deadline(copy),
                Ev::OwnerArrive { h, gen } => self.owner_arrive(h, gen),
                Ev::OwnerLeave { h, gen } => self.owner_leave(h, gen),
                Ev::VmKill { h, gen } => self.vm_kill(h, gen),
                Ev::Refetch { h } => self.refetch(h),
                Ev::RescueCheck { copy, deadline } => self.rescue_check(copy, deadline),
                Ev::EvacCheck { h, gen } => self.evac_check(h, gen),
                Ev::XferDone {
                    copy,
                    remaining_ref,
                } => self.xfer_done(copy, remaining_ref),
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Parked hosts (DESIGN.md §12).
    // -----------------------------------------------------------------

    /// The pop check of a parking campaign, before the event popped at
    /// `now` is handled. A re-queued flip carries a newer sequence
    /// number than the eager run gave it, so an event of its instant
    /// popped before it may belong after it; events popped after it
    /// were queued after it and follow it in both runs. Returns whether
    /// the run has met a tie.
    fn tied_at_pop(&mut self, now: SimTime, ev: &Ev) -> bool {
        if let Ev::Up { h, .. } | Ev::Down { h, .. } = *ev {
            if self.st.park.requeued.contains(h) {
                self.st.park.requeued.remove(h);
                // `self.now` still holds the previous pop's time.
                self.tie |= now == self.now;
            }
        }
        self.tie
    }

    /// Apply parked host `h`'s held flips due before `t` through the
    /// `up` and `down` handlers, each at its own time. Each flip parks
    /// the next one, until the host is excluded or a flip falls at or
    /// after `t`. The work queue is set aside meanwhile: it was empty at
    /// every one of those instants.
    fn settle(&mut self, h: usize, t: SimTime) {
        let (queue, now) = (std::mem::take(&mut self.st.queue), self.now);
        while self.st.park.parked.contains(h) && self.st.next_flip[h] < t {
            self.st.park.parked.remove(h);
            self.now = self.st.next_flip[h];
            let host = &self.st.hosts[h];
            if host.up {
                self.down(h, host.life_gen);
            } else {
                self.up(h, host.life_gen);
            }
        }
        self.st.queue = queue;
        self.now = now;
    }

    /// Put parked host `h`'s held flip back on the event queue.
    fn unpark(&mut self, h: usize) {
        let park = &mut self.st.park;
        park.parked.remove(h);
        park.requeued.insert(h);
        self.q
            .schedule(self.st.next_flip[h], self.st.hosts[h].flip(h));
    }

    /// Settle every parked host at the loop exit: its flips up to
    /// `last`, or before the makespan once that is set. A held or
    /// re-queued flip due at the makespan's picosecond, drawn before or
    /// while settling, may have fired before the last validation in the
    /// eager order: a [`Tie`], like one the loop met.
    fn settle_parked(&mut self, last: SimTime) -> Result<(), Tie> {
        if self.tie {
            return Err(Tie);
        }
        let past_last = SimTime::from_picos(last.as_picos() + 1);
        let end = self.st.makespan.unwrap_or(past_last);
        let parked: Vec<usize> = self.st.park.parked.iter().collect();
        for h in parked {
            self.settle(h, end);
        }
        if let Some(m) = self.st.makespan {
            let park = &self.st.park;
            let mut held = park.parked.iter().chain(park.requeued.iter());
            if held.any(|h| self.st.next_flip[h] == m) {
                return Err(Tie);
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Event handlers, one per `Ev` kind.
    // -----------------------------------------------------------------

    fn up(&mut self, h: usize, gen: u64) {
        let host = &mut self.st.hosts[h];
        if gen != host.life_gen || host.excluded {
            return;
        }
        host.up = true;
        host.paused = false;
        host.up_since = self.now;
        self.st.report.fault_transitions += 1;
        // `sample_span` with shape 1 *is* the legacy exponential call,
        // and a unit uptime factor is an exact multiply.
        let gen = self.next_span(
            h,
            self.pool.mean_uptime_secs * self.fctx.churn.uptime_factor,
        );
        // Arm this up-span's fault processes (never under zero churn:
        // the event stream must stay byte-identical).
        let churn = self.fctx.churn;
        self.arm_fault(h, churn.owner_arrival_mean_secs, Ev::OwnerArrive { h, gen });
        self.arm_fault(h, churn.vm_kill_mean_secs, Ev::VmKill { h, gen });
        // Resume or acquire work.
        self.next_activity(h);
        self.sync_idle(h);
    }

    fn down(&mut self, h: usize, gen: u64) {
        if gen != self.st.hosts[h].life_gen {
            return;
        }
        // A failure mid-compute is an interesting event: hydrate a probe
        // window before the ledger absorbs it.
        if matches!(self.st.hosts[h].activity, Some(Activity::Compute { .. })) {
            self.window(h);
        }
        self.st.report.fault_transitions += 1;
        let host = &mut self.st.hosts[h];
        host.up = false;
        host.uptime_total += self.now.since(host.up_since).as_secs_f64();
        // Interrupt the activity, preserving resumable progress. A
        // paused host accrued everything at pause time.
        if !host.paused {
            self.accrue(h, false);
        }
        let host = &mut self.st.hosts[h];
        host.paused = false;
        host.act_gen += 1; // cancel any pending ActDone
        if self.deploy.migrate_on_churn {
            if let Some(Activity::Compute {
                task,
                remaining_ref,
                ..
            }) = host.activity
            {
                // Ship the checkpointed state back through the server;
                // any volunteer may pick it up.
                host.activity = None;
                self.st.report.migrations += 1;
                self.resume_elsewhere(task, remaining_ref);
            }
        }
        let gone = self.st.hosts[h]
            .rng
            .chance(self.pool.permanent_failure_prob);
        if gone {
            // The volunteer never returns; its task (if any) is stranded
            // until the server's deadline reissues it.
            self.st.hosts[h].excluded = true;
        } else {
            self.next_span(h, self.pool.mean_downtime_secs);
        }
        self.sync_idle(h);
    }

    fn act_done(&mut self, h: usize, gen: u64) {
        let host = &mut self.st.hosts[h];
        if gen != host.act_gen || !host.up {
            return;
        }
        // Finish the current activity.
        let Some(act) = host.activity.take() else {
            return;
        };
        match act {
            Activity::ImageDl { .. } => {
                host.has_image = true;
                self.st.report.image_transfer_secs +=
                    self.now.since(host.act_started).as_secs_f64();
            }
            Activity::InputDl { task, .. } => {
                return self.compute(h, task, self.project.wu_ref_secs, 0.0);
            }
            Activity::StateDl {
                task,
                remaining_ref,
                ..
            } => {
                let progress_ref = self.project.wu_ref_secs - remaining_ref;
                return self.compute(h, task, remaining_ref, progress_ref);
            }
            Activity::Compute { task, .. } => {
                // Task completion: hydrate a probe window to check the
                // ledger's rate against a real system.
                self.window(h);
                // Account the CPU time of the final stretch.
                let elapsed = self.now.since(self.st.hosts[h].act_started).as_secs_f64();
                self.st.report.cpu_secs_spent += elapsed;
                self.st.copies[task].cpu_spent += elapsed;
                let remaining = self.project.wu_output_bytes as f64;
                self.st.hosts[h].activity = Some(Activity::Upload { remaining, task });
                return self.begin(h, remaining / self.pool.up_bw);
            }
            Activity::Upload { task, .. } => {
                // Report the result to the server.
                let good = !host.rng.chance(self.project.error_rate);
                let st = &mut self.st;
                st.copies[task].returned = true;
                st.report.results_returned += 1;
                let wu = st.copies[task].wu;
                match st.validator.record(wu, good, st.copies[task].cpu_spent) {
                    RecordOutcome::NewlyValidated => {
                        // A quorum decision is an interesting event:
                        // hydrate a probe window.
                        self.window(h);
                        if self.st.copies[task].rescued {
                            self.st.report.rescue_wins += 1;
                        }
                        if self.st.validator.validated_count() >= self.project.workunits {
                            self.st.makespan = Some(self.now);
                        }
                    }
                    RecordOutcome::Rejected => {
                        self.st.report.bad_results += 1;
                        // The reporting host is between activities right
                        // now — it competes for the replacement copy in
                        // id order like any other idle host.
                        self.sync_idle(h);
                        self.reissue(wu);
                    }
                    RecordOutcome::Counted | RecordOutcome::Late => {}
                }
            }
        }
        // Acquire the next piece of work.
        self.next_activity(h);
        self.sync_idle(h);
    }

    fn deadline(&mut self, copy: usize) {
        if !self.settled(copy) {
            self.st.report.reissues += 1;
            self.reissue(self.st.copies[copy].wu);
        }
    }

    fn owner_arrive(&mut self, h: usize, gen: u64) {
        let host = &self.st.hosts[h];
        if !host.live(gen) {
            return;
        }
        // An owner preempting live work is an interesting event.
        if !host.paused && host.activity.is_some() {
            self.window(h);
        }
        self.st.report.owner_preemptions += 1;
        self.st.report.fault_transitions += 1;
        let host = &mut self.st.hosts[h];
        let kills = host.frng.chance(self.fctx.churn.preempt_kill_prob);
        if !host.paused {
            if host.activity.is_some() {
                // VM sandboxes suspend in place (durable .vmss-style
                // state: nothing is lost); native apps are preempted and
                // roll back to their last checkpoint.
                self.accrue(h, matches!(self.deploy.mode, ExecutionMode::Vm(_)));
                self.st.hosts[h].act_gen += 1; // cancel the pending ActDone
            }
            self.st.hosts[h].paused = true;
        }
        if kills {
            self.kill(h);
        }
        let session = self.st.hosts[h]
            .frng
            .exponential(self.fctx.churn.owner_session_mean_secs);
        self.in_span(
            h,
            SimDuration::from_secs_f64(session),
            Ev::OwnerLeave { h, gen },
        );
        self.sync_idle(h);
    }

    fn owner_leave(&mut self, h: usize, gen: u64) {
        if !self.st.hosts[h].live(gen) {
            return;
        }
        self.st.report.fault_transitions += 1;
        self.st.hosts[h].paused = false;
        // Resume the preempted activity (or fetch fresh work), then arm
        // the owner's next arrival.
        self.next_activity(h);
        let mean = self.fctx.churn.owner_arrival_mean_secs;
        self.arm_fault(h, mean, Ev::OwnerArrive { h, gen });
        self.sync_idle(h);
    }

    fn vm_kill(&mut self, h: usize, gen: u64) {
        if !self.st.hosts[h].live(gen) {
            return;
        }
        self.st.report.fault_transitions += 1;
        if self.st.hosts[h].activity.is_some() {
            // A sandbox kill with live work is an interesting event.
            self.window(h);
            self.kill(h);
            // Restart from the rolled-back state (no-op while the owner
            // holds the machine: OwnerLeave resumes it).
            self.next_activity(h);
        }
        let mean = self.fctx.churn.vm_kill_mean_secs;
        self.arm_fault(h, mean, Ev::VmKill { h, gen });
        self.sync_idle(h);
    }

    fn refetch(&mut self, h: usize) {
        self.st.hosts[h].refetch_pending = false;
        if self.st.hosts[h].idle() {
            self.next_activity(h);
            self.sync_idle(h);
        }
    }

    fn rescue_check(&mut self, copy: usize, deadline: SimTime) {
        if self.settled(copy) {
            return;
        }
        // The copy's holder is the host that last took it, if that host
        // is still computing it. Only a computing holder has
        // checkpointed state worth exporting; a copy still in the queue
        // or mid-download is left to the deadline.
        let hosts = &self.st.hosts;
        let holder = self.st.copies[copy].holder as usize;
        let found = hosts
            .get(holder)
            .is_some_and(|s| s.computes(copy))
            .then_some(holder);
        debug_assert_eq!(
            found,
            hosts.iter().position(|s| s.computes(copy)),
            "recorded holder of copy {copy} disagrees with the pool scan",
        );
        let Some(holder) = found else {
            return;
        };
        let stranded = !hosts[holder].up || hosts[holder].paused;
        if !stranded {
            // The holder is live: rescue only a projected miss, and only
            // when a strictly faster host sits idle.
            let rate = self.rate(holder);
            let Some(Activity::Compute { remaining_ref, .. }) = hosts[holder].activity else {
                return;
            };
            let elapsed = self.now.since(hosts[holder].act_started).as_secs_f64();
            let live_remaining = remaining_ref - elapsed * rate;
            let projected = self
                .now
                .saturating_add(SimDuration::from_secs_f64((live_remaining / rate).max(0.0)));
            if projected <= deadline {
                return;
            }
            let holder_speed = hosts[holder].speed;
            let idle = &self.st.idle;
            let faster = idle
                .fastest_first()
                .next()
                .is_some_and(|f| hosts[f].speed > holder_speed);
            debug_assert_eq!(
                faster,
                idle.iter().any(|i| hosts[i].speed > holder_speed),
                "fastest idle host disagrees with the linear scan",
            );
            if !faster {
                return;
            }
            // A straggler preempted live is an interesting event.
            self.window(holder);
        }
        self.export(holder, !stranded);
        self.st.copies[copy].rescued = true;
        self.st.report.migrations += 1;
        if !stranded {
            // The freed host competes for other work.
            self.next_activity(holder);
        }
        self.sync_idle(holder);
    }

    fn evac_check(&mut self, h: usize, gen: u64) {
        let host = &self.st.hosts[h];
        if gen != host.act_gen || !host.up || host.paused {
            return;
        }
        let Some(Activity::Compute {
            remaining_ref,
            progress_ref,
            ..
        }) = host.activity
        else {
            return;
        };
        let rate = self.rate(h);
        let elapsed = self.now.since(host.act_started).as_secs_f64();
        let live_remaining = remaining_ref - elapsed * rate;
        if live_remaining <= 0.0 {
            return; // finishing imminently; let ActDone land
        }
        // Evacuating pays a transfer and a re-download; it only ever
        // wins when at least one durable quantum exists.
        let quantum = self.deploy.checkpoint_interval.as_secs_f64() * rate;
        let durable = durable_progress(progress_ref + elapsed * rate, progress_ref, quantum);
        let hazard = migration::interruption_hazard(
            self.fctx.churn,
            self.fctx.span_gamma,
            self.pool.mean_uptime_secs,
            self.now.since(host.up_since).as_secs_f64(),
            live_remaining / rate,
        );
        // Evacuate only toward predicted safety: an idle host at least
        // as fast whose own hazard over the same work window sits below
        // the threshold. Without such a home the export would burn NIC
        // time to move the task between equally doomed hosts — at
        // extreme churn nobody qualifies and the policy holds still.
        let threshold = self.deploy.migration.hazard_threshold;
        let home = SafeHomeQuery {
            fctx: &self.fctx,
            mean_uptime_secs: self.pool.mean_uptime_secs,
            threshold,
            now: self.now,
            holder_speed: host.speed,
            live_remaining,
            solution: self.st.probe.solution,
        };
        if durable <= 0.0 || hazard < threshold || !home.exists(&self.st.idle, &self.st.hosts) {
            // Re-arm for the next checkpoint quantum; the act_gen guard
            // retires the chain on interruption.
            self.arm_evac_check(h);
            return;
        }
        self.window(h);
        self.export(h, true);
        self.st.report.evacuations += 1;
        self.next_activity(h);
        self.sync_idle(h);
    }

    fn xfer_done(&mut self, copy: usize, remaining_ref: f64) {
        // The server NIC slot frees whether or not the state is still
        // useful.
        self.st.inflight_xfers = self.st.inflight_xfers.saturating_sub(1);
        if !self.settled(copy) {
            self.resume_elsewhere(copy, remaining_ref);
        }
    }

    // -----------------------------------------------------------------
    // Steps the handlers share.
    // -----------------------------------------------------------------

    fn after(&mut self, delay: SimDuration, ev: Ev) {
        self.q.schedule(self.now.saturating_add(delay), ev);
    }

    fn after_secs(&mut self, secs: f64, ev: Ev) {
        self.after(SimDuration::from_secs_f64(secs), ev);
    }

    /// Schedule host `h`'s span-bound event `ev` (an owner arrival or
    /// departure, a sandbox kill, an activity completion or an
    /// evacuation audit) `delay` from now. In a campaign that prunes, an
    /// event due at or after the host's next flip is dropped: the flip
    /// was queued first, so it pops first and retires the event by
    /// generation (DESIGN.md §12, "Span-bound events").
    fn in_span(&mut self, h: usize, delay: SimDuration, ev: Ev) {
        let at = self.now.saturating_add(delay);
        if !self.st.prune || at < self.st.next_flip[h] {
            self.q.schedule(at, ev);
        }
    }

    /// Host `h`'s compute rate: reference seconds per host second.
    fn rate(&self, h: usize) -> f64 {
        self.st.probe.solution.rate(self.st.hosts[h].speed)
    }

    /// Hydrate a probe window for host `h`'s speed band around an
    /// interesting event.
    fn window(&mut self, h: usize) {
        let st = &mut self.st;
        st.hpool
            .window(&st.probe, archetype::speed_band(st.hosts[h].speed));
    }

    /// Re-derive host `h`'s membership in the idle set after a handler
    /// changed it. The set invariant — `h ∈ idle` iff
    /// [`HostSlot::idle`] — is what lets the server push touch only
    /// takers instead of scanning a million-host pool.
    fn sync_idle(&mut self, h: usize) {
        if self.st.hosts[h].idle() {
            self.st.idle.insert(h);
        } else {
            self.st.idle.remove(h);
        }
    }

    /// Copy `copy` needs nothing more: it returned, or its work unit
    /// validated.
    fn settled(&self, copy: usize) -> bool {
        let c = &self.st.copies[copy];
        c.returned || self.st.validator.is_validated(c.wu)
    }

    /// Draw host `h`'s next availability span (mean `mean`), record the
    /// flip that ends it as the host's next flip, and schedule it, or
    /// hold it when the host parks: it has the image and no activity
    /// while the work queue is empty, in a campaign that parks. The new
    /// `life_gen` retires every event of the span before; it is returned
    /// for arming the new span.
    fn next_span(&mut self, h: usize, mean: f64) -> u64 {
        let host = &mut self.st.hosts[h];
        let churn = self.fctx.churn;
        let span = faults::sample_span(
            &mut host.rng,
            churn.availability_shape,
            self.fctx.span_gamma,
            mean,
        );
        host.life_gen += 1;
        let at = self.now.saturating_add(SimDuration::from_secs_f64(span));
        self.st.next_flip[h] = at;
        let park = &mut self.st.park;
        if park.on && host.has_image && host.activity.is_none() && self.st.queue.is_empty() {
            park.parked.insert(h);
        } else {
            self.q.schedule(at, host.flip(h));
        }
        host.life_gen
    }

    /// Arm one fault process of host `h`: schedule `ev` an exponential
    /// wait of mean `mean` from now, drawn from the fault stream. A mean
    /// of zero switches the process off, and nothing is drawn. An owner
    /// departure or sandbox kill re-arms its process through this same
    /// guard; those events exist only while their mean is positive.
    fn arm_fault(&mut self, h: usize, mean: f64, ev: Ev) {
        if mean > 0.0 {
            let wait = self.st.hosts[h].frng.exponential(mean);
            self.in_span(h, SimDuration::from_secs_f64(wait), ev);
        }
    }

    /// Arm the periodic evacuation audit for a host in `Compute` — only
    /// under the policy's `evacuate` arm, only under churn, and only
    /// when checkpoints exist (no durable state, nothing worth
    /// exporting). Policy-off campaigns schedule nothing here, ever.
    fn arm_evac_check(&mut self, h: usize) {
        let interval = self.deploy.checkpoint_interval;
        if !self.deploy.migration.evacuate || !self.fctx.on || interval.is_zero() {
            return;
        }
        if !matches!(self.st.hosts[h].activity, Some(Activity::Compute { .. })) {
            return;
        }
        let gen = self.st.hosts[h].act_gen;
        self.in_span(h, interval, Ev::EvacCheck { h, gen });
    }

    /// Start host `h`'s current activity now: retire any pending
    /// `ActDone`, schedule the new one `secs` from now, and arm the
    /// evacuation audit when the activity computes. The caller picks
    /// the delay; only [`Run::next_activity`] floors it at 1 µs.
    fn begin(&mut self, h: usize, secs: f64) {
        let host = &mut self.st.hosts[h];
        host.act_started = self.now;
        host.act_gen += 1;
        let gen = host.act_gen;
        self.in_span(h, SimDuration::from_secs_f64(secs), Ev::ActDone { h, gen });
        self.arm_evac_check(h);
    }

    /// A download finished: host `h` computes copy `task`, with
    /// `remaining_ref` reference seconds left after `progress_ref`.
    fn compute(&mut self, h: usize, task: usize, remaining_ref: f64, progress_ref: f64) {
        self.st.hosts[h].activity = Some(Activity::Compute {
            task,
            remaining_ref,
            progress_ref,
        });
        let secs = remaining_ref / self.rate(h);
        self.begin(h, secs);
    }

    /// Give host `h` its next activity (resume, or fetch new work). The
    /// completion is at least 1 µs away.
    fn next_activity(&mut self, h: usize) {
        let host = &self.st.hosts[h];
        if !host.up || host.excluded || host.paused {
            return;
        }
        // Resume an interrupted activity if one exists; otherwise pick work.
        if host.activity.is_none() && !self.fetch(h) {
            return;
        }
        let secs = match self.st.hosts[h].activity {
            Some(
                Activity::ImageDl { remaining }
                | Activity::InputDl { remaining, .. }
                | Activity::StateDl { remaining, .. },
            ) => remaining / self.pool.down_bw,
            Some(Activity::Upload { remaining, .. }) => remaining / self.pool.up_bw,
            Some(Activity::Compute { remaining_ref, .. }) => remaining_ref / self.rate(h),
            None => return,
        };
        self.begin(h, secs.max(1e-6));
    }

    /// Hand host `h` new work: the VM image first, then the head of the
    /// work queue. Returns false on an empty scheduler reply.
    fn fetch(&mut self, h: usize) -> bool {
        let backoff = &self.fctx.backoff;
        let host = &mut self.st.hosts[h];
        if !host.has_image {
            host.activity = Some(Activity::ImageDl {
                remaining: self.deploy.image_bytes as f64,
            });
            host.backoff.reset(backoff);
            return true;
        }
        let Some(work) = self.st.queue.pop_front(&mut self.st.copies) else {
            // Empty scheduler reply. Under churn the client retries with
            // exponential backoff; the zero-churn path keeps the legacy
            // server push (`Run::kick`) and schedules nothing.
            if self.fctx.on && !host.refetch_pending {
                let delay = host.backoff.next_delay(backoff);
                host.refetch_pending = true;
                self.after(delay, Ev::Refetch { h });
            }
            return false;
        };
        host.backoff.reset(backoff);
        match work {
            Work::Fresh(copy) => {
                debug_assert!(!self.st.copies[copy].returned);
                host.activity = Some(Activity::InputDl {
                    remaining: self.project.wu_input_bytes as f64,
                    task: copy,
                });
                self.st.copies[copy].holder = h as u32;
                self.after(self.project.deadline, Ev::Deadline { copy });
                if self.deploy.migration.rescue {
                    // Audit the copy at the slack point; the full
                    // deadline rides along for the projection.
                    let slack =
                        self.project.deadline.as_secs_f64() * self.deploy.migration.rescue_slack;
                    let deadline = self.now.saturating_add(self.project.deadline);
                    self.after_secs(slack, Ev::RescueCheck { copy, deadline });
                }
            }
            Work::Resume {
                copy,
                remaining_ref,
            } => {
                // Fetch the migrated checkpoint.
                host.activity = Some(Activity::StateDl {
                    remaining: archetype::checkpoint_state_bytes(self.deploy) as f64,
                    task: copy,
                    remaining_ref,
                });
                self.st.copies[copy].holder = h as u32;
            }
        }
        true
    }

    /// Queue a fresh copy of work unit `wu` behind all other work
    /// (a replacement or a deadline reissue) and offer it to idle hosts.
    fn reissue(&mut self, wu: usize) {
        let work = TaskCopy::issue(&mut self.st.copies, wu);
        self.st.queue.push_back(work);
        self.kick();
    }

    /// Queue checkpointed copy `copy` for any volunteer to resume and
    /// offer it to idle hosts. Resumes jump the queue: finishing started
    /// work beats starting fresh copies (BOINC's deadline-driven
    /// scheduling has the same effect).
    fn resume_elsewhere(&mut self, copy: usize, remaining_ref: f64) {
        self.st.queue.push_front(Work::Resume {
            copy,
            remaining_ref,
        });
        self.kick();
    }

    /// Hand queued work to idle online hosts (called whenever the queue
    /// gains entries after the initial distribution — migrations,
    /// deadline reissues, replacement copies). Hosts otherwise only ask
    /// for work at their own transitions. Under churn the server push is
    /// disabled: idle clients poll with exponential backoff instead.
    ///
    /// Walks the idle and the parked hosts in ascending host id, the
    /// hand-out order both substrates share, rather than the whole pool.
    /// Each parked host it reaches is settled to now first, and goes
    /// back on the event queue if it takes work. Handling host `h`
    /// changes no other host's membership, so the walk reads the live
    /// sets; the hosts it hands work to leave the idle set after it.
    /// Work still queued after the walk waits for hosts to come up, so
    /// every parked host goes back on the event queue.
    fn kick(&mut self) {
        if self.fctx.on {
            return;
        }
        let mut kicked: Vec<usize> = Vec::new();
        let mut from = 0;
        while !self.st.queue.is_empty() {
            let Some(h) = self.st.idle.ids.first_in_union(&self.st.park.parked, from) else {
                break;
            };
            from = h + 1;
            if self.st.park.parked.contains(h) {
                self.settle(h, self.now);
                // A flip held for this very picosecond may have fired
                // before or after the event that kicks.
                self.tie |= self.st.park.parked.contains(h) && self.st.next_flip[h] == self.now;
                if !self.st.hosts[h].idle() {
                    continue;
                }
                self.unpark(h);
            }
            debug_assert!(
                self.st.hosts[h].idle(),
                "idle-set invariant broken for host {h}"
            );
            self.next_activity(h);
            kicked.push(h);
        }
        for h in kicked {
            self.sync_idle(h);
        }
        if !self.st.queue.is_empty() {
            let parked: Vec<usize> = self.st.park.parked.iter().collect();
            for h in parked {
                self.unpark(h);
            }
        }
    }

    /// Accrue partial progress of the interrupted activity. With
    /// `preserve` false (host went down, app preempted) compute progress
    /// rolls back to the last durable checkpoint; with `preserve` true
    /// (VM suspend) it is kept in full.
    fn accrue(&mut self, h: usize, preserve: bool) {
        let rate = self.rate(h);
        let st = &mut self.st;
        let host = &mut st.hosts[h];
        let elapsed = self.now.since(host.act_started).as_secs_f64();
        let Some(act) = host.activity.as_mut() else {
            return;
        };
        match act {
            Activity::ImageDl { remaining }
            | Activity::InputDl { remaining, .. }
            | Activity::StateDl { remaining, .. } => {
                *remaining = (*remaining - elapsed * self.pool.down_bw).max(0.0);
                if matches!(act, Activity::ImageDl { .. }) {
                    st.report.image_transfer_secs += elapsed;
                }
            }
            Activity::Upload { remaining, .. } => {
                *remaining = (*remaining - elapsed * self.pool.up_bw).max(0.0);
            }
            Activity::Compute {
                task,
                remaining_ref,
                progress_ref,
            } => {
                st.report.cpu_secs_spent += elapsed;
                let advanced = elapsed * rate;
                let new_progress = *progress_ref + advanced;
                if preserve {
                    // Suspend-to-disk: every reference second survives.
                    st.copies[*task].cpu_spent += elapsed;
                    *remaining_ref -= advanced;
                    *progress_ref = new_progress;
                } else {
                    // Roll back to the last checkpoint. Only the durable
                    // delta is attributed to the copy — rolled-back time
                    // is waste, never "useful" even if the copy validates.
                    let quantum = self.deploy.checkpoint_interval.as_secs_f64() * rate;
                    let kept = durable_progress(new_progress, *progress_ref, quantum);
                    st.report.cpu_secs_lost += (new_progress - kept) / rate;
                    st.copies[*task].cpu_spent += (kept - *progress_ref) / rate;
                    *remaining_ref -= kept - *progress_ref;
                    *progress_ref = kept;
                }
            }
        }
    }

    /// Destroy the sandbox: in-flight work (and any suspended state)
    /// rolls back to the last durable checkpoint. The caller reschedules
    /// the restart.
    fn kill(&mut self, h: usize) {
        if self.st.hosts[h].activity.is_none() {
            return;
        }
        if self.st.hosts[h].paused {
            // The suspended image dies with the sandbox; only whole
            // checkpoint quanta survive.
            let rate = self.rate(h);
            let quantum = self.deploy.checkpoint_interval.as_secs_f64() * rate;
            let st = &mut self.st;
            if let Some(Activity::Compute {
                task,
                remaining_ref,
                progress_ref,
            }) = st.hosts[h].activity.as_mut()
            {
                let kept = durable_progress(*progress_ref, 0.0, quantum);
                let lost = *progress_ref - kept;
                if lost > 0.0 {
                    st.report.cpu_secs_lost += lost / rate;
                    // Take the destroyed progress back out of the copy's
                    // attributable CPU (the suspend credited it in full).
                    st.copies[*task].cpu_spent =
                        (st.copies[*task].cpu_spent - lost / rate).max(0.0);
                    *remaining_ref += lost;
                    *progress_ref = kept;
                }
            }
        } else {
            self.accrue(h, false);
        }
        self.st.hosts[h].act_gen += 1; // cancel the pending ActDone
        self.st.report.vm_kills += 1;
    }

    /// Export computing host `h`'s checkpoint through the server NIC
    /// (migration policy only). With `accrue` set (live holder) partial
    /// progress first rolls back to the last durable checkpoint —
    /// exactly the accounting an interruption applies; a stranded holder
    /// already accrued at interruption time. The activity is cleared,
    /// the pending `ActDone` cancelled, and an [`Ev::XferDone`] scheduled
    /// after the contention-scaled transfer; only then does the state
    /// become fetchable. Both audits call this only for a host they saw
    /// computing.
    fn export(&mut self, h: usize, accrue: bool) {
        if accrue {
            self.accrue(h, false);
        }
        let host = &mut self.st.hosts[h];
        let Some(Activity::Compute {
            task,
            remaining_ref,
            ..
        }) = host.activity.take()
        else {
            unreachable!("host {h} exports a checkpoint without computing");
        };
        host.act_gen += 1; // cancel the pending ActDone
                           // One server link: concurrent exports stretch each other linearly.
        let base = migration::transfer_wire_secs(archetype::checkpoint_state_bytes(self.deploy));
        let secs = base * (1.0 + self.st.inflight_xfers as f64);
        self.st.inflight_xfers += 1;
        self.st.report.transfer_secs += secs;
        self.after_secs(
            secs.max(1e-6),
            Ev::XferDone {
                copy: task,
                remaining_ref,
            },
        );
    }
}

/// Final accounting: fold the loop-exit state into the report.
fn finalize(
    st: SimState,
    project: &ProjectConfig,
    deploy: &DeployConfig,
    horizon: SimTime,
) -> GridReport {
    let SimState {
        mut hosts,
        mut report,
        hpool,
        eligible_rate,
        validator,
        makespan,
        ..
    } = st;
    let end = makespan.unwrap_or(horizon);
    for host in hosts.iter_mut() {
        if host.up {
            host.uptime_total += end.since(host.up_since).as_secs_f64();
        }
    }
    report.validated_wus = validator.validated_count();
    report.finished = validator.validated_count() >= project.workunits;
    report.makespan_secs = end.as_secs_f64();
    let uptime: f64 = hosts.iter().map(|h| h.uptime_total).sum(); // simlint: allow(float-fold-order) -- host order is fixed; this sum order is part of the bit-identity contract
    let validated_ref =
        validator.validated_count() as f64 * project.wu_ref_secs * project.quorum as f64;
    report.efficiency = if uptime > 0.0 {
        validated_ref / uptime
    } else {
        0.0
    };
    report.goodput = if report.makespan_secs > 0.0 {
        validator.validated_count() as f64 * project.wu_ref_secs / report.makespan_secs
    } else {
        0.0
    };
    report.wasted_cpu_secs = (report.cpu_secs_spent - validator.useful_cpu_secs()).max(0.0);
    // The checkpoint model charges a fractional write overhead per
    // interval of host compute time rather than simulating each write;
    // count the intervals that overhead covered.
    let interval_secs = deploy.checkpoint_interval.as_secs_f64();
    if interval_secs > 0.0 {
        report.checkpoint_writes = (report.cpu_secs_spent / interval_secs).floor() as u64;
    }
    // Makespan relative to a fully-available, perfectly-scheduled pool
    // of the RAM-eligible hosts (a lower bound, so inflation >= 1 for
    // any finished campaign).
    let ideal_secs = if eligible_rate > 0.0 {
        project.workunits as f64 * project.quorum as f64 * project.wu_ref_secs / eligible_rate
    } else {
        0.0
    };
    report.makespan_inflation = if ideal_secs > 0.0 {
        report.makespan_secs / ideal_secs
    } else {
        0.0
    };
    // Retire the hydration pool. The stats are a pure function of the
    // (substrate-independent) event stream, so the report stays
    // bit-identical across substrates.
    report.hydration = hpool.finish();
    report
}

/// A set of small integers (host ids, or the speed ranks of
/// [`SpeedRanks`]), one bit each: insert and remove are single word
/// operations. A member past the allocated words is never present, so
/// the default set over nothing is empty for every query.
#[derive(Debug, Clone, Default)]
struct BitSet(Vec<u64>);

impl BitSet {
    /// An empty set over `0..len`.
    fn new(len: usize) -> Self {
        BitSet(vec![0; len.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }

    /// The least member of `self ∪ other` at or after `from`.
    fn first_in_union(&self, other: &BitSet, from: usize) -> Option<usize> {
        let word =
            |w: usize| self.0.get(w).copied().unwrap_or(0) | other.0.get(w).copied().unwrap_or(0);
        let words = self.0.len().max(other.0.len());
        let mut w = from / 64;
        let mut bits = word(w) & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            if w >= words {
                return None;
            }
            bits = word(w);
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// The idle hosts as one bit per host id. Membership changes on nearly
/// every event. [`IdleSet::iter`] runs in ascending host id, the
/// hand-out order of [`Run::kick`]. Campaigns with a migration policy
/// keep the same set a second time, one bit per speed rank, so the
/// migration audits can walk it fastest first
/// ([`IdleSet::fastest_first`]).
#[derive(Debug, Clone)]
struct IdleSet {
    ids: BitSet,
    by_speed: Option<SpeedRanks>,
}

/// The fastest-first view of an [`IdleSet`]: O(hosts) whatever the
/// speed range.
#[derive(Debug, Clone)]
struct SpeedRanks {
    /// Host id → speed rank: rank 0 is the fastest host, equal speeds
    /// rank by ascending id. Fixed at campaign start; trajectory
    /// snapshots share the table instead of copying it.
    rank: Arc<[u32]>,
    /// Speed rank → host id.
    host: Arc<[u32]>,
    /// The idle hosts, one bit per speed rank.
    ranks: BitSet,
}

impl IdleSet {
    /// An empty set over host ids `0..hosts`, without a speed order.
    fn new(hosts: usize) -> Self {
        IdleSet {
            ids: BitSet::new(hosts),
            by_speed: None,
        }
    }

    /// An empty set over the hosts whose speeds are `speeds` (indexed by
    /// host id), with the fastest-first order the audits walk.
    fn with_speed_order(speeds: &[f64]) -> Self {
        let mut host: Vec<u32> = (0..speeds.len() as u32).collect();
        // Stable sort on a total order: speed descending, then id.
        host.sort_by(|&a, &b| {
            speeds[b as usize]
                .total_cmp(&speeds[a as usize])
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; speeds.len()];
        for (r, &h) in host.iter().enumerate() {
            rank[h as usize] = r as u32;
        }
        IdleSet {
            by_speed: Some(SpeedRanks {
                rank: rank.into(),
                host: host.into(),
                ranks: BitSet::new(speeds.len()),
            }),
            ..IdleSet::new(speeds.len())
        }
    }

    fn insert(&mut self, h: usize) {
        self.ids.insert(h);
        if let Some(s) = &mut self.by_speed {
            s.ranks.insert(s.rank[h] as usize);
        }
    }

    fn remove(&mut self, h: usize) {
        self.ids.remove(h);
        if let Some(s) = &mut self.by_speed {
            s.ranks.remove(s.rank[h] as usize);
        }
    }

    /// Member host ids in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter()
    }

    /// Member host ids fastest first, equal speeds by ascending id. Only
    /// campaigns with a migration policy build this order.
    fn fastest_first(&self) -> impl Iterator<Item = usize> + '_ {
        let s = self
            .by_speed
            .as_ref()
            .expect("the speed order exists whenever a migration policy is on");
        s.ranks.iter().map(|r| s.host[r] as usize)
    }
}

/// The parked hosts of a campaign (DESIGN.md §12): hosts with the image
/// and no activity, parked while the work queue was empty, whose next
/// availability flip is held at its time in [`SimState`]'s `next_flip`
/// instead of on the event queue. The default, for campaigns that do
/// not park, is off and empty.
#[derive(Debug, Clone, Default)]
struct Parking {
    /// The campaign parks: batched substrate with fast-forward on, no
    /// churn and no migration policy. Decided once, in [`Run::start`].
    on: bool,
    /// Hosts whose next flip is held.
    parked: BitSet,
    /// Hosts whose held flip went back on the event queue and has not
    /// popped yet.
    requeued: BitSet,
}

impl Parking {
    /// Parking on, over host ids `0..hosts`, none parked.
    fn new(hosts: usize) -> Self {
        Parking {
            on: true,
            parked: BitSet::new(hosts),
            requeued: BitSet::new(hosts),
        }
    }
}

/// One evacuation audit's question to the idle pool: does a host at
/// least as fast as the holder have an interruption hazard below the
/// threshold over the holder's remaining work? Only existence matters,
/// so the visiting order cannot change the answer.
struct SafeHomeQuery<'a> {
    fctx: &'a FaultCtx<'a>,
    mean_uptime_secs: f64,
    threshold: f64,
    now: SimTime,
    holder_speed: f64,
    /// Reference seconds of work the holder has left.
    live_remaining: f64,
    /// The campaign's segment solution, which sets each host's rate.
    solution: SegmentSolution,
}

impl SafeHomeQuery<'_> {
    /// Whether a safe home exists: the fastest-first walk, which debug
    /// builds cross-check against the linear scan.
    fn exists(&self, idle: &IdleSet, hosts: &[HostSlot]) -> bool {
        let found = self.fastest_first(idle, hosts);
        debug_assert_eq!(
            found,
            self.linear(idle, hosts),
            "fastest-first safe-home walk disagrees with the linear scan",
        );
        found
    }

    /// The audit: walk the idle hosts fastest first and stop at the
    /// first one slower than the holder (every later one is slower
    /// still), or at the first whose owner-arrival term alone clears the
    /// threshold by [`migration::OWNER_STOP_MARGIN`] (no later host is
    /// faster, so none has a shorter window or a smaller owner term;
    /// sound while [`migration::owner_stop_is_sound`] holds, DESIGN.md
    /// §16). Equal to [`SafeHomeQuery::linear`] by construction.
    fn fastest_first(&self, idle: &IdleSet, hosts: &[HostSlot]) -> bool {
        let churn = self.fctx.churn;
        let owner_stop = migration::owner_stop_is_sound(
            churn,
            self.fctx.span_gamma,
            self.mean_uptime_secs,
            self.now.as_secs_f64(),
        );
        for i in idle.fastest_first() {
            let cand = &hosts[i];
            if cand.speed < self.holder_speed {
                return false;
            }
            let window = self.live_remaining / self.solution.rate(cand.speed);
            let p_owner = migration::owner_arrival_prob(churn, window);
            if owner_stop && p_owner >= self.threshold + migration::OWNER_STOP_MARGIN {
                return false;
            }
            let hazard = migration::hazard_given_owner(
                churn,
                self.fctx.span_gamma,
                self.mean_uptime_secs,
                self.now.since(cand.up_since).as_secs_f64(),
                window,
                p_owner,
            );
            if hazard < self.threshold {
                return true;
            }
        }
        false
    }

    /// The reference answer: every idle host in ascending id, each
    /// tested in full. Debug builds cross-check every audit against it.
    fn linear(&self, idle: &IdleSet, hosts: &[HostSlot]) -> bool {
        idle.iter().any(|i| {
            let cand = &hosts[i];
            if cand.speed < self.holder_speed {
                return false;
            }
            migration::interruption_hazard(
                self.fctx.churn,
                self.fctx.span_gamma,
                self.mean_uptime_secs,
                self.now.since(cand.up_since).as_secs_f64(),
                self.live_remaining / self.solution.rate(cand.speed),
            ) < self.threshold
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationPolicy;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use vgrid_simcore::DetSet;
    use vgrid_vmm::VmmProfile;

    #[test]
    fn idle_set_matches_ordered_set_reference() {
        // Both substrates share the idle set, so the oracle
        // cannot see an ordering bug here: compare it with an ordered
        // set, and its fastest-first order with a reference sort,
        // directly. 1,000 hosts is not a multiple of 64, so the last
        // word is partial; speeds come in quarter bands, so most hosts
        // tie with others.
        let n = 1000;
        let mut rng = SimRng::new(0x1d1e);
        let speeds: Vec<f64> = (0..n)
            .map(|_| 0.5 + 0.25 * rng.next_below(7) as f64)
            .collect();
        let mut bits = IdleSet::new(n);
        let mut ranked = IdleSet::with_speed_order(&speeds);
        let mut reference: DetSet<usize> = DetSet::new();
        let fastest_first = |set: &DetSet<usize>| {
            let mut members: Vec<usize> = set.iter().copied().collect();
            members.sort_by(|&a, &b| {
                speeds[b]
                    .partial_cmp(&speeds[a])
                    .expect("finite speeds")
                    .then(a.cmp(&b))
            });
            members
        };
        let boundary = [0, 63, 64, 127, 128, n - 64, n - 1];
        for step in 0..20_000u64 {
            let h = if step % 3 == 0 {
                boundary[rng.next_below(boundary.len() as u64) as usize]
            } else {
                rng.next_below(n as u64) as usize
            };
            if rng.chance(0.5) {
                bits.insert(h);
                ranked.insert(h);
                reference.insert(h);
            } else {
                bits.remove(h);
                ranked.remove(h);
                reference.remove(&h);
            }
            if step % 97 == 0 {
                assert!(bits.iter().eq(reference.iter().copied()), "step {step}");
                assert!(ranked.iter().eq(reference.iter().copied()), "step {step}");
                assert!(
                    ranked.fastest_first().eq(fastest_first(&reference)),
                    "step {step}"
                );
            }
        }
        for &h in &boundary {
            bits.insert(h);
            ranked.insert(h);
            reference.insert(h);
        }
        assert!(bits.iter().eq(reference.iter().copied()));
        assert!(ranked.fastest_first().eq(fastest_first(&reference)));
        for h in 0..n {
            ranked.insert(h);
            reference.insert(h);
        }
        assert!(ranked.fastest_first().eq(fastest_first(&reference)));
        for h in 0..n {
            bits.remove(h);
            ranked.remove(h);
        }
        assert_eq!(bits.iter().next(), None);
        assert_eq!(ranked.iter().next(), None);
        assert_eq!(ranked.fastest_first().next(), None);
    }

    /// An up, idle host of the given speed, up since `up_since`.
    fn idle_host(speed: f64, up_since: SimTime) -> HostSlot {
        HostSlot {
            speed,
            excluded: false,
            up: true,
            life_gen: 0,
            act_gen: 0,
            has_image: true,
            activity: None,
            act_started: SimTime::ZERO,
            up_since,
            uptime_total: 0.0,
            rng: SimRng::new(0),
            frng: SimRng::new(0),
            paused: false,
            refetch_pending: false,
            backoff: BackoffState::new(&BackoffPolicy::default()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The evacuation audit's fastest-first walk, with its speed
        /// stop and its owner-term stop, answers exactly what the linear
        /// scan of every idle host answers. Random idle sets (empty, all
        /// idle, tied speeds), uptimes and remaining work, at the full
        /// validated width of every input the hazard reads: shapes 0.1
        /// to 10, mean uptime and owner mean from 1e-10 to 1e9 s (owner
        /// arrivals also off), uptimes from 0 to the whole simulated
        /// time range, windows far shorter than the uptime, and
        /// thresholds near 0, exactly 1, random, and tied to each idle
        /// host's owner term, to that term plus the stop's margin, and
        /// to its hazard: the values where the two comparisons meet.
        #[test]
        fn safe_home_walk_matches_linear_scan(
            layout in any::<u64>(),
            n in 0usize..40,
            idle_sel in 0u8..3,
            speed_sel in 0u8..3,
            shape in prop_oneof![Just(0.1), Just(1.0), Just(10.0), 0.1f64..10.0],
            mean_up_log in prop_oneof![Just(-10.0), Just(9.0), -10.0f64..9.0],
            owner_sel in 0u8..4,
            owner_log in -10.0f64..9.0,
            now_sel in 0u8..3,
            uptime_sel in 0u8..3,
            remaining_log in -12.0f64..8.0,
        ) {
            let mut rng = SimRng::new(layout);
            let speeds: Vec<f64> = (0..n)
                .map(|_| match speed_sel {
                    0 => 1.0,
                    1 => 0.5 + 0.25 * rng.next_below(7) as f64,
                    _ => rng.range_f64(0.5, 2.0),
                })
                .collect();
            let holder_speed = if n > 0 && rng.chance(0.5) {
                speeds[rng.next_below(n as u64) as usize]
            } else {
                rng.range_f64(0.4, 2.1)
            };
            let now = match now_sel {
                0 => SimTime::MAX,
                1 => SimTime::from_secs(14 * 24 * 3600),
                _ => SimTime::from_secs_f64(rng.range_f64(0.0, 30.0 * 24.0 * 3600.0)),
            };
            let hosts: Vec<HostSlot> = speeds
                .iter()
                .map(|&speed| {
                    let up_since = match uptime_sel {
                        0 => now,
                        1 => SimTime::ZERO,
                        _ => SimTime::from_picos(rng.next_below(now.as_picos().max(1))),
                    };
                    idle_host(speed, up_since)
                })
                .collect();
            let mut idle = IdleSet::with_speed_order(&speeds);
            for h in 0..n {
                if idle_sel == 1 || (idle_sel == 2 && rng.chance(0.5)) {
                    idle.insert(h);
                }
            }
            let churn = ChurnConfig {
                availability_shape: shape,
                uptime_factor: 1.0,
                owner_arrival_mean_secs: if owner_sel == 0 { 0.0 } else { 10f64.powf(owner_log) },
                owner_session_mean_secs: 1800.0,
                preempt_kill_prob: 0.0,
                vm_kill_mean_secs: 0.0,
            };
            prop_assert!(churn.validate().is_ok());
            let fctx = FaultCtx::new(&churn);
            let mut query = SafeHomeQuery {
                fctx: &fctx,
                mean_uptime_secs: 10f64.powf(mean_up_log),
                threshold: 1.0,
                now,
                holder_speed,
                live_remaining: 10f64.powf(remaining_log),
                solution: SegmentSolution {
                    vm_factor: rng.range_f64(1.0, 3.0),
                    ckpt_frac: rng.range_f64(0.0, 0.2),
                },
            };

            let mut thresholds = vec![1e-300, 1.0, rng.next_f64()];
            for h in idle.iter() {
                let window = query.live_remaining / query.solution.rate(hosts[h].speed);
                let p_owner = migration::owner_arrival_prob(&churn, window);
                let hazard = migration::interruption_hazard(
                    &churn,
                    fctx.span_gamma,
                    query.mean_uptime_secs,
                    now.since(hosts[h].up_since).as_secs_f64(),
                    window,
                );
                thresholds.extend([p_owner, p_owner + migration::OWNER_STOP_MARGIN, hazard]);
            }
            for t in thresholds {
                // Every threshold a policy can carry: (0, 1].
                query.threshold = if t > 0.0 { t.min(1.0) } else { f64::MIN_POSITIVE };
                let policy = MigrationPolicy {
                    hazard_threshold: query.threshold,
                    ..MigrationPolicy::full()
                };
                prop_assert!(policy.validate().is_ok());
                prop_assert_eq!(
                    query.fastest_first(&idle, &hosts),
                    query.linear(&idle, &hosts),
                    "threshold {} holder speed {} shape {} mean uptime {} owner mean {} now {:?}",
                    query.threshold,
                    holder_speed,
                    shape,
                    query.mean_uptime_secs,
                    churn.owner_arrival_mean_secs,
                    now
                );
            }
        }
    }

    /// Churn-enabled entry point on the default (batched) substrate.
    fn run_impl(
        project: &ProjectConfig,
        pool: &PoolConfig,
        deploy: &DeployConfig,
        churn: &ChurnConfig,
        seed: u64,
        horizon: SimTime,
    ) -> GridReport {
        run_campaign_substrate(
            project,
            pool,
            deploy,
            churn,
            seed,
            horizon,
            &RunOptions::default(),
        )
    }

    /// Zero-churn entry point used by the legacy-behaviour tests.
    fn run_legacy(
        project: &ProjectConfig,
        pool: &PoolConfig,
        deploy: &DeployConfig,
        seed: u64,
        horizon: SimTime,
    ) -> GridReport {
        run_impl(project, pool, deploy, &ChurnConfig::off(), seed, horizon)
    }

    fn small_project() -> ProjectConfig {
        ProjectConfig {
            workunits: 20,
            wu_ref_secs: 600.0,
            replication: 2,
            quorum: 2,
            error_rate: 0.02,
            ..Default::default()
        }
    }

    fn stable_pool() -> PoolConfig {
        PoolConfig {
            volunteers: 30,
            mean_uptime_secs: 100_000.0,
            mean_downtime_secs: 100.0,
            ram_range: (1 << 30, 2 << 30), // everyone can host a VM
            ..Default::default()
        }
    }

    fn horizon() -> SimTime {
        SimTime::from_secs(30 * 24 * 3600)
    }

    #[test]
    fn prefix_resume_is_bit_identical_to_cold_run() {
        // Same spec at a longer horizon must resume from the stored
        // prefix snapshot and still match a cold full run. The cold
        // references use the flat-queue substrate, which never touches
        // the trajectory cache — no global toggles, so this test is
        // race-free under parallel execution.
        let project = ProjectConfig {
            workunits: 40,
            wu_ref_secs: 1800.0,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 60,
            ram_range: (256 << 20, 2 << 30),
            ..Default::default()
        };
        let deploy = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
        let churn = ChurnConfig::intensity(0.7);
        let seed = 0x9e5a_11e7_7e57_0001;
        let h1 = SimTime::from_secs(3 * 24 * 3600);
        let h2 = SimTime::from_secs(9 * 24 * 3600);

        let cold = |h| {
            run_campaign_substrate(
                &project,
                &pool,
                &deploy,
                &churn,
                seed,
                h,
                &RunOptions::default().substrate(SubstrateMode::HydratedReference),
            )
        };
        let warm = |h| run_impl(&project, &pool, &deploy, &churn, seed, h);

        let ref1 = cold(h1);
        let ref2 = cold(h2);
        assert_eq!(warm(h1), ref1, "cold batched run diverged");
        // The h1 run stored its loop-exit snapshot; the h2 lookup must
        // find it as a usable prefix.
        let key = fastforward::trajectory_key(&project, &pool, &deploy, &churn, seed);
        assert!(
            fastforward::trajectory_lookup(&key, h2).is_some(),
            "prefix snapshot was not stored at h1",
        );
        assert_eq!(warm(h2), ref2, "resume-from-prefix diverged from cold run");
        // Exact-horizon replay: resuming at the snapshot's own horizon
        // re-breaks immediately and re-derives the identical report.
        assert_eq!(warm(h1), ref1, "exact-horizon resume diverged");
        assert_eq!(warm(h2), ref2, "repeat resume diverged");
    }

    /// An event queue that counts the events scheduled on it into a
    /// counter the caller keeps after the run consumes the queue.
    struct Counting<Q> {
        inner: Q,
        scheduled: Rc<Cell<u64>>,
    }

    impl<Q: EventScheduler<Ev>> EventScheduler<Ev> for Counting<Q> {
        fn schedule(&mut self, time: SimTime, event: Ev) {
            self.scheduled.set(self.scheduled.get() + 1);
            self.inner.schedule(time, event)
        }
        fn pop(&mut self) -> Option<(SimTime, Ev)> {
            self.inner.pop()
        }
    }

    #[test]
    fn parked_hosts_schedule_a_tenth_of_the_events_of_a_month() {
        // The benchmark's 40,000-host month at 1/10 scale: month-long
        // single-copy work units, a QEMU image, no churn. Once the 40
        // copies are out, the idle hosts' flips are nearly every event.
        let project = ProjectConfig {
            workunits: 40,
            wu_ref_secs: 1_440_000.0,
            replication: 1,
            quorum: 1,
            deadline: SimDuration::from_secs(30 * 24 * 3600),
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 4_000,
            ..Default::default()
        };
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let churn = ChurnConfig::off();
        let run = |lazy| {
            let scheduled = Rc::new(Cell::new(0));
            let q = Counting {
                inner: RadixQueue::new(),
                scheduled: Rc::clone(&scheduled),
            };
            let report = Run::start(&project, &pool, &deploy, &churn, 1, lazy, q)
                .finish(horizon(), None)
                .expect("no tie in the month");
            (report, scheduled.get())
        };
        let (parked, parked_events) = run(true);
        let (queued, queued_events) = run(false);
        assert_eq!(parked, queued);
        assert!(
            queued_events >= 10 * parked_events,
            "parking scheduled {parked_events} events, queuing every flip {queued_events}"
        );
    }

    #[test]
    fn churned_hosts_schedule_no_event_past_their_flip() {
        // The benchmark's churned 15,000-host fortnight at 1/10 scale.
        // At churn 1 an up-span has a 4 h mean, an owner arrival and a
        // sandbox kill 4 h and 48 h, so most kills and half the
        // arrivals armed in a span fall after it ends.
        let project = ProjectConfig {
            workunits: 750,
            wu_ref_secs: 4.0 * 3600.0,
            replication: 2,
            quorum: 2,
            deadline: SimDuration::from_secs(7 * 24 * 3600),
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 1_500,
            ..Default::default()
        };
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let churn = ChurnConfig::intensity(1.0);
        let run = |lazy| {
            let scheduled = Rc::new(Cell::new(0));
            let q = Counting {
                inner: RadixQueue::new(),
                scheduled: Rc::clone(&scheduled),
            };
            let report = Run::start(&project, &pool, &deploy, &churn, 1, lazy, q)
                .finish(SimTime::from_secs(14 * 24 * 3600), None)
                .expect("a churned campaign parks no host");
            (report, scheduled.get())
        };
        let (pruned, pruned_events) = run(true);
        let (queued, queued_events) = run(false);
        assert_eq!(pruned, queued);
        assert!(
            5 * pruned_events <= 4 * queued_events,
            "pruning scheduled {pruned_events} events, queuing every event {queued_events}"
        );
    }

    #[test]
    fn held_flip_ties_fall_back_to_the_eager_order() {
        // A valid spec whose zero-length downtimes and frequent
        // rejections put held flips on the picosecond of other events.
        // Each pinned seed meets one kind of tie, cold and resumed from
        // a 5 µs prefix: at a kick (9.54 µs), at a re-queued flip's pop
        // (7.72 µs) and at the makespan (82.87 µs). The parking run
        // reports it, nothing is stored, and the fallback's report
        // equals the reference substrate's. Without the fallback the
        // kick and makespan seeds would report other bytes.
        let project = ProjectConfig {
            workunits: 10,
            wu_ref_secs: 1e-7,
            wu_input_bytes: 0,
            wu_output_bytes: 0,
            error_rate: 0.9,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 300,
            mean_uptime_secs: 1e-6,
            mean_downtime_secs: 1e-12,
            ..Default::default()
        };
        let deploy = DeployConfig::native();
        let churn = ChurnConfig::off();
        let prefix = SimTime::from_secs_f64(5e-6);
        let horizon = SimTime::from_secs_f64(300e-6);
        crate::campaign::CampaignSpec::new("ties")
            .project(project.clone())
            .pool(pool.clone())
            .horizon(horizon)
            .build()
            .expect("the tie-prone spec is valid");
        for seed in [579, 1270, 566] {
            let batched = |h| {
                let options = RunOptions::default();
                run_campaign_substrate(&project, &pool, &deploy, &churn, seed, h, &options)
            };
            let reference = |h| {
                let options = RunOptions::default().substrate(SubstrateMode::HydratedReference);
                run_campaign_substrate(&project, &pool, &deploy, &churn, seed, h, &options)
            };
            let key = fastforward::trajectory_key(&project, &pool, &deploy, &churn, seed);
            let parked = |h| run_batched(&project, &pool, &deploy, &churn, seed, h, Some(&key));
            assert_eq!(parked(horizon), Err(Tie), "seed {seed} cold");
            assert_eq!(batched(prefix), reference(prefix), "seed {seed} prefix");
            assert!(
                fastforward::trajectory_lookup(&key, horizon).is_some(),
                "seed {seed}: the prefix run stored no snapshot"
            );
            assert_eq!(parked(horizon), Err(Tie), "seed {seed} resumed");
            assert_eq!(batched(horizon), reference(horizon), "seed {seed} fallback");
        }
    }

    #[test]
    fn vm_cpu_factor_is_profile_ordered() {
        let f = |p: VmmProfile| vm_cpu_factor(&ExecutionMode::Vm(p));
        assert_eq!(vm_cpu_factor(&ExecutionMode::Native), 1.0);
        let vmp = f(VmmProfile::vmplayer());
        let q = f(VmmProfile::qemu());
        assert!(vmp > 1.0 && vmp < 1.3, "vmp {vmp}");
        assert!(q > 1.3, "qemu {q}");
        assert!(q > vmp);
    }

    #[test]
    fn reports_carry_archetype_census_and_hydration_stats() {
        let r = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
            9,
            horizon(),
        );
        let census_total: u32 = r.archetype_hosts.iter().map(|&(_, n)| n).sum();
        assert_eq!(census_total, stable_pool().volunteers);
        assert!(!r.archetype_hosts.is_empty());
        assert!(r.hydration.windows > 0, "{:?}", r.hydration);
        assert!(r.hydration.hydrations >= 1);
        assert!(r.hydration.peak_resident >= 1);
        assert!(r.hydration.memo_hits > 0, "windows repeat per archetype");
    }

    #[test]
    fn native_campaign_completes() {
        let r = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            1,
            horizon(),
        );
        assert!(r.finished, "campaign incomplete: {r:?}");
        assert_eq!(r.validated_wus, 20);
        assert!(r.cpu_secs_spent > 0.0);
        assert_eq!(r.hosts_excluded_ram, 0);
        assert!(r.goodput > 0.0);
        assert!(r.makespan_inflation >= 1.0, "{r:?}");
    }

    #[test]
    fn vm_campaign_is_slower_but_completes() {
        let native = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            1,
            horizon(),
        );
        let vm = run_legacy(
            &small_project(),
            &stable_pool(),
            &DeployConfig::vm(VmmProfile::qemu(), 1_400 << 20),
            1,
            horizon(),
        );
        assert!(vm.finished);
        assert!(
            vm.makespan_secs > native.makespan_secs,
            "vm {} vs native {}",
            vm.makespan_secs,
            native.makespan_secs
        );
        assert!(vm.image_transfer_secs > 0.0);
        assert!(vm.efficiency < native.efficiency);
        assert!(vm.goodput < native.goodput);
    }

    #[test]
    fn small_ram_hosts_are_excluded_from_vm_campaigns() {
        let pool = PoolConfig {
            ram_range: (128 << 20, 1 << 30),
            ..stable_pool()
        };
        let vm = run_legacy(
            &small_project(),
            &pool,
            &DeployConfig::vm(VmmProfile::vmplayer(), 700 << 20),
            3,
            horizon(),
        );
        assert!(vm.hosts_excluded_ram > 0, "{:?}", vm.hosts_excluded_ram);
        let native = run_legacy(
            &small_project(),
            &pool,
            &DeployConfig::native(),
            3,
            horizon(),
        );
        assert_eq!(native.hosts_excluded_ram, 0);
    }

    #[test]
    fn churn_loses_work() {
        let churny = PoolConfig {
            mean_uptime_secs: 1800.0,
            mean_downtime_secs: 1800.0,
            ..stable_pool()
        };
        let project = ProjectConfig {
            wu_ref_secs: 4.0 * 3600.0,
            workunits: 10,
            ..small_project()
        };
        let r = run_legacy(&project, &churny, &DeployConfig::native(), 5, horizon());
        assert!(r.cpu_secs_lost > 0.0, "expected lost work: {r:?}");
        assert!(r.cpu_secs_lost < r.cpu_secs_spent);
        assert!(r.wasted_cpu_secs >= r.cpu_secs_lost * 0.99, "{r:?}");
    }

    #[test]
    fn replication_absorbs_bad_results() {
        let project = ProjectConfig {
            error_rate: 0.3,
            ..small_project()
        };
        let r = run_legacy(
            &project,
            &stable_pool(),
            &DeployConfig::native(),
            7,
            horizon(),
        );
        assert!(r.bad_results > 0);
        assert!(r.finished, "quorum should still be reached: {r:?}");
        // Bad results are CPU spent that produced no validated science.
        assert!(r.wasted_cpu_secs > 0.0);
    }

    #[test]
    fn deadline_reissue_survives_permanent_volunteer_loss() {
        // A third of offline transitions are permanent. The campaign
        // still completes because expired copies are reissued.
        let flaky = PoolConfig {
            volunteers: 40,
            mean_uptime_secs: 4.0 * 3600.0,
            mean_downtime_secs: 3600.0,
            permanent_failure_prob: 0.33,
            ram_range: (1 << 30, 2 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 20,
            wu_ref_secs: 1200.0,
            deadline: vgrid_simcore::SimDuration::from_secs(24 * 3600),
            ..small_project()
        };
        let r = run_legacy(&project, &flaky, &DeployConfig::native(), 13, horizon());
        assert!(r.finished, "reissue must rescue stranded work units: {r:?}");
        // Attrition really happened (some copies never came back).
        assert!(
            r.results_returned as u32 >= project.workunits * project.quorum,
            "{r:?}"
        );
        assert!(r.reissues > 0, "{r:?}");
    }

    #[test]
    fn migration_rescues_interrupted_tasks() {
        // Long tasks + short uptimes: without migration a task camps on
        // its (offline) host; with migration another host resumes it.
        let churny = PoolConfig {
            volunteers: 20,
            mean_uptime_secs: 2.0 * 3600.0,
            mean_downtime_secs: 20.0 * 3600.0,
            ram_range: (1 << 30, 2 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 30,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let without = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20),
            21,
            horizon(),
        );
        let with = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration(),
            21,
            horizon(),
        );
        assert_eq!(without.migrations, 0);
        assert!(with.migrations > 0, "migrations happened: {with:?}");
        assert!(
            with.validated_wus >= without.validated_wus,
            "migration should not reduce throughput: {} vs {}",
            with.validated_wus,
            without.validated_wus
        );
    }

    #[test]
    fn migrated_state_costs_transfer_time() {
        // Migration with a huge state should be slower end-to-end than
        // with a small state, all else equal.
        let churny = PoolConfig {
            volunteers: 20,
            mean_uptime_secs: 2.0 * 3600.0,
            mean_downtime_secs: 20.0 * 3600.0,
            ram_range: (4 << 30, 8 << 30),
            ..stable_pool()
        };
        let project = ProjectConfig {
            workunits: 30,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let mut big_state = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration();
        if let ExecutionMode::Vm(p) = &mut big_state.mode {
            p.guest_ram = 2 << 30; // 2 GB of state to ship per migration
        }
        let small = run_legacy(
            &project,
            &churny,
            &DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_migration(),
            22,
            horizon(),
        );
        let big = run_legacy(&project, &churny, &big_state, 22, horizon());
        assert!(
            big.validated_wus <= small.validated_wus,
            "shipping 2 GB per migration can't beat 300 MB: {} vs {}",
            big.validated_wus,
            small.validated_wus
        );
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            run_legacy(
                &small_project(),
                &stable_pool(),
                &DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
                seed,
                horizon(),
            )
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.results_returned, b.results_returned);
        let c = run(12);
        assert_ne!(a.makespan_secs, c.makespan_secs);
    }

    #[test]
    fn churn_is_deterministic_too() {
        let churn = ChurnConfig::intensity(2.0);
        let run = |seed| {
            run_impl(
                &small_project(),
                &stable_pool(),
                &DeployConfig::native(),
                &churn,
                seed,
                horizon(),
            )
        };
        assert_eq!(run(31), run(31));
        assert_ne!(run(31).makespan_secs, run(32).makespan_secs);
    }

    #[test]
    fn owner_activity_preempts_and_kills() {
        let churn = ChurnConfig {
            owner_arrival_mean_secs: 2.0 * 3600.0,
            owner_session_mean_secs: 1800.0,
            preempt_kill_prob: 0.3,
            ..ChurnConfig::off()
        };
        let r = run_impl(
            &small_project(),
            &stable_pool(),
            &DeployConfig::native(),
            &churn,
            41,
            horizon(),
        );
        assert!(r.owner_preemptions > 0, "{r:?}");
        assert!(r.vm_kills > 0, "{r:?}");
        assert!(r.finished, "{r:?}");
    }

    #[test]
    fn vm_suspend_preserves_work_native_preemption_loses_it() {
        // Frequent owner sessions + long tasks + sparse checkpoints:
        // native preemptions roll back to the last checkpoint, VM
        // suspends lose nothing.
        let churn = ChurnConfig {
            owner_arrival_mean_secs: 1800.0,
            owner_session_mean_secs: 900.0,
            ..ChurnConfig::off()
        };
        let project = ProjectConfig {
            workunits: 10,
            wu_ref_secs: 2.0 * 3600.0,
            ..small_project()
        };
        let mut native_deploy = DeployConfig::native();
        native_deploy.checkpoint_interval = SimDuration::from_secs(3600);
        let native = run_impl(
            &project,
            &stable_pool(),
            &native_deploy,
            &churn,
            43,
            horizon(),
        );
        let mut vm_deploy = DeployConfig::vm(VmmProfile::vmplayer(), 0);
        vm_deploy.checkpoint_interval = SimDuration::from_secs(3600);
        let vm = run_impl(&project, &stable_pool(), &vm_deploy, &churn, 43, horizon());
        assert!(native.cpu_secs_lost > 0.0, "{native:?}");
        assert!(
            vm.cpu_secs_lost < native.cpu_secs_lost,
            "suspend must lose less than preemption: vm {} vs native {}",
            vm.cpu_secs_lost,
            native.cpu_secs_lost
        );
    }

    #[test]
    fn disabled_checkpointing_loses_everything_on_kill() {
        let churn = ChurnConfig {
            vm_kill_mean_secs: 2.0 * 3600.0,
            ..ChurnConfig::off()
        };
        let project = ProjectConfig {
            workunits: 10,
            wu_ref_secs: 3.0 * 3600.0,
            ..small_project()
        };
        let mut no_ckpt = DeployConfig::native();
        no_ckpt.checkpoint_interval = SimDuration::ZERO;
        let without = run_impl(&project, &stable_pool(), &no_ckpt, &churn, 47, horizon());
        let with = run_impl(
            &project,
            &stable_pool(),
            &DeployConfig::native(),
            &churn,
            47,
            horizon(),
        );
        assert!(without.vm_kills > 0, "{without:?}");
        assert!(
            without.cpu_secs_lost > with.cpu_secs_lost,
            "no checkpoints must lose more: {} vs {}",
            without.cpu_secs_lost,
            with.cpu_secs_lost
        );
        assert!(with.goodput >= without.goodput, "{with:?} vs {without:?}");
    }
}

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

use crate::archetype::{self, ArchetypeKey};
use crate::checkpoint::{durable_progress, BackoffPolicy, BackoffState, QuorumValidator};
use crate::fastforward::{self, WorkQueue};
use crate::faults::{self, ChurnConfig};
use crate::hydrate::{HydrationPool, ProbeSpec};
use crate::migration;
use crate::model::{DeployConfig, ExecutionMode, GridReport, PoolConfig, ProjectConfig};
use crate::options::RunOptions;
use vgrid_machine::MachineSpec;
use vgrid_simcore::{
    CalendarQueue, DetMap, DetSet, EventQueue, EventScheduler, SimDuration, SimRng, SimTime,
};
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
    /// Index into the campaign's archetype table.
    #[allow(dead_code)] // read by the census and future batched solvers
    archetype: u32,
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

/// Churn context threaded through the helpers.
struct FaultCtx<'a> {
    churn: &'a ChurnConfig,
    backoff: BackoffPolicy,
    /// False when the churn config is fully inert: the simulator must
    /// take exactly the legacy code paths.
    on: bool,
}

/// Which host substrate executes a campaign. The two substrates are
/// **bit-identical by contract**: they share every piece of
/// host-stepping logic, the segment solver, the hydration probes and
/// the transfer price, and differ only in the event queue, in how the
/// work queue materializes, and in trajectory reuse — all validated by
/// the `hydration_equivalence` and `hydration_reference` test suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateMode {
    /// Archetype-batched analytic substrate on the sharded calendar
    /// queue, with the lazy work queue and the trajectory cache while
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
/// bit-identical by contract.
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
            if let Some(key) = key.as_deref() {
                if let Some(ckpt) = fastforward::trajectory_lookup(key, horizon) {
                    return resume_campaign(project, pool, deploy, churn, horizon, key, ckpt);
                }
            }
            run_campaign_on(
                project,
                pool,
                deploy,
                churn,
                seed,
                horizon,
                ff,
                CalendarQueue::new(),
                key.as_deref(),
            )
        }
        SubstrateMode::HydratedReference => run_campaign_on(
            project,
            pool,
            deploy,
            churn,
            seed,
            horizon,
            false,
            EventQueue::new(),
            None,
        ),
    }
}

/// Everything the campaign loop mutates, bundled so the loop exit can
/// be snapshotted into a [`CampaignCheckpoint`] and resumed later.
/// Loop-invariant derived constants (`vm_factor`, `ckpt_frac`,
/// `eligible_rate`, the probe spec) ride along so a resume never
/// recomputes them in a different order.
#[derive(Debug, Clone)]
pub(crate) struct SimState {
    hosts: Vec<HostSlot>,
    report: GridReport,
    hpool: HydrationPool,
    probe: ProbeSpec,
    vm_factor: f64,
    ckpt_frac: f64,
    eligible_rate: f64,
    validator: QuorumValidator,
    copies: Vec<TaskCopy>,
    queue: WorkQueue,
    makespan: Option<SimTime>,
    idle: DetSet<u32>,
    /// Checkpoint exports currently crossing the server NIC; each new
    /// export contends with these (migration policy only — always zero
    /// otherwise).
    inflight_xfers: u32,
}

/// A campaign trajectory frozen at its loop exit: the full mutable
/// state plus the event queue's surviving entries in pop order. The
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

/// Resume a campaign from a stored prefix snapshot: rebuild a calendar
/// queue from the drained pending events (re-scheduling in pop order
/// preserves same-instant FIFO ties) and continue the identical loop.
fn resume_campaign(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    horizon: SimTime,
    key: &str,
    ckpt: CampaignCheckpoint,
) -> GridReport {
    let fctx = FaultCtx {
        churn,
        backoff: BackoffPolicy::default(),
        on: !churn.is_off(),
    };
    let CampaignCheckpoint {
        state: mut st,
        pending,
    } = ckpt;
    let mut q = CalendarQueue::new();
    for (time, ev) in pending {
        q.schedule(time, ev);
    }
    let carried = run_loop(&mut st, &mut q, project, pool, deploy, &fctx, horizon);
    store_and_finalize(st, q, carried, project, deploy, horizon, Some(key))
}

/// The campaign loop, generic over the event-queue implementation so
/// both substrates execute literally the same host-stepping code.
/// `lazy_queue` picks the work-queue materialization (batched
/// substrate, fast-forward on). With `store_key` set (the same case),
/// the loop-exit state is snapshotted into the trajectory cache before
/// accounting.
#[allow(clippy::too_many_arguments)]
fn run_campaign_on<Q: EventScheduler<Ev>>(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
    horizon: SimTime,
    lazy_queue: bool,
    mut q: Q,
    store_key: Option<&str>,
) -> GridReport {
    let fctx = FaultCtx {
        churn,
        backoff: BackoffPolicy::default(),
        on: !churn.is_off(),
    };
    let mut st = init_state(
        project, pool, deploy, churn, seed, lazy_queue, &fctx, &mut q,
    );
    let carried = run_loop(&mut st, &mut q, project, pool, deploy, &fctx, horizon);
    store_and_finalize(st, q, carried, project, deploy, horizon, store_key)
}

/// Build the campaign's initial state and schedule the staggered
/// power-ons — every random draw in the exact legacy order.
#[allow(clippy::too_many_arguments)]
fn init_state<Q: EventScheduler<Ev>>(
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    churn: &ChurnConfig,
    seed: u64,
    lazy_queue: bool,
    fctx: &FaultCtx<'_>,
    q: &mut Q,
) -> SimState {
    let rng = SimRng::new(seed ^ 0x617d_517d);
    // Per-archetype segment solve, identical on both substrates.
    let solution = archetype::solve(deploy);
    let vm_factor = solution.vm_factor;
    // Checkpoint overhead: fraction of host time spent writing state.
    let ckpt_frac = solution.ckpt_frac;
    let guest_ram = match &deploy.mode {
        ExecutionMode::Native => 0u64,
        ExecutionMode::Vm(p) => p.guest_ram,
    };

    let mut report = GridReport {
        mode: deploy.mode.name().to_string(),
        ..Default::default()
    };

    // Lazy-hydration pool: full-fidelity probe systems materialized in
    // windows around interesting events, cross-checking the analytic
    // ledger. Probes observe only — they draw no host randomness.
    let hpool = HydrationPool::new();
    let probe = ProbeSpec {
        key: archetype::solver_key(&deploy.mode),
        mode: deploy.mode.clone(),
        solution,
    };

    // Build hosts, bucketing each into its archetype as we go (an
    // index map instead of per-host label strings: a million-host pool
    // collapses to a handful of archetypes).
    let cclass = archetype::churn_class(churn);
    let mut arch_index: DetMap<(u16, bool), u32> = DetMap::new();
    let mut arch_keys: Vec<ArchetypeKey> = Vec::new();
    let mut arch_counts: Vec<u32> = Vec::new();
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
        let excluded = guest_ram > 0 && ram < guest_ram.saturating_add(deploy.host_headroom_bytes);
        let band = archetype::speed_band(speed);
        let arch = *arch_index.or_insert_with((band, !excluded), || {
            arch_keys.push(ArchetypeKey::new(deploy, &cclass, band, !excluded));
            arch_counts.push(0);
            (arch_keys.len() - 1) as u32
        });
        arch_counts[arch as usize] += 1;
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
            archetype: arch,
        }
    }));
    report.hosts_excluded_ram = hosts.iter().filter(|h| h.excluded).count() as u32;
    // Canonical archetype census: sorted by key, not first-seen order.
    let mut census: Vec<(ArchetypeKey, u32)> = arch_keys.into_iter().zip(arch_counts).collect();
    census.sort();
    report.archetype_hosts = census.into_iter().map(|(k, n)| (k.label(), n)).collect();
    // Ideal-makespan denominator: the RAM-eligible pool's aggregate
    // compute rate, as if always on and perfectly scheduled.
    let eligible_rate: f64 = hosts
        .iter()
        .filter(|h| !h.excluded)
        .map(|h| compute_rate(h, vm_factor, ckpt_frac))
        .sum(); // simlint: allow(float-fold-order) -- host order is fixed; this sum order is part of the bit-identity contract

    // Server state. The batched substrate issues fresh copies lazily
    // (materialized when a host takes them); the reference substrate
    // and the kill switch run the legacy eager setup. Copy indices are
    // internal lookup keys, so the two schemes are report-identical.
    let mut validator = QuorumValidator::new(project.workunits, project.quorum);
    let mut copies = Vec::new();
    let queue = if lazy_queue {
        WorkQueue::lazy(project)
    } else {
        WorkQueue::eager(project, &mut copies, &mut validator)
    };

    // Stagger initial power-ons.
    for (h, host) in hosts.iter_mut().enumerate() {
        let delay = host.rng.exponential(pool.mean_downtime_secs / 4.0);
        q.schedule(SimTime::from_secs_f64(delay), Ev::Up { h, gen: 0 });
    }

    SimState {
        hosts,
        report,
        hpool,
        probe,
        vm_factor,
        ckpt_frac,
        eligible_rate,
        validator,
        copies,
        queue,
        makespan: None,
        // Hosts currently idle (up, eligible, unpaused, no activity) —
        // kept in lockstep with host state so server pushes touch only
        // the hosts that can take work instead of scanning the pool.
        idle: DetSet::new(),
        inflight_xfers: 0,
    }
}

/// Drive the event loop until the horizon, quorum completion, or queue
/// exhaustion. Returns the popped-but-unprocessed event when a break
/// check fired (it belongs at the head of any stored trajectory).
fn run_loop<Q: EventScheduler<Ev>>(
    st: &mut SimState,
    q: &mut Q,
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    fctx: &FaultCtx<'_>,
    horizon: SimTime,
) -> Option<(SimTime, Ev)> {
    let vm_factor = st.vm_factor;
    let ckpt_frac = st.ckpt_frac;
    let SimState {
        hosts,
        report,
        hpool,
        probe,
        validator,
        copies,
        queue,
        makespan,
        idle,
        inflight_xfers,
        ..
    } = st;
    // --- helpers as closures are awkward with borrows; use a macro-free
    // imperative loop with inline logic. ---
    #[allow(clippy::needless_range_loop)] // hosts indexed by stable id
    while let Some((now, ev)) = q.pop() {
        if now > horizon || (makespan.is_some() && validator.validated_count() >= project.workunits)
        {
            return Some((now, ev));
        }
        match ev {
            Ev::Up { h, gen } => {
                if gen != hosts[h].life_gen || hosts[h].excluded {
                    continue;
                }
                report.fault_transitions += 1;
                hosts[h].up = true;
                hosts[h].paused = false;
                hosts[h].up_since = now;
                // `sample_span` with shape 1 *is* the legacy exponential
                // call, and a unit uptime factor is an exact multiply.
                let span = faults::sample_span(
                    &mut hosts[h].rng,
                    fctx.churn.availability_shape,
                    pool.mean_uptime_secs * fctx.churn.uptime_factor,
                );
                hosts[h].life_gen += 1;
                let gen = hosts[h].life_gen;
                q.schedule(
                    now.saturating_add(SimDuration::from_secs_f64(span)),
                    Ev::Down { h, gen },
                );
                // Arm this up-span's fault processes (never under zero
                // churn: the event stream must stay byte-identical).
                if fctx.churn.owner_arrival_mean_secs > 0.0 {
                    let gap = hosts[h]
                        .frng
                        .exponential(fctx.churn.owner_arrival_mean_secs);
                    q.schedule(
                        now.saturating_add(SimDuration::from_secs_f64(gap)),
                        Ev::OwnerArrive { h, gen },
                    );
                }
                if fctx.churn.vm_kill_mean_secs > 0.0 {
                    let wait = hosts[h].frng.exponential(fctx.churn.vm_kill_mean_secs);
                    q.schedule(
                        now.saturating_add(SimDuration::from_secs_f64(wait)),
                        Ev::VmKill { h, gen },
                    );
                }
                // Resume or acquire work.
                start_next_activity(
                    h, now, hosts, queue, copies, validator, project, pool, deploy, q, vm_factor,
                    ckpt_frac, fctx, report,
                );
                sync_idle(idle, hosts, h);
            }
            Ev::Down { h, gen } => {
                if gen != hosts[h].life_gen {
                    continue;
                }
                // A failure mid-compute is an interesting event: hydrate
                // a probe window before the ledger absorbs it.
                if matches!(hosts[h].activity, Some(Activity::Compute { .. })) {
                    hpool.window(probe, archetype::speed_band(hosts[h].speed));
                }
                report.fault_transitions += 1;
                hosts[h].up = false;
                hosts[h].uptime_total += now.since(hosts[h].up_since).as_secs_f64();
                // Interrupt the activity, preserving resumable progress.
                // A paused host accrued everything at pause time.
                if !hosts[h].paused {
                    accrue_activity(
                        h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, false, report,
                    );
                }
                hosts[h].paused = false;
                hosts[h].act_gen += 1; // cancel any pending ActDone
                if deploy.migrate_on_churn {
                    if let Some(Activity::Compute {
                        task,
                        remaining_ref,
                        ..
                    }) = hosts[h].activity
                    {
                        // Ship the checkpointed state back through the
                        // server; any volunteer may pick it up. Resumes
                        // jump the queue: finishing started work beats
                        // starting fresh copies (BOINC's deadline-driven
                        // scheduling has the same effect).
                        hosts[h].activity = None;
                        queue.push_front(Work::Resume {
                            copy: task,
                            remaining_ref,
                        });
                        report.migrations += 1;
                        kick_idle_hosts(
                            now, idle, hosts, queue, copies, validator, project, pool, deploy, q,
                            vm_factor, ckpt_frac, fctx, report,
                        );
                    }
                }
                if hosts[h].rng.chance(pool.permanent_failure_prob) {
                    // The volunteer never returns; its task (if any) is
                    // stranded until the server's deadline reissues it.
                    hosts[h].excluded = true;
                    sync_idle(idle, hosts, h);
                    continue;
                }
                let span = faults::sample_span(
                    &mut hosts[h].rng,
                    fctx.churn.availability_shape,
                    pool.mean_downtime_secs,
                );
                hosts[h].life_gen += 1;
                let gen = hosts[h].life_gen;
                q.schedule(
                    now.saturating_add(SimDuration::from_secs_f64(span)),
                    Ev::Up { h, gen },
                );
                sync_idle(idle, hosts, h);
            }
            Ev::ActDone { h, gen } => {
                if gen != hosts[h].act_gen || !hosts[h].up {
                    continue;
                }
                // Finish the current activity.
                let Some(act) = hosts[h].activity.take() else {
                    continue;
                };
                match act {
                    Activity::ImageDl { .. } => {
                        hosts[h].has_image = true;
                        report.image_transfer_secs += now.since(hosts[h].act_started).as_secs_f64();
                    }
                    Activity::StateDl {
                        task,
                        remaining_ref,
                        ..
                    } => {
                        hosts[h].activity = Some(Activity::Compute {
                            task,
                            remaining_ref,
                            progress_ref: project.wu_ref_secs - remaining_ref,
                        });
                        hosts[h].act_started = now;
                        let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
                        hosts[h].act_gen += 1;
                        let gen = hosts[h].act_gen;
                        q.schedule(
                            now.saturating_add(SimDuration::from_secs_f64(remaining_ref / rate)),
                            Ev::ActDone { h, gen },
                        );
                        arm_evac_check(h, now, hosts, deploy, fctx, q);
                        continue;
                    }
                    Activity::InputDl { task, .. } => {
                        let wu = copies[task].wu;
                        let remaining_ref = project.wu_ref_secs;
                        hosts[h].activity = Some(Activity::Compute {
                            task,
                            remaining_ref,
                            progress_ref: 0.0,
                        });
                        hosts[h].act_started = now;
                        let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
                        hosts[h].act_gen += 1;
                        let gen = hosts[h].act_gen;
                        q.schedule(
                            now.saturating_add(SimDuration::from_secs_f64(remaining_ref / rate)),
                            Ev::ActDone { h, gen },
                        );
                        arm_evac_check(h, now, hosts, deploy, fctx, q);
                        let _ = wu;
                        continue;
                    }
                    Activity::Compute {
                        task,
                        remaining_ref,
                        progress_ref,
                    } => {
                        // Task completion: hydrate a probe window to
                        // check the ledger's rate against a real system.
                        hpool.window(probe, archetype::speed_band(hosts[h].speed));
                        // Account the CPU time of the final stretch.
                        let elapsed = now.since(hosts[h].act_started).as_secs_f64();
                        report.cpu_secs_spent += elapsed;
                        copies[task].cpu_spent += elapsed;
                        let _ = (remaining_ref, progress_ref);
                        hosts[h].activity = Some(Activity::Upload {
                            remaining: project.wu_output_bytes as f64,
                            task,
                        });
                        hosts[h].act_started = now;
                        hosts[h].act_gen += 1;
                        let gen = hosts[h].act_gen;
                        q.schedule(
                            now.saturating_add(SimDuration::from_secs_f64(
                                project.wu_output_bytes as f64 / pool.up_bw,
                            )),
                            Ev::ActDone { h, gen },
                        );
                        continue;
                    }
                    Activity::Upload { task, .. } => {
                        // Report the result to the server.
                        copies[task].returned = true;
                        report.results_returned += 1;
                        let wu_idx = copies[task].wu;
                        let good = !hosts[h].rng.chance(project.error_rate);
                        use crate::checkpoint::RecordOutcome;
                        match validator.record(wu_idx, good, copies[task].cpu_spent) {
                            RecordOutcome::NewlyValidated => {
                                // A quorum decision is an interesting
                                // event: hydrate a probe window.
                                hpool.window(probe, archetype::speed_band(hosts[h].speed));
                                if copies[task].rescued {
                                    report.rescue_wins += 1;
                                }
                                if validator.validated_count() >= project.workunits {
                                    *makespan = Some(now);
                                }
                            }
                            RecordOutcome::Rejected => {
                                report.bad_results += 1;
                                // Replace the bad copy.
                                copies.push(TaskCopy {
                                    wu: wu_idx,
                                    returned: false,
                                    cpu_spent: 0.0,
                                    rescued: false,
                                });
                                queue.push_back(Work::Fresh(copies.len() - 1));
                                validator.note_issued(wu_idx);
                                // The reporting host is between
                                // activities right now — it competes
                                // for the replacement copy in id order
                                // like any other idle host.
                                sync_idle(idle, hosts, h);
                                kick_idle_hosts(
                                    now, idle, hosts, queue, copies, validator, project, pool,
                                    deploy, q, vm_factor, ckpt_frac, fctx, report,
                                );
                            }
                            RecordOutcome::Counted | RecordOutcome::Late => {}
                        }
                    }
                }
                // Acquire the next piece of work.
                start_next_activity(
                    h, now, hosts, queue, copies, validator, project, pool, deploy, q, vm_factor,
                    ckpt_frac, fctx, report,
                );
                sync_idle(idle, hosts, h);
            }
            Ev::Deadline { copy } => {
                if !copies[copy].returned && !validator.is_validated(copies[copy].wu) {
                    let wu = copies[copy].wu;
                    copies.push(TaskCopy {
                        wu,
                        returned: false,
                        cpu_spent: 0.0,
                        rescued: false,
                    });
                    queue.push_back(Work::Fresh(copies.len() - 1));
                    validator.note_issued(wu);
                    report.reissues += 1;
                    kick_idle_hosts(
                        now, idle, hosts, queue, copies, validator, project, pool, deploy, q,
                        vm_factor, ckpt_frac, fctx, report,
                    );
                }
            }
            Ev::OwnerArrive { h, gen } => {
                if gen != hosts[h].life_gen || !hosts[h].up || hosts[h].excluded {
                    continue;
                }
                // An owner preempting live work is an interesting event.
                if !hosts[h].paused && hosts[h].activity.is_some() {
                    hpool.window(probe, archetype::speed_band(hosts[h].speed));
                }
                report.owner_preemptions += 1;
                report.fault_transitions += 1;
                let kills = hosts[h].frng.chance(fctx.churn.preempt_kill_prob);
                if !hosts[h].paused {
                    if hosts[h].activity.is_some() {
                        // VM sandboxes suspend in place (durable .vmss-style
                        // state: nothing is lost); native apps are preempted
                        // and roll back to their last checkpoint.
                        let preserve = matches!(deploy.mode, ExecutionMode::Vm(_));
                        accrue_activity(
                            h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, preserve,
                            report,
                        );
                        hosts[h].act_gen += 1; // cancel the pending ActDone
                    }
                    hosts[h].paused = true;
                }
                if kills {
                    kill_task(
                        h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, report,
                    );
                }
                let session = hosts[h]
                    .frng
                    .exponential(fctx.churn.owner_session_mean_secs);
                q.schedule(
                    now.saturating_add(SimDuration::from_secs_f64(session)),
                    Ev::OwnerLeave { h, gen },
                );
                sync_idle(idle, hosts, h);
            }
            Ev::OwnerLeave { h, gen } => {
                if gen != hosts[h].life_gen || !hosts[h].up || hosts[h].excluded {
                    continue;
                }
                report.fault_transitions += 1;
                hosts[h].paused = false;
                // Resume the preempted activity (or fetch fresh work).
                start_next_activity(
                    h, now, hosts, queue, copies, validator, project, pool, deploy, q, vm_factor,
                    ckpt_frac, fctx, report,
                );
                let gap = hosts[h]
                    .frng
                    .exponential(fctx.churn.owner_arrival_mean_secs);
                q.schedule(
                    now.saturating_add(SimDuration::from_secs_f64(gap)),
                    Ev::OwnerArrive { h, gen },
                );
                sync_idle(idle, hosts, h);
            }
            Ev::VmKill { h, gen } => {
                if gen != hosts[h].life_gen || !hosts[h].up || hosts[h].excluded {
                    continue;
                }
                report.fault_transitions += 1;
                if hosts[h].activity.is_some() {
                    // A sandbox kill with live work is an interesting
                    // event.
                    hpool.window(probe, archetype::speed_band(hosts[h].speed));
                    kill_task(
                        h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, report,
                    );
                    // Restart from the rolled-back state (no-op while the
                    // owner holds the machine: OwnerLeave resumes it).
                    start_next_activity(
                        h, now, hosts, queue, copies, validator, project, pool, deploy, q,
                        vm_factor, ckpt_frac, fctx, report,
                    );
                }
                let wait = hosts[h].frng.exponential(fctx.churn.vm_kill_mean_secs);
                q.schedule(
                    now.saturating_add(SimDuration::from_secs_f64(wait)),
                    Ev::VmKill { h, gen },
                );
                sync_idle(idle, hosts, h);
            }
            Ev::Refetch { h } => {
                hosts[h].refetch_pending = false;
                if !hosts[h].up
                    || hosts[h].excluded
                    || hosts[h].paused
                    || hosts[h].activity.is_some()
                {
                    continue;
                }
                start_next_activity(
                    h, now, hosts, queue, copies, validator, project, pool, deploy, q, vm_factor,
                    ckpt_frac, fctx, report,
                );
                sync_idle(idle, hosts, h);
            }
            Ev::RescueCheck { copy, deadline } => {
                if copies[copy].returned || validator.is_validated(copies[copy].wu) {
                    continue;
                }
                // Locate the copy's holder. Only a computing holder has
                // checkpointed state worth exporting; a copy still in
                // the queue or mid-download is left to the deadline.
                let Some(holder) = hosts.iter().position(
                    |s| matches!(s.activity, Some(Activity::Compute { task, .. }) if task == copy),
                ) else {
                    continue;
                };
                let stranded = !hosts[holder].up || hosts[holder].paused;
                if !stranded {
                    // The holder is live: rescue only a projected miss,
                    // and only when a strictly faster host sits idle.
                    let rate = compute_rate(&hosts[holder], vm_factor, ckpt_frac);
                    let Some(Activity::Compute { remaining_ref, .. }) = hosts[holder].activity
                    else {
                        continue;
                    };
                    let elapsed = now.since(hosts[holder].act_started).as_secs_f64();
                    let live_remaining = remaining_ref - elapsed * rate;
                    let projected = now.saturating_add(SimDuration::from_secs_f64(
                        (live_remaining / rate).max(0.0),
                    ));
                    if projected <= deadline {
                        continue;
                    }
                    let holder_speed = hosts[holder].speed;
                    if !idle.iter().any(|&i| hosts[i as usize].speed > holder_speed) {
                        continue;
                    }
                }
                // A straggler preempted live is an interesting event.
                if !stranded {
                    hpool.window(probe, archetype::speed_band(hosts[holder].speed));
                }
                if export_checkpoint(
                    holder,
                    now,
                    hosts,
                    copies,
                    pool,
                    deploy,
                    vm_factor,
                    ckpt_frac,
                    !stranded,
                    inflight_xfers,
                    report,
                    q,
                ) {
                    copies[copy].rescued = true;
                    report.migrations += 1;
                    if !stranded {
                        // The freed host competes for other work.
                        start_next_activity(
                            holder, now, hosts, queue, copies, validator, project, pool, deploy, q,
                            vm_factor, ckpt_frac, fctx, report,
                        );
                    }
                    sync_idle(idle, hosts, holder);
                }
            }
            Ev::EvacCheck { h, gen } => {
                if gen != hosts[h].act_gen || !hosts[h].up || hosts[h].paused {
                    continue;
                }
                let Some(Activity::Compute {
                    remaining_ref,
                    progress_ref,
                    ..
                }) = hosts[h].activity
                else {
                    continue;
                };
                let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
                let elapsed = now.since(hosts[h].act_started).as_secs_f64();
                let live_remaining = remaining_ref - elapsed * rate;
                if live_remaining <= 0.0 {
                    continue; // finishing imminently; let ActDone land
                }
                // Evacuating pays a transfer and a re-download; it only
                // ever wins when at least one durable quantum exists.
                let quantum = deploy.checkpoint_interval.as_secs_f64() * rate;
                let durable =
                    durable_progress(progress_ref + elapsed * rate, progress_ref, quantum);
                let hazard = migration::interruption_hazard(
                    fctx.churn,
                    pool.mean_uptime_secs,
                    now.since(hosts[h].up_since).as_secs_f64(),
                    live_remaining / rate,
                );
                if durable <= 0.0 || hazard < deploy.migration.hazard_threshold {
                    // Re-arm for the next checkpoint quantum; the
                    // act_gen guard retires the chain on interruption.
                    q.schedule(
                        now.saturating_add(deploy.checkpoint_interval),
                        Ev::EvacCheck { h, gen },
                    );
                    continue;
                }
                // Evacuate only toward predicted safety: an idle host at
                // least as fast whose own hazard over the same work
                // window sits below the threshold. Without such a home
                // the export would burn NIC time to move the task
                // between equally doomed hosts — at extreme churn nobody
                // qualifies and the policy holds still.
                let safe_home = idle.iter().any(|&i| {
                    let cand = &hosts[i as usize];
                    if cand.speed < hosts[h].speed {
                        return false;
                    }
                    let cand_rate = compute_rate(cand, vm_factor, ckpt_frac);
                    migration::interruption_hazard(
                        fctx.churn,
                        pool.mean_uptime_secs,
                        now.since(cand.up_since).as_secs_f64(),
                        live_remaining / cand_rate,
                    ) < deploy.migration.hazard_threshold
                });
                if !safe_home {
                    q.schedule(
                        now.saturating_add(deploy.checkpoint_interval),
                        Ev::EvacCheck { h, gen },
                    );
                    continue;
                }
                hpool.window(probe, archetype::speed_band(hosts[h].speed));
                if export_checkpoint(
                    h,
                    now,
                    hosts,
                    copies,
                    pool,
                    deploy,
                    vm_factor,
                    ckpt_frac,
                    true,
                    inflight_xfers,
                    report,
                    q,
                ) {
                    report.evacuations += 1;
                    start_next_activity(
                        h, now, hosts, queue, copies, validator, project, pool, deploy, q,
                        vm_factor, ckpt_frac, fctx, report,
                    );
                    sync_idle(idle, hosts, h);
                }
            }
            Ev::XferDone {
                copy,
                remaining_ref,
            } => {
                // The server NIC slot frees whether or not the state is
                // still useful.
                *inflight_xfers = inflight_xfers.saturating_sub(1);
                if copies[copy].returned || validator.is_validated(copies[copy].wu) {
                    continue;
                }
                // Re-homed state jumps the queue, like PR 4 migration:
                // finishing started work beats starting fresh copies.
                queue.push_front(Work::Resume {
                    copy,
                    remaining_ref,
                });
                kick_idle_hosts(
                    now, idle, hosts, queue, copies, validator, project, pool, deploy, q,
                    vm_factor, ckpt_frac, fctx, report,
                );
            }
        }
    }
    None
}

/// Snapshot the loop-exit state into the trajectory cache (when a
/// store key is present), then run final accounting. The snapshot is
/// taken *before* accounting so a resumed run re-derives the final
/// report through the identical code path.
fn store_and_finalize<Q: EventScheduler<Ev>>(
    st: SimState,
    mut q: Q,
    carried: Option<(SimTime, Ev)>,
    project: &ProjectConfig,
    deploy: &DeployConfig,
    horizon: SimTime,
    store_key: Option<&str>,
) -> GridReport {
    if let Some(key) = store_key {
        // Drain the queue in pop order: re-scheduling this sequence
        // into a fresh queue preserves same-instant FIFO ties, so a
        // resumed run pops the identical event stream. The carried
        // event (popped by the break check, never processed) leads.
        let mut pending: Vec<(SimTime, Ev)> = Vec::new();
        pending.extend(carried);
        while let Some(entry) = q.pop() {
            pending.push(entry);
        }
        fastforward::trajectory_store(
            key,
            horizon,
            CampaignCheckpoint {
                state: st.clone(),
                pending,
            },
        );
    }
    finalize(st, project, deploy, horizon)
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

/// Effective compute rate: reference seconds per host second.
fn compute_rate(host: &HostSlot, vm_factor: f64, ckpt_frac: f64) -> f64 {
    host.speed / vm_factor * (1.0 - ckpt_frac).max(0.05)
}

/// Re-derive one host's membership in the idle set after an event arm
/// mutated it. The set invariant — `h ∈ idle` iff the host is up,
/// eligible, unpaused and between activities — is what lets the server
/// push touch only takers instead of scanning a million-host pool.
fn sync_idle(idle: &mut DetSet<u32>, hosts: &[HostSlot], h: usize) {
    let host = &hosts[h];
    if host.up && !host.excluded && !host.paused && host.activity.is_none() {
        idle.insert(h as u32);
    } else {
        idle.remove(&(h as u32));
    }
}

/// Accrue partial progress of the interrupted activity. With `preserve`
/// false (host went down, app preempted) compute progress rolls back to
/// the last durable checkpoint; with `preserve` true (VM suspend) it is
/// kept in full.
#[allow(clippy::too_many_arguments)]
fn accrue_activity(
    h: usize,
    now: SimTime,
    hosts: &mut [HostSlot],
    copies: &mut [TaskCopy],
    pool: &PoolConfig,
    deploy: &DeployConfig,
    vm_factor: f64,
    ckpt_frac: f64,
    preserve: bool,
    report: &mut GridReport,
) {
    let elapsed = now.since(hosts[h].act_started).as_secs_f64();
    let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
    let Some(act) = hosts[h].activity.as_mut() else {
        return;
    };
    match act {
        Activity::ImageDl { remaining }
        | Activity::InputDl { remaining, .. }
        | Activity::StateDl { remaining, .. } => {
            *remaining = (*remaining - elapsed * pool.down_bw).max(0.0);
            if matches!(act, Activity::ImageDl { .. }) {
                report.image_transfer_secs += elapsed;
            }
        }
        Activity::Upload { remaining, .. } => {
            *remaining = (*remaining - elapsed * pool.up_bw).max(0.0);
        }
        Activity::Compute {
            task,
            remaining_ref,
            progress_ref,
        } => {
            report.cpu_secs_spent += elapsed;
            let advanced = elapsed * rate;
            let new_progress = *progress_ref + advanced;
            if preserve {
                // Suspend-to-disk: every reference second survives.
                copies[*task].cpu_spent += elapsed;
                *remaining_ref -= advanced;
                *progress_ref = new_progress;
            } else {
                // Roll back to the last checkpoint. Only the durable
                // delta is attributed to the copy — rolled-back time is
                // waste, never "useful" even if the copy validates.
                let quantum = deploy.checkpoint_interval.as_secs_f64() * rate;
                let kept = durable_progress(new_progress, *progress_ref, quantum);
                report.cpu_secs_lost += (new_progress - kept) / rate;
                copies[*task].cpu_spent += (kept - *progress_ref) / rate;
                *remaining_ref -= kept - *progress_ref;
                *progress_ref = kept;
            }
        }
    }
}

/// Destroy the sandbox: in-flight work (and any suspended state) rolls
/// back to the last durable checkpoint. The caller reschedules the
/// restart.
#[allow(clippy::too_many_arguments)]
fn kill_task(
    h: usize,
    now: SimTime,
    hosts: &mut [HostSlot],
    copies: &mut [TaskCopy],
    pool: &PoolConfig,
    deploy: &DeployConfig,
    vm_factor: f64,
    ckpt_frac: f64,
    report: &mut GridReport,
) {
    if hosts[h].activity.is_none() {
        return;
    }
    if hosts[h].paused {
        // The suspended image dies with the sandbox; only whole
        // checkpoint quanta survive.
        let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
        if let Some(Activity::Compute {
            task,
            remaining_ref,
            progress_ref,
        }) = hosts[h].activity.as_mut()
        {
            let quantum = deploy.checkpoint_interval.as_secs_f64() * rate;
            let kept = durable_progress(*progress_ref, 0.0, quantum);
            let lost = *progress_ref - kept;
            if lost > 0.0 {
                report.cpu_secs_lost += lost / rate;
                // Take the destroyed progress back out of the copy's
                // attributable CPU (the suspend credited it in full).
                copies[*task].cpu_spent = (copies[*task].cpu_spent - lost / rate).max(0.0);
                *remaining_ref += lost;
                *progress_ref = kept;
            }
        }
    } else {
        accrue_activity(
            h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, false, report,
        );
    }
    hosts[h].act_gen += 1; // cancel the pending ActDone
    report.vm_kills += 1;
}

/// Export the holder's computing checkpoint through the server NIC
/// (migration policy only). With `accrue` set (live holder) partial
/// progress first rolls back to the last durable checkpoint — exactly
/// the accounting an interruption applies; a stranded holder already
/// accrued at interruption time. The activity is cleared, the pending
/// `ActDone` cancelled, and an [`Ev::XferDone`] scheduled after the
/// contention-scaled transfer; only then does the state become
/// fetchable. Returns false if the holder has no compute activity.
#[allow(clippy::too_many_arguments)]
fn export_checkpoint<Q: EventScheduler<Ev>>(
    h: usize,
    now: SimTime,
    hosts: &mut [HostSlot],
    copies: &mut [TaskCopy],
    pool: &PoolConfig,
    deploy: &DeployConfig,
    vm_factor: f64,
    ckpt_frac: f64,
    accrue: bool,
    inflight_xfers: &mut u32,
    report: &mut GridReport,
    q: &mut Q,
) -> bool {
    if !matches!(hosts[h].activity, Some(Activity::Compute { .. })) {
        return false;
    }
    if accrue {
        accrue_activity(
            h, now, hosts, copies, pool, deploy, vm_factor, ckpt_frac, false, report,
        );
    }
    let Some(Activity::Compute {
        task,
        remaining_ref,
        ..
    }) = hosts[h].activity
    else {
        return false;
    };
    hosts[h].activity = None;
    hosts[h].act_gen += 1; // cancel the pending ActDone
    let state_bytes = archetype::checkpoint_state_bytes(deploy);
    // One server link: concurrent exports stretch each other linearly.
    let base = migration::transfer_wire_secs(state_bytes);
    let secs = base * (1.0 + *inflight_xfers as f64);
    *inflight_xfers += 1;
    report.transfer_secs += secs;
    q.schedule(
        now.saturating_add(SimDuration::from_secs_f64(secs.max(1e-6))),
        Ev::XferDone {
            copy: task,
            remaining_ref,
        },
    );
    true
}

/// Hand queued work to idle online hosts (called whenever the queue
/// gains entries after the initial distribution — migrations, deadline
/// reissues, replacement copies). Hosts otherwise only ask for work at
/// their own transitions. Under churn the server push is disabled:
/// idle clients poll with exponential backoff instead.
///
/// Iterates the idle set (sorted by host id — the same hand-out order
/// as the original whole-pool scan) rather than all hosts: the walk is
/// O(work handed out), not O(pool).
#[allow(clippy::too_many_arguments)]
fn kick_idle_hosts<Q: EventScheduler<Ev>>(
    now: SimTime,
    idle: &mut DetSet<u32>,
    hosts: &mut [HostSlot],
    queue: &mut WorkQueue,
    copies: &mut Vec<TaskCopy>,
    validator: &mut QuorumValidator,
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    q: &mut Q,
    vm_factor: f64,
    ckpt_frac: f64,
    fctx: &FaultCtx<'_>,
    report: &mut GridReport,
) {
    if fctx.on {
        return;
    }
    let mut kicked: Vec<u32> = Vec::new();
    for &hid in idle.iter() {
        if queue.is_empty() {
            break;
        }
        let h = hid as usize;
        debug_assert!(
            hosts[h].up && !hosts[h].excluded && !hosts[h].paused && hosts[h].activity.is_none(),
            "idle-set invariant broken for host {h}",
        );
        start_next_activity(
            h, now, hosts, queue, copies, validator, project, pool, deploy, q, vm_factor,
            ckpt_frac, fctx, report,
        );
        kicked.push(hid);
    }
    for hid in kicked {
        sync_idle(idle, hosts, hid as usize);
    }
}

/// Give the host its next activity (resume, or fetch new work).
#[allow(clippy::too_many_arguments)]
fn start_next_activity<Q: EventScheduler<Ev>>(
    h: usize,
    now: SimTime,
    hosts: &mut [HostSlot],
    queue: &mut WorkQueue,
    copies: &mut Vec<TaskCopy>,
    validator: &mut QuorumValidator,
    project: &ProjectConfig,
    pool: &PoolConfig,
    deploy: &DeployConfig,
    q: &mut Q,
    vm_factor: f64,
    ckpt_frac: f64,
    fctx: &FaultCtx<'_>,
    _report: &mut GridReport,
) {
    if !hosts[h].up || hosts[h].excluded || hosts[h].paused {
        return;
    }
    // Resume an interrupted activity if one exists; otherwise pick work.
    if hosts[h].activity.is_none() {
        if !hosts[h].has_image {
            hosts[h].activity = Some(Activity::ImageDl {
                remaining: deploy.image_bytes as f64,
            });
            hosts[h].backoff.reset(&fctx.backoff);
        } else if let Some(work) = queue.pop_front(copies, validator) {
            hosts[h].backoff.reset(&fctx.backoff);
            match work {
                Work::Fresh(copy) => {
                    debug_assert!(!copies[copy].returned);
                    hosts[h].activity = Some(Activity::InputDl {
                        remaining: project.wu_input_bytes as f64,
                        task: copy,
                    });
                    q.schedule(now.saturating_add(project.deadline), Ev::Deadline { copy });
                    if deploy.migration.rescue {
                        // Audit the copy at the slack point; the full
                        // deadline rides along for the projection.
                        let slack = project.deadline.as_secs_f64() * deploy.migration.rescue_slack;
                        q.schedule(
                            now.saturating_add(SimDuration::from_secs_f64(slack)),
                            Ev::RescueCheck {
                                copy,
                                deadline: now.saturating_add(project.deadline),
                            },
                        );
                    }
                }
                Work::Resume {
                    copy,
                    remaining_ref,
                } => {
                    // Fetch the migrated checkpoint: the VM's committed
                    // RAM (or the small app-level state when native).
                    let state_bytes = match &deploy.mode {
                        ExecutionMode::Native => deploy.native_checkpoint_bytes,
                        ExecutionMode::Vm(p) => p.guest_ram,
                    };
                    hosts[h].activity = Some(Activity::StateDl {
                        remaining: state_bytes as f64,
                        task: copy,
                        remaining_ref,
                    });
                }
            }
        } else {
            // Empty scheduler reply. Under churn the client retries with
            // exponential backoff; the zero-churn path keeps the legacy
            // server push (`kick_idle_hosts`) and schedules nothing.
            if fctx.on && !hosts[h].refetch_pending {
                let delay = hosts[h].backoff.next_delay(&fctx.backoff);
                hosts[h].refetch_pending = true;
                q.schedule(now.saturating_add(delay), Ev::Refetch { h });
            }
            return;
        }
    }
    hosts[h].act_started = now;
    let rate = compute_rate(&hosts[h], vm_factor, ckpt_frac);
    let Some(act) = hosts[h].activity.as_ref() else {
        return;
    };
    let secs = match act {
        Activity::ImageDl { remaining }
        | Activity::InputDl { remaining, .. }
        | Activity::StateDl { remaining, .. } => remaining / pool.down_bw,
        Activity::Upload { remaining, .. } => remaining / pool.up_bw,
        Activity::Compute { remaining_ref, .. } => remaining_ref / rate,
    };
    hosts[h].act_gen += 1;
    let gen = hosts[h].act_gen;
    q.schedule(
        now.saturating_add(SimDuration::from_secs_f64(secs.max(1e-6))),
        Ev::ActDone { h, gen },
    );
    arm_evac_check(h, now, hosts, deploy, fctx, q);
}

/// Arm the periodic evacuation audit for a host that just (re)entered
/// `Compute` — only under the policy's `evacuate` arm, only under
/// churn, and only when checkpoints exist (no durable state, nothing
/// worth exporting). Policy-off campaigns schedule nothing here, ever.
fn arm_evac_check<Q: EventScheduler<Ev>>(
    h: usize,
    now: SimTime,
    hosts: &[HostSlot],
    deploy: &DeployConfig,
    fctx: &FaultCtx<'_>,
    q: &mut Q,
) {
    if !deploy.migration.evacuate || !fctx.on || deploy.checkpoint_interval.is_zero() {
        return;
    }
    if !matches!(hosts[h].activity, Some(Activity::Compute { .. })) {
        return;
    }
    let gen = hosts[h].act_gen;
    q.schedule(
        now.saturating_add(deploy.checkpoint_interval),
        Ev::EvacCheck { h, gen },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_vmm::VmmProfile;

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
    fn substrates_are_bit_identical() {
        // The calendar-queue batched substrate and the flat-queue
        // reference substrate must agree on every report field,
        // hydration stats included, under zero churn and full churn.
        for churn in [ChurnConfig::off(), ChurnConfig::intensity(1.0)] {
            for deploy in [
                DeployConfig::native(),
                DeployConfig::vm(VmmProfile::virtualbox(), 700 << 20),
            ] {
                let run = |substrate| {
                    run_campaign_substrate(
                        &small_project(),
                        &stable_pool(),
                        &deploy,
                        &churn,
                        9,
                        horizon(),
                        &RunOptions::default().substrate(substrate),
                    )
                };
                let batched = run(SubstrateMode::Batched);
                let reference = run(SubstrateMode::HydratedReference);
                assert_eq!(batched, reference, "substrate divergence: {deploy:?}");
            }
        }
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

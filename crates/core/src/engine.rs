//! The unified experiment engine.
//!
//! Every experiment in this crate is a set of *trials*. A trial is a
//! declarative [`TrialSpec`]: a workload kernel ([`KernelSpec`]) placed
//! in an execution environment ([`Environment`]), with a repetition
//! count and a base seed. The [`Engine`] materializes specs into
//! [`TrialResult`]s:
//!
//! * every repetition of every trial is an independent deterministic
//!   simulation, so the engine fans the whole `(trial x repetition)`
//!   job list out over [`parallel_map`]; results land in index-addressed
//!   slots and the Welford fold always runs in repetition order, making
//!   the statistics bit-identical to the sequential path
//!   ([`Engine::run_trials_seq`]) regardless of thread scheduling;
//! * completed trials are cached by their spec (label excluded), so the
//!   shared native baselines — the no-VM NBench run behind figures 5/6,
//!   the 7z host runs behind figures 7/8 and `abl-bt` — are simulated
//!   once per process instead of once per figure;
//! * simulations wait for completion through the event-driven
//!   `System::run_until_event` / `VmHandle::run_until_halted`, never by
//!   polling the clock forward in fixed steps.
//!
//! Figure modules translate specs and results into `FigureResult`s; the
//! physics lives in the layers below.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::testbed::{install_einstein_vm, Fidelity, KernelLoop};
use vgrid_grid::{CampaignSpec, ChurnConfig, DeployConfig, PoolConfig, ProjectConfig, RunOptions};
use vgrid_machine::ops::OpBlock;
use vgrid_machine::MachineSpec;
use vgrid_os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid_simcore::{
    parallel_map, repetition_seed, DetMap, EventLoopStats, OnlineStats, SimDuration, SimTime,
    Summary, TraceSink, DEFAULT_BASE_SEED,
};
use vgrid_simobs::fnv1a64;
use vgrid_vmm::{GuestConfig, GuestVm, Vm, VmConfig, VmHandle, VmmProfile, VnicMode};
use vgrid_workloads::iobench::{IoBenchBody, IoBenchConfig};
use vgrid_workloads::nbench::{IndexGroup, NBenchBody, NBenchSuite};
use vgrid_workloads::netbench::{NetBenchBody, NetBenchConfig};
use vgrid_workloads::sevenz::{SevenZBody, SevenZConfig};

/// Where a trial's workload executes.
#[derive(Debug, Clone)]
pub enum Environment {
    /// Directly on the host OS, no VM anywhere.
    Native,
    /// Inside a guest of the given monitor (the workload is the guest's
    /// only program; the host is otherwise idle).
    Guest {
        /// Monitor profile.
        profile: VmmProfile,
        /// Virtual-NIC mode for network kernels; `None` keeps the
        /// profile's default.
        vnic: Option<VnicMode>,
    },
    /// On the host OS while a VM of the given monitor computes an
    /// Einstein@home task at 100 % virtual CPU (the paper's
    /// intrusiveness setup, Section 4.2.2).
    HostUnderVm {
        /// Monitor profile of the background VM.
        profile: VmmProfile,
        /// Host priority class of the VM process.
        priority: Priority,
    },
}

/// What a trial runs and measures. Each kernel defines its metric list
/// ([`KernelSpec::metric_names`]); [`run_one`] returns one value per
/// metric per repetition.
// Specs are built by the handful per experiment and never stored in
// bulk, so the Campaign variant's size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// `block` executed `iters` times; metric `wall_secs` is the
    /// host-side (external time reference) wall span of the loop.
    OpLoop {
        /// CPU work per iteration.
        block: OpBlock,
        /// Iteration count.
        iters: u64,
    },
    /// The paper's disk benchmark; metric `score_bps`.
    IoBench(IoBenchConfig),
    /// The paper's network benchmark; metric `mbps`.
    NetBench(NetBenchConfig),
    /// NBench on the host; metrics `mem_index`, `int_index`, `fp_index`
    /// (absolute geometric-mean group rates, so overheads computed from
    /// two trials equal the per-test ratio geomean).
    NBench {
        /// Test suite to run.
        suite: NBenchSuite,
        /// Measured window per test.
        per_test: SimDuration,
    },
    /// Host-side 7z benchmark; metrics `cpu_pct`, `mips`.
    SevenZHost(SevenZConfig),
    /// Committed memory of a powered-on (idle) guest; metric
    /// `committed_mb`.
    Footprint,
    /// Guest clock drift while both host cores are saturated with
    /// normal-priority hogs; metrics `lag_secs`, `loss_events`.
    ClockLag {
        /// Wall time to run before reading the guest clock.
        wall: SimTime,
    },
    /// A volunteer-grid campaign (`vgrid-grid`); the deployment carries
    /// its own VM configuration, so [`Environment`] is ignored. Metrics
    /// `validated_wus`, `efficiency`, `hosts_excluded_ram`,
    /// `image_transfer_secs`, `migrations`, plus the churn-robustness
    /// set `goodput`, `wasted_cpu_secs`, `reissues`,
    /// `makespan_inflation`, `owner_preemptions`, `vm_kills`, and the
    /// migration-policy set `evacuations`, `rescue_wins`,
    /// `transfer_secs` (all zero when the policy is off).
    Campaign {
        /// Project parameters.
        project: ProjectConfig,
        /// Volunteer-pool parameters.
        pool: PoolConfig,
        /// Deployment mode (native or a specific monitor).
        deploy: DeployConfig,
        /// Churn / fault-injection layers (`ChurnConfig::off()` for the
        /// legacy availability-only model).
        churn: ChurnConfig,
        /// Simulated campaign horizon.
        horizon: SimTime,
    },
}

impl KernelSpec {
    /// Names of the metrics [`run_one`] produces for this kernel, in
    /// order.
    pub fn metric_names(&self) -> &'static [&'static str] {
        match self {
            KernelSpec::OpLoop { .. } => &["wall_secs"],
            KernelSpec::IoBench(_) => &["score_bps"],
            KernelSpec::NetBench(_) => &["mbps"],
            KernelSpec::NBench { .. } => &["mem_index", "int_index", "fp_index"],
            KernelSpec::SevenZHost(_) => &["cpu_pct", "mips"],
            KernelSpec::Footprint => &["committed_mb"],
            KernelSpec::ClockLag { .. } => &["lag_secs", "loss_events"],
            KernelSpec::Campaign { .. } => &[
                "validated_wus",
                "efficiency",
                "hosts_excluded_ram",
                "image_transfer_secs",
                "migrations",
                "goodput",
                "wasted_cpu_secs",
                "reissues",
                "makespan_inflation",
                "owner_preemptions",
                "vm_kills",
                "evacuations",
                "rescue_wins",
                "transfer_secs",
            ],
        }
    }
}

/// A declarative experiment trial: kernel + environment + repetitions.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Row label in the figure (not part of the trial's identity).
    pub label: String,
    /// Execution environment.
    pub env: Environment,
    /// Workload kernel.
    pub kernel: KernelSpec,
    /// Host machine override; `None` uses the paper's testbed.
    pub machine: Option<MachineSpec>,
    /// Number of repetitions (>= 1).
    pub repetitions: u32,
    /// Base seed for the repetition seed stream.
    pub base_seed: u64,
    /// Fidelity (scales the background Einstein workload).
    pub fidelity: Fidelity,
}

impl TrialSpec {
    /// A single-repetition trial on the paper testbed.
    pub fn new(
        label: impl Into<String>,
        env: Environment,
        kernel: KernelSpec,
        fidelity: Fidelity,
    ) -> Self {
        TrialSpec {
            label: label.into(),
            env,
            kernel,
            machine: None,
            repetitions: 1,
            base_seed: DEFAULT_BASE_SEED,
            fidelity,
        }
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the repetition count.
    pub fn repetitions(mut self, n: u32) -> Self {
        self.repetitions = n.max(1);
        self
    }

    /// Override the host machine.
    pub fn on_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Seed of repetition `rep`. Single-shot trials use the base seed
    /// verbatim (they pin one specific simulation, like the legacy
    /// figure seeds); repeated trials derive independent per-repetition
    /// streams from it.
    pub fn seed_for(&self, rep: u32) -> u64 {
        repetition_seed(self.base_seed, self.repetitions, rep)
    }

    /// Cache identity: everything but the display label. The scheduler
    /// execution mode is part of the identity. One engine runs one
    /// mode, so within a cache the axis is constant; it stays because
    /// run manifests digest these keys (`config_digest`), which is how
    /// a manifest records the mode its trials ran under.
    ///
    /// The grid *host substrate* (`--hydrated-reference`, see
    /// `vgrid_grid::SubstrateMode`) is deliberately NOT part of the
    /// identity. Unlike the per-quantum scheduler reference — which
    /// genuinely changes context-switch placement and is only
    /// contractually equivalent — the two grid substrates share every
    /// line of host-stepping code, so cross-substrate cache sharing is
    /// sound, and it is what keeps run-manifest `config_digest`s
    /// identical across modes (asserted by the `hydration_reference`
    /// suite, which compares substrates in separate processes where the
    /// cache cannot mask a divergence).
    ///
    /// The horizon of a `Campaign` kernel *is* part of the identity
    /// (different horizons are different results), but a horizon-only
    /// miss still fast-forwards: the grid layer's trajectory cache
    /// (`vgrid_grid::fastforward`) resumes the campaign from the
    /// longest stored prefix snapshot of the same configuration.
    fn cache_key(&self, options: &RunOptions) -> TrialKey {
        let digest = |s: String| fnv1a64(s.as_bytes());
        TrialKey {
            env: digest(format!("{:?}", self.env)),
            kernel: digest(format!("{:?}", self.kernel)),
            machine: digest(format!("{:?}", self.machine)),
            repetitions: self.repetitions,
            base_seed: self.base_seed,
            fidelity: digest(format!("{:?}", self.fidelity)),
            per_quantum_ref: options.per_quantum_reference(),
        }
    }

    /// The pre-TrialKey concatenated-string identity, kept only so the
    /// tests can pin that the structured key partitions specs exactly
    /// like the string it replaced.
    #[cfg(test)]
    fn legacy_cache_key(&self, options: &RunOptions) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{:#x}|{:?}|ref={}",
            self.env,
            self.kernel,
            self.machine,
            self.repetitions,
            self.base_seed,
            self.fidelity,
            options.per_quantum_reference(),
        )
    }
}

/// Label-agnostic structured trial identity. Each unbounded axis (the
/// environment, kernel, and machine `Debug` renderings) is folded to
/// its own FNV-1a digest, so the key is a fixed-size, cheaply ordered
/// value instead of a multi-kilobyte concatenated string; the scalar
/// axes (repetitions, seed, scheduler reference mode) stay verbatim.
/// Per-axis digests also make an accidental cross-axis collision — one
/// spec's kernel text bleeding into another's machine text, possible
/// with delimiter-joined strings — structurally impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrialKey {
    env: u64,
    kernel: u64,
    machine: u64,
    repetitions: u32,
    base_seed: u64,
    fidelity: u64,
    per_quantum_ref: bool,
}

impl fmt::Display for TrialKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "env:{:016x}|krn:{:016x}|mac:{:016x}|reps:{}|seed:{:#x}|fid:{:016x}|ref:{}",
            self.env,
            self.kernel,
            self.machine,
            self.repetitions,
            self.base_seed,
            self.fidelity,
            self.per_quantum_ref,
        )
    }
}

/// Event-loop counters accumulated across every `System`-backed trial
/// this process has run (grid `Campaign` trials run on the desktop-grid
/// simulator, not `vgrid_os::System`, and are not counted).
static LOOP_TOTALS: Mutex<Option<EventLoopStats>> = Mutex::new(None);

/// Snapshot of the process-wide event-loop totals; zeroes before any
/// trial has completed.
pub fn loop_totals() -> EventLoopStats {
    LOOP_TOTALS
        .lock()
        .expect("core::engine::LOOP_TOTALS poisoned")
        .unwrap_or_default()
}

fn record_loop_stats(sys: &System) {
    let mut totals = LOOP_TOTALS
        .lock()
        .expect("core::engine::LOOP_TOTALS poisoned");
    totals
        .get_or_insert_with(EventLoopStats::default)
        .merge(&sys.loop_stats());
}

/// Per-metric summaries of one completed trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Label copied from the requesting spec.
    pub label: String,
    /// `(metric name, summary)` in [`KernelSpec::metric_names`] order.
    pub metrics: Vec<(&'static str, Summary)>,
}

impl TrialResult {
    /// Summary of the named metric; panics on an unknown name.
    pub fn metric(&self, name: &str) -> &Summary {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("trial {:?} has no metric {name:?}", self.label))
    }

    /// Summary of the kernel's primary (first) metric.
    pub fn summary(&self) -> &Summary {
        &self.metrics[0].1
    }

    /// Mean of the primary metric.
    pub fn value(&self) -> f64 {
        self.summary().mean
    }
}

/// Materializes [`TrialSpec`]s into [`TrialResult`]s; see the module
/// docs for the parallelism, caching and determinism contract. An
/// engine owns its [`RunOptions`] for its whole lifetime: every trial
/// it runs uses them, so one engine is one execution mode.
#[derive(Debug, Default)]
pub struct Engine {
    cache: Mutex<DetMap<TrialKey, TrialResult>>,
    options: RunOptions,
}

impl Engine {
    /// An engine with an empty cache and the default options.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine with an empty cache running every trial under
    /// `options` (the `vgrid` CLI builds them from its mode flags).
    pub fn with_options(options: RunOptions) -> Self {
        Engine {
            options,
            ..Engine::default()
        }
    }

    /// The process-wide engine used by the `run(fidelity)` entry points;
    /// its cache is what lets multi-figure experiments share baselines.
    /// It runs the default options.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::new)
    }

    /// The execution options every trial of this engine runs under.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Run every spec, fanning all repetitions of all uncached trials
    /// out over the scoped thread pool.
    pub fn run_trials(&self, specs: &[TrialSpec]) -> Vec<TrialResult> {
        self.run_impl(specs, true)
    }

    /// Sequential twin of [`Engine::run_trials`]: same seeds, same fold
    /// order, one thread. Exists so tests can pin the parallel path to
    /// bit-identical statistics.
    pub fn run_trials_seq(&self, specs: &[TrialSpec]) -> Vec<TrialResult> {
        self.run_impl(specs, false)
    }

    /// Convenience for a single spec.
    pub fn run_trial(&self, spec: &TrialSpec) -> TrialResult {
        self.run_trials(std::slice::from_ref(spec))
            .pop()
            .expect("one spec yields one result")
    }

    fn run_impl(&self, specs: &[TrialSpec], parallel: bool) -> Vec<TrialResult> {
        let options = &self.options;
        // Observed runs publish per-repetition telemetry as jobs
        // complete; run them sequentially so publication order is the
        // deterministic job order rather than thread-scheduling order.
        let parallel = parallel && !crate::obs::capturing();
        let mut out: Vec<Option<TrialResult>> = Vec::with_capacity(specs.len());
        let mut todo: Vec<usize> = Vec::new();
        {
            let cache = self.cache.lock().expect("engine trial cache poisoned");
            for (i, spec) in specs.iter().enumerate() {
                let key = spec.cache_key(options);
                let hit = cache.get(&key);
                crate::obs::note_trial(&spec.label, &key.to_string(), hit.is_some());
                match hit {
                    Some(hit) => out.push(Some(TrialResult {
                        label: spec.label.clone(),
                        metrics: hit.metrics.clone(),
                    })),
                    None => {
                        out.push(None);
                        todo.push(i);
                    }
                }
            }
        }

        // One job per (trial, repetition); jobs of one trial are
        // contiguous and in repetition order.
        let jobs: Vec<(usize, u32)> = todo
            .iter()
            .flat_map(|&i| (0..specs[i].repetitions.max(1)).map(move |rep| (i, rep)))
            .collect();
        let observations: Vec<Vec<f64>> = if parallel {
            parallel_map(jobs.len(), |j| {
                let (i, rep) = jobs[j];
                run_one(&specs[i], specs[i].seed_for(rep), options)
            })
        } else {
            jobs.iter()
                .map(|&(i, rep)| run_one(&specs[i], specs[i].seed_for(rep), options))
                .collect()
        };

        let mut cursor = 0;
        for &i in &todo {
            let spec = &specs[i];
            let names = spec.kernel.metric_names();
            let mut stats: Vec<OnlineStats> = names.iter().map(|_| OnlineStats::new()).collect();
            for _ in 0..spec.repetitions.max(1) {
                let values = &observations[cursor];
                cursor += 1;
                assert_eq!(values.len(), names.len(), "kernel metric arity");
                for (s, v) in stats.iter_mut().zip(values) {
                    s.push(*v);
                }
            }
            let result = TrialResult {
                label: spec.label.clone(),
                metrics: names
                    .iter()
                    .zip(&stats)
                    .map(|(n, s)| (*n, s.summary()))
                    .collect(),
            };
            self.cache
                .lock()
                .expect("engine trial cache poisoned")
                .insert(spec.cache_key(options), result.clone());
            out[i] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every spec resolved"))
            .collect()
    }
}

/// Infinite normal-priority CPU hog (used by [`KernelSpec::ClockLag`] to
/// starve an idle-priority vCPU).
#[derive(Debug)]
struct Hog;

impl ThreadBody for Hog {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        Action::compute(OpBlock::int_alu(10_000_000))
    }
}

fn system_for(spec: &TrialSpec, seed: u64, options: &RunOptions) -> System {
    let base = SystemConfig {
        coalesce: !options.per_quantum_reference(),
        ..SystemConfig::testbed(seed)
    };
    let mut sys = match &spec.machine {
        Some(machine) => System::new(SystemConfig {
            machine: machine.clone(),
            ..base
        }),
        None => System::new(base),
    };
    // Observed runs record the full event stream; emission stays a
    // single `is_enabled` branch everywhere else, so bench event
    // counts with telemetry off are untouched.
    if crate::obs::capturing() {
        sys.trace = TraceSink::new(crate::obs::OBS_TRACE_CAPACITY);
        sys.trace.enable_all();
    }
    sys
}

fn guest_config(profile: &VmmProfile, vnic: Option<VnicMode>) -> GuestConfig {
    let cfg = GuestConfig::new(profile.clone());
    match vnic {
        Some(mode) => cfg.with_vnic(mode),
        None => cfg,
    }
}

fn install_background_vm(
    sys: &mut System,
    env: &Environment,
    fidelity: Fidelity,
) -> Option<VmHandle> {
    match env {
        Environment::Native => None,
        Environment::HostUnderVm { profile, priority } => {
            let vm = install_einstein_vm(sys, profile, *priority, fidelity);
            // Let the VM reach steady state before benchmarking.
            sys.run_until(SimTime::from_millis(200));
            Some(vm)
        }
        Environment::Guest { .. } => panic!("host-side kernel cannot run inside a guest"),
    }
}

/// Execute one repetition of `spec` with the given seed; returns one
/// value per metric, in [`KernelSpec::metric_names`] order. Pure
/// function of `(spec, seed, options)` — this is what makes engine
/// runs deterministic and cacheable.
fn run_one(spec: &TrialSpec, seed: u64, options: &RunOptions) -> Vec<f64> {
    let fidelity = spec.fidelity;
    match &spec.kernel {
        KernelSpec::Campaign {
            project,
            pool,
            deploy,
            churn,
            horizon,
        } => {
            // Repetitions are the engine's job: one rep, seed verbatim.
            let result = CampaignSpec::new(&spec.label)
                .project(project.clone())
                .pool(pool.clone())
                .deploy(deploy.clone())
                .churn(churn.clone())
                .seed(seed)
                .horizon(*horizon)
                .build()
                .unwrap_or_else(|e| panic!("trial {:?}: {e}", spec.label))
                .run_seq_with(options);
            let r = &result.reports()[0];
            crate::obs::observe_campaign_run(&spec.label, seed, r);
            vec![
                r.validated_wus as f64,
                r.efficiency,
                r.hosts_excluded_ram as f64,
                r.image_transfer_secs,
                r.migrations as f64,
                r.goodput,
                r.wasted_cpu_secs,
                r.reissues as f64,
                r.makespan_inflation,
                r.owner_preemptions as f64,
                r.vm_kills as f64,
                r.evacuations as f64,
                r.rescue_wins as f64,
                r.transfer_secs,
            ]
        }
        KernelSpec::OpLoop { block, iters } => {
            let mut sys = system_for(spec, seed, options);
            let (body, span) = KernelLoop::new(block.clone(), *iters);
            let vm = match &spec.env {
                Environment::Native => {
                    sys.spawn("bench", Priority::Normal, Box::new(body));
                    assert!(
                        sys.run_to_completion(SimTime::from_secs(3600)),
                        "native loop did not finish"
                    );
                    None
                }
                Environment::Guest { profile, vnic } => {
                    let mut guest = GuestVm::new(guest_config(profile, *vnic), sys.machine());
                    guest.spawn("bench", Box::new(body));
                    let vm = Vm::install(
                        &mut sys,
                        VmConfig::new(format!("vm-{}", profile.name), Priority::Normal),
                        guest,
                    );
                    assert!(
                        vm.run_until_halted(&mut sys, SimTime::from_secs(3600)),
                        "guest loop did not finish"
                    );
                    Some(vm)
                }
                Environment::HostUnderVm { .. } => {
                    let vm = install_background_vm(&mut sys, &spec.env, fidelity);
                    sys.spawn("bench", Priority::Normal, Box::new(body));
                    let done = span.clone();
                    assert!(
                        sys.run_until_event(SimTime::from_secs(3600), || done.borrow().is_some()),
                        "host loop did not finish"
                    );
                    vm
                }
            };
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, vm.as_ref());
            let (t0, t1) = span.borrow().expect("loop finished");
            vec![t1.since(t0).as_secs_f64()]
        }
        KernelSpec::IoBench(cfg) => {
            let mut sys = system_for(spec, seed, options);
            let (body, report) = IoBenchBody::new(cfg.clone());
            let vm = run_bench_in_env(&mut sys, &spec.env, "iobench", Box::new(body));
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, vm.as_ref());
            let r = report.borrow();
            assert!(r.complete, "iobench did not finish");
            vec![r.score_bps()]
        }
        KernelSpec::NetBench(cfg) => {
            let mut sys = system_for(spec, seed, options);
            let (body, report) = NetBenchBody::new(cfg.clone());
            let vm = run_bench_in_env(&mut sys, &spec.env, "netbench", Box::new(body));
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, vm.as_ref());
            let r = report.borrow();
            assert!(r.complete, "netbench did not finish");
            vec![r.mbps]
        }
        KernelSpec::NBench { suite, per_test } => {
            let mut sys = system_for(spec, seed, options);
            let vm = install_background_vm(&mut sys, &spec.env, fidelity);
            let (body, report) = NBenchBody::new(suite.clone(), *per_test);
            sys.spawn("nbench", Priority::Normal, Box::new(body));
            let done = report.clone();
            assert!(
                sys.run_until_event(SimTime::from_secs(3600), || done.borrow().complete),
                "nbench did not finish"
            );
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, vm.as_ref());
            let r = report.borrow();
            vec![
                r.group_rate(IndexGroup::Memory),
                r.group_rate(IndexGroup::Integer),
                r.group_rate(IndexGroup::Float),
            ]
        }
        KernelSpec::SevenZHost(cfg) => {
            let mut sys = system_for(spec, seed, options);
            let vm = install_background_vm(&mut sys, &spec.env, fidelity);
            let (body, report) = SevenZBody::new(cfg.clone(), Priority::Normal);
            sys.spawn("7z", Priority::Normal, Box::new(body));
            let done = report.clone();
            assert!(
                sys.run_until_event(SimTime::from_secs(3600), || done.borrow().complete),
                "7z did not finish"
            );
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, vm.as_ref());
            let r = report.borrow();
            vec![r.cpu_usage_pct, r.mips]
        }
        KernelSpec::Footprint => {
            let Environment::Guest { profile, vnic } = &spec.env else {
                panic!("Footprint measures a guest VM");
            };
            let mut sys = system_for(spec, seed, options);
            let guest = GuestVm::new(guest_config(profile, *vnic), sys.machine());
            let vm = Vm::install(
                &mut sys,
                VmConfig::new(format!("vm-{}", profile.name), Priority::Normal),
                guest,
            );
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, Some(&vm));
            vec![vm.committed_memory as f64 / (1024.0 * 1024.0)]
        }
        KernelSpec::ClockLag { wall } => {
            let Environment::HostUnderVm { profile, priority } = &spec.env else {
                panic!("ClockLag measures a VM's guest clock");
            };
            let mut sys = system_for(spec, seed, options);
            let vm = install_einstein_vm(&mut sys, profile, *priority, fidelity);
            // Saturate both cores so a low-priority vCPU starves.
            sys.spawn("hog1", Priority::Normal, Box::new(Hog));
            sys.spawn("hog2", Priority::Normal, Box::new(Hog));
            sys.run_until(*wall);
            record_loop_stats(&sys);
            crate::obs::observe_system_run(&spec.label, seed, &sys, Some(&vm));
            let control = vm.control.borrow();
            vec![
                control.guest_clock_lag_secs,
                control.guest_clock_loss_events as f64,
            ]
        }
    }
}

/// Run a self-terminating benchmark body natively or inside a guest,
/// waiting event-driven for completion. Returns the guest's handle when
/// one was involved so observed runs can publish its exit counters.
fn run_bench_in_env(
    sys: &mut System,
    env: &Environment,
    name: &str,
    body: Box<dyn ThreadBody>,
) -> Option<VmHandle> {
    match env {
        Environment::Native => {
            sys.spawn(name, Priority::Normal, body);
            assert!(
                sys.run_to_completion(SimTime::from_secs(3600)),
                "{name} did not finish natively"
            );
            None
        }
        Environment::Guest { profile, vnic } => {
            let mut guest = GuestVm::new(guest_config(profile, *vnic), sys.machine());
            guest.spawn(name, body);
            let vm = Vm::install(
                sys,
                VmConfig::new(format!("vm-{}", profile.name), Priority::Normal),
                guest,
            );
            // VirtualBox NAT at ~1.3 Mbps needs over a minute of
            // simulated time for 10 MB, hence the wide deadline.
            assert!(
                vm.run_until_halted(sys, SimTime::from_secs(7200)),
                "{name} did not finish in the guest"
            );
            Some(vm)
        }
        Environment::HostUnderVm { .. } => {
            panic!("{name} does not run beside a VM in any paper experiment")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_simcore::RepetitionRunner;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn specs_are_shareable_across_threads() {
        assert_send_sync::<TrialSpec>();
        assert_send_sync::<Engine>();
    }

    #[test]
    fn single_shot_trials_use_the_base_seed_verbatim() {
        let spec = TrialSpec::new(
            "t",
            Environment::Native,
            KernelSpec::OpLoop {
                block: OpBlock::int_alu(1),
                iters: 1,
            },
            Fidelity::Fast,
        )
        .seed(0xf1);
        assert_eq!(spec.seed_for(0), 0xf1);
    }

    #[test]
    fn repeated_trials_match_the_repetition_runner() {
        let spec = TrialSpec::new(
            "t",
            Environment::Native,
            KernelSpec::OpLoop {
                block: OpBlock::int_alu(1),
                iters: 1,
            },
            Fidelity::Fast,
        )
        .repetitions(3);
        let runner = RepetitionRunner::new().repetitions(3);
        for rep in 0..3 {
            assert_eq!(spec.seed_for(rep), runner.seed_for(rep));
        }
        assert_ne!(spec.seed_for(0), spec.seed_for(1));
    }

    #[test]
    fn cache_key_ignores_label_but_not_seed() {
        let mk = |label: &str, seed: u64| {
            TrialSpec::new(
                label,
                Environment::Native,
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(1),
                    iters: 1,
                },
                Fidelity::Fast,
            )
            .seed(seed)
        };
        assert_eq!(
            mk("a", 1).cache_key(&RunOptions::default()),
            mk("b", 1).cache_key(&RunOptions::default())
        );
        assert_ne!(
            mk("a", 1).cache_key(&RunOptions::default()),
            mk("a", 2).cache_key(&RunOptions::default())
        );
    }

    /// A family of specs varying every identity axis, for the key
    /// partition/injectivity tests below.
    fn key_test_specs() -> Vec<TrialSpec> {
        let base = |label: &str| {
            TrialSpec::new(
                label,
                Environment::Native,
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(1),
                    iters: 1,
                },
                Fidelity::Fast,
            )
        };
        vec![
            base("a"),
            base("b"), // label differs, identity equal to "a"
            base("env").seed(2),
            base("reps").repetitions(3),
            base("machine").on_machine(MachineSpec::core2_duo_6600()),
            TrialSpec::new(
                "guest",
                Environment::Guest {
                    profile: VmmProfile::qemu(),
                    vnic: None,
                },
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(1),
                    iters: 1,
                },
                Fidelity::Fast,
            ),
            TrialSpec::new(
                "kernel",
                Environment::Native,
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(1),
                    iters: 2,
                },
                Fidelity::Fast,
            ),
            TrialSpec::new(
                "fidelity",
                Environment::Native,
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(1),
                    iters: 1,
                },
                Fidelity::Paper,
            ),
            TrialSpec::new(
                "campaign-3d",
                Environment::Native,
                KernelSpec::Campaign {
                    project: ProjectConfig::default(),
                    pool: PoolConfig::default(),
                    deploy: DeployConfig::native(),
                    churn: ChurnConfig::off(),
                    horizon: SimTime::from_secs(3 * 24 * 3600),
                },
                Fidelity::Fast,
            ),
            TrialSpec::new(
                "campaign-9d",
                Environment::Native,
                KernelSpec::Campaign {
                    project: ProjectConfig::default(),
                    pool: PoolConfig::default(),
                    deploy: DeployConfig::native(),
                    churn: ChurnConfig::off(),
                    horizon: SimTime::from_secs(9 * 24 * 3600),
                },
                Fidelity::Fast,
            ),
        ]
    }

    #[test]
    fn structured_key_partitions_specs_like_the_legacy_string() {
        let specs = key_test_specs();
        for (i, a) in specs.iter().enumerate() {
            for b in specs.iter().skip(i) {
                assert_eq!(
                    a.legacy_cache_key(&RunOptions::default())
                        == b.legacy_cache_key(&RunOptions::default()),
                    a.cache_key(&RunOptions::default()) == b.cache_key(&RunOptions::default()),
                    "old and new keys disagree for {:?} vs {:?}",
                    a.label,
                    b.label,
                );
            }
        }
    }

    #[test]
    fn structured_key_is_injective_over_distinct_identities() {
        let specs = key_test_specs();
        // Skip index 1 ("b"): it intentionally shares "a"'s identity.
        let distinct: Vec<_> = specs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, s)| s)
            .collect();
        for (i, a) in distinct.iter().enumerate() {
            for b in distinct.iter().skip(i + 1) {
                assert_ne!(
                    a.cache_key(&RunOptions::default()),
                    b.cache_key(&RunOptions::default()),
                    "key collision between {:?} and {:?}",
                    a.label,
                    b.label,
                );
                assert_ne!(
                    a.cache_key(&RunOptions::default()).to_string(),
                    b.cache_key(&RunOptions::default()).to_string(),
                    "display collision between {:?} and {:?}",
                    a.label,
                    b.label,
                );
            }
        }
    }

    #[test]
    fn campaign_trials_reuse_prefix_trajectories_across_horizons() {
        let project = ProjectConfig {
            workunits: 30,
            wu_ref_secs: 1800.0,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers: 40,
            ram_range: (256 << 20, 2 << 30),
            ..Default::default()
        };
        let deploy = DeployConfig::native();
        let churn = ChurnConfig::intensity(0.5);
        let seed = 0x7e57_e461_4e00_0001u64;
        let mk = |days: u64| {
            TrialSpec::new(
                "grid",
                Environment::Native,
                KernelSpec::Campaign {
                    project: project.clone(),
                    pool: pool.clone(),
                    deploy: deploy.clone(),
                    churn: churn.clone(),
                    horizon: SimTime::from_secs(days * 24 * 3600),
                },
                Fidelity::Fast,
            )
            .seed(seed)
        };
        // Ground truth: the flat-queue reference substrate never
        // consults the trajectory cache, so this is a true cold run.
        let reference = |days: u64| {
            CampaignSpec::new("ref")
                .project(project.clone())
                .pool(pool.clone())
                .deploy(deploy.clone())
                .churn(churn.clone())
                .seed(seed)
                .horizon(SimTime::from_secs(days * 24 * 3600))
                .build()
                .expect("valid spec")
                .run_seq_with(
                    &RunOptions::default().substrate(vgrid_grid::SubstrateMode::HydratedReference),
                )
                .reports()[0]
                .clone()
        };
        let engine = Engine::new();
        engine.run_trial(&mk(3)); // stores the 3-day prefix snapshot
        let before = vgrid_grid::fastforward::stats();
        let warm = engine.run_trial(&mk(9)); // horizon-only cache miss
        let after = vgrid_grid::fastforward::stats();
        assert!(
            after.trajectory_hits > before.trajectory_hits,
            "horizon extension did not resume from the stored prefix",
        );
        let expect = reference(9);
        assert_eq!(
            warm.metric("validated_wus").mean.to_bits(),
            (expect.validated_wus as f64).to_bits(),
        );
        assert_eq!(
            warm.metric("efficiency").mean.to_bits(),
            expect.efficiency.to_bits(),
        );
        assert_eq!(
            warm.metric("goodput").mean.to_bits(),
            expect.goodput.to_bits(),
        );
        assert_eq!(
            warm.metric("makespan_inflation").mean.to_bits(),
            expect.makespan_inflation.to_bits(),
        );
    }

    #[test]
    fn engine_caches_identical_trials() {
        let engine = Engine::new();
        let spec = TrialSpec::new(
            "loop",
            Environment::Native,
            KernelSpec::OpLoop {
                block: OpBlock::int_alu(24_000_000),
                iters: 2,
            },
            Fidelity::Fast,
        )
        .seed(11);
        let first = engine.run_trial(&spec);
        let relabeled = TrialSpec {
            label: "other".into(),
            ..spec
        };
        let second = engine.run_trial(&relabeled);
        assert_eq!(second.label, "other");
        assert_eq!(first.value(), second.value());
        assert_eq!(
            engine
                .cache
                .lock()
                .expect("engine trial cache poisoned")
                .len(),
            1
        );
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        let mk = |label: &str, seed: u64| {
            TrialSpec::new(
                label,
                Environment::Native,
                KernelSpec::OpLoop {
                    block: OpBlock::int_alu(24_000_000),
                    iters: 2,
                },
                Fidelity::Fast,
            )
            .seed(seed)
            .repetitions(4)
        };
        let specs = vec![mk("a", 5), mk("b", 6)];
        let par = Engine::new().run_trials(&specs);
        let seq = Engine::new().run_trials_seq(&specs);
        for (p, s) in par.iter().zip(&seq) {
            let (pm, sm) = (p.summary(), s.summary());
            assert_eq!(pm.mean, sm.mean);
            assert_eq!(pm.stddev, sm.stddev);
            assert_eq!(pm.min, sm.min);
            assert_eq!(pm.max, sm.max);
        }
    }
}

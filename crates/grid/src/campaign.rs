//! The campaign API: build → validate → run → summarize.
//!
//! [`CampaignSpec`] mirrors `vgrid-core`'s `TrialSpec` builder so grid
//! campaigns and machine-level trials read the same way: a builder
//! assembles the configuration, `build()` validates it into a
//! [`Campaign`] (returning [`Error`] instead of panicking mid-run), and
//! `run()` executes the repetitions — in parallel, with the same seeds
//! and fold order as `run_seq()` — into a [`CampaignResult`] whose
//! `metric(name)` / `metric_names()` accessors match `TrialResult`.
//!
//! ```
//! use vgrid_grid::{CampaignSpec, ChurnConfig, PoolConfig, ProjectConfig};
//!
//! let result = CampaignSpec::new("demo")
//!     .project(ProjectConfig { workunits: 10, wu_ref_secs: 600.0, ..Default::default() })
//!     .pool(PoolConfig { volunteers: 20, ..Default::default() })
//!     .churn(ChurnConfig::intensity(1.0))
//!     .repetitions(2)
//!     .build()
//!     .expect("valid spec")
//!     .run();
//! assert!(result.metric("goodput").mean >= 0.0);
//! ```

use crate::error::Error;
use crate::faults::ChurnConfig;
use crate::model::{DeployConfig, ExecutionMode, GridReport, PoolConfig, ProjectConfig};
use crate::options::RunOptions;
use crate::sim::run_campaign_substrate;
use vgrid_simcore::{
    parallel_map, repetition_seed, OnlineStats, SimTime, Summary, DEFAULT_BASE_SEED,
};

/// A metric's name and the report value it reads.
type Metric = (&'static str, fn(&GridReport) -> f64);

/// Metrics exposed by [`CampaignResult`], in report order.
const METRICS: &[Metric] = &[
    ("validated_wus", |r| r.validated_wus as f64),
    ("efficiency", |r| r.efficiency),
    ("hosts_excluded_ram", |r| r.hosts_excluded_ram as f64),
    ("image_transfer_secs", |r| r.image_transfer_secs),
    ("migrations", |r| r.migrations as f64),
    ("goodput", |r| r.goodput),
    ("wasted_cpu_secs", |r| r.wasted_cpu_secs),
    ("reissues", |r| r.reissues as f64),
    ("makespan_inflation", |r| r.makespan_inflation),
    ("makespan_secs", |r| r.makespan_secs),
    ("cpu_secs_spent", |r| r.cpu_secs_spent),
    ("cpu_secs_lost", |r| r.cpu_secs_lost),
    ("results_returned", |r| r.results_returned as f64),
    ("bad_results", |r| r.bad_results as f64),
    ("owner_preemptions", |r| r.owner_preemptions as f64),
    ("vm_kills", |r| r.vm_kills as f64),
    ("evacuations", |r| r.evacuations as f64),
    ("rescue_wins", |r| r.rescue_wins as f64),
    ("transfer_secs", |r| r.transfer_secs),
];

/// Declarative description of a volunteer campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Human-readable label, copied into the result.
    pub label: String,
    /// Work-generation parameters.
    pub project: ProjectConfig,
    /// Volunteer-pool parameters.
    pub pool: PoolConfig,
    /// Deployment mechanics (native vs VM, image, checkpoints).
    pub deploy: DeployConfig,
    /// Churn / fault-injection layers (default: off).
    pub churn: ChurnConfig,
    /// Base seed; repetition seeds derive from it.
    pub seed: u64,
    /// Independent repetitions to aggregate.
    pub repetitions: u32,
    /// Simulated-time horizon.
    pub horizon: SimTime,
}

impl CampaignSpec {
    /// A spec with default project/pool/native deployment, no churn,
    /// one repetition and a 30-day horizon.
    pub fn new(label: impl Into<String>) -> Self {
        CampaignSpec {
            label: label.into(),
            project: ProjectConfig::default(),
            pool: PoolConfig::default(),
            deploy: DeployConfig::native(),
            churn: ChurnConfig::default(),
            seed: DEFAULT_BASE_SEED,
            repetitions: 1,
            horizon: SimTime::from_secs(30 * 24 * 3600),
        }
    }

    /// Set the project configuration.
    pub fn project(mut self, project: ProjectConfig) -> Self {
        self.project = project;
        self
    }

    /// Set the volunteer pool.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Set the deployment mechanics.
    pub fn deploy(mut self, deploy: DeployConfig) -> Self {
        self.deploy = deploy;
        self
    }

    /// Set the churn / fault-injection configuration.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = churn;
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the repetition count (0 is treated as 1).
    pub fn repetitions(mut self, reps: u32) -> Self {
        self.repetitions = reps;
        self
    }

    /// Set the simulated-time horizon.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Validate the assembled configuration into a runnable
    /// [`Campaign`].
    pub fn build(self) -> Result<Campaign, Error> {
        let invalid = |msg: String| Err(Error::InvalidConfig(msg));
        let p = &self.project;
        if p.workunits == 0 {
            return invalid("workunits must be > 0".into());
        }
        if p.replication == 0 || p.quorum == 0 {
            return invalid("replication and quorum must be > 0".into());
        }
        if p.quorum > p.replication {
            return invalid(format!(
                "quorum {} exceeds replication {}: no work unit could ever validate",
                p.quorum, p.replication
            ));
        }
        if !p.wu_ref_secs.is_finite() || p.wu_ref_secs <= 0.0 {
            return invalid(format!(
                "wu_ref_secs {} must be finite and > 0",
                p.wu_ref_secs
            ));
        }
        if !(0.0..1.0).contains(&p.error_rate) {
            return invalid(format!("error_rate {} must be in [0, 1)", p.error_rate));
        }
        let pool = &self.pool;
        if pool.volunteers == 0 {
            return invalid("volunteers must be > 0".into());
        }
        if !pool.speed_range.0.is_finite()
            || !pool.speed_range.1.is_finite()
            || pool.speed_range.0 <= 0.0
            || pool.speed_range.0 > pool.speed_range.1
        {
            return invalid(format!(
                "speed_range {:?} must be finite, positive and ordered",
                pool.speed_range
            ));
        }
        if pool.ram_range.0 > pool.ram_range.1 {
            return invalid(format!("ram_range {:?} must be ordered", pool.ram_range));
        }
        if !pool.down_bw.is_finite()
            || !pool.up_bw.is_finite()
            || pool.down_bw <= 0.0
            || pool.up_bw <= 0.0
        {
            return invalid("bandwidths must be > 0".into());
        }
        if !(0.0..=1.0).contains(&pool.permanent_failure_prob) {
            return invalid(format!(
                "permanent_failure_prob {} must be in [0, 1]",
                pool.permanent_failure_prob
            ));
        }
        if !pool.mean_uptime_secs.is_finite()
            || !pool.mean_downtime_secs.is_finite()
            || pool.mean_uptime_secs <= 0.0
            || pool.mean_downtime_secs <= 0.0
        {
            return invalid("mean uptime/downtime must be > 0".into());
        }
        if self.horizon == SimTime::ZERO {
            return invalid("horizon must be > 0".into());
        }
        self.churn.validate()?;
        self.deploy.migration.validate()?;
        if matches!(self.deploy.mode, ExecutionMode::Native) && self.deploy.image_bytes != 0 {
            return invalid(format!(
                "image_bytes {} must be 0 on a native deploy: only a VM fetches an image",
                self.deploy.image_bytes
            ));
        }

        // The fastest possible host must be able to compute a work unit
        // inside the reissue deadline, or every copy expires forever.
        // The simulator solves the same segment, so validation agrees
        // with it under every `RunOptions`.
        let best_rate = crate::archetype::solve(&self.deploy).rate(pool.speed_range.1);
        let needed_secs = p.wu_ref_secs / best_rate;
        let deadline_secs = p.deadline.as_secs_f64();
        if deadline_secs < needed_secs {
            return Err(Error::ImpossibleDeadline {
                deadline_secs,
                needed_secs,
            });
        }
        let checkpoint_secs = self.deploy.checkpoint_interval.as_secs_f64();
        if !self.deploy.checkpoint_interval.is_zero() && checkpoint_secs > deadline_secs {
            return Err(Error::CheckpointExceedsDeadline {
                checkpoint_secs,
                deadline_secs,
            });
        }
        Ok(Campaign { spec: self })
    }
}

/// A validated, runnable campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: CampaignSpec,
}

impl Campaign {
    /// The validated specification.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Seed of repetition `rep` — single repetitions use the base seed
    /// verbatim; multi-rep campaigns derive per-rep seeds by the core
    /// engine's `TrialSpec` rule, [`repetition_seed`].
    pub fn seed_for(&self, rep: u32) -> u64 {
        repetition_seed(self.spec.seed, self.spec.repetitions, rep)
    }

    fn run_rep(&self, rep: u32, options: &RunOptions) -> GridReport {
        run_campaign_substrate(
            &self.spec.project,
            &self.spec.pool,
            &self.spec.deploy,
            &self.spec.churn,
            self.seed_for(rep),
            self.spec.horizon,
            options,
        )
    }

    /// [`Campaign::run_with`] under the default [`RunOptions`].
    pub fn run(&self) -> CampaignResult {
        self.run_with(&RunOptions::default())
    }

    /// [`Campaign::run_seq_with`] under the default [`RunOptions`].
    pub fn run_seq(&self) -> CampaignResult {
        self.run_seq_with(&RunOptions::default())
    }

    /// Run the repetitions on at most `available_parallelism` scoped
    /// threads ([`parallel_map`]); statistics fold in repetition order,
    /// so the result is bit-identical to [`Campaign::run_seq_with`]. The
    /// options are a per-call value, so concurrent server requests can
    /// differ in mode.
    pub fn run_with(&self, options: &RunOptions) -> CampaignResult {
        let reps = self.spec.repetitions.max(1) as usize;
        self.fold(parallel_map(reps, |rep| self.run_rep(rep as u32, options)))
    }

    /// Sequential twin of [`Campaign::run_with`]: same seeds, same fold
    /// order, one thread.
    pub fn run_seq_with(&self, options: &RunOptions) -> CampaignResult {
        let reps = self.spec.repetitions.max(1);
        self.fold((0..reps).map(|rep| self.run_rep(rep, options)).collect())
    }

    fn fold(&self, reports: Vec<GridReport>) -> CampaignResult {
        let metrics = METRICS
            .iter()
            .map(|(name, value)| {
                let mut stat = OnlineStats::new();
                for report in &reports {
                    stat.push(value(report));
                }
                (*name, stat.summary())
            })
            .collect();
        CampaignResult {
            label: self.spec.label.clone(),
            mode: self.spec.deploy.mode.to_string(),
            metrics,
            reports,
        }
    }
}

/// Aggregated campaign outcome; the accessors mirror the core engine's
/// `TrialResult`.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Label copied from the spec.
    pub label: String,
    /// Execution-mode name ("native", "vm-QEMU", ...).
    pub mode: String,
    /// `(metric name, summary)` in report order.
    metrics: Vec<(&'static str, Summary)>,
    reports: Vec<GridReport>,
}

impl CampaignResult {
    /// Summary of the named metric; panics on an unknown name.
    pub fn metric(&self, name: &str) -> &Summary {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("campaign {:?} has no metric {name:?}", self.label))
    }

    /// All metric names, in report order.
    pub fn metric_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.metrics.iter().map(|(name, _)| *name)
    }

    /// Per-repetition reports, in repetition order.
    pub fn reports(&self) -> &[GridReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationPolicy;
    use crate::sim::SubstrateMode;
    use vgrid_simcore::SimDuration;
    use vgrid_vmm::VmmProfile;

    fn quick_spec() -> CampaignSpec {
        CampaignSpec::new("t")
            .project(ProjectConfig {
                workunits: 10,
                wu_ref_secs: 600.0,
                ..Default::default()
            })
            .pool(PoolConfig {
                volunteers: 20,
                ..Default::default()
            })
            .horizon(SimTime::from_secs(14 * 24 * 3600))
    }

    #[test]
    fn builder_validates_quorum() {
        let err = quick_spec()
            .project(ProjectConfig {
                quorum: 3,
                replication: 2,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn builder_rejects_impossible_deadline() {
        let err = quick_spec()
            .project(ProjectConfig {
                wu_ref_secs: 8.0 * 3600.0,
                deadline: SimDuration::from_secs(60),
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ImpossibleDeadline { .. }), "{err}");
    }

    #[test]
    fn builder_rejects_checkpoint_beyond_deadline() {
        let mut deploy = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
        deploy.checkpoint_interval = SimDuration::from_secs(10 * 24 * 3600);
        let err = quick_spec().deploy(deploy).build().unwrap_err();
        assert!(
            matches!(err, Error::CheckpointExceedsDeadline { .. }),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_an_image_on_a_native_deploy() {
        let native = |image_bytes| DeployConfig {
            image_bytes,
            ..DeployConfig::native()
        };
        let err = quick_spec().deploy(native(1)).build().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("image_bytes"), "{err}");
        quick_spec()
            .deploy(native(0))
            .build()
            .expect("no image is fine");
    }

    #[test]
    fn result_mirrors_trial_result_accessors() {
        let result = quick_spec().build().unwrap().run();
        assert!(result
            .metric_names()
            .eq(METRICS.iter().map(|(name, _)| *name)));
        assert_eq!(
            result.metric("validated_wus").mean,
            result.reports()[0].validated_wus as f64
        );
        assert_eq!(result.mode, "native");
        assert!(result.metric("goodput").mean > 0.0);
    }

    #[test]
    fn parallel_and_sequential_reps_agree_bitwise() {
        // More repetitions than a small host has workers.
        let campaign = quick_spec()
            .churn(ChurnConfig::intensity(2.0))
            .repetitions(9)
            .build()
            .unwrap();
        let par = campaign.run();
        let seq = campaign.run_seq();
        assert_eq!(par.reports(), seq.reports());
        for name in par.metric_names() {
            let (a, b) = (par.metric(name), seq.metric(name));
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{name}");
            assert_eq!(a.stddev.to_bits(), b.stddev.to_bits(), "{name}");
        }
    }

    #[test]
    fn public_campaign_path_matches_zero_churn_impl() {
        // Port of the retired `run_campaign` shim's guarantee: the
        // public builder path with churn left at its default runs the
        // exact zero-churn simulator.
        let spec = quick_spec().seed(9);
        let via_campaign = spec.clone().build().unwrap().run().reports()[0].clone();
        let direct = run_campaign_substrate(
            &spec.project,
            &spec.pool,
            &spec.deploy,
            &ChurnConfig::off(),
            9,
            spec.horizon,
            &RunOptions::default(),
        );
        assert_eq!(via_campaign, direct);
    }

    #[test]
    fn events_past_the_time_range_never_fire() {
        // A reissue deadline reaching past the picosecond range, and
        // owner sessions that never end, schedule events beyond
        // `SimTime::MAX`. They must saturate onto that sentinel, which
        // no horizon reaches, instead of panicking mid-run. A campaign
        // that cannot finish runs to the `SimTime::MAX` horizon itself:
        // its flips saturate onto the sentinel too, and must not fire
        // and re-arm there forever.
        let day = SimTime::from_secs(24 * 3600);
        let long_deadline = CampaignSpec::new("deadline")
            .project(ProjectConfig {
                workunits: 40,
                deadline: SimDuration::from_secs(18_440_000),
                ..Default::default()
            })
            .pool(PoolConfig {
                volunteers: 4,
                ..Default::default()
            })
            .horizon(day);
        let endless_owner = quick_spec()
            .churn(ChurnConfig {
                owner_arrival_mean_secs: 100.0,
                owner_session_mean_secs: 1e30,
                ..ChurnConfig::off()
            })
            .horizon(day);
        let endless_horizon = CampaignSpec::new("endless horizon")
            .project(ProjectConfig {
                workunits: 1,
                wu_ref_secs: 3e7,
                deadline: SimDuration::from_secs(18_000_000),
                ..Default::default()
            })
            .pool(PoolConfig {
                volunteers: 4,
                ..Default::default()
            })
            .horizon(SimTime::MAX);
        for (spec, horizon) in [
            (long_deadline, day),
            (endless_owner, day),
            (endless_horizon, SimTime::MAX),
        ] {
            let campaign = spec.build().expect("valid spec");
            let batched = campaign.run();
            let reference = campaign
                .run_with(&RunOptions::default().substrate(SubstrateMode::HydratedReference));
            assert_eq!(batched.reports(), reference.reports(), "{}", batched.label);
            assert!(batched.reports()[0].makespan_secs <= horizon.as_secs_f64());
        }
    }

    #[test]
    fn full_width_byte_sizes_saturate_instead_of_overflowing() {
        // `u64::MAX` sizes reach the RAM draw, the headroom check and
        // the checkpoint-transfer price. Each must saturate: no panic
        // in debug builds, no wrap in release builds.
        let day = SimTime::from_secs(24 * 3600);
        let eight = PoolConfig {
            volunteers: 8,
            ..Default::default()
        };
        let full_ram_range = quick_spec()
            .pool(PoolConfig {
                ram_range: (0, u64::MAX),
                ..eight.clone()
            })
            .horizon(day);
        let endless_headroom = quick_spec()
            .pool(eight)
            .deploy(DeployConfig {
                host_headroom_bytes: u64::MAX,
                ..DeployConfig::vm(VmmProfile::qemu(), 300 << 20)
            })
            .horizon(day);
        let endless_export = quick_spec()
            .deploy(DeployConfig {
                native_checkpoint_bytes: u64::MAX,
                ..DeployConfig::native().with_policy(MigrationPolicy::full())
            })
            .churn(ChurnConfig::intensity(1.0))
            .horizon(day);
        let reports: Vec<GridReport> = [full_ram_range, endless_headroom, endless_export]
            .into_iter()
            .map(|spec| {
                let campaign = spec.build().expect("valid spec");
                let batched = campaign.run();
                let reference = campaign
                    .run_with(&RunOptions::default().substrate(SubstrateMode::HydratedReference));
                assert_eq!(batched.reports(), reference.reports(), "{}", batched.label);
                batched.reports()[0].clone()
            })
            .collect();
        assert_eq!(
            reports[1].hosts_excluded_ram, 8,
            "no host fits endless headroom"
        );
        assert!(
            reports[2].transfer_secs > 0.0,
            "the huge checkpoint was exported"
        );
    }

    #[test]
    fn single_rep_uses_base_seed_verbatim() {
        let campaign = quick_spec().seed(1234).build().unwrap();
        assert_eq!(campaign.seed_for(0), 1234);
        let multi = quick_spec().seed(1234).repetitions(3).build().unwrap();
        assert_ne!(multi.seed_for(1), 1234);
    }
}

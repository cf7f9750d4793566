//! Property test for analytic fast-forward: resuming a campaign from a
//! stored prefix trajectory must be bit-identical to running it cold.
//!
//! Each case draws a random sweep point and two horizons h1 < h2. The
//! batched substrate runs h1 first (cold, storing the prefix), then h2
//! (resuming from it); the hydrated-reference substrate runs the same
//! horizons cold — it never consults the trajectory cache, so it is a
//! race-free ground truth. Campaigns have no scheduler mode (their
//! hydration probes always coalesce), so the substrate is the only axis.
//!
//! Churned points (levels 1-3) run a small VM project across checkpoint
//! intervals. Zero-churn points run where the batched substrate parks
//! idle hosts: a pool far larger than its 5-20 copies of 1-12 hours,
//! rejections and one-day deadline reissues that kick parked hosts,
//! volunteers that leave for good, checkpoint migration on and off,
//! native or a VM with an image to fetch.

use proptest::prelude::*;
use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, PoolConfig, ProjectConfig, RunOptions,
    SubstrateMode,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

/// One sweep point: everything but the horizon.
#[derive(Debug, Clone)]
struct Point {
    seed: u64,
    churn_level: u32,
    ckpt_secs: u64,
    /// The zero-churn shape; churned points ignore it.
    idle: IdlePool,
}

/// A zero-churn pool that mostly idles: its hosts park on the batched
/// substrate once the few copies are out.
#[derive(Debug, Clone)]
struct IdlePool {
    volunteers: u32,
    workunits: u32,
    wu_hours: u32,
    error_rate: f64,
    permanent_failure_prob: f64,
    migrate_on_churn: bool,
    vm: bool,
}

prop_compose! {
    fn idle_pool()(
        volunteers in 100u32..401,
        workunits in 5u32..21,
        wu_hours in 1u32..13,
        error_rate in 0.0f64..0.5,
        permanent_failure_prob in 0.001f64..0.2,
        migrate_on_churn in any::<bool>(),
        vm in any::<bool>(),
    ) -> IdlePool {
        IdlePool {
            volunteers,
            workunits,
            wu_hours,
            error_rate,
            permanent_failure_prob,
            migrate_on_churn,
            vm,
        }
    }
}

fn spec(point: &Point) -> CampaignSpec {
    let mut deploy = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
    deploy.checkpoint_interval = SimDuration::from_secs(point.ckpt_secs);
    let spec = CampaignSpec::new("prefix-props").seed(point.seed);
    if point.churn_level > 0 {
        return spec
            .project(ProjectConfig {
                workunits: 30,
                wu_ref_secs: 1800.0,
                ..Default::default()
            })
            .pool(PoolConfig {
                volunteers: 30,
                ram_range: (1 << 30, 2 << 30),
                ..Default::default()
            })
            .deploy(deploy)
            .churn(ChurnConfig::intensity(point.churn_level as f64));
    }
    let idle = &point.idle;
    if !idle.vm {
        deploy = DeployConfig {
            checkpoint_interval: deploy.checkpoint_interval,
            ..DeployConfig::native()
        };
    }
    deploy.migrate_on_churn = idle.migrate_on_churn;
    spec.project(ProjectConfig {
        workunits: idle.workunits,
        wu_ref_secs: idle.wu_hours as f64 * 3600.0,
        replication: 1,
        quorum: 1,
        // Copies stranded on departed volunteers come back as
        // deadline reissues, each a kick.
        deadline: SimDuration::from_secs(24 * 3600),
        error_rate: idle.error_rate,
        ..Default::default()
    })
    .pool(PoolConfig {
        volunteers: idle.volunteers,
        ram_range: (1 << 30, 2 << 30),
        permanent_failure_prob: idle.permanent_failure_prob,
        ..Default::default()
    })
    .deploy(deploy)
    .churn(ChurnConfig::off())
}

fn run_point(point: &Point, horizon: SimTime, substrate: SubstrateMode) -> GridReport {
    spec(point)
        .horizon(horizon)
        .build()
        .expect("valid sweep point")
        .run_with(&RunOptions::default().substrate(substrate))
        .reports()[0]
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prefix_resume_matches_cold_run(
        seed in any::<u64>(),
        churn_level in prop_oneof![Just(0u32), 1u32..4],
        ckpt_min in 5u64..120,
        h1_days in 1u64..5,
        extra_days in 1u64..6,
        idle in idle_pool(),
    ) {
        let point = Point {
            seed,
            churn_level,
            ckpt_secs: ckpt_min * 60,
            idle,
        };
        let h1 = SimTime::from_secs(h1_days * 24 * 3600);
        let h2 = SimTime::from_secs((h1_days + extra_days) * 24 * 3600);
        let (batched, reference) = (SubstrateMode::Batched, SubstrateMode::HydratedReference);
        // Warm order matters: h1 stores the prefix h2 resumes from.
        let warm1 = run_point(&point, h1, batched);
        let warm2 = run_point(&point, h2, batched);
        let cold1 = run_point(&point, h1, reference);
        let cold2 = run_point(&point, h2, reference);
        prop_assert_eq!(&warm1, &cold1, "h1 diverged: {:?}", point);
        prop_assert_eq!(&warm2, &cold2, "prefix resume at h2 diverged: {:?}", point);
    }
}

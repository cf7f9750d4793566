//! Property test for analytic fast-forward: resuming a campaign from a
//! stored prefix trajectory must be bit-identical to running it cold.
//!
//! Each case draws a random sweep point (churn level x checkpoint
//! interval x seed) and two horizons h1 < h2. The batched substrate
//! runs h1 first (storing the prefix), then h2 (resuming from it); the
//! hydrated-reference substrate runs the same horizons cold — it never
//! consults the fast-forward caches, so it is a race-free ground truth.
//! Campaigns have no scheduler mode (their hydration probes always
//! coalesce), so the substrate is the only axis.

use proptest::prelude::*;
use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, PoolConfig, ProjectConfig, RunOptions,
    SubstrateMode,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

fn run_point(
    seed: u64,
    churn_level: f64,
    ckpt_secs: u64,
    horizon: SimTime,
    substrate: SubstrateMode,
) -> GridReport {
    let mut deploy = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
    deploy.checkpoint_interval = SimDuration::from_secs(ckpt_secs);
    CampaignSpec::new("prefix-props")
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
        .churn(ChurnConfig::intensity(churn_level))
        .seed(seed)
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
        churn_level in 0u32..4,
        ckpt_min in 5u64..120,
        h1_days in 2u64..5,
        extra_days in 1u64..6,
    ) {
        let churn = churn_level as f64;
        let ckpt = ckpt_min * 60;
        let h1 = SimTime::from_secs(h1_days * 24 * 3600);
        let h2 = SimTime::from_secs((h1_days + extra_days) * 24 * 3600);
        let (batched, reference) = (SubstrateMode::Batched, SubstrateMode::HydratedReference);
        // Warm order matters: h1 stores the prefix h2 resumes from.
        let warm1 = run_point(seed, churn, ckpt, h1, batched);
        let warm2 = run_point(seed, churn, ckpt, h2, batched);
        let cold1 = run_point(seed, churn, ckpt, h1, reference);
        let cold2 = run_point(seed, churn, ckpt, h2, reference);
        prop_assert_eq!(&warm1, &cold1, "h1 diverged");
        prop_assert_eq!(&warm2, &cold2, "prefix resume at h2 diverged");
    }
}

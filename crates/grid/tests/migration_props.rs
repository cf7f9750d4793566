//! Property-based tests of the migration-policy contract: accounting
//! invariants, bit-equality across substrates and the fast-forward
//! switch, and the guarantee that a disabled policy is the pre-policy
//! baseline bit for bit.

use proptest::prelude::*;
use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, MigrationPolicy, PoolConfig, ProjectConfig,
    RunOptions, SubstrateMode,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

/// A small VM campaign with a tight reissue deadline, so rescue checks
/// actually fire within the horizon.
fn spec(seed: u64, volunteers: u32, churn_level: f64, policy: MigrationPolicy) -> CampaignSpec {
    CampaignSpec::new("migration-props")
        .project(ProjectConfig {
            workunits: 12,
            wu_ref_secs: 2.0 * 3600.0,
            deadline: SimDuration::from_secs(24 * 3600),
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers,
            ram_range: (1 << 30, 2 << 30),
            ..Default::default()
        })
        .deploy(DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_policy(policy))
        .churn(ChurnConfig::intensity(churn_level))
        .seed(seed)
        .horizon(SimTime::from_secs(8 * 24 * 3600))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Migration accounting stays conservative for every policy, and
    /// the report is bit-identical across both substrates, fast-forward
    /// on and off, and parallel vs sequential repetitions. (Campaigns
    /// have no scheduler mode: `RunOptions::scheduler` never reaches
    /// them.) The tuning knobs vary too, so the audits' debug
    /// cross-checks against the linear scans see every threshold and
    /// slack, not only the presets'.
    #[test]
    fn migration_invariants_hold_in_every_execution_mode(
        seed in any::<u64>(),
        volunteers in 5u32..30,
        churn_level in 0u32..4,
        policy_sel in 0u8..4,
        slack_pct in 1u32..101,
        thresh_pct in 1u32..101,
    ) {
        let mut policy = match policy_sel {
            0 => MigrationPolicy::off(),
            1 => MigrationPolicy::rescue_only(),
            2 => MigrationPolicy::evacuate_only(),
            _ => MigrationPolicy::full(),
        };
        policy.rescue_slack = slack_pct as f64 / 100.0;
        policy.hazard_threshold = thresh_pct as f64 / 100.0;
        let spec = spec(seed, volunteers, churn_level as f64, policy);

        let combos = [
            (SubstrateMode::Batched, true),
            (SubstrateMode::Batched, false),
            (SubstrateMode::HydratedReference, true),
            (SubstrateMode::HydratedReference, false),
        ];
        let mut reference = None;
        for (substrate, fastforward) in combos {
            let options = RunOptions::default()
                .substrate(substrate)
                .fastforward(fastforward);
            let run = spec.clone().build().unwrap().run_with(&options);
            let r = run.reports()[0].clone();

            // Accounting: transfers cost real seconds, a rescue can only
            // win after a migration happened, and no new channel mints
            // CPU time out of thin air.
            prop_assert!(r.transfer_secs >= 0.0);
            prop_assert!(r.rescue_wins <= r.migrations);
            prop_assert!(r.wasted_cpu_secs <= r.cpu_secs_spent + 1e-6);
            prop_assert!(r.cpu_secs_lost <= r.cpu_secs_spent + 1e-6);
            if policy.is_off() {
                prop_assert_eq!(r.evacuations, 0);
                prop_assert_eq!(r.rescue_wins, 0);
                prop_assert_eq!(r.transfer_secs, 0.0);
            }
            if !policy.evacuate {
                prop_assert_eq!(r.evacuations, 0);
            }
            if !policy.rescue {
                // Without rescue (and with PR 4 churn migration off in
                // this fixture) nothing else mints migrations.
                prop_assert_eq!(r.migrations, 0);
            }

            // Every mode must match the first (production) run bit for
            // bit.
            match &reference {
                None => reference = Some(r),
                Some(first) => prop_assert_eq!(
                    first,
                    &r,
                    "substrate {:?} fastforward {} diverged",
                    substrate,
                    fastforward
                ),
            }
        }

        // Parallel repetitions fold bit-identically to sequential ones
        // with the policy enabled.
        let reps = spec.repetitions(2);
        let par = reps.clone().build().unwrap().run_with(&RunOptions::default());
        let seq = reps.build().unwrap().run_seq_with(&RunOptions::default());
        prop_assert_eq!(par.reports(), seq.reports());
    }

    /// A disabled policy is the pre-policy baseline bit for bit, no
    /// matter what the (unused) tuning knobs are set to — and its
    /// report formats without the policy-only fields, which is what
    /// keeps every committed golden and pinned digest byte-stable.
    #[test]
    fn off_policy_is_the_baseline_bit_for_bit(
        seed in any::<u64>(),
        churn_level in 0u32..4,
        slack_pct in 1u32..101,
        thresh_pct in 1u32..101,
    ) {
        let mut varied = MigrationPolicy::off();
        varied.rescue_slack = slack_pct as f64 / 100.0;
        varied.hazard_threshold = thresh_pct as f64 / 100.0;
        prop_assert!(varied.is_off());

        let canon = spec(seed, 12, churn_level as f64, MigrationPolicy::off())
            .build().unwrap().run_with(&RunOptions::default());
        let tuned = spec(seed, 12, churn_level as f64, varied)
            .build().unwrap().run_with(&RunOptions::default());
        prop_assert_eq!(canon.reports(), tuned.reports());

        let debug = format!("{:?}", canon.reports()[0]);
        prop_assert!(!debug.contains("evacuations:"));
        prop_assert!(!debug.contains("rescue_wins:"));
        prop_assert!(!debug.contains(" transfer_secs:"), "image_transfer_secs is fine; the policy field is not: {debug}");
    }
}

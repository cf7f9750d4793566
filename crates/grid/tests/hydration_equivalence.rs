//! Substrate-equivalence matrix: the archetype-batched substrate must
//! be bit-identical to the hydrated-reference substrate — every
//! `GridReport` field and every published metric — across pool sizes
//! up to 1k hosts, churn on and off, native and VM deployments, and a
//! mostly idle zero-churn pool whose hosts park.

use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, PoolConfig, ProjectConfig, RunOptions,
    SubstrateMode,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_simobs::MetricsRegistry;
use vgrid_vmm::VmmProfile;

fn spec(volunteers: u32, churn: ChurnConfig, deploy: DeployConfig) -> CampaignSpec {
    CampaignSpec::new("equivalence")
        .project(ProjectConfig {
            workunits: 60,
            wu_ref_secs: 1800.0,
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers,
            ram_range: (256 << 20, 2 << 30),
            ..Default::default()
        })
        .deploy(deploy)
        .churn(churn)
        .seed(0x5eed_0b57)
        .horizon(SimTime::from_secs(7 * 24 * 3600))
}

/// A zero-churn pool far larger than its copies, where the batched
/// substrate parks idle hosts: rejections and deadline reissues kick
/// them, departed volunteers strand copies, interrupted computations
/// migrate, and every host fetches a VM image first.
fn idle_pool_spec() -> CampaignSpec {
    let mut deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
    deploy.migrate_on_churn = true;
    CampaignSpec::new("equivalence-idle")
        .project(ProjectConfig {
            workunits: 10,
            wu_ref_secs: 6.0 * 3600.0,
            replication: 1,
            quorum: 1,
            deadline: SimDuration::from_secs(24 * 3600),
            error_rate: 0.5,
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers: 400,
            ram_range: (256 << 20, 2 << 30),
            permanent_failure_prob: 0.1,
            ..Default::default()
        })
        .deploy(deploy)
        .churn(ChurnConfig::off())
        .seed(0x5eed_0b57)
        .horizon(SimTime::from_secs(7 * 24 * 3600))
}

fn run(spec: CampaignSpec, hydrated_reference: bool) -> GridReport {
    let substrate = if hydrated_reference {
        SubstrateMode::HydratedReference
    } else {
        SubstrateMode::Batched
    };
    spec.build()
        .expect("valid spec")
        .run_with(&RunOptions::default().substrate(substrate))
        .reports()[0]
        .clone()
}

fn rendered_metrics(report: &GridReport) -> String {
    let mut m = MetricsRegistry::new();
    report.publish_metrics(&mut m);
    m.render_json()
}

#[test]
fn overlap_matrix_is_bit_identical() {
    for &volunteers in &[50u32, 200, 1000] {
        for churn in [ChurnConfig::off(), ChurnConfig::intensity(1.0)] {
            for deploy in [
                DeployConfig::native(),
                DeployConfig::vm(VmmProfile::qemu(), 300 << 20),
            ] {
                let batched = run(spec(volunteers, churn.clone(), deploy.clone()), false);
                let reference = run(spec(volunteers, churn.clone(), deploy.clone()), true);
                assert_eq!(
                    batched, reference,
                    "substrate divergence at {volunteers} hosts, {deploy:?}",
                );
                assert_eq!(
                    rendered_metrics(&batched),
                    rendered_metrics(&reference),
                    "published metrics diverged at {volunteers} hosts",
                );
            }
        }
    }
    let batched = run(idle_pool_spec(), false);
    let reference = run(idle_pool_spec(), true);
    assert_eq!(batched, reference, "substrate divergence on the idle pool");
    assert_eq!(
        rendered_metrics(&batched),
        rendered_metrics(&reference),
        "published metrics diverged on the idle pool",
    );
}

#[test]
fn batched_substrate_bounds_resident_probes() {
    let report = run(
        spec(
            1000,
            ChurnConfig::intensity(1.0),
            DeployConfig::vm(VmmProfile::qemu(), 300 << 20),
        ),
        false,
    );
    assert!(report.hydration.windows > 0, "{:?}", report.hydration);
    assert!(
        report.hydration.peak_resident <= 4,
        "hydration pool exceeded its capacity bound: {:?}",
        report.hydration
    );
    let census: u32 = report.archetype_hosts.iter().map(|&(_, n)| n).sum();
    assert_eq!(census, 1000);
}

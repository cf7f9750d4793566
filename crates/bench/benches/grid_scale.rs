//! Scale benchmarks for the archetype-batched grid substrate.
//!
//! The quick profile (`VGRID_BENCH_QUICK=1`, the bench.sh default and
//! the CI smoke) times a 10k-host campaign; its deterministic outputs
//! are pinned in `tests/sim_output_pins.rs`. The full profile adds the
//! headline scenarios from ROADMAP item 1: a million-host zero-churn
//! month and a 100k-host churn campaign, both expected to finish in
//! minutes on the radix-heap event queue while hydrating at most
//! `DEFAULT_HYDRATION_CAP` concurrent `System`s, which it asserts.
//!
//! The quick row's warm-up pass stores the campaign's trajectory, so
//! every timed sample resumes it at the same horizon: the row times a
//! warm hit (one queue rebuild plus final accounting, and no re-store;
//! DESIGN.md §13), not a cold campaign.

use criterion::{criterion_group, criterion_main, Criterion};
use vgrid_grid::{CampaignSpec, ChurnConfig, DeployConfig, GridReport, PoolConfig, ProjectConfig};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

struct Scenario {
    id: &'static str,
    volunteers: u32,
    workunits: u32,
    wu_ref_secs: f64,
    replication: u32,
    quorum: u32,
    deadline_days: u64,
    churn: f64,
    days: u64,
}

const SMOKE: Scenario = Scenario {
    id: "pool_10k",
    volunteers: 10_000,
    workunits: 20_000,
    wu_ref_secs: 4.0 * 3600.0,
    replication: 2,
    quorum: 2,
    deadline_days: 7,
    churn: 0.0,
    days: 14,
};

const FULL: &[Scenario] = &[
    // Month-long tasks on a million hosts: single-copy issue with a
    // whole-horizon deadline, so every event is real progress rather
    // than reissue churn.
    Scenario {
        id: "pool_1m_month",
        volunteers: 1_000_000,
        workunits: 10_000,
        wu_ref_secs: 1_440_000.0,
        replication: 1,
        quorum: 1,
        deadline_days: 30,
        churn: 0.0,
        days: 30,
    },
    Scenario {
        id: "pool_100k_churn",
        volunteers: 100_000,
        workunits: 50_000,
        wu_ref_secs: 4.0 * 3600.0,
        replication: 2,
        quorum: 2,
        deadline_days: 7,
        churn: 1.0,
        days: 14,
    },
];

fn run(s: &Scenario) -> GridReport {
    CampaignSpec::new(s.id)
        .project(ProjectConfig {
            workunits: s.workunits,
            wu_ref_secs: s.wu_ref_secs,
            replication: s.replication,
            quorum: s.quorum,
            deadline: SimDuration::from_secs(s.deadline_days * 24 * 3600),
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers: s.volunteers,
            ..Default::default()
        })
        .deploy(DeployConfig::vm(VmmProfile::qemu(), 300 << 20))
        .churn(ChurnConfig::intensity(s.churn))
        .seed(0x5ca1e)
        .horizon(SimTime::from_secs(s.days * 24 * 3600))
        .build()
        .expect("valid scale scenario")
        .run()
        .reports()[0]
        .clone()
}

/// The hydration pool stays within its cap of concurrent probe systems
/// at full scale.
fn assert_hydration_cap(s: &Scenario) {
    let report = run(s);
    assert!(
        report.hydration.peak_resident <= 4,
        "{}: hydration pool exceeded its bound: {:?}",
        s.id,
        report.hydration
    );
}

fn quick() -> bool {
    std::env::var("VGRID_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn bench_grid_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_scale");
    group.sample_size(3);
    group.bench_function(SMOKE.id, |b| b.iter(|| run(&SMOKE).validated_wus));
    if !quick() {
        for s in FULL {
            group.bench_function(s.id, |b| b.iter(|| run(s).validated_wus));
        }
    }
    group.finish();
    if !quick() {
        for s in FULL {
            assert_hydration_cap(s);
        }
    }
}

criterion_group!(benches, bench_grid_scale);
criterion_main!(benches);

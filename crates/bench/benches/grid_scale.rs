//! Scale benchmarks for the archetype-batched grid substrate.
//!
//! The quick profile (`VGRID_BENCH_QUICK=1`, the bench.sh default and
//! the CI smoke) times a 10k-host campaign and records its
//! deterministic outputs — validated work units, returned results, the
//! hydration pool's peak residency and an FNV digest of the whole
//! report — so `bench.sh --check` can gate on exact values. The full
//! profile adds the headline scenarios from ROADMAP item 1: a
//! million-host zero-churn month and a 100k-host churn campaign, both
//! expected to finish in minutes on the radix-heap event queue while
//! hydrating at most `DEFAULT_HYDRATION_CAP` concurrent `System`s.
//!
//! The quick row's warm-up pass stores the campaign's trajectory, so
//! every timed sample resumes it at the same horizon: the row times a
//! warm hit (one queue rebuild plus final accounting, and no re-store;
//! DESIGN.md §13), not a cold campaign.

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
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

/// FNV-1a over the report's debug rendering, folded to 53 bits so the
/// digest survives the f64 metric channel exactly.
fn report_digest(report: &GridReport) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h >> 11) as f64
}

/// Record a scenario's deterministic outputs once (they are pure
/// functions of the spec, so timing iterations need not repeat this).
fn record(s: &Scenario) {
    let report = run(s);
    assert!(
        report.hydration.peak_resident <= 4,
        "{}: hydration pool exceeded its bound: {:?}",
        s.id,
        report.hydration
    );
    report_metric(
        "grid_scale",
        s.id,
        "validated_wus",
        report.validated_wus as f64,
    );
    report_metric(
        "grid_scale",
        s.id,
        "results_returned",
        report.results_returned as f64,
    );
    // Peak residency in both units: how many probe `System`s were
    // hydrated at once, and how much working-set they pinned. The old
    // single `peak_resident` row under-read (pre-band keying a whole
    // campaign shared one window, so it pinned at 1 regardless of cap).
    report_metric(
        "grid_scale",
        s.id,
        "peak_resident_probes",
        report.hydration.peak_resident as f64,
    );
    report_metric(
        "grid_scale",
        s.id,
        "peak_resident_bytes",
        report.hydration.peak_resident_bytes as f64,
    );
    report_metric("grid_scale", s.id, "report_digest", report_digest(&report));
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
    record(&SMOKE);
    if !quick() {
        for s in FULL {
            record(s);
        }
    }
}

criterion_group!(benches, bench_grid_scale);
criterion_main!(benches);

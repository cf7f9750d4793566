//! Analytic fast-forward benchmarks: the grid-churn registry sweep with
//! the cross-sweep caches disabled vs enabled.
//!
//! The sweep mirrors the `grid-churn` experiment's fast-fidelity shape
//! (4 churn levels x {native, vm, vm no-ckpt} x 3 repetitions). The
//! `churn_sweep_off` row pins the cold baseline: `RunOptions` with
//! `fastforward(false)` makes every campaign materialize its work queue
//! eagerly and replay from t=0. The `churn_sweep_on` row times the same
//! sweep with the process-global prefix-trajectory cache live (the
//! harness's warm-up pass populates it, exactly like the second and
//! later sweeps of a registry run). Both rows solve segments and
//! measure hydration probes the same way: per campaign, uncached.
//!
//! Fast-forward must be invisible in the results: both digests are
//! recorded as metric rows and `bench.sh --check` gates on
//! `digest_on == digest_off` plus a >= 5x wall-time floor.

use criterion::{criterion_group, criterion_main, report_metric, Criterion};
use vgrid_grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, PoolConfig, ProjectConfig, RunOptions,
};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_vmm::VmmProfile;

/// Churn-intensity levels swept (matches `grid-churn`'s registry sweep).
const LEVELS: [f64; 4] = [0.0, 1.0, 2.0, 4.0];

fn deployments() -> Vec<(&'static str, DeployConfig)> {
    let vm = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
    let mut vm_no_ckpt = vm.clone();
    vm_no_ckpt.checkpoint_interval = SimDuration::ZERO;
    vec![
        ("native", DeployConfig::native()),
        ("vm", vm),
        ("vm no-ckpt", vm_no_ckpt),
    ]
}

fn run_sweep(options: &RunOptions) -> Vec<GridReport> {
    let project = ProjectConfig {
        workunits: 50_000,
        wu_ref_secs: 2.0 * 3600.0,
        ..Default::default()
    };
    let pool = PoolConfig {
        volunteers: 40,
        ram_range: (1 << 30, 2 << 30),
        ..Default::default()
    };
    let horizon = SimTime::from_secs(7 * 24 * 3600);
    let mut reports = Vec::new();
    for level in LEVELS {
        for (tag, deploy) in deployments() {
            let campaign = CampaignSpec::new(format!("{tag} churn {level:.0}"))
                .project(project.clone())
                .pool(pool.clone())
                .deploy(deploy)
                .churn(ChurnConfig::intensity(level))
                .seed(0x2e99)
                .repetitions(3)
                .horizon(horizon)
                .build()
                .expect("valid sweep point");
            reports.extend(campaign.run_with(options).reports().iter().cloned());
        }
    }
    reports
}

/// FNV-1a over every report's debug rendering, folded to 53 bits so the
/// digest survives the f64 metric channel exactly.
fn sweep_digest(reports: &[GridReport]) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for report in reports {
        for byte in format!("{report:?}").bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    (h >> 11) as f64
}

fn bench_fastforward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastforward");
    group.sample_size(3);

    // Cold baseline: the kill switch keeps every iteration from reading
    // or writing the process-global caches.
    let off = RunOptions::default().fastforward(false);
    let cold = run_sweep(&off);
    group.bench_function("churn_sweep_off", |b| b.iter(|| run_sweep(&off)));

    // Warm path: the harness's untimed warm-up pass populates the
    // caches; the timed samples then reuse them, like the second and
    // later sweeps over the same registry shape.
    let on = RunOptions::default();
    let warm = run_sweep(&on);
    group.bench_function("churn_sweep_on", |b| b.iter(|| run_sweep(&on)));
    group.finish();

    let digest_off = sweep_digest(&cold);
    let digest_on = sweep_digest(&warm);
    report_metric("fastforward", "churn_sweep", "digest_off", digest_off);
    report_metric("fastforward", "churn_sweep", "digest_on", digest_on);
    report_metric("fastforward", "churn_sweep", "reports", cold.len() as f64);
    assert_eq!(
        digest_off, digest_on,
        "fast-forward changed the sweep's simulation results"
    );
}

criterion_group!(benches, bench_fastforward);
criterion_main!(benches);

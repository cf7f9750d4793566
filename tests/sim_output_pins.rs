//! Simulation-output pins: deterministic outputs of the scheduler and
//! grid substrates held to committed constants, so any drift fails the
//! tier-1 suite.
//!
//! - Event counts of the fig1/fig7 scheduling substrates, coalesced and
//!   per-quantum, may not grow past +20% of their baselines (fewer events
//!   is always fine; more means lost coalescing).
//! - The 10k-host grid smoke and the grid-churn sweep, with fast-forward
//!   on and off, must reproduce their report digests exactly.
//! - The migration-policy campaign pair must reproduce its rows exactly,
//!   with rescue paying off and the full policy beating checkpoint-only
//!   on makespan inflation.
//!
//! `scripts/bench.sh --check` keeps the wall-clock floors (coalescing
//! speedup, warm fast-forward sweep); these pins need no timing.
//!
//! Digests are FNV-1a over each report's `Debug` rendering, folded to 53
//! bits so they survive the f64 metric channel `BENCH_engine.json`
//! records them in.

use std::rc::Rc;

use vgrid::grid::{
    CampaignSpec, ChurnConfig, DeployConfig, GridReport, MigrationPolicy, PoolConfig,
    ProjectConfig, RunOptions,
};
use vgrid::machine::ops::OpBlock;
use vgrid::machine::MachineSpec;
use vgrid::os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid::simcore::{SimDuration, SimTime};
use vgrid::simobs::fnv1a64;
use vgrid::vmm::VmmProfile;

/// The 53-bit FNV-1a digest of a sequence of reports' `Debug` renderings.
fn digest(reports: &[GridReport]) -> u64 {
    let text: String = reports.iter().map(|r| format!("{r:?}")).collect();
    fnv1a64(text.as_bytes()) >> 11
}

/// Infinite loop re-issuing one shared block — the shape of a compute
/// kernel's inner loop (7z passes, Einstein FFT chunks).
#[derive(Debug)]
struct BlockLoop(Rc<OpBlock>);

impl ThreadBody for BlockLoop {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        Action::Compute(Rc::clone(&self.0))
    }
}

/// Figure 1's scheduling substrate: one compute-bound kernel, solo on a
/// single core, in long (~0.25 s) blocks. Returns the events handled.
fn fig1_substrate(coalesce: bool) -> u64 {
    let mut sys = System::new(SystemConfig {
        machine: MachineSpec::core2_duo_6600().core2_solo(),
        coalesce,
        ..SystemConfig::testbed(3)
    });
    // 1.5 G int ops = 0.25 s = 12.5 quanta per block.
    let block = Rc::new(OpBlock::int_alu(1_500_000_000));
    sys.spawn("7z", Priority::Normal, Box::new(BlockLoop(block)));
    sys.run_until(SimTime::from_secs(30));
    sys.loop_stats().events_handled
}

/// Figure 7's scheduling substrate: a Normal compute kernel against an
/// Idle memory hog on both cores. Returns the events handled.
fn fig7_substrate(coalesce: bool) -> u64 {
    let mut sys = System::new(SystemConfig {
        coalesce,
        ..SystemConfig::testbed(7)
    });
    let kernel = Rc::new(OpBlock::int_alu(1_500_000_000));
    let hog = Rc::new(OpBlock::mem_stream(50_000_000, 32 << 20));
    sys.spawn("7z", Priority::Normal, Box::new(BlockLoop(kernel)));
    sys.spawn("hog", Priority::Idle, Box::new(BlockLoop(hog)));
    sys.run_until(SimTime::from_secs(4));
    sys.loop_stats().events_handled
}

#[test]
fn substrate_event_counts_stay_within_budget() {
    for (id, run, fast_base, reference_base) in [
        ("fig1", fig1_substrate as fn(bool) -> u64, 150, 1_630),
        ("fig7", fig7_substrate, 21, 419),
    ] {
        for (mode, events, base) in [
            ("coalesced", run(true), fast_base),
            ("per-quantum", run(false), reference_base),
        ] {
            assert!(
                events as f64 <= base as f64 * 1.2,
                "{id} {mode}: {events} events vs baseline {base} (+20% budget)"
            );
        }
    }
}

#[test]
fn ten_thousand_host_smoke_is_pinned() {
    let report = CampaignSpec::new("pool_10k")
        .project(ProjectConfig {
            workunits: 20_000,
            wu_ref_secs: 4.0 * 3600.0,
            replication: 2,
            quorum: 2,
            deadline: SimDuration::from_secs(7 * 24 * 3600),
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers: 10_000,
            ..Default::default()
        })
        .deploy(DeployConfig::vm(VmmProfile::qemu(), 300 << 20))
        .churn(ChurnConfig::intensity(0.0))
        .seed(0x5ca1e)
        .horizon(SimTime::from_secs(14 * 24 * 3600))
        .build()
        .expect("valid scale scenario")
        .run()
        .reports()[0]
        .clone();
    assert!(
        report.hydration.peak_resident <= 4,
        "hydration pool exceeded its bound: {:?}",
        report.hydration
    );
    assert_eq!(report.validated_wus, 20_000);
    assert_eq!(report.results_returned, 40_839);
    assert_eq!(report.hydration.peak_resident, 4);
    assert_eq!(report.hydration.peak_resident_bytes, 786_432);
    assert_eq!(digest(&[report]), 1_033_582_720_659_130);
}

/// The grid-churn registry sweep's fast-fidelity shape: 4 churn levels x
/// {native, vm, vm no-ckpt} x 3 repetitions.
fn churn_sweep(options: &RunOptions) -> Vec<GridReport> {
    let vm = DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20);
    let mut vm_no_ckpt = vm.clone();
    vm_no_ckpt.checkpoint_interval = SimDuration::ZERO;
    let deployments = [
        ("native", DeployConfig::native()),
        ("vm", vm),
        ("vm no-ckpt", vm_no_ckpt),
    ];
    let mut reports = Vec::new();
    for level in [0.0, 1.0, 2.0, 4.0] {
        for (tag, deploy) in &deployments {
            let campaign = CampaignSpec::new(format!("{tag} churn {level:.0}"))
                .project(ProjectConfig {
                    workunits: 50_000,
                    wu_ref_secs: 2.0 * 3600.0,
                    ..Default::default()
                })
                .pool(PoolConfig {
                    volunteers: 40,
                    ram_range: (1 << 30, 2 << 30),
                    ..Default::default()
                })
                .deploy(deploy.clone())
                .churn(ChurnConfig::intensity(level))
                .seed(0x2e99)
                .repetitions(3)
                .horizon(SimTime::from_secs(7 * 24 * 3600))
                .build()
                .expect("valid sweep point");
            reports.extend(campaign.run_with(options).reports().iter().cloned());
        }
    }
    reports
}

#[test]
fn churn_sweep_digest_is_pinned_with_fast_forward_on_and_off() {
    // Off: eager work queue, replay from t=0. On: the first pass stores
    // every trajectory and the second resumes each one.
    let off = RunOptions::default().fastforward(false);
    let on = RunOptions::default();
    for (mode, options) in [("off", &off), ("on, cold", &on), ("on, warm", &on)] {
        let reports = churn_sweep(options);
        assert_eq!(reports.len(), 36, "fast-forward {mode}");
        assert_eq!(
            digest(&reports),
            3_256_428_554_243_416,
            "fast-forward {mode} changed the sweep's results"
        );
    }
}

/// A finishing workload at the migration sweep's highest churn level
/// with a tight reissue deadline.
fn migration_campaign(policy: MigrationPolicy) -> GridReport {
    CampaignSpec::new("bench-migration")
        .project(ProjectConfig {
            workunits: 24,
            wu_ref_secs: 3.0 * 3600.0,
            deadline: SimDuration::from_secs(24 * 3600),
            ..Default::default()
        })
        .pool(PoolConfig {
            volunteers: 30,
            ..Default::default()
        })
        .deploy(DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20).with_policy(policy))
        .churn(ChurnConfig::intensity(3.0))
        .seed(0x7e5c)
        .horizon(SimTime::from_secs(10 * 24 * 3600))
        .build()
        .expect("valid migration scenario")
        .run()
        .reports()[0]
        .clone()
}

#[test]
fn migration_policy_rows_are_pinned() {
    let off = migration_campaign(MigrationPolicy::off());
    let full = migration_campaign(MigrationPolicy::full());
    assert!(
        full.rescue_wins > 0,
        "migration policy never paid off at high churn: {full:?}"
    );
    assert!(
        full.makespan_inflation < off.makespan_inflation,
        "policy did not reduce inflation: full {} vs checkpoint-only {}",
        full.makespan_inflation,
        off.makespan_inflation
    );
    assert_eq!(off.makespan_inflation, 17.180205709845236);
    assert_eq!(full.migrations, 32);
    assert_eq!(full.evacuations, 4);
    assert_eq!(full.rescue_wins, 15);
    assert_eq!(full.transfer_secs, 928.3086604800009);
    assert_eq!(full.makespan_inflation, 16.00470998537116);
    assert_eq!(digest(&[off]), 7_130_307_893_501_180);
    assert_eq!(digest(&[full]), 3_913_439_924_606_047);
}

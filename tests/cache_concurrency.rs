//! 16-thread stress over the grid fast-forward caches: the runtime
//! witness for what `simlint`'s static shared-state pass proves
//! (DESIGN.md §14). Sixteen threads hammer the process-wide
//! segment-solution, probe-dilation, and trajectory caches with the
//! same campaign list a single-threaded run executes, and every
//! thread's rendered run manifest must stay byte-identical to the
//! sequential reference.
//!
//! Hit/miss *counters* are deliberately excluded from the manifests
//! built here: under concurrent cold misses two threads may race to
//! solve the same key, so the counts are not deterministic. The
//! *results* are — that is the contract this test pins.
//!
//! Everything lives in one `#[test]` because the cache reset hook is
//! process-global; parallel test functions would race on it.

use vgrid::grid::{self, CampaignSpec, DeployConfig, PoolConfig, ProjectConfig};
use vgrid::simcore::{SimDuration, SimTime};
use vgrid::simobs::manifest::config_digest;
use vgrid::simobs::{fnv1a64, MetricsRegistry, RunManifest};
use vgrid::vmm::VmmProfile;

const THREADS: usize = 16;

/// The campaign list every participant runs, covering all three cache
/// layers: native and two VM modes hit the segment/dilation caches,
/// and the same VM configuration at two horizons exercises the
/// trajectory cache's prefix-resume path.
fn spec_list() -> Vec<CampaignSpec> {
    let project = ProjectConfig {
        workunits: 8,
        wu_ref_secs: 600.0,
        ..Default::default()
    };
    let pool = PoolConfig {
        volunteers: 12,
        ..Default::default()
    };
    let week = SimTime::from_secs(7 * 24 * 3600);
    let base = |label: &str| {
        CampaignSpec::new(label)
            .project(project.clone())
            .pool(pool.clone())
            .horizon(week)
    };
    let mut ckpt_vm = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
    ckpt_vm.checkpoint_interval = SimDuration::from_secs(1800);
    vec![
        base("native"),
        base("qemu-ckpt").deploy(ckpt_vm.clone()),
        // Same configuration, longer horizon: resumes from the stored
        // prefix trajectory instead of t=0.
        base("qemu-ckpt-long")
            .deploy(ckpt_vm)
            .horizon(SimTime::from_secs(14 * 24 * 3600)),
        base("vmplayer").deploy(DeployConfig::vm(VmmProfile::vmplayer(), 300 << 20)),
    ]
}

/// Run the list on the calling thread and render a run manifest whose
/// metrics are per-campaign FNV digests of the full result (every
/// float of every repetition participates via the `Debug` rendering).
fn run_and_render() -> String {
    let mut metrics = MetricsRegistry::new();
    let mut labels = Vec::new();
    for spec in spec_list() {
        let label = spec.label.clone();
        let result = spec.build().expect("stress spec is valid").run();
        metrics.counter_add(
            &format!("campaign.{label}.result_digest"),
            fnv1a64(format!("{result:?}").as_bytes()),
        );
        labels.push(label);
    }
    RunManifest {
        experiment: "cache-concurrency".to_string(),
        fidelity: "fast".to_string(),
        scheduler_mode: "coalesced".to_string(),
        seed: 0,
        config_digest: config_digest(&labels),
        trials: labels,
        bench_links: Vec::new(),
        metrics,
    }
    .render_json()
}

#[test]
fn sixteen_threads_render_manifests_byte_identical_to_sequential() {
    // Sequential reference: cold caches, one thread.
    grid::reset_all();
    let reference_doc = run_and_render();
    assert!(!reference_doc.is_empty());

    // Stress: cold caches again, sixteen threads racing the same list
    // against the shared cache layers.
    grid::reset_all();
    let docs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS).map(|_| scope.spawn(run_and_render)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread"))
            .collect()
    });
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(
            *doc, reference_doc,
            "thread {i} manifest diverged from the sequential run"
        );
    }
    // Leave the caches the way we found them for any sibling binaries.
    grid::reset_all();
}

//! The equivalence guard for the slice-coalescing fast path: every
//! registered experiment, run end to end, must produce *byte-identical*
//! figure JSON under the coalescing scheduler and under the per-quantum
//! reference (every quantum boundary materialized as a real event).
//!
//! Each mode runs on its own engine, so neither pass can be served
//! from the other's trial cache.

use vgrid_core::experiments::{experiment_ids, run_by_id};
use vgrid_core::{Engine, Fidelity};
use vgrid_grid::{RunOptions, SchedulerMode};

#[test]
fn all_experiments_bit_identical_under_reference_scheduler() {
    let ids = experiment_ids();
    assert!(ids.len() >= 20, "registry shrank to {} ids", ids.len());

    let run_all = |engine: &Engine| -> Vec<String> {
        ids.iter()
            .map(|id| {
                run_by_id(engine, id, Fidelity::Fast)
                    .expect("known id")
                    .to_json()
            })
            .collect()
    };
    let fast = run_all(&Engine::new());
    let reference = run_all(&Engine::with_options(
        RunOptions::default().scheduler(SchedulerMode::PerQuantumReference),
    ));

    for ((id, f), r) in ids.iter().zip(&fast).zip(&reference) {
        assert_eq!(f, r, "{id}: fast path diverged from per-quantum reference");
    }
}

//! Experiment index: one module per paper artifact.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | fig1 | Fig. 1, 7z guest slowdown | [`fig1`] |
//! | fig2 | Fig. 2, Matrix guest slowdown | [`fig2`] |
//! | fig3 | Fig. 3, IOBench guest slowdown | [`fig3`] |
//! | fig4 | Fig. 4, NetBench absolute Mbps | [`fig4`] |
//! | fig5/fig6/figfp | Figs. 5-6 + omitted FP plot | [`fig56`] |
//! | fig7/fig8 | Figs. 7-8, host 7z under VM load | [`fig78`] |
//! | tab-mem | Section 4.2.1 memory footprint | [`memfoot`] |
//! | abl-* | prose-claim ablations | [`ablations`] |
//! | grid-tradeoff | deployment-scale extension | [`gridx`] |
//! | grid-churn | churn & checkpoint robustness extension | [`gridchurn`] |
//! | timing-method | guest-clock methodology | [`timing`] |
//!
//! Every experiment expresses its measurements as [`crate::engine`]
//! trial specs; the figure modules only translate specs and results to
//! `FigureResult`s. Multi-figure experiments (fig5/fig6/figfp,
//! fig7/fig8) share their simulations through the engine cache, as do
//! ablations that reuse a figure's baseline.

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig78;
pub mod gridchurn;
pub mod gridx;
pub mod memfoot;
pub mod timing;

use crate::engine::Engine;
use crate::figures::FigureResult;
use crate::testbed::Fidelity;

/// Run every figure and table of the paper (not the ablations), in
/// presentation order.
pub fn run_paper_suite(fidelity: Fidelity) -> Vec<FigureResult> {
    let mut out = vec![
        fig1::run(fidelity),
        fig2::run(fidelity),
        fig3::run(fidelity),
        fig4::run(fidelity),
    ];
    let (f5, f6, ffp) = fig56::run(fidelity);
    out.extend([f5, f6, ffp]);
    let (f7, f8) = fig78::run(fidelity);
    out.extend([f7, f8]);
    out.push(memfoot::run());
    out
}

/// Run the ablation suite.
pub fn run_ablation_suite(fidelity: Fidelity) -> Vec<FigureResult> {
    vec![
        ablations::priority_sweep(fidelity),
        ablations::single_core(fidelity),
        ablations::shared_l2(fidelity),
        ablations::bt_tradeoff(fidelity),
        ablations::lzma_depth_sweep(fidelity),
        ablations::quad_core(fidelity),
    ]
}

/// Run the extension experiments (beyond the paper's own evaluation).
pub fn run_extension_suite(fidelity: Fidelity) -> Vec<FigureResult> {
    vec![
        gridx::run(fidelity),
        gridx::image_size_sweep(fidelity),
        gridx::migration_comparison(fidelity),
        timing::run(fidelity),
    ]
}

type Runner = fn(&Engine, Fidelity) -> FigureResult;

fn run_fig5(engine: &Engine, fidelity: Fidelity) -> FigureResult {
    fig56::run_with(engine, fidelity).0
}
fn run_fig6(engine: &Engine, fidelity: Fidelity) -> FigureResult {
    fig56::run_with(engine, fidelity).1
}
fn run_figfp(engine: &Engine, fidelity: Fidelity) -> FigureResult {
    fig56::run_with(engine, fidelity).2
}
fn run_fig7(engine: &Engine, fidelity: Fidelity) -> FigureResult {
    fig78::run_with(engine, fidelity).0
}
fn run_fig8(engine: &Engine, fidelity: Fidelity) -> FigureResult {
    fig78::run_with(engine, fidelity).1
}
fn run_tab_mem(engine: &Engine, _fidelity: Fidelity) -> FigureResult {
    memfoot::run_with(engine)
}

/// The single source of truth for the experiment registry: `(id,
/// runner)` in presentation order. [`experiment_ids`] and [`run_by_id`]
/// both derive from this table, so they cannot drift apart.
const REGISTRY: &[(&str, Runner)] = &[
    ("fig1", fig1::run_with),
    ("fig2", fig2::run_with),
    ("fig3", fig3::run_with),
    ("fig4", fig4::run_with),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("figfp", run_figfp),
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("tab-mem", run_tab_mem),
    ("abl-prio", ablations::priority_sweep_with),
    ("abl-cores", ablations::single_core_with),
    ("abl-l2", ablations::shared_l2_with),
    ("abl-bt", ablations::bt_tradeoff_with),
    ("abl-lzma", ablations::lzma_depth_sweep_with),
    ("abl-quad", ablations::quad_core_with),
    ("grid-tradeoff", gridx::run_with),
    ("grid-image", gridx::image_size_sweep_with),
    ("grid-migration", gridx::migration_comparison_with),
    ("grid-churn", gridchurn::run_with),
    ("timing-method", timing::run_with),
];

/// Every experiment id the registry knows, in presentation order.
pub fn experiment_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|(id, _)| *id).collect()
}

/// Run one experiment by id on `engine` (and so under its
/// `RunOptions`). Multi-figure experiments return the single requested
/// figure. Returns `None` for an unknown id.
pub fn run_by_id(engine: &Engine, id: &str, fidelity: Fidelity) -> Option<FigureResult> {
    REGISTRY
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, runner)| runner(engine, fidelity))
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_by_id(Engine::global(), "fig99", Fidelity::Fast).is_none());
        assert!(run_by_id(Engine::global(), "", Fidelity::Fast).is_none());
    }

    #[test]
    fn every_listed_id_resolves_and_matches() {
        let ids = experiment_ids();
        // Ids are unique...
        for id in &ids {
            assert_eq!(ids.iter().filter(|x| x == &id).count(), 1, "duplicate {id}");
        }
        // ...every listed id runs through `run_by_id` and produces the
        // figure it names (cheap in one test process: the engine cache
        // already holds most trials from the per-module tests)...
        for id in &ids {
            let fig =
                run_by_id(Engine::global(), id, Fidelity::Fast).expect("listed id must resolve");
            assert_eq!(fig.id, *id, "runner for {id} produced {}", fig.id);
        }
        // ...and `run_by_id` knows no ids beyond the listed ones: both
        // derive from REGISTRY, whose length pins the experiment count.
        assert_eq!(ids.len(), REGISTRY.len());
        assert_eq!(ids.len(), 21);
    }
}

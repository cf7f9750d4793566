//! Observability capture for engine runs.
//!
//! [`begin_capture`] arms a process-global capture. While armed, the
//! [`Engine`](crate::engine::Engine) runs sequentially (so publication
//! order is the deterministic job order), every `System` it builds gets
//! an enlarged, fully-enabled trace sink, and each freshly simulated
//! repetition publishes its metrics and trace stream here.
//! [`take_capture`] disarms and returns everything collected;
//! [`run_observed`] wraps an experiment run end to end and renders the
//! run manifest plus the Chrome-trace document.
//!
//! Determinism contract (DESIGN.md §11): everything captured derives
//! from simulation state only — virtual timestamps, seeded RNG streams,
//! event counters. No wall-clock value ever enters a capture, so two
//! same-seed runs render byte-identical artifacts. Trials served from
//! the engine cache are counted (`engine.cache_hits`) but re-publish
//! nothing; within one process the cache state at each publication
//! point is itself deterministic, so the merged snapshot is too.

use std::sync::Mutex;

use crate::engine::{Engine, DEFAULT_BASE_SEED};
use crate::experiments;
use crate::figures::FigureResult;
use crate::testbed::Fidelity;
use vgrid_grid::GridReport;
use vgrid_os::System;
use vgrid_simcore::{SimTime, TraceEvent};
use vgrid_simobs::manifest::config_digest;
use vgrid_simobs::{ChromeTraceBuilder, MetricsRegistry, RunManifest};
use vgrid_vmm::VmHandle;

/// Trace-sink capacity for observed runs. The default sink is sized for
/// debugging tails; observed runs want the whole event stream (drops
/// are still deterministic and surface as `engine.trace_dropped`).
pub(crate) const OBS_TRACE_CAPACITY: usize = 256 * 1024;

/// The trace stream of one simulated repetition.
#[derive(Debug, Clone)]
pub struct TrialTrace {
    /// Label of the owning trial.
    pub label: String,
    /// Seed of this repetition.
    pub seed: u64,
    /// Simulated clock when the repetition ended (span end for the
    /// per-phase profiling track).
    pub sim_end: SimTime,
    /// Events in virtual-time order (the sink preserves emission
    /// order, which is monotone in sim time).
    pub events: Vec<TraceEvent>,
}

/// Everything one observed run collected.
#[derive(Debug, Default)]
pub struct RunCapture {
    /// Merged metric snapshot of every publication.
    pub metrics: MetricsRegistry,
    /// Per-repetition trace streams, in job order.
    pub traces: Vec<TrialTrace>,
    /// Trial labels, in request order (cache hits included).
    pub trial_labels: Vec<String>,
    /// Trial identity strings (engine cache keys), in request order.
    pub trial_keys: Vec<String>,
    /// Fast-forward reuse counters at arm time. The grid's trajectory
    /// cache is process-global; the manifest reports this run's delta,
    /// not the process lifetime totals.
    pub ff_baseline: vgrid_grid::FastForwardStats,
}

static CAPTURE: Mutex<Option<RunCapture>> = Mutex::new(None);

/// Arm the process-global capture, discarding any previous one.
pub fn begin_capture() {
    *CAPTURE.lock().expect("core::obs::CAPTURE poisoned") = Some(RunCapture {
        ff_baseline: vgrid_grid::fastforward::stats(),
        ..RunCapture::default()
    });
}

/// Disarm the capture and return what it collected; `None` when no
/// capture was armed.
pub fn take_capture() -> Option<RunCapture> {
    CAPTURE.lock().expect("core::obs::CAPTURE poisoned").take()
}

/// Whether a capture is currently armed.
pub fn capturing() -> bool {
    CAPTURE
        .lock()
        .expect("core::obs::CAPTURE poisoned")
        .is_some()
}

fn with_capture(f: impl FnOnce(&mut RunCapture)) {
    if let Some(cap) = CAPTURE
        .lock()
        .expect("core::obs::CAPTURE poisoned")
        .as_mut()
    {
        f(cap);
    }
}

/// Record one trial request (called by the engine for every spec,
/// cached or not).
pub(crate) fn note_trial(label: &str, key: &str, cached: bool) {
    with_capture(|cap| {
        cap.trial_labels.push(label.to_string());
        cap.trial_keys.push(key.to_string());
        cap.metrics.counter_add("engine.trials", 1);
        cap.metrics.counter_add(
            if cached {
                "engine.cache_hits"
            } else {
                "engine.cache_misses"
            },
            1,
        );
    });
}

/// Publish one completed `System`-backed repetition: OS metrics, the
/// VM's exit counters when one was involved, and the trace stream.
pub(crate) fn observe_system_run(label: &str, seed: u64, sys: &System, vm: Option<&VmHandle>) {
    with_capture(|cap| {
        sys.publish_metrics(&mut cap.metrics);
        if let Some(vm) = vm {
            vm.publish_metrics(&mut cap.metrics);
        }
        cap.metrics.counter_add("engine.reps", 1);
        cap.metrics
            .counter_add("engine.trace_dropped", sys.trace.dropped());
        cap.traces.push(TrialTrace {
            label: label.to_string(),
            seed,
            sim_end: sys.now(),
            events: sys.trace.events().cloned().collect(),
        });
    });
}

/// Publish one completed grid campaign repetition (the campaign
/// simulator has no `System`/trace sink; its report carries the
/// counters).
pub(crate) fn observe_campaign_run(label: &str, seed: u64, report: &GridReport) {
    with_capture(|cap| {
        report.publish_metrics(&mut cap.metrics);
        cap.metrics.counter_add("engine.reps", 1);
        cap.traces.push(TrialTrace {
            label: label.to_string(),
            seed,
            sim_end: SimTime::from_secs_f64(report.makespan_secs),
            events: Vec::new(),
        });
    });
}

/// A completed observed run: the figure plus both rendered artifacts.
#[derive(Debug)]
pub struct ObservedRun {
    /// The experiment's figure result (what `vgrid run` prints).
    pub figure: FigureResult,
    /// The run manifest document (`--metrics-json`).
    pub manifest_json: String,
    /// The Chrome-trace document (`vgrid trace`).
    pub trace_json: String,
}

fn fidelity_name(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Fast => "fast",
        Fidelity::Paper => "paper",
    }
}

/// Bench scenarios (`BENCH_engine.json`) exercising the same simulation
/// substrate as an experiment, for cross-referencing regressions.
fn bench_links(id: &str) -> Vec<String> {
    let links: &[&str] = match id {
        "fig1" => &[
            "fig1_substrate",
            "fig1_substrate_fast",
            "fig1_substrate_reference",
        ],
        "fig7" | "fig8" => &["fig7_substrate"],
        _ => &[],
    };
    links.iter().map(|s| s.to_string()).collect()
}

/// Run an experiment by id on `engine` with observation enabled;
/// returns the figure plus rendered manifest and trace documents, or
/// `None` for an unknown id. Output is a pure function of `(id,
/// fidelity, engine options, engine cache state)`; a fresh engine
/// renders byte-identical documents for the same invocation.
pub fn run_observed(engine: &Engine, id: &str, fidelity: Fidelity) -> Option<ObservedRun> {
    begin_capture();
    let figure = experiments::run_by_id(engine, id, fidelity);
    let cap = take_capture().unwrap_or_default();
    let figure = figure?;

    let mut metrics = cap.metrics;
    let hits = metrics.counter("os.cache.contention_hits") as f64;
    let misses = metrics.counter("os.cache.contention_misses") as f64;
    if hits + misses > 0.0 {
        // Derived once at snapshot time from merged counters — rates
        // are never merged (they do not compose additively).
        metrics.gauge_add("os.cache.contention_hit_rate", hits / (hits + misses));
    }
    // Engine trial-cache hit rate, derived the same way.
    let ehits = metrics.counter("engine.cache_hits") as f64;
    let emisses = metrics.counter("engine.cache_misses") as f64;
    if ehits + emisses > 0.0 {
        metrics.gauge_add("engine.cache_hit_rate", ehits / (ehits + emisses));
    }
    // Grid fast-forward reuse: this run's delta over the process-global
    // trajectory cache (zero rows are omitted so non-grid experiments
    // render unchanged).
    let ff = vgrid_grid::fastforward::stats();
    let base = cap.ff_baseline;
    let traj_hits = ff.trajectory_hits - base.trajectory_hits;
    let traj_misses = ff.trajectory_misses - base.trajectory_misses;
    if traj_hits + traj_misses > 0 {
        metrics.counter_add("grid.fastforward.trajectory_hits", traj_hits);
        metrics.counter_add("grid.fastforward.trajectory_misses", traj_misses);
        metrics.gauge_add(
            "grid.fastforward.trajectory_hit_rate",
            traj_hits as f64 / (traj_hits + traj_misses) as f64,
        );
    }

    let manifest = RunManifest {
        experiment: id.to_string(),
        fidelity: fidelity_name(fidelity).to_string(),
        scheduler_mode: engine.options().scheduler.name().to_string(),
        seed: DEFAULT_BASE_SEED,
        config_digest: config_digest(&cap.trial_keys),
        trials: cap.trial_labels,
        bench_links: bench_links(id),
        metrics,
    };

    let mut trace = ChromeTraceBuilder::new();
    for (i, t) in cap.traces.iter().enumerate() {
        let pid = (i + 1) as u32;
        trace.add_trial(pid, &format!("{} [seed {:#018x}]", t.label, t.seed));
        trace.add_phase_span(pid, "run", SimTime::ZERO, t.sim_end);
        for ev in &t.events {
            trace.add_event(pid, ev);
        }
    }

    Some(ObservedRun {
        figure,
        manifest_json: manifest.render_json(),
        trace_json: trace.render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_round_trip() {
        begin_capture();
        assert!(capturing());
        note_trial("t", "key", false);
        let cap = take_capture().expect("armed");
        assert!(!capturing());
        assert_eq!(cap.trial_labels, vec!["t".to_string()]);
        assert_eq!(cap.metrics.counter("engine.cache_misses"), 1);
        assert!(take_capture().is_none());
    }

    #[test]
    fn observed_run_is_repeatable_in_process() {
        // Campaign trials bypass the engine cache-publication subtlety
        // only partially; fig1 exercises the System path. Two observed
        // runs in one process differ only through cache hits, which the
        // manifest records — so compare a cache-cold run against itself.
        let a = run_observed(Engine::global(), "fig1", Fidelity::Fast).expect("fig1 exists");
        assert!(a.manifest_json.contains("\"experiment\":\"fig1\""));
        assert!(a.manifest_json.contains("\"scheduler_mode\":\"coalesced\""));
        assert!(a.trace_json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(a.manifest_json.ends_with("\n"));
    }

    #[test]
    fn unknown_id_disarms_capture() {
        assert!(run_observed(Engine::global(), "not-an-experiment", Fidelity::Fast).is_none());
        assert!(!capturing());
    }
}

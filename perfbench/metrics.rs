//! Turning measured sessions into the benchmark's metrics. The names
//! produced here are exactly the names `BENCHMARK.json` lists (checked
//! at run time and by the tests).

use crate::stats::{lowest, median, percentile};
use crate::trace::{covered_ns, Span};
use std::collections::BTreeMap;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// What one session of a workload measured: a fresh program process
/// doing one unit of the workload's work.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Spans were recorded around the layer calls.
    pub traced: bool,
    /// From starting input generation to the program being ready.
    pub setup_s: f64,
    /// Wall time of the session's work.
    pub wall_s: f64,
    /// Latency of each user-visible call the session made.
    pub call_ms: Vec<f64>,
    /// Peak resident set of the program process.
    pub rss_kb: f64,
    /// CPU time of the program process.
    pub cpu_s: f64,
    /// Digest of the session's output.
    pub digest: u64,
    /// Layer counters (see [`COUNTERS`]) and helper totals.
    pub counters: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

/// Span names whose share of their root span is reported as
/// `<name>_share`: the 17 calls of the paper report, and the four
/// stages of one campaign request.
pub const SHARE_SPANS: &[&str] = &[
    "core.exp.fig1",
    "core.exp.fig2",
    "core.exp.fig3",
    "core.exp.fig4",
    "core.exp.fig56",
    "core.exp.fig78",
    "core.exp.tab-mem",
    "core.exp.abl-prio",
    "core.exp.abl-cores",
    "core.exp.abl-l2",
    "core.exp.abl-bt",
    "core.exp.abl-lzma",
    "core.exp.abl-quad",
    "core.exp.grid-tradeoff",
    "core.exp.grid-image",
    "core.exp.grid-migration",
    "core.exp.timing-method",
    "wire.parse",
    "grid.build",
    "grid.run",
    "wire.render",
];

/// Layer counts the traced program processes report; a workload that
/// bypasses a layer reports none and reads 0.
pub const COUNTERS: &[&str] = &[
    "os.events_handled",
    "os.quantum_events",
    "os.events_coalesced",
    "os.sim_s",
    "machine.memo_hits",
    "machine.memo_misses",
    "grid.results_returned",
    "grid.fault_transitions",
    "grid.reissues",
    "grid.archetypes",
    "grid.hydration_windows",
    "grid.hydrations",
    "grid.hydration_memo_hits",
    "grid.migrations",
    "grid.evacuations",
    "grid.ff.segment_hits",
    "grid.ff.segment_misses",
    "grid.ff.trajectory_hits",
    "grid.ff.trajectory_misses",
    "serve.requests",
    "serve.cache_cross_hits",
];

/// Host-days simulated by the grid runs of a session (helper total for
/// `grid.host_days_per_s`, not reported itself).
pub const HOST_DAYS: &str = "grid.host_days";

/// Layer probes: fixed-input timings run once per traced run, after
/// the workload's root spans have closed.
pub const PROBES: &[&str] = &[
    "workloads.nbench_characterize_s",
    "workloads.sevenz_characterize_s",
    "core.specs_s",
    "serve.health_rtt_ms",
];

/// Client request span of the served mix.
pub const REQUEST_SPAN: &str = "serve.request";

/// Percentile reported as `latency_tail_ms` for a session of `n` calls:
/// 95, lowered for sessions of fewer than 200 calls to the highest
/// percentile that still leaves ten calls above it, and never below the
/// median.
pub fn tail_percentile(n: usize) -> f64 {
    (100.0 * (1.0 - 10.0 / n as f64)).clamp(50.0, 95.0)
}

/// The untraced metrics: set-up time as the median over every set-up
/// sample and memory as the median over untraced sessions. Timings come
/// from the least-disturbed untraced session: the lowest session wall
/// time, and the lowest per-session median and tail call latency. A
/// shared host slows whole stretches of a run, so a run's median drifts
/// with the host while its fastest session stays near what the program
/// itself costs.
pub fn end_to_end(sessions: &[Session], setup_probes: &[f64]) -> Metrics {
    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let setups: Vec<f64> = setup_probes
        .iter()
        .copied()
        .chain(sessions.iter().map(|s| s.setup_s))
        .collect();
    let col = |f: &dyn Fn(&Session) -> f64| untraced.iter().map(|s| f(s)).collect::<Vec<_>>();
    let calls = |s: &Session, p: f64| percentile(&s.call_ms, p);
    Metrics::from([
        ("setup_s".into(), median(&setups)),
        ("wall_s".into(), lowest(&col(&|s| s.wall_s))),
        ("latency_p50_ms".into(), lowest(&col(&|s| calls(s, 50.0)))),
        (
            "latency_tail_ms".into(),
            lowest(&col(&|s| calls(s, tail_percentile(s.call_ms.len())))),
        ),
        (
            "peak_rss_mb".into(),
            median(&col(&|s| s.rss_kb)) * 1024.0 / 1e6,
        ),
    ])
}

fn roots(spans: &[Span]) -> impl Iterator<Item = usize> + '_ {
    (0..spans.len()).filter(|&i| spans[i].parent.is_none())
}

fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced metrics. `sessions` mixes untraced sessions (process
/// figures, overhead baseline) with traced ones (spans, counters);
/// `replay` is the served mix's in-process replay; `probes` holds the
/// [`PROBES`] timings.
pub fn per_layer(sessions: &[Session], replay: Option<&Session>, probes: &Metrics) -> Metrics {
    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    let groups: Vec<&Session> = traced.iter().copied().chain(replay).collect();
    let col = |v: &[&Session], f: &dyn Fn(&Session) -> f64| {
        median(&v.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let mut m = Metrics::new();

    m.insert("proc.cpu_s".into(), col(&untraced, &|s| s.cpu_s));
    m.insert(
        "proc.cpu_per_wall".into(),
        col(&untraced, &|s| s.cpu_s / s.wall_s),
    );
    m.insert(
        "trace.wall_s".into(),
        col(&traced, &|s| {
            roots(&s.spans).map(|r| secs(s.spans[r].dur_ns())).sum()
        }),
    );
    m.insert(
        "trace.overhead".into(),
        col(&traced, &|s| s.wall_s) / col(&untraced, &|s| s.wall_s) - 1.0,
    );
    let (mut covered, mut total) = (0, 0);
    for g in &groups {
        for r in roots(&g.spans) {
            covered += covered_ns(&g.spans, r);
            total += g.spans[r].dur_ns();
        }
    }
    m.insert("trace.coverage".into(), ratio(covered as f64, total as f64));

    // Per group: summed duration of each span name, and of the roots
    // that contain it.
    let named = |g: &Session, name: &str| -> (u64, u64) {
        let mut rs = Vec::new();
        let mut dur = 0;
        for (i, s) in g.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            dur += s.dur_ns();
            let r = root_of(&g.spans, i);
            if !rs.contains(&r) {
                rs.push(r);
            }
        }
        (dur, rs.iter().map(|&r| g.spans[r].dur_ns()).sum())
    };
    for name in SHARE_SPANS {
        let (num, den) = groups
            .iter()
            .map(|g| named(g, name))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
        m.insert(format!("{name}_share"), ratio(num as f64, den as f64));
    }
    let layer_s = |name: &str| {
        let per: Vec<f64> = groups
            .iter()
            .map(|g| named(g, name).0)
            .filter(|&ns| ns > 0)
            .map(secs)
            .collect();
        if per.is_empty() {
            0.0
        } else {
            median(&per)
        }
    };

    // Mean client latency of a served request over the mean in-process
    // cost of the same request: what HTTP, queueing and sharing the
    // cores add to the campaign work itself.
    let client: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.spans.iter().filter(|x| x.name == REQUEST_SPAN))
        .map(|x| secs(x.dur_ns()))
        .collect();
    let compute = replay.map_or((0.0, 0), |r| {
        let stages = ["wire.parse", "grid.build", "grid.run", "wire.render"];
        let total = stages.iter().map(|n| secs(named(r, n).0)).sum::<f64>();
        let n = r.spans.iter().filter(|s| s.name == "wire.parse").count();
        (total, n)
    });
    m.insert(
        "serve.latency_per_compute".into(),
        ratio(
            ratio(client.iter().sum(), client.len() as f64),
            ratio(compute.0, compute.1 as f64),
        ),
    );

    let counter = |name: &str| {
        let vals: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.counters.get(name).copied())
            .collect();
        if !vals.is_empty() {
            median(&vals)
        } else {
            replay
                .and_then(|r| r.counters.get(name).copied())
                .unwrap_or(0.0)
        }
    };
    for name in COUNTERS {
        m.insert(name.to_string(), counter(name));
    }
    let c = |k: &str| m[k];
    let derived = [
        (
            "os.host_ns_per_event",
            ratio(c("trace.wall_s") * 1e9, c("os.events_handled")),
        ),
        (
            "machine.memo_hit_ratio",
            ratio(
                c("machine.memo_hits"),
                c("machine.memo_hits") + c("machine.memo_misses"),
            ),
        ),
        (
            "grid.host_days_per_s",
            ratio(counter(HOST_DAYS), layer_s("grid.run")),
        ),
        (
            "grid.us_per_transition",
            ratio(
                layer_s("grid.run") * 1e6,
                c("grid.results_returned") + c("grid.fault_transitions"),
            ),
        ),
        (
            "serve.cross_hit_ratio",
            ratio(c("serve.cache_cross_hits"), c("serve.requests")),
        ),
    ];
    for (k, v) in derived {
        m.insert(k.to_string(), v);
    }
    for name in PROBES {
        m.insert(
            name.to_string(),
            probes.get(*name).copied().unwrap_or(f64::NAN),
        );
    }
    m
}

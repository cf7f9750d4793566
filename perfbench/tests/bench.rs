//! Contract tests for the benchmark definition, the input generators,
//! the metric set and the `compare` verdicts.

use std::collections::BTreeSet;
use vgrid_grid::wire;
use vgrid_perfbench::compare::{self, verdict, RunRecord, Verdict};
use vgrid_perfbench::gen::{self, INPUTS, SERVE_REQUESTS_PER_TENANT, SERVE_TENANTS};
use vgrid_perfbench::json::{self, Json};
use vgrid_perfbench::metrics::{self, Metrics, Session, COUNTERS, HOST_DAYS, PROBES, REQUEST_SPAN};
use vgrid_perfbench::spec::{BenchSpec, Better, MetricDef, BENCHMARK_JSON};
use vgrid_perfbench::trace::Span;
use vgrid_perfbench::Workload;

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_follows_the_schema() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let spec = BenchSpec::embedded();
    assert!((1..=60).contains(&spec.run_seconds));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    for w in doc.get("workloads").and_then(Json::as_array).unwrap() {
        let why = w
            .get("why")
            .and_then(Json::as_str)
            .expect("every workload says why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        assert_eq!(w.as_object().unwrap().len(), 2);
    }
    let mut seen = BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?}",
            m.unit
        );
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    let max = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
}

#[test]
fn serve_bodies_are_seeded_and_valid() {
    let a = gen::serve_bodies(1, 0);
    assert_eq!(a, gen::serve_bodies(1, 0));
    assert_eq!(a, gen::serve_bodies(1, INPUTS));
    assert_ne!(a, gen::serve_bodies(1, 1));
    assert_ne!(a, gen::serve_bodies(7, 0));
    assert_eq!(a.len(), SERVE_TENANTS);
    assert!(a.iter().all(|t| t.len() == SERVE_REQUESTS_PER_TENANT));
    let mut warm = BTreeSet::new();
    let mut reused = 0;
    for body in a.iter().flatten() {
        assert_eq!(body.len(), body.trim().len());
        assert!(!body.contains('\n'), "bodies travel one per line");
        let req = wire::parse_request(body).unwrap_or_else(|e| panic!("{e}: {body}"));
        req.spec
            .clone()
            .build()
            .expect("every served spec is a valid campaign");
        if !warm.insert(wire::warm_key(&req.spec)) {
            reused += 1;
        }
    }
    assert!(
        reused > 0,
        "some requests share warm state with earlier ones"
    );
}

#[test]
fn grid_requests_are_seeded_and_valid() {
    for w in Workload::ALL {
        let Some(body) = gen::grid_request(w, 1, 0) else {
            assert!(matches!(w, Workload::PaperReport | Workload::ServeMix));
            continue;
        };
        assert_eq!(Some(body.clone()), gen::grid_request(w, 1, 0));
        assert_eq!(Some(body.clone()), gen::grid_request(w, 1, INPUTS));
        assert_ne!(Some(body.clone()), gen::grid_request(w, 1, 1));
        assert_ne!(Some(body.clone()), gen::grid_request(w, 7, 0));
        let req = wire::parse_request(&body).unwrap_or_else(|e| panic!("{w:?}: {e}"));
        assert_eq!(
            req.spec.deploy.migration.is_off(),
            w != Workload::GridMigrate
        );
        req.spec.build().expect("valid campaign");
    }
}

fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: name.to_string(),
        parent,
        start_ns,
        end_ns,
        tid: 0,
    }
}

fn names(m: &Metrics) -> BTreeSet<&str> {
    m.keys().map(String::as_str).collect()
}

fn defined(defs: &[MetricDef]) -> BTreeSet<&str> {
    defs.iter().map(|d| d.name.as_str()).collect()
}

#[test]
fn emitted_metric_sets_equal_benchmark_json() {
    let spec = BenchSpec::embedded();
    let untraced = Session {
        setup_s: 0.001,
        wall_s: 1.0,
        call_ms: vec![900.0, 950.0],
        rss_kb: 1000.0,
        cpu_s: 0.9,
        digest: 1,
        ..Session::default()
    };
    let e2e = metrics::end_to_end(std::slice::from_ref(&untraced), &[0.002]);
    assert_eq!(names(&e2e), defined(&spec.end_to_end));
    assert!((e2e["setup_s"] - 0.0015).abs() < 1e-15);
    // Two calls: the tail falls back to the median.
    assert_eq!(e2e["latency_tail_ms"], 900.0);
    // Timings come from the least-disturbed session, each on its own;
    // memory is the median session.
    let slower = Session {
        wall_s: 1.5,
        call_ms: (1..=40).map(|i| 800.0 + i as f64).collect(),
        rss_kb: 3000.0,
        ..untraced.clone()
    };
    let e2e = metrics::end_to_end(&[slower, untraced.clone()], &[]);
    assert_eq!(e2e["wall_s"], 1.0);
    assert_eq!(e2e["latency_p50_ms"], 820.0);
    // The slower session's 75th percentile (30th of 40 calls).
    assert_eq!(e2e["latency_tail_ms"], 830.0);
    assert_eq!(e2e["peak_rss_mb"], 2000.0 * 1024.0 / 1e6);
    let tails: Vec<f64> = [2, 20, 40, 200, 2000]
        .into_iter()
        .map(metrics::tail_percentile)
        .collect();
    assert_eq!(tails, [50.0, 50.0, 75.0, 95.0, 95.0]);

    let mut traced = Session {
        traced: true,
        wall_s: 1.1,
        spans: vec![
            span("serve_mix", None, 0, 1000),
            span(REQUEST_SPAN, Some(0), 0, 600),
            span(REQUEST_SPAN, Some(0), 500, 1000),
        ],
        ..untraced.clone()
    };
    for c in COUNTERS.iter().chain([&HOST_DAYS]) {
        traced.counters.insert(c.to_string(), 10.0);
    }
    let replay = Session {
        traced: true,
        spans: vec![
            span("serve_mix.replay", None, 0, 100),
            span("wire.parse", Some(0), 0, 10),
            span("grid.build", Some(0), 10, 20),
            span("grid.run", Some(0), 20, 90),
            span("wire.render", Some(0), 90, 95),
        ],
        ..Session::default()
    };
    let probes: Metrics = PROBES.iter().map(|p| (p.to_string(), 0.5)).collect();
    let layer = metrics::per_layer(&[untraced, traced], Some(&replay), &probes);
    assert_eq!(names(&layer), defined(&spec.per_layer));
    assert!(layer.values().all(|v| v.is_finite()), "{layer:?}");
    // Coverage over both roots: (1000 + 95) of (1000 + 100) ns.
    assert_eq!(layer["trace.coverage"], 1095.0 / 1100.0);
    assert_eq!(layer["grid.run_share"], 0.7);
    assert!((layer["trace.overhead"] - 0.1).abs() < 1e-12);
    // Mean client request (550 ns) over mean replayed compute (95 ns).
    assert!((layer["serve.latency_per_compute"] - 550.0 / 95.0).abs() < 1e-9);
}

fn def(better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: "m".into(),
        unit: "s".into(),
        better,
        bound: Some(bound),
    }
}

#[test]
fn compare_verdicts() {
    let lower = def(Better::Lower, 0.1);
    let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98];
    let scaled = |k: f64| base.iter().map(|v| v * k).collect::<Vec<_>>();
    assert_eq!(verdict(&lower, &base, &scaled(1.0)), Verdict::WithinBound);
    assert_eq!(verdict(&lower, &base, &scaled(1.05)), Verdict::WithinBound);
    assert_eq!(verdict(&lower, &base, &scaled(1.2)), Verdict::Worse);
    assert_eq!(verdict(&lower, &base, &scaled(0.9)), Verdict::Better);
    // A higher-is-better metric reads the same change the other way.
    let higher = def(Better::Higher, 0.1);
    assert_eq!(verdict(&higher, &base, &scaled(1.2)), Verdict::Better);
    assert_eq!(verdict(&higher, &base, &scaled(0.8)), Verdict::Worse);
    // Too few runs, or a spread wider than the bound, cannot decide.
    assert_eq!(verdict(&lower, &[1.0], &scaled(2.0)), Verdict::Unresolved);
    let noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.3];
    assert_eq!(verdict(&lower, &base, &noisy), Verdict::Unresolved);
    assert_eq!(verdict(&lower, &noisy, &scaled(3.0)), Verdict::Unresolved);
}

#[test]
fn compare_reads_records_and_flags_digest_changes() {
    let spec = BenchSpec::embedded();
    let record = |seed: u64, wall: f64, digest: &str| RunRecord {
        workload: "grid_churn".into(),
        seed,
        trace: false,
        correct: true,
        digest: digest.into(),
        metrics: [("wall_s".to_string(), wall)].into_iter().collect(),
    };
    let a: Vec<RunRecord> = (1..=5)
        .map(|s| record(s, 1.0 + s as f64 * 0.001, "aa"))
        .collect();
    let text: String = a.iter().map(|r| r.to_json() + "\n").collect();
    assert_eq!(compare::read_records(&text).unwrap(), a);

    let b: Vec<RunRecord> = (1..=5)
        .map(|s| record(s, 1.5 + s as f64 * 0.001, "aa"))
        .collect();
    let (report, bad) = compare::report(&spec, &a, &b);
    assert!(
        bad && report.contains("grid_churn wall_s") && report.contains("Worse"),
        "{report}"
    );

    let mut c = a.clone();
    c[2].digest = "bb".into();
    let (report, bad) = compare::report(&spec, &a, &c);
    assert!(
        bad && report.contains("grid_churn seed 3 DIGEST DIFFERS"),
        "{report}"
    );
    assert!(report.contains("WithinBound"), "{report}");
}

//! The program side of a session: each function here runs in a fresh
//! process started by the runner (`vgrid-perfbench child <mode>`), reads
//! its generated input on stdin, prints `ready`, does its work and
//! reports on stdout one `key value` line per measurement.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, Read, Write};
use std::time::Instant;
use vgrid_core::experiments::{
    self, ablations, fig1, fig2, fig3, fig4, fig56, fig78, gridx, memfoot, timing,
};
use vgrid_core::{calibration, loop_totals, Fidelity, FigureResult};
use vgrid_grid::{fastforward, wire, CampaignResult, CampaignSpec, GridReport};
use vgrid_perfbench::metrics::HOST_DAYS;
use vgrid_perfbench::trace::Recorder;
use vgrid_perfbench::{fnv1a64, now, Workload};
use vgrid_serve::{ServeConfig, Server};
use vgrid_workloads::nbench::NBenchSuite;
use vgrid_workloads::sevenz::{SevenZConfig, SevenZKernel};

/// The report whose figures the paper workload must reproduce verbatim.
const EXPERIMENTS_MD: &str = include_str!("../EXPERIMENTS.md");

type ReportCall = (&'static str, fn(Fidelity) -> Vec<FigureResult>);

/// The experiment calls of `vgrid-report --paper`, in its order: those
/// of the paper suite, the ablation suite and the extension suite.
const REPORT_CALLS: [ReportCall; 17] = [
    ("fig1", |f| vec![fig1::run(f)]),
    ("fig2", |f| vec![fig2::run(f)]),
    ("fig3", |f| vec![fig3::run(f)]),
    ("fig4", |f| vec![fig4::run(f)]),
    ("fig56", |f| {
        let (a, b, c) = fig56::run(f);
        vec![a, b, c]
    }),
    ("fig78", |f| {
        let (a, b) = fig78::run(f);
        vec![a, b]
    }),
    ("tab-mem", |_| vec![memfoot::run()]),
    ("abl-prio", |f| vec![ablations::priority_sweep(f)]),
    ("abl-cores", |f| vec![ablations::single_core(f)]),
    ("abl-l2", |f| vec![ablations::shared_l2(f)]),
    ("abl-bt", |f| vec![ablations::bt_tradeoff(f)]),
    ("abl-lzma", |f| vec![ablations::lzma_depth_sweep(f)]),
    ("abl-quad", |f| vec![ablations::quad_core(f)]),
    ("grid-tradeoff", |f| vec![gridx::run(f)]),
    ("grid-image", |f| vec![gridx::image_size_sweep(f)]),
    ("grid-migration", |f| vec![gridx::migration_comparison(f)]),
    ("timing-method", |f| vec![timing::run(f)]),
];

/// Figures of the paper suite proper (the calibration table's input):
/// the calls up to and including `tab-mem`.
const PAPER_SUITE_CALLS: usize = 7;

/// What a batch session measured and checked.
struct Outcome {
    /// Wall time of the user's one call: the report (run and render) or
    /// the campaign request. Output checks run after it.
    call_s: f64,
    digest: u64,
    /// `None` when every output check passed.
    problem: Option<String>,
    counters: Vec<(String, f64)>,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn read_stdin() -> String {
    let mut input = String::new();
    io::stdin()
        .read_to_string(&mut input)
        .expect("session input on stdin");
    input
}

fn ready() {
    let mut out = io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .expect("stdout");
}

/// `kB` value of one `/proc/<pid>/status` line, e.g. `VmHWM`.
pub fn status_kb(pid: &str, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':').map(str::to_string))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// User plus system CPU seconds of a process (`/proc/<pid>/stat`
/// counts in USER_HZ = 100 ticks per second on Linux).
pub fn cpu_secs(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

fn ff_counters(before: fastforward::FastForwardStats) -> Vec<(String, f64)> {
    let s = fastforward::stats();
    vec![
        (
            "grid.ff.segment_hits".into(),
            (s.segment_hits - before.segment_hits) as f64,
        ),
        (
            "grid.ff.segment_misses".into(),
            (s.segment_misses - before.segment_misses) as f64,
        ),
        (
            "grid.ff.trajectory_hits".into(),
            (s.trajectory_hits - before.trajectory_hits) as f64,
        ),
        (
            "grid.ff.trajectory_misses".into(),
            (s.trajectory_misses - before.trajectory_misses) as f64,
        ),
    ]
}

/// The report at paper fidelity. Untraced, it makes the three suite
/// calls of `vgrid-report --paper`; traced, it makes the experiment calls
/// those suites make, one span each.
fn paper_report(rec: &mut Recorder, traced: bool) -> Outcome {
    let start = now();
    let root = rec.open(Workload::PaperReport.name(), None);
    let ff_before = fastforward::stats();
    let p = Fidelity::Paper;
    let (figures, paper_figures) = if traced {
        let mut figures = Vec::new();
        let mut paper_figures = 0;
        for (i, (id, call)) in REPORT_CALLS.iter().enumerate() {
            let t = now();
            figures.extend(call(p));
            rec.push(&format!("core.exp.{id}"), Some(root), t, now(), 0);
            if i < PAPER_SUITE_CALLS {
                paper_figures = figures.len();
            }
        }
        (figures, paper_figures)
    } else {
        let mut figures = experiments::run_paper_suite(p);
        let paper_figures = figures.len();
        figures.extend(experiments::run_ablation_suite(p));
        figures.extend(experiments::run_extension_suite(p));
        (figures, paper_figures)
    };
    let calibration =
        calibration::render_markdown(&calibration::collect(&figures[..paper_figures]));
    let rendered: Vec<String> = figures.iter().map(FigureResult::render).collect();
    rec.close(root);
    let call_s = secs_since(start);

    let mut problem = None;
    if !EXPERIMENTS_MD.contains(&calibration) {
        problem = Some("calibration table differs from EXPERIMENTS.md".to_string());
    }
    for (fig, text) in figures.iter().zip(&rendered) {
        if !EXPERIMENTS_MD.contains(&format!("```text\n{text}```\n")) {
            problem = Some(format!("figure {} differs from EXPERIMENTS.md", fig.id));
        }
    }
    let totals = loop_totals();
    let mut counters = vec![
        ("os.events_handled".into(), totals.events_handled as f64),
        ("os.quantum_events".into(), totals.quantum_events as f64),
        (
            "os.events_coalesced".into(),
            totals.events_coalesced() as f64,
        ),
        ("os.sim_s".into(), totals.sim_seconds),
        ("machine.memo_hits".into(), totals.memo_hits as f64),
        ("machine.memo_misses".into(), totals.memo_misses as f64),
    ];
    counters.extend(ff_counters(ff_before));
    Outcome {
        call_s,
        digest: fnv1a64((rendered.concat() + &calibration).as_bytes()),
        problem,
        counters,
    }
}

/// Grid counters of one campaign, summed over its repetitions.
fn grid_counters(result: &CampaignResult, spec: &CampaignSpec) -> Vec<(String, f64)> {
    let sum = |f: fn(&GridReport) -> u64| result.reports().iter().map(f).sum::<u64>() as f64;
    let host_days = spec.pool.volunteers as f64 * spec.horizon.as_secs_f64() / 86_400.0;
    vec![
        ("grid.results_returned".into(), sum(|r| r.results_returned)),
        (
            "grid.fault_transitions".into(),
            sum(|r| r.fault_transitions),
        ),
        ("grid.reissues".into(), sum(|r| r.reissues)),
        (
            "grid.archetypes".into(),
            sum(|r| r.archetype_hosts.len() as u64),
        ),
        (
            "grid.hydration_windows".into(),
            sum(|r| r.hydration.windows),
        ),
        ("grid.hydrations".into(), sum(|r| r.hydration.hydrations)),
        (
            "grid.hydration_memo_hits".into(),
            sum(|r| r.hydration.memo_hits),
        ),
        ("grid.migrations".into(), sum(|r| r.migrations)),
        ("grid.evacuations".into(), sum(|r| r.evacuations)),
        (HOST_DAYS.into(), host_days * result.reports().len() as f64),
    ]
}

/// `run_request_json` as four spans: parse, build, run and render.
fn traced_request(
    rec: &mut Recorder,
    root: usize,
    body: &str,
) -> Result<(String, Vec<(String, f64)>), wire::WireError> {
    let req = rec.time("wire.parse", root, || wire::parse_request(body))?;
    let campaign = rec.time("grid.build", root, || req.spec.clone().build())?;
    let result = rec.time("grid.run", root, || campaign.run_with(&req.options));
    let manifest = rec.time("wire.render", root, || {
        wire::render_response(&req.spec, &req.options, &result)
    });
    Ok((manifest, grid_counters(&result, &req.spec)))
}

/// The `report_digest` of a campaign manifest, or what is wrong with it.
pub fn manifest_digest(manifest: &str) -> Result<u64, String> {
    let doc = vgrid_perfbench::json::parse(manifest)?;
    let field = |k: &str| doc.get(k).and_then(|v| v.as_str());
    if field("schema") != Some(wire::RESPONSE_SCHEMA) {
        return Err(format!("not a campaign manifest: {manifest}"));
    }
    field("report_digest")
        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| "manifest without report_digest".to_string())
}

fn grid_campaign(w: Workload, rec: &mut Recorder, traced: bool, body: &str) -> Outcome {
    let ff_before = fastforward::stats();
    let start = now();
    let root = rec.open(w.name(), None);
    let result = if traced {
        traced_request(rec, root, body)
    } else {
        wire::run_request_json(body).map(|m| (m, Vec::new()))
    };
    rec.close(root);
    let call_s = secs_since(start);
    let checked = result
        .map_err(|e| e.to_string())
        .and_then(|(m, mut counters)| {
            counters.extend(ff_counters(ff_before));
            manifest_digest(&m).map(|d| (d, counters))
        });
    match checked {
        Ok((digest, counters)) => Outcome {
            call_s,
            digest,
            problem: None,
            counters,
        },
        Err(e) => Outcome {
            call_s,
            digest: 0,
            problem: Some(e),
            counters: Vec::new(),
        },
    }
}

/// `child batch <workload> <0|1>`: one session of a batch workload.
pub fn batch(w: Workload, traced: bool) {
    let body = read_stdin();
    ready();
    let mut rec = Recorder::new(now());
    let outcome = match w {
        Workload::PaperReport => paper_report(&mut rec, traced),
        _ => grid_campaign(w, &mut rec, traced, &body),
    };
    let mut lines = vec![
        format!("wall_s {}", outcome.call_s),
        format!("call_ms {}", outcome.call_s * 1e3),
        format!("digest {:x}", outcome.digest),
        check_line(outcome.problem.as_deref()),
        format!("rss_kb {}", status_kb("self", "VmHWM")),
        format!("cpu_s {}", cpu_secs("self")),
    ];
    if traced {
        lines.extend(
            outcome
                .counters
                .iter()
                .map(|(k, v)| format!("count {k} {v}")),
        );
        lines.extend(rec.into_spans().iter().map(|s| s.to_line()));
    }
    emit(&lines);
}

fn check_line(problem: Option<&str>) -> String {
    match problem {
        None => "check ok".to_string(),
        Some(p) => format!("check {}", p.replace('\n', " ")),
    }
}

fn emit(lines: &[String]) {
    let mut out = io::stdout().lock();
    for l in lines {
        writeln!(out, "{l}").expect("stdout");
    }
}

/// `child ready`: the set-up probe — start, take the input, be ready.
pub fn ready_probe() {
    black_box(read_stdin());
    ready();
}

/// `child serve`: a `vgrid serve --workers 2` server on a free port;
/// prints `addr <host:port>` once listening.
pub fn serve() {
    let cfg = ServeConfig {
        addr: "127.0.0.1".to_string(),
        port: 0,
        workers: 2,
    };
    let server = Server::bind(&cfg).expect("bind the benchmark server");
    let addr = server.local_addr().expect("bound address");
    {
        let mut out = io::stdout().lock();
        writeln!(out, "addr {addr}")
            .and_then(|_| out.flush())
            .expect("stdout");
    }
    server.run().expect("serve until shutdown");
}

/// `child replay`: the served mix in-process. Stdin holds one
/// `tenant index body` line per request; they run tenant-interleaved
/// under one root span, each as the four request spans.
pub fn replay() {
    let mut reqs: Vec<(usize, usize, String)> = Vec::new();
    for line in io::stdin().lock().lines() {
        let line = line.expect("replay input");
        let mut it = line.splitn(3, ' ');
        let (Some(t), Some(i), Some(body)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        reqs.push((
            t.parse().expect("tenant"),
            i.parse().expect("index"),
            body.to_string(),
        ));
    }
    reqs.sort_by_key(|(t, i, _)| (*i, *t));
    ready();
    let start = now();
    let mut rec = Recorder::new(start);
    let ff_before = fastforward::stats();
    let root = rec.open("serve_mix.replay", None);
    let mut responses = Vec::new();
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut problem = None;
    for (t, i, body) in &reqs {
        match traced_request(&mut rec, root, body) {
            Ok((manifest, counters)) => {
                for (k, v) in counters {
                    *totals.entry(k).or_default() += v;
                }
                responses.push(((*t, *i), manifest));
            }
            Err(e) => problem = Some(e.to_string()),
        }
    }
    rec.close(root);
    let wall_s = secs_since(start);
    totals.extend(ff_counters(ff_before));
    responses.sort_by_key(|(k, _)| *k);
    let bodies: String = responses.iter().map(|(_, m)| m.as_str()).collect();
    let mut lines = vec![
        format!("wall_s {wall_s}"),
        format!("digest {:x}", fnv1a64(bodies.as_bytes())),
        check_line(problem.as_deref()),
    ];
    lines.extend(totals.iter().map(|(k, v)| format!("count {k} {v}")));
    lines.extend(rec.into_spans().iter().map(|s| s.to_line()));
    emit(&lines);
}

/// `child probes`: fixed-input timings of single layers.
pub fn probes() {
    let p = Fidelity::Paper;
    let t = now();
    black_box((
        fig1::specs(p),
        fig2::specs(p),
        fig3::specs(p),
        fig4::specs(p),
        fig56::specs(p),
        fig78::specs(p),
        memfoot::specs(),
        timing::specs(p),
    ));
    let specs_s = secs_since(t);
    let t = now();
    black_box(NBenchSuite::standard());
    let nbench_s = secs_since(t);
    let t = now();
    black_box(SevenZKernel::characterize(&SevenZConfig::default()));
    let sevenz_s = secs_since(t);
    emit(&[
        format!("count core.specs_s {specs_s}"),
        format!("count workloads.nbench_characterize_s {nbench_s}"),
        format!("count workloads.sevenz_characterize_s {sevenz_s}"),
    ]);
}

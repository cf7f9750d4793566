//! The measuring side: runs a workload's sessions in fresh program
//! processes for the requested time, drives the served mix as its
//! client, checks every output and turns the sessions into metrics.

use crate::child::{cpu_secs, manifest_digest, status_kb};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use vgrid_perfbench::gen;
use vgrid_perfbench::metrics::{self, Metrics, Session, REQUEST_SPAN};
use vgrid_perfbench::stats::median;
use vgrid_perfbench::trace::{Recorder, Span};
use vgrid_perfbench::{fnv1a64, now, Workload};

/// Extra set-up samples taken before each session of a run.
const SETUP_PROBES_PER_SESSION: usize = 3;

/// `GET /v1/health` round trips timed by the `serve.health_rtt_ms` probe.
const HEALTH_PROBES: usize = 50;

/// Output digests pinned for seed 1: the paper report (which ignores
/// the seed), the `report_digest` of each grid workload's first
/// campaign, and the served mix's digest over all response bodies in
/// (tenant, index) order.
const PINNED_SEED1: [(Workload, u64); 5] = [
    (Workload::PaperReport, 0xd0a8_779e_548f_3234),
    (Workload::GridMonth, 0x9549_fecb_a1d9_a261),
    (Workload::GridChurn, 0xb98d_14a7_ca12_6f65),
    (Workload::GridMigrate, 0xc579_1870_3bd5_b17c),
    (Workload::ServeMix, 0xee5d_1435_9712_5fd6),
];

/// A started program process, killed and reaped if dropped early.
struct Proc {
    child: Child,
    out: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(args: &[&str], input: &str) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let mut p = Proc {
            out: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
        };
        // Dropping stdin after the write closes it: the input is complete.
        p.child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(input.as_bytes())
            .map_err(|e| format!("write session input: {e}"))?;
        Ok(p)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut l = String::new();
        match self.out.read_line(&mut l) {
            Ok(0) => Err("program process ended early".to_string()),
            Ok(_) => Ok(l.trim_end().to_string()),
            Err(e) => Err(format!("read program output: {e}")),
        }
    }

    fn expect_ready(&mut self) -> Result<(), String> {
        match self.line()?.as_str() {
            "ready" => Ok(()),
            other => Err(format!("expected ready, got {other:?}")),
        }
    }

    /// Read the remaining output and wait for a clean exit.
    fn finish(mut self) -> Result<String, String> {
        let mut rest = String::new();
        self.out
            .read_to_string(&mut rest)
            .map_err(|e| format!("read program output: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("program process failed: {status}"));
        }
        Ok(rest)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A session plus what its output checks found.
struct Measured {
    /// Which of the workload's inputs the session ran.
    input: usize,
    session: Session,
    /// Calls of the session whose output failed a check.
    failed: usize,
    problems: Vec<String>,
}

/// Fill `s` from a program's `key value` report lines; returns what the
/// program's output checks found.
fn absorb(report: &str, s: &mut Session) -> Vec<String> {
    let num = |v: &str| v.parse::<f64>().unwrap_or(f64::NAN);
    let mut problems = Vec::new();
    for line in report.lines() {
        let (key, val) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "wall_s" => s.wall_s = num(val),
            "call_ms" => s.call_ms.push(num(val)),
            "rss_kb" => s.rss_kb = num(val),
            "cpu_s" => s.cpu_s = num(val),
            "digest" => s.digest = u64::from_str_radix(val, 16).unwrap_or(0),
            "check" if val == "ok" => {}
            "check" => problems.push(val.to_string()),
            "count" => match val.split_once(' ') {
                Some((k, v)) => {
                    s.counters.insert(k.to_string(), num(v));
                }
                None => problems.push(format!("bad count line {val:?}")),
            },
            "span" => match Span::from_fields(val) {
                Some(span) => s.spans.push(span),
                None => problems.push(format!("bad span line {val:?}")),
            },
            _ => problems.push(format!("unexpected program output {line:?}")),
        }
    }
    problems
}

fn batch_setup_probe(w: Workload, seed: u64) -> Result<f64, String> {
    let t0 = now();
    let body = gen::grid_request(w, seed, 0).unwrap_or_default();
    let mut p = Proc::spawn(&["ready"], &body)?;
    p.expect_ready()?;
    let setup = t0.elapsed().as_secs_f64();
    p.finish()?;
    Ok(setup)
}

fn batch_session(w: Workload, seed: u64, input: usize, traced: bool) -> Result<Measured, String> {
    let t0 = now();
    let body = gen::grid_request(w, seed, input).unwrap_or_default();
    let mut p = Proc::spawn(&["batch", w.name(), if traced { "1" } else { "0" }], &body)?;
    p.expect_ready()?;
    let mut session = Session {
        traced,
        setup_s: t0.elapsed().as_secs_f64(),
        ..Session::default()
    };
    let problems = absorb(&p.finish()?, &mut session);
    let failed = if problems.is_empty() {
        0
    } else {
        session.call_ms.len().max(1)
    };
    Ok(Measured {
        input,
        session,
        failed,
        problems,
    })
}

/// One HTTP/1.1 exchange on a fresh connection (the server answers
/// `Connection: close`); returns the status and body.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    tenant: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(120)))?;
    s.set_write_timeout(Some(Duration::from_secs(120)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Vgrid-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = resp.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// A benchmark server process (`child serve`).
struct ServerProc {
    proc: Proc,
    addr: String,
}

impl ServerProc {
    /// Start a server and wait for its first healthy answer.
    fn start() -> Result<ServerProc, String> {
        let mut proc = Proc::spawn(&["serve"], "")?;
        let line = proc.line()?;
        let addr = line
            .strip_prefix("addr ")
            .ok_or_else(|| format!("expected server address, got {line:?}"))?
            .to_string();
        let deadline = now() + Duration::from_secs(30);
        loop {
            match http(&addr, "GET", "/v1/health", "bench", "") {
                Ok((200, _)) => break,
                _ if now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(format!("server never became healthy: {other:?}")),
            }
        }
        Ok(ServerProc { proc, addr })
    }

    fn shutdown(self) -> Result<(), String> {
        http(&self.addr, "POST", "/v1/shutdown", "bench", "")
            .map_err(|e| format!("shutdown: {e}"))?;
        self.proc.finish().map(drop)
    }
}

fn serve_setup_probe(seed: u64) -> Result<f64, String> {
    let t0 = now();
    std::hint::black_box(gen::serve_bodies(seed, 0));
    let server = ServerProc::start()?;
    let setup = t0.elapsed().as_secs_f64();
    server.shutdown()?;
    Ok(setup)
}

/// One closed-loop load session on mix `input`: a fresh server, one
/// client thread per tenant sending its bodies back to back. Returns the
/// session and the response bodies per tenant.
fn serve_session(
    seed: u64,
    input: usize,
    traced: bool,
) -> Result<(Measured, Vec<Vec<String>>), String> {
    let t0 = now();
    let bodies = gen::serve_bodies(seed, input);
    let server = ServerProc::start()?;
    let setup_s = t0.elapsed().as_secs_f64();

    let start = now();
    type Exchange = (Instant, Instant, io::Result<(u16, String)>);
    let results: Vec<Vec<Exchange>> = std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .iter()
            .enumerate()
            .map(|(t, list)| {
                let addr = &server.addr;
                s.spawn(move || {
                    let tenant = format!("tenant-{t}");
                    list.iter()
                        .map(|b| {
                            let a = now();
                            let r = http(addr, "POST", "/v1/campaign", &tenant, b);
                            (a, now(), r)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = now();

    let pid = server.proc.pid();
    let (rss_kb, cpu_s) = (status_kb(&pid, "VmHWM"), cpu_secs(&pid));
    let status = http(&server.addr, "GET", "/v1/status", "bench", "")
        .map_err(|e| format!("status: {e}"))?
        .1;
    server.shutdown()?;

    let mut session = Session {
        traced,
        setup_s,
        wall_s: (end - start).as_secs_f64(),
        rss_kb,
        cpu_s,
        ..Session::default()
    };
    let doc = vgrid_perfbench::json::parse(&status)?;
    for (key, name) in [
        ("requests", "serve.requests"),
        ("cache_cross_hits", "serve.cache_cross_hits"),
    ] {
        let v = doc
            .get("serve")
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_f64());
        session
            .counters
            .insert(name.to_string(), v.unwrap_or(f64::NAN));
    }
    let mut rec = Recorder::new(start);
    let root = rec.push(Workload::ServeMix.name(), None, start, end, 0);
    let (mut failed, mut problems, mut responses) = (0, Vec::new(), Vec::new());
    for (t, list) in results.into_iter().enumerate() {
        let mut bodies_t = Vec::new();
        for (a, b, r) in list {
            session.call_ms.push((b - a).as_secs_f64() * 1e3);
            if traced {
                rec.push(REQUEST_SPAN, Some(root), a, b, t as u32 + 1);
            }
            match r {
                Ok((200, body)) if manifest_digest(&body).is_ok() => bodies_t.push(body),
                other => {
                    failed += 1;
                    problems.push(format!("tenant {t}: bad response {other:?}"));
                    bodies_t.push(String::new());
                }
            }
        }
        responses.push(bodies_t);
    }
    if traced {
        session.spans = rec.into_spans();
    }
    session.digest = fnv1a64(responses.concat().concat().as_bytes());
    Ok((
        Measured {
            input: input % gen::INPUTS,
            session,
            failed,
            problems,
        },
        responses,
    ))
}

/// Mix 0 of the served mix replayed in one fresh process,
/// tenant-interleaved; returns the traced session and what its checks
/// found.
fn serve_replay(seed: u64) -> Result<(Session, Vec<String>), String> {
    let bodies = gen::serve_bodies(seed, 0);
    let mut input = String::new();
    for (t, list) in bodies.iter().enumerate() {
        for (i, b) in list.iter().enumerate() {
            input.push_str(&format!("{t} {i} {b}\n"));
        }
    }
    let mut p = Proc::spawn(&["replay"], &input)?;
    p.expect_ready()?;
    let mut session = Session {
        traced: true,
        ..Session::default()
    };
    let problems = absorb(&p.finish()?, &mut session);
    Ok((session, problems))
}

/// The layer probes: kernel characterization and `specs()` timings in a
/// fresh process, and the median health round trip of a fresh server.
fn layer_probes() -> Result<(Metrics, Vec<String>), String> {
    let mut timings = Session::default();
    let problems = absorb(&Proc::spawn(&["probes"], "")?.finish()?, &mut timings);
    let mut probes = timings.counters;
    let server = ServerProc::start()?;
    let mut rtt = Vec::new();
    for _ in 0..HEALTH_PROBES {
        let t = now();
        http(&server.addr, "GET", "/v1/health", "bench", "").map_err(|e| format!("health: {e}"))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown()?;
    probes.insert("serve.health_rtt_ms".into(), median(&rtt));
    Ok((probes, problems))
}

/// Everything one run of one workload measured and checked.
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub digest: u64,
    /// Spans of the traced sessions, one group per program process.
    pub trace: Vec<(u32, String, Vec<Span>)>,
}

/// Run workload `w` for about `seconds` of sessions and check its
/// outputs. Sessions run while the next one is expected to end within
/// `seconds`, with at least one. When tracing, sessions come in pairs on
/// the same input, one untraced and one traced, in alternating order
/// (the host runs a session faster after a busy one).
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut measured: Vec<Measured> = Vec::new();
    let mut served: Option<Vec<Vec<String>>> = None;
    let start = now();
    loop {
        // Set-up probes are spread over the run: process start-up time
        // on a shared host drifts between runs of a few seconds.
        for _ in 0..SETUP_PROBES_PER_SESSION {
            setups.push(match w {
                Workload::ServeMix => serve_setup_probe(seed)?,
                _ => batch_setup_probe(w, seed)?,
            });
        }
        let n = measured.len();
        let (traced, input) = if trace {
            (matches!(n % 4, 1 | 2), n / 2)
        } else {
            (false, n)
        };
        measured.push(match w {
            Workload::ServeMix => {
                let (m, responses) = serve_session(seed, input, traced)?;
                served.get_or_insert(responses);
                m
            }
            _ => batch_session(w, seed, input % gen::INPUTS, traced)?,
        });
        let elapsed = start.elapsed().as_secs_f64();
        let n = measured.len();
        if n > usize::from(trace) && elapsed * (n + 1) as f64 / n as f64 > seconds {
            break;
        }
    }

    let mut problems: Vec<String> = measured.iter().flat_map(|m| m.problems.clone()).collect();
    let attempted: usize = measured.iter().map(|m| m.session.call_ms.len()).sum();
    let mut failed: usize = measured.iter().map(|m| m.failed).sum();
    for m in &measured {
        let first = measured
            .iter()
            .find(|f| f.input == m.input)
            .expect("m itself");
        if m.session.digest != first.session.digest {
            problems.push(format!(
                "input {}: output digest differs between sessions",
                m.input
            ));
        }
    }
    // The run's digest is that of its first input.
    let digest = measured[0].session.digest;
    let pinned = PINNED_SEED1.iter().find(|(p, _)| *p == w).map(|(_, d)| *d);
    if (seed == 1 || w == Workload::PaperReport) && pinned != Some(digest) {
        problems.push(format!(
            "digest {digest:x} differs from the pinned {pinned:x?}"
        ));
    }
    if let Some(responses) = &served {
        // The served bytes of mix 0 must be what the library returns
        // in-process.
        let bodies = gen::serve_bodies(seed, 0);
        for (t, list) in bodies.iter().enumerate() {
            let direct = vgrid_grid::wire::run_request_json(&list[0]).map_err(|e| e.to_string());
            if direct.as_ref() != Ok(&responses[t][0]) {
                problems.push(format!(
                    "tenant {t}: served response differs from in-process run"
                ));
            }
        }
    }

    let sessions: Vec<Session> = measured.into_iter().map(|m| m.session).collect();
    let mut trace_groups: Vec<(u32, String, Vec<Span>)> = sessions
        .iter()
        .filter(|s| s.traced)
        .enumerate()
        .map(|(i, s)| {
            (
                i as u32 + 1,
                format!("{} session {}", w.name(), i + 1),
                s.spans.clone(),
            )
        })
        .collect();
    let metrics = if trace {
        let replay = match w {
            Workload::ServeMix => {
                let (session, replay_problems) = serve_replay(seed)?;
                problems.extend(replay_problems);
                if session.digest != digest {
                    problems.push("replayed digest differs from the served digest".into());
                }
                let pid = trace_groups.len() as u32 + 1;
                trace_groups.push((pid, "serve_mix replay".into(), session.spans.clone()));
                Some(session)
            }
            _ => None,
        };
        let (probes, probe_problems) = layer_probes()?;
        problems.extend(probe_problems);
        metrics::per_layer(&sessions, replay.as_ref(), &probes)
    } else {
        metrics::end_to_end(&sessions, &setups)
    };
    if let Some((k, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        problems.push(format!("metric {k} was not measured"));
    }
    if !problems.is_empty() {
        failed = attempted;
    }
    Ok(RunResult {
        metrics,
        attempted: attempted as u64,
        failed: failed as u64,
        problems,
        digest,
        trace: trace_groups,
    })
}

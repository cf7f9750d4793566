//! The `vgrid` command-line interface.
//!
//! ```text
//! vgrid list                         # all experiment ids with titles
//! vgrid run fig1 [--paper] [--json]  # run one experiment
//!           [--metrics-json <path>]  # + write the run manifest
//!           [--per-quantum-reference]
//! vgrid trace fig1 --out <path>      # export a Chrome-trace JSON
//! vgrid suite [--paper]              # the whole paper, rendered
//! vgrid campaign [--volunteers N] [--days D] [--vm <monitor>|native]
//!                [--image-mb M] [--migrate] [--churn L]
//!                [--workunits N] [--hydrated-reference]
//! vgrid campaign --spec req.json     # run a wire-format request
//!                [--manifest-json <path>]
//! vgrid serve [--port P] [--workers N] [--addr A]
//!                                    # campaign-as-a-service
//! ```
//!
//! Everything the CLI does is a thin veneer over `vgrid_core` /
//! `vgrid_grid` / `vgrid_serve`; argument parsing is the declarative
//! table walk in `vgrid::args` (no CLI dependency), so a misspelled
//! flag is diagnosed with the command's accepted set instead of being
//! silently ignored. The mode flags build one `RunOptions` value, the
//! only way to choose an execution mode: `run` and `trace` hand it to
//! the engine they create, `campaign` to the campaign it runs.
//! Observed runs (`--metrics-json`, `trace`) write artifacts that are
//! pure functions of `(experiment, fidelity, options)` — the
//! wall-clock phase summary they print goes to stderr only and never
//! enters a gated file (DESIGN.md §11).

use std::process::ExitCode;
use std::time::Duration;
use vgrid::args::{parse, FlagSpec, ParsedArgs};
use vgrid::core::{experiments, obs, Engine, Fidelity};
use vgrid::grid::{
    wire, CampaignSpec, ChurnConfig, DeployConfig, ExecutionMode, PoolConfig, ProjectConfig,
    RunOptions, SchedulerMode, SubstrateMode,
};
use vgrid::out::to_stdout;
use vgrid::serve::{ServeConfig, Server};
use vgrid::simcore::{SimDuration, SimTime};

/// The execution-mode switches of the commands that run experiments;
/// [`run_options`] turns them into one `RunOptions` value.
const MODE_FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--per-quantum-reference"),
    FlagSpec::switch("--hydrated-reference"),
    FlagSpec::switch("--no-fastforward"),
];

fn with_mode_flags(extra: &[FlagSpec]) -> Vec<FlagSpec> {
    let mut flags = MODE_FLAGS.to_vec();
    flags.extend_from_slice(extra);
    flags
}

fn fidelity(p: &ParsedArgs) -> Fidelity {
    if p.switch("--paper") {
        Fidelity::Paper
    } else {
        Fidelity::Fast
    }
}

/// With `--verbose`, print the process-wide event-loop totals to stderr
/// (stdout stays clean for `--json` consumers).
fn report_loop_totals(p: &ParsedArgs) {
    if p.switch("--verbose") || p.switch("-v") {
        eprintln!("event loop: {}", vgrid::core::loop_totals().render());
    }
}

/// The execution options the [`MODE_FLAGS`] switches select. A switch
/// missing from a command's table reads as off.
fn run_options(p: &ParsedArgs) -> RunOptions {
    let mut options = RunOptions::default().fastforward(!p.switch("--no-fastforward"));
    if p.switch("--per-quantum-reference") {
        options = options.scheduler(SchedulerMode::PerQuantumReference);
    }
    if p.switch("--hydrated-reference") {
        options = options.substrate(SubstrateMode::HydratedReference);
    }
    options
}

/// Wall-clock reading for the stderr phase summary. Reported, never
/// gated: no wall value enters any artifact (DESIGN.md §11).
fn wall_now() -> std::time::Instant {
    // simlint: allow(wall-clock) -- stderr-only phase profiling; never written to a gated artifact
    std::time::Instant::now()
}

/// Per-phase wall-time summary on stderr (sim-time phase spans live in
/// the trace document; wall time is for humans and CI logs only).
fn report_wall_phases(setup: Duration, simulate: Duration, emit: Duration) {
    eprintln!(
        "wall phases: setup {:.1} ms, simulate {:.1} ms, emit {:.1} ms",
        setup.as_secs_f64() * 1e3,
        simulate.as_secs_f64() * 1e3,
        emit.as_secs_f64() * 1e3,
    );
}

/// Run an experiment with observation and write one artifact file.
/// Returns the observed run for further printing, or `None` after
/// reporting the failure.
fn run_observed_to_file(
    engine: &Engine,
    id: &str,
    fid: Fidelity,
    path: &str,
    which: &str,
) -> Option<obs::ObservedRun> {
    let t0 = wall_now();
    let setup = t0.elapsed();
    let Some(run) = obs::run_observed(engine, id, fid) else {
        eprintln!("unknown experiment id '{id}'; try `vgrid list`");
        return None;
    };
    let simulate = t0.elapsed() - setup;
    let doc = match which {
        "trace" => &run.trace_json,
        _ => &run.manifest_json,
    };
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("cannot write {which} to '{path}': {e}");
        return None;
    }
    let emit = t0.elapsed() - setup - simulate;
    report_wall_phases(setup, simulate, emit);
    Some(run)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vgrid <command>\n\
         \n\
         commands:\n\
           list                          list experiment ids\n\
           run <id> [--paper] [--json] [--verbose]\n\
                    [--metrics-json <path>] [--per-quantum-reference]\n\
                    [--hydrated-reference] [--no-fastforward]\n\
                                         run one experiment; --metrics-json\n\
                                         also writes the run manifest\n\
           trace <id> --out <path> [--paper] [--per-quantum-reference]\n\
                                         export a Chrome-trace/Perfetto JSON\n\
           suite [--paper] [--verbose]   run the full paper suite\n\
           campaign [--volunteers N] [--days D]\n\
                    [--vm vmplayer|qemu|virtualbox|virtualpc|native]\n\
                    [--image-mb M] [--migrate] [--churn L]\n\
                    [--workunits N] [--hydrated-reference]\n\
           campaign --spec <req.json> [--manifest-json <path>]\n\
                                         run a wire request (spec_version 1);\n\
                                         prints the same manifest `vgrid serve`\n\
                                         would return for the body\n\
           serve [--port P] [--workers N] [--addr A]\n\
                                         serve POST /v1/campaign requests\n"
    );
    ExitCode::FAILURE
}

/// `campaign --spec`: run one wire-format request document exactly as
/// the serve worker would, printing (or writing) the manifest.
fn campaign_from_spec(spec_path: &str, manifest_path: Option<&str>) -> ExitCode {
    let body = match std::fs::read_to_string(spec_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read spec '{spec_path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    match wire::run_request_json(&body) {
        Ok(manifest) => {
            let Some(path) = manifest_path else {
                return to_stdout(|out| out.write_all(manifest.as_bytes()));
            };
            if let Err(e) = std::fs::write(path, &manifest) {
                eprintln!("cannot write manifest to '{path}': {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid campaign request: {e}");
            ExitCode::FAILURE
        }
    }
}

fn campaign(p: &ParsedArgs) -> ExitCode {
    let parsed_or_fail = |r: Result<ExitCode, vgrid::args::ArgError>| match r {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    };
    parsed_or_fail((|| {
        let volunteers: u32 = p.parsed("--volunteers")?.unwrap_or(100);
        let days: u64 = p.parsed("--days")?.unwrap_or(14);
        // Simulated time is picoseconds in a u64: about 213.5 days.
        let Some(horizon) = days
            .checked_mul(24 * 3600)
            .and_then(SimDuration::checked_from_secs)
        else {
            eprintln!("--days {days} exceeds the simulated-time range (at most 213 days)");
            return Ok(ExitCode::FAILURE);
        };
        let image_mb: u64 = p.parsed("--image-mb")?.unwrap_or(1400);
        let mode = p.value("--vm").unwrap_or("native");
        let mut deploy = match wire::mode_by_name(mode) {
            Some(ExecutionMode::Native) => DeployConfig::native(),
            Some(ExecutionMode::Vm(prof)) => DeployConfig::vm(prof, image_mb << 20),
            None => {
                eprintln!("unknown monitor '{mode}'");
                return Ok(ExitCode::FAILURE);
            }
        };
        if p.switch("--migrate") {
            deploy = deploy.with_migration();
        }
        let churn_level: f64 = p.parsed("--churn")?.unwrap_or(0.0);
        // Default high enough that campaigns are never work-limited.
        let workunits: u32 = p.parsed("--workunits")?.unwrap_or(100_000);
        let project = ProjectConfig {
            workunits,
            ..Default::default()
        };
        let pool = PoolConfig {
            volunteers,
            ..Default::default()
        };
        let campaign = match CampaignSpec::new(mode)
            .project(project)
            .pool(pool)
            .deploy(deploy)
            .churn(ChurnConfig::intensity(churn_level))
            .seed(0xc11)
            .horizon(SimTime::from_picos(horizon.as_picos()))
            .build()
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("invalid campaign: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let result = campaign.run_with(&run_options(p));
        let r = &result.reports()[0];
        Ok(to_stdout(|out| {
            writeln!(
                out,
                "{} deployment, {volunteers} volunteers, {days} days, churn {churn_level}:",
                r.mode
            )?;
            writeln!(out, "  validated work units : {}", r.validated_wus)?;
            writeln!(out, "  results returned     : {}", r.results_returned)?;
            writeln!(out, "  bad results          : {}", r.bad_results)?;
            writeln!(
                out,
                "  cpu spent            : {:.1} h",
                r.cpu_secs_spent / 3600.0
            )?;
            writeln!(
                out,
                "  cpu lost to churn    : {:.1} h",
                r.cpu_secs_lost / 3600.0
            )?;
            writeln!(
                out,
                "  image transfer       : {:.1} h",
                r.image_transfer_secs / 3600.0
            )?;
            writeln!(out, "  hosts excluded (RAM) : {}", r.hosts_excluded_ram)?;
            writeln!(out, "  migrations           : {}", r.migrations)?;
            writeln!(out, "  efficiency           : {:.3}", r.efficiency)?;
            writeln!(out, "  goodput              : {:.3} ref-CPU s/s", r.goodput)?;
            writeln!(
                out,
                "  cpu wasted           : {:.1} h",
                r.wasted_cpu_secs / 3600.0
            )?;
            writeln!(out, "  reissues             : {}", r.reissues)?;
            writeln!(out, "  owner preemptions    : {}", r.owner_preemptions)?;
            writeln!(out, "  sandbox kills        : {}", r.vm_kills)?;
            writeln!(out, "  archetypes           : {}", r.archetype_hosts.len())?;
            for (label, count) in &r.archetype_hosts {
                writeln!(out, "    {count:>10}  {label}")?;
            }
            writeln!(
                out,
                "  hydration            : {} windows, {} hydrations, {} memo hits, peak {} resident",
                r.hydration.windows,
                r.hydration.hydrations,
                r.hydration.memo_hits,
                r.hydration.peak_resident
            )
        }))
    })())
}

fn serve(p: &ParsedArgs) -> ExitCode {
    let cfg = {
        let mut cfg = ServeConfig::default();
        match (
            p.parsed::<u16>("--port"),
            p.parsed::<usize>("--workers"),
            p.value("--addr"),
        ) {
            (Ok(port), Ok(workers), addr) => {
                if let Some(port) = port {
                    cfg.port = port;
                }
                if let Some(workers) = workers {
                    cfg.workers = workers.max(1);
                }
                if let Some(addr) = addr {
                    cfg.addr = addr.to_string();
                }
            }
            (Err(e), _, _) | (_, Err(e), _) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        cfg
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}:{}: {e}", cfg.addr, cfg.port);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "vgrid serve: listening on http://{addr} ({} workers); \
             POST /v1/campaign, GET /v1/health, GET /v1/status, POST /v1/shutdown",
            cfg.workers.max(1)
        ),
        Err(e) => eprintln!("vgrid serve: listening ({e})"),
    }
    match server.run() {
        Ok(()) => {
            eprintln!("vgrid serve: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vgrid serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "list" => {
            if let Err(e) = parse("list", rest, &[]) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            to_stdout(|out| {
                for id in experiments::experiment_ids() {
                    writeln!(out, "{id}")?;
                }
                Ok(())
            })
        }
        "run" => {
            let flags = with_mode_flags(&[
                FlagSpec::switch("--paper"),
                FlagSpec::switch("--json"),
                FlagSpec::switch("--verbose"),
                FlagSpec::switch("-v"),
                FlagSpec::value("--metrics-json"),
            ]);
            let p = match parse("run", rest, &flags) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let [id] = p.positionals() else {
                return usage();
            };
            let engine = Engine::with_options(run_options(&p));
            let fid = fidelity(&p);
            let fig = if let Some(path) = p.value("--metrics-json") {
                let Some(run) = run_observed_to_file(&engine, id, fid, path, "manifest") else {
                    return ExitCode::FAILURE;
                };
                run.figure
            } else {
                let Some(fig) = experiments::run_by_id(&engine, id, fid) else {
                    eprintln!("unknown experiment id '{id}'; try `vgrid list`");
                    return ExitCode::FAILURE;
                };
                fig
            };
            let code = to_stdout(|out| {
                if p.switch("--json") {
                    writeln!(out, "{}", fig.to_json())
                } else {
                    write!(out, "{}", fig.render())
                }
            });
            report_loop_totals(&p);
            code
        }
        "trace" => {
            let flags = with_mode_flags(&[FlagSpec::switch("--paper"), FlagSpec::value("--out")]);
            let p = match parse("trace", rest, &flags) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let [id] = p.positionals() else {
                return usage();
            };
            let Some(path) = p.value("--out") else {
                eprintln!("trace needs --out <path>");
                return usage();
            };
            let engine = Engine::with_options(run_options(&p));
            let fid = fidelity(&p);
            if run_observed_to_file(&engine, id, fid, path, "trace").is_none() {
                return ExitCode::FAILURE;
            }
            eprintln!(
                "trace written to {path} (open at https://ui.perfetto.dev or chrome://tracing)"
            );
            ExitCode::SUCCESS
        }
        "suite" => {
            let flags = [
                FlagSpec::switch("--paper"),
                FlagSpec::switch("--verbose"),
                FlagSpec::switch("-v"),
            ];
            let p = match parse("suite", rest, &flags) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let fid = fidelity(&p);
            let code = to_stdout(|out| {
                for fig in experiments::run_paper_suite(fid) {
                    writeln!(out, "{}", fig.render())?;
                }
                Ok(())
            });
            report_loop_totals(&p);
            code
        }
        "campaign" => {
            let flags = [
                FlagSpec::value("--spec"),
                FlagSpec::value("--manifest-json"),
                FlagSpec::value("--volunteers"),
                FlagSpec::value("--days"),
                FlagSpec::value("--image-mb"),
                FlagSpec::value("--vm"),
                FlagSpec::switch("--migrate"),
                FlagSpec::value("--churn"),
                FlagSpec::value("--workunits"),
                FlagSpec::switch("--hydrated-reference"),
            ];
            let p = match parse("campaign", rest, &flags) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(spec_path) = p.value("--spec") {
                // The wire document carries the whole configuration;
                // mixing it with ad-hoc knobs would silently ignore
                // one side, so diagnose instead.
                let knobs = [
                    "--volunteers",
                    "--days",
                    "--image-mb",
                    "--vm",
                    "--churn",
                    "--workunits",
                ];
                let clash = knobs
                    .iter()
                    .copied()
                    .find(|&k| p.value(k).is_some())
                    .or_else(|| {
                        ["--migrate", "--hydrated-reference"]
                            .into_iter()
                            .find(|&k| p.switch(k))
                    });
                if let Some(flag) = clash {
                    eprintln!(
                        "vgrid campaign: {flag} conflicts with --spec \
                         (the spec document carries the full configuration)"
                    );
                    return ExitCode::FAILURE;
                }
                return campaign_from_spec(spec_path, p.value("--manifest-json"));
            }
            if p.value("--manifest-json").is_some() {
                eprintln!("vgrid campaign: --manifest-json requires --spec");
                return ExitCode::FAILURE;
            }
            campaign(&p)
        }
        "serve" => {
            let flags = [
                FlagSpec::value("--port"),
                FlagSpec::value("--workers"),
                FlagSpec::value("--addr"),
            ];
            match parse("serve", rest, &flags) {
                Ok(p) => serve(&p),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

//! One oracle for every grid execution mode.
//!
//! A generator draws random, runnable wire request documents, every
//! request key over a range a campaign can run, and the oracle runs each
//! request in every execution mode, demanding equal `GridReport`s
//! (hydration stats included), equal published metrics, equal summary
//! bits and equal canonical response bytes:
//!
//! 1. the hydrated-reference substrate, repetitions in sequence: it
//!    never touches the trajectory cache, so it is the ground truth;
//! 2. the batched substrate with fast-forward off, repetitions in
//!    parallel;
//! 3. batched with fast-forward on at half the horizon, cold, which
//!    stores a prefix trajectory (held to the reference at that horizon);
//! 4. batched at the full horizon, resumed from that prefix;
//! 5. batched at the full horizon again, resumed at its exact horizon;
//! 6. the wire path: `run_request_json` of the canonical request.
//!
//! Fixed inputs the random draws rarely reach run through the same
//! modes, and then sixteen threads race them through the shared
//! trajectory cache against a sequential cold run. Every key the
//! canonical form renders must be one the generator draws, so a wire
//! table row without a generator range fails here.
//!
//! One `#[test]` in its own binary: the resume checks read the
//! process-wide fast-forward counters and the threads mode resets the
//! cache, so nothing else may share the process. `PROPTEST_CASES`
//! raises the case count.

use proptest::prelude::ProptestConfig;
use std::collections::{BTreeMap, BTreeSet};
use vgrid_grid::hydrate::DEFAULT_HYDRATION_CAP as CAP;
use vgrid_grid::{
    fastforward, reset_all, wire, CampaignResult, CampaignSpec, GridReport, RunOptions,
    SubstrateMode,
};
use vgrid_simcore::{SimRng, SimTime};
use vgrid_simobs::{json, MetricsRegistry};

const MODES: [&str; 5] = [
    "native",
    "vm-VMwarePlayer",
    "vm-QEMU",
    "vm-VirtualBox",
    "vm-VirtualPC",
];
const HOUR: f64 = 3_600.0;
const DAY: u64 = 86_400;

/// Inputs the random draws rarely reach, as sparse request documents.
const FIXED: [&str; 5] = [
    // The pinned migration pair: churn 3 and a one-day deadline, where
    // the full policy evacuates.
    r#"{"spec_version": 1, "label": "migration policy off", "seed": "0x7e5c",
        "horizon_secs": 864000, "project": {"workunits": 24, "wu_ref_secs": 10800,
        "deadline_secs": 86400}, "pool": {"volunteers": 30},
        "deploy": {"mode": "vmplayer", "image_bytes": 314572800}, "churn": {"level": 3}}"#,
    r#"{"spec_version": 1, "label": "full migration policy", "seed": "0x7e5c",
        "horizon_secs": 864000, "project": {"workunits": 24, "wu_ref_secs": 10800,
        "deadline_secs": 86400}, "pool": {"volunteers": 30}, "deploy": {"mode": "vmplayer",
        "image_bytes": 314572800, "migration": {"rescue": true, "evacuate": true}},
        "churn": {"level": 3}}"#,
    // Zero churn and far more hosts than copies: idle hosts park, and
    // rejections, reissues and departed volunteers kick them.
    r#"{"spec_version": 1, "label": "parked 400-host pool", "seed": "0x5eed0b57",
        "horizon_secs": 604800, "project": {"workunits": 10, "wu_ref_secs": 21600,
        "replication": 1, "quorum": 1, "deadline_secs": 86400, "error_rate": 0.5},
        "pool": {"volunteers": 400, "permanent_failure_prob": 0.1}, "deploy": {"mode": "qemu",
        "image_bytes": 314572800, "migrate_on_churn": true}}"#,
    // Its hydration windows must open, or the probe bound checks nothing.
    r#"{"spec_version": 1, "label": "churned 1000-host pool", "seed": "0x5eed0b57",
        "horizon_secs": 604800, "project": {"workunits": 60, "wu_ref_secs": 1800},
        "pool": {"volunteers": 1000}, "deploy": {"mode": "qemu", "image_bytes": 314572800},
        "churn": {"level": 1}}"#,
    // More repetitions than a small host has workers.
    r#"{"spec_version": 1, "label": "nine repetitions", "repetitions": 9,
        "horizon_secs": 1209600, "project": {"workunits": 10, "wu_ref_secs": 600},
        "pool": {"volunteers": 20}, "churn": {"level": 2}}"#,
];

fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> String {
    json::number(rng.range_f64(lo, hi))
}

fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> String {
    json::number(rng.range_f64(lo.ln(), hi.ln()).exp())
}

fn int(rng: &mut SimRng, lo: u64, hi: u64) -> String {
    rng.range_inclusive(lo, hi).to_string()
}

/// `0` with probability `p`, else `draw`.
fn or_zero(rng: &mut SimRng, p: f64, draw: impl FnOnce(&mut SimRng) -> String) -> String {
    if rng.chance(p) {
        "0".to_string()
    } else {
        draw(rng)
    }
}

/// A random, runnable request as `(dotted key, JSON token)` leaves.
fn random_request(rng: &mut SimRng) -> Vec<(&'static str, String)> {
    // A quarter of the pools dwarf their work, so idle hosts park.
    let (workunits, volunteers) = match rng.chance(0.25) {
        true => ((3, 12), (100, 400)),
        false => ((1, 30), (2, 60)),
    };
    let (seed, replication, mode) = (rng.next_u64(), rng.range_inclusive(1, 3), rng.next_below(5));
    let ram = [(); 2].map(|_| rng.range_inclusive(128 << 20, 4 << 30));
    let horizon = (rng.range_inclusive(1, 6) * DAY) as f64 - rng.range_f64(0.0, HOUR);
    let mut doc = vec![
        ("spec_version", "1".to_string()),
        (
            "label",
            json::string(&format!("oracle-{}", rng.next_below(1000))),
        ),
        (
            "seed",
            [seed.to_string(), json::string(&format!("{seed:#x}"))][rng.next_below(2) as usize]
                .clone(),
        ),
        ("repetitions", int(rng, 1, 3)),
        ("horizon_secs", json::number(horizon)),
        ("project.workunits", int(rng, workunits.0, workunits.1)),
        (
            "project.wu_ref_secs",
            match rng.chance(0.2) {
                true => log_uniform(rng, 1e-9, 1.0),
                false => uniform(rng, 600.0, 4.0 * HOUR),
            },
        ),
        (
            "project.wu_input_bytes",
            or_zero(rng, 0.3, |r| int(r, 1, 8 << 20)),
        ),
        (
            "project.wu_output_bytes",
            or_zero(rng, 0.3, |r| int(r, 1, 256 << 10)),
        ),
        ("project.replication", replication.to_string()),
        ("project.quorum", int(rng, 1, replication)),
        ("project.deadline_secs", int(rng, DAY, 3 * DAY)),
        ("project.error_rate", uniform(rng, 0.0, 0.95)),
        ("pool.volunteers", int(rng, volunteers.0, volunteers.1)),
        ("pool.mean_uptime_secs", log_uniform(rng, 1.0, DAY as f64)),
        ("pool.mean_downtime_secs", log_uniform(rng, 1.0, DAY as f64)),
        ("pool.speed_min", uniform(rng, 0.25, 1.0)),
        ("pool.speed_max", uniform(rng, 1.0, 3.0)),
        ("pool.down_bw", uniform(rng, 1e5, 1e7)),
        ("pool.up_bw", uniform(rng, 1e5, 1e6)),
        ("pool.ram_min_bytes", ram[0].min(ram[1]).to_string()),
        ("pool.ram_max_bytes", ram[0].max(ram[1]).to_string()),
        ("pool.permanent_failure_prob", uniform(rng, 0.0, 0.2)),
        ("deploy.mode", json::string(MODES[mode as usize])),
        (
            "deploy.checkpoint_interval_secs",
            or_zero(rng, 0.2, |r| int(r, 60, 3_600)),
        ),
        ("deploy.native_checkpoint_bytes", int(rng, 0, 8 << 20)),
        ("deploy.host_headroom_bytes", int(rng, 0, 512 << 20)),
        ("deploy.migrate_on_churn", rng.chance(0.5).to_string()),
    ];
    // Only a VM fetches an image.
    if mode > 0 {
        doc.push((
            "deploy.image_bytes",
            or_zero(rng, 0.3, |r| int(r, 1, 500 << 20)),
        ));
    }
    // Random knobs on an off policy must not move a bit either.
    if rng.chance(0.5) {
        doc.extend([
            ("deploy.migration.rescue", rng.chance(0.7).to_string()),
            ("deploy.migration.evacuate", rng.chance(0.7).to_string()),
            ("deploy.migration.rescue_slack", uniform(rng, 0.05, 1.0)),
            ("deploy.migration.hazard_threshold", uniform(rng, 0.05, 1.0)),
        ]);
    }
    // One case in ten lives in microseconds: picosecond downtimes and
    // nanosecond work put events of many hosts on one instant, where
    // only the queues' same-instant order decides.
    if rng.chance(0.1) {
        for (key, token) in doc.iter_mut() {
            *token = match *key {
                "horizon_secs" => uniform(rng, 5e-6, 5e-5),
                "project.wu_ref_secs" => log_uniform(rng, 1e-9, 1e-7),
                "pool.mean_uptime_secs" => log_uniform(rng, 1e-7, 1e-5),
                "pool.mean_downtime_secs" => log_uniform(rng, 1e-13, 1e-11),
                "project.wu_input_bytes" | "project.wu_output_bytes" | "deploy.image_bytes" => {
                    "0".to_string()
                }
                _ => continue,
            };
        }
    }
    match rng.next_below(3) {
        0 => doc.push(("churn.level", "0".to_string())),
        1 => doc.push(("churn.level", uniform(rng, 0.0, 4.0))),
        _ => doc.extend([
            ("churn.availability_shape", uniform(rng, 0.5, 3.0)),
            ("churn.uptime_factor", uniform(rng, 0.3, 1.5)),
            (
                "churn.owner_arrival_mean_secs",
                or_zero(rng, 0.3, |r| uniform(r, HOUR, 12.0 * HOUR)),
            ),
            ("churn.owner_session_mean_secs", uniform(rng, 600.0, HOUR)),
            ("churn.preempt_kill_prob", uniform(rng, 0.0, 0.5)),
            (
                "churn.vm_kill_mean_secs",
                or_zero(rng, 0.3, |r| uniform(r, 6.0 * HOUR, 72.0 * HOUR)),
            ),
        ]),
    }
    doc
}

/// The JSON object holding each `(dotted key, token)` leaf.
fn nest(leaves: &[(&str, String)]) -> String {
    let mut fields = Vec::new();
    let mut sections: BTreeMap<&str, Vec<(&str, String)>> = BTreeMap::new();
    for (key, token) in leaves {
        match key.split_once('.') {
            Some((section, rest)) => sections
                .entry(section)
                .or_default()
                .push((rest, token.clone())),
            None => fields.push((*key, token.clone())),
        }
    }
    fields.extend(sections.iter().map(|(s, inner)| (*s, nest(inner))));
    json::object(&fields)
}

/// The `(dotted key, token)` leaves of a compact JSON object whose
/// strings hold no `"`, `,` or `}`: the inverse of [`nest`].
fn leaves(doc: &str) -> Vec<(String, String)> {
    let (mut path, mut out, mut rest) = (Vec::new(), Vec::new(), doc.trim_end());
    while let Some(c) = rest.chars().next() {
        rest = match c {
            '"' => {
                let (key, tail) = rest[1..].split_once("\":").expect("a key");
                if let Some(tail) = tail.strip_prefix('{') {
                    path.push(key);
                    tail
                } else {
                    let end = tail.find([',', '}']).expect("a terminated value");
                    let dotted = path.iter().chain([&key]).copied().collect::<Vec<_>>();
                    out.push((dotted.join("."), tail[..end].to_string()));
                    &tail[end..]
                }
            }
            '}' => {
                path.pop();
                &rest[1..]
            }
            _ => &rest[1..],
        };
    }
    out
}

fn metrics(report: &GridReport) -> String {
    let mut m = MetricsRegistry::new();
    report.publish_metrics(&mut m);
    m.render_json()
}

/// `got` must equal `want` in every report, every report's published
/// metrics and every summary's bits.
fn agree(want: &CampaignResult, got: &CampaignResult, mode: &str, what: &str) {
    assert_eq!(want.reports(), got.reports(), "{mode} diverged on {what}");
    for (a, b) in want.reports().iter().zip(got.reports()) {
        assert_eq!(metrics(a), metrics(b), "{mode} metrics diverged on {what}");
    }
    for name in want.metric_names() {
        let bits = |r: &CampaignResult| {
            let s = r.metric(name);
            (s.mean.to_bits(), s.stddev.to_bits())
        };
        assert_eq!(bits(want), bits(got), "{mode} {name} diverged on {what}");
    }
}

/// Run `spec` in every mode and demand one answer; `what` names the
/// input in failure messages. Returns the reference result.
fn check(spec: &CampaignSpec, what: &str) -> CampaignResult {
    let build = |spec: CampaignSpec| spec.build().unwrap_or_else(|e| panic!("{e}: {what}"));
    let reference = RunOptions::default().substrate(SubstrateMode::HydratedReference);
    let campaign = build(spec.clone());
    let half = build(
        spec.clone()
            .horizon(SimTime::from_picos(spec.horizon.as_picos() / 2)),
    );
    let want = campaign.run_seq_with(&reference);
    for r in want.reports() {
        let probes = &r.hydration;
        let bounded = probes.peak_resident <= CAP as u64;
        assert!(bounded, "probe pool {probes:?} on {what}");
        let census: u32 = r.archetype_hosts.iter().map(|&(_, n)| n).sum();
        assert_eq!(census, spec.pool.volunteers, "archetype census on {what}");
        if spec.deploy.migration.is_off() {
            let debug = format!("{r:?}");
            for field in ["evacuations:", "rescue_wins:", " transfer_secs:"] {
                assert!(
                    !debug.contains(field),
                    "policy off prints {field} on {what}"
                );
            }
        }
    }
    let no_ff = RunOptions::default().fastforward(false);
    agree(&want, &campaign.run_with(&no_ff), "fast-forward off", what);
    let hits = || fastforward::stats().trajectory_hits;
    let (before, reps) = (hits(), campaign.spec().repetitions.max(1) as u64);
    agree(
        &half.run_seq_with(&reference),
        &half.run(),
        "cold half horizon",
        what,
    );
    assert_eq!(hits(), before, "the half-horizon run resumed: {what}");
    agree(&want, &campaign.run(), "prefix resume", what);
    assert_eq!(
        hits(),
        before + reps,
        "the full horizon did not resume: {what}"
    );
    agree(&want, &campaign.run(), "exact-horizon resume", what);
    assert_eq!(
        hits(),
        before + 2 * reps,
        "the exact horizon did not resume: {what}"
    );
    let options = RunOptions::default();
    let response = wire::run_request_json(&wire::render_request(spec, &options))
        .unwrap_or_else(|e| panic!("{e}: {what}"));
    let expected = wire::render_response(spec, &options, &want);
    assert_eq!(response, expected, "wire response diverged on {what}");
    want
}

#[test]
fn every_execution_mode_agrees() {
    let mut drawn = BTreeSet::new();
    let mut rendered: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for case in 0..ProptestConfig::with_cases(64).cases {
        let doc = random_request(&mut SimRng::new(case as u64));
        drawn.extend(doc.iter().map(|(key, _)| key.to_string()));
        let body = nest(&doc);
        let spec = wire::parse_request(&body)
            .unwrap_or_else(|e| panic!("{e}: {body}"))
            .spec;
        let canonical = wire::render_request(&spec, &RunOptions::default());
        for (key, token) in leaves(&canonical) {
            rendered.entry(key).or_default().insert(token);
        }
        check(&spec, &format!("case {case}, {canonical}"));
    }
    for (key, tokens) in &rendered {
        if key != "spec_version" && !key.starts_with("options.") {
            assert!(drawn.contains(key), "the generator never draws {key}");
            assert!(tokens.len() >= 2, "{key} only took {tokens:?}");
        }
    }

    let fixed: Vec<CampaignSpec> = FIXED
        .iter()
        .map(|doc| wire::parse_request(doc).expect("a fixed input").spec)
        .collect();
    let results: Vec<_> = fixed.iter().map(|spec| check(spec, &spec.label)).collect();
    let churned = &results[3].reports()[0].hydration;
    assert!(
        churned.windows > 0,
        "no hydration window opened: {churned:?}"
    );

    // Sixteen threads race the fixed inputs and a horizon twin, which
    // resumes from its shorter run, through the shared trajectory cache.
    let mut specs = fixed;
    specs.push(specs[2].clone().horizon(SimTime::from_secs(14 * DAY)));
    let run_all = || {
        let run = |spec: &CampaignSpec| format!("{:?}", spec.clone().build().unwrap().run());
        specs.iter().map(run).collect::<Vec<_>>()
    };
    reset_all();
    let sequential = run_all();
    reset_all();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..16).map(|_| scope.spawn(run_all)).collect();
        for (i, thread) in threads.into_iter().enumerate() {
            let results = thread.join().expect("racing thread");
            assert_eq!(results, sequential, "thread {i} diverged from a cold run");
        }
    });
}

//! Golden pins for the versioned wire API (DESIGN.md §15).
//!
//! The request fixtures under `tests/golden/` are hand-written in the
//! sparse human form (defaults omitted, seed in whichever notation the
//! author liked); the response fixtures are the byte-exact manifests
//! `wire::run_request_json` produced for them when they were committed.
//! Together they pin three contracts at once:
//!
//! 1. *Schema stability* — a request that parsed yesterday parses
//!    today, and produces the same manifest bytes (any drift in the
//!    simulator, wire field set, or number formatting shows up as a
//!    fixture diff that must be reviewed and re-committed).
//! 2. *Canonical form is a fixed point* — `render_request` of a parsed
//!    request re-parses to the same canonical bytes and the same
//!    `spec_digest`.
//! 3. *CLI/server equivalence for free* — both `vgrid campaign --spec`
//!    and the serve worker run `parse_request` then `run_request`, the
//!    two halves of `run_request_json`, so pinning its output pins
//!    them both.
//!
//! The fixtures also seed the fuzzers of the two hand-rolled parsers,
//! `wire::parse_request` and `serve::http::read_request`: mutated
//! documents and HTTP frames must never panic either, and every
//! rejection must be a typed error.

use proptest::prelude::*;
use vgrid::grid::wire::{self, WireErrorKind};
use vgrid::serve::http::read_request;
use vgrid::simcore::SimRng;

const CASES: &[(&str, &str)] = &[
    (
        "tests/golden/campaign_native.request.json",
        "tests/golden/campaign_native.response.json",
    ),
    (
        "tests/golden/campaign_vm.request.json",
        "tests/golden/campaign_vm.response.json",
    ),
    (
        "tests/golden/campaign_migration.request.json",
        "tests/golden/campaign_migration.response.json",
    ),
    // Zero-byte transfers and sub-microsecond work: the schedules a
    // download-to-compute or compute-to-upload step makes carry no
    // 1 µs floor, so these pin the delays the simulator leaves unfloored.
    (
        "tests/golden/campaign_zero_bytes.request.json",
        "tests/golden/campaign_zero_bytes.response.json",
    ),
    (
        "tests/golden/campaign_sub_microsecond.request.json",
        "tests/golden/campaign_sub_microsecond.response.json",
    ),
];

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"))
}

#[test]
fn request_fixtures_reach_a_canonical_fixed_point() {
    for (req_path, _) in CASES {
        let body = read(req_path);
        let req = wire::parse_request(&body)
            .unwrap_or_else(|e| panic!("fixture {req_path} no longer parses: {e}"));
        let canonical = wire::render_request(&req.spec, &req.options);
        let reparsed = wire::parse_request(&canonical)
            .unwrap_or_else(|e| panic!("canonical form of {req_path} no longer parses: {e}"));
        let canonical2 = wire::render_request(&reparsed.spec, &reparsed.options);
        assert_eq!(
            canonical, canonical2,
            "canonical form of {req_path} is not a render/parse fixed point"
        );
        assert_eq!(
            wire::spec_digest(&req.spec, &req.options),
            wire::spec_digest(&reparsed.spec, &reparsed.options),
            "spec_digest of {req_path} changes across a round trip"
        );
    }
}

#[test]
fn responses_match_the_committed_goldens() {
    for (req_path, resp_path) in CASES {
        let body = read(req_path);
        let expected = read(resp_path);
        let got = wire::run_request_json(&body)
            .unwrap_or_else(|e| panic!("fixture {req_path} no longer runs: {e}"));
        assert!(
            got.ends_with('\n') && got.contains(wire::RESPONSE_SCHEMA),
            "manifest shape drifted for {req_path}"
        );
        assert_eq!(
            got, expected,
            "manifest bytes for {req_path} drifted from the committed golden {resp_path}; \
             if the change is intentional, regenerate with \
             `vgrid campaign --spec {req_path} --manifest-json {resp_path}`"
        );
    }
}

/// Tokens the fuzzers splice in: numbers past every range, a lone
/// surrogate escape, and structure fragments.
const TOKENS: &[&str] = &[
    "1e309",
    "-1e309",
    "18446744073709551616",
    "4294967296",
    "-0",
    "1e-400",
    r#""\ud800""#,
    r#"\ud800"#,
    "null",
    "true",
    "\"",
    "{",
    "}",
    "[",
    ",",
    ":",
    "\u{0}",
];

/// `seed` with one to four random edits: an inserted token, a deleted
/// run of up to 16 bytes, or a flipped bit.
fn mutate(seed: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..=rng.next_below(4) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(3) {
            0 => {
                let token = TOKENS[rng.next_below(TOKENS.len() as u64) as usize];
                bytes.splice(at..at, token.bytes());
            }
            1 => {
                let end = (at + 1 + rng.next_below(16) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            _ if at < bytes.len() => bytes[at] ^= 1 << rng.next_below(8),
            _ => {}
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A mutated fixture never panics the parser. A rejection is typed:
    /// a JSON error names a byte of the document, a version error names
    /// `spec_version`. An accepted request that builds renders to a
    /// canonical fixed point (non-finite numbers parse, but never build).
    #[test]
    fn mutated_requests_are_typed_errors_or_fixed_points(
        fixture in 0..CASES.len(),
        seed in any::<u64>(),
    ) {
        let bytes = mutate(read(CASES[fixture].0).as_bytes(), &mut SimRng::new(seed));
        let body = String::from_utf8_lossy(&bytes);
        match wire::parse_request(&body) {
            Err(e) => match e.kind {
                WireErrorKind::Json => {
                    let at = e.message.rsplit("at byte ").next().and_then(|n| n.parse().ok());
                    prop_assert!(at.is_some_and(|at: usize| at <= body.len()), "{e}");
                }
                WireErrorKind::Version => prop_assert!(e.message.contains("spec_version"), "{e}"),
                WireErrorKind::Invalid => prop_assert!(!e.message.is_empty()),
            },
            Ok(req) if req.spec.clone().build().is_ok() => {
                let canonical = wire::render_request(&req.spec, &req.options);
                let back = wire::parse_request(&canonical)
                    .unwrap_or_else(|e| panic!("{e}: {canonical}"));
                prop_assert_eq!(wire::render_request(&back.spec, &back.options), canonical);
            }
            Ok(_) => {}
        }
    }

    /// A mutated HTTP frame around a fixture never panics the reader,
    /// and a rejection carries one of its status codes.
    #[test]
    fn mutated_http_frames_are_typed_errors(fixture in 0..CASES.len(), seed in any::<u64>()) {
        let body = read(CASES[fixture].0);
        let frame = format!(
            "POST /v1/campaign HTTP/1.1\r\nHost: vgrid\r\nX-Vgrid-Tenant: a\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let bytes = mutate(frame.as_bytes(), &mut SimRng::new(seed));
        if let Ok(Err(e)) = read_request(&mut std::io::Cursor::new(bytes)) {
            prop_assert!([400, 413, 431, 505].contains(&e.status), "{e:?}");
        }
    }
}

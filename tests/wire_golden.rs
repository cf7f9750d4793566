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

use vgrid::grid::wire;

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

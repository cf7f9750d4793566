//! Registry-level substrate equivalence, enforced across processes.
//!
//! Every grid experiment in the registry must produce byte-identical
//! figure JSON *and* a byte-identical run manifest whether it runs on
//! the archetype-batched substrate (default), under
//! `--hydrated-reference`, or with fast-forward switched off
//! (`--no-fastforward`). Each invocation is a fresh process, so the
//! engine cache starts cold and cannot mask a divergence between the
//! modes.
//!
//! One carve-out: the `grid.fastforward.trajectory_*` metric rows
//! report trajectory reuse — the execution strategy itself, which is
//! exactly what this test varies. Neither the reference substrate nor
//! the kill switch consults the trajectory cache (DESIGN.md §13), so
//! those rows must be present in the batched manifest, absent from the
//! other two, and are stripped before the byte comparison. Everything
//! simulation-derived still compares exactly.

use std::path::PathBuf;
use std::process::Command;

const GRID_IDS: &[&str] = &[
    "grid-tradeoff",
    "grid-image",
    "grid-migration",
    "grid-churn",
];

fn tmp(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p
}

/// Run `vgrid run <id> --json --metrics-json <out> [extra]` in a fresh
/// process; return (figure JSON stdout, manifest bytes).
fn run_grid(id: &str, out: &PathBuf, extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vgrid"));
    cmd.args(["run", id, "--json"]).args(extra);
    cmd.arg("--metrics-json").arg(out);
    let output = cmd.output().expect("spawn vgrid binary");
    assert!(
        output.status.success(),
        "vgrid run {id} {extra:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let manifest = std::fs::read(out).expect("manifest written");
    (output.stdout, manifest)
}

/// Remove `"grid.fastforward.<name>":<number>` manifest entries (and
/// the comma joining them to their neighbor). Metric values are plain
/// JSON numbers, so scanning to the next `,` or `}` is exact.
fn strip_fastforward_rows(manifest: &[u8]) -> String {
    let mut s = std::str::from_utf8(manifest)
        .expect("manifest is utf-8")
        .to_string();
    while let Some(start) = s.find("\"grid.fastforward.") {
        let value_end = start
            + s[start..]
                .find([',', '}'])
                .expect("metric entry is terminated");
        let range = if s[..start].ends_with(',') {
            start - 1..value_end
        } else if s[value_end..].starts_with(',') {
            start..value_end + 1
        } else {
            start..value_end
        };
        s.replace_range(range, "");
    }
    s
}

#[test]
fn grid_registry_is_bit_identical_across_substrates() {
    for id in GRID_IDS {
        let (fig_batched, man_batched) = run_grid(id, &tmp(&format!("{id}.batched.json")), &[]);
        let batched = strip_fastforward_rows(&man_batched);
        assert_ne!(
            batched.len(),
            man_batched.len(),
            "batched manifest must report its fast-forward reuse for {id}"
        );
        assert!(!fig_batched.is_empty() && !man_batched.is_empty());
        for (mode, flag) in [
            ("reference", "--hydrated-reference"),
            ("no-fastforward", "--no-fastforward"),
        ] {
            let (fig, man) = run_grid(id, &tmp(&format!("{id}.{mode}.json")), &[flag]);
            assert_eq!(
                fig_batched, fig,
                "figure JSON diverged under {flag} for {id}"
            );
            let stripped = strip_fastforward_rows(&man);
            assert_eq!(
                batched, stripped,
                "run manifest diverged under {flag} for {id}"
            );
            assert_eq!(
                stripped.len(),
                man.len(),
                "{mode} manifest must not touch the trajectory cache for {id}"
            );
        }
    }
}

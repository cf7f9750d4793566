//! The command-line tools stop quietly, with success, when their reader
//! closes stdout early (`vgrid suite | head -1`), instead of panicking
//! on the failed write.

use std::process::{Command, Stdio};

/// Spawn `bin args` with its stdout read end closed at once, so every
/// write the tool makes hits a broken pipe.
fn stops_quietly(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the tool");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for the tool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}:\n{stderr}");
}

#[test]
fn vgrid_stops_quietly_on_a_closed_pipe() {
    let vgrid = env!("CARGO_BIN_EXE_vgrid");
    stops_quietly(vgrid, &["list"]);
    stops_quietly(vgrid, &["suite"]);
    stops_quietly(vgrid, &["run", "fig1", "--json"]);
}

#[test]
fn vgrid_report_stops_quietly_on_a_closed_pipe() {
    stops_quietly(env!("CARGO_BIN_EXE_vgrid-report"), &[]);
}

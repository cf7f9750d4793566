//! The serve determinism gate (DESIGN.md §15): a campaign manifest
//! served under concurrent load must be byte-identical to the one a
//! cold sequential `wire::run_request_json` call produces for the same
//! body — same `(spec, seed, options)`, same bytes, regardless of which
//! worker ran it, which tenant queue it sat in, or what else the shared
//! trajectory cache absorbed in the meantime. Both host substrates
//! (batched and hydrated-reference) are interleaved in the same hammer.
//!
//! One `#[test]`: the server, its counters, and the grid trajectory
//! cache are process-wide, so parallel test functions would race on
//! them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use vgrid::grid::{self, wire};
use vgrid::serve::{ServeConfig, Server};

const CLIENTS: usize = 8;
const ROUNDS: usize = 3;

/// A small campaign request body. `substrate` picks the host substrate
/// so the gate covers both execution modes; everything else stays tiny
/// to keep the hammer fast.
fn body(label: &str, seed: u64, days: u64, vm: bool, substrate: &str) -> String {
    let deploy = if vm {
        r#"{"mode": "vmplayer", "image_bytes": 209715200}"#
    } else {
        r#"{"mode": "native"}"#
    };
    format!(
        concat!(
            "{{\n",
            "  \"spec_version\": 1,\n",
            "  \"label\": \"{label}\",\n",
            "  \"seed\": {seed},\n",
            "  \"horizon_secs\": {horizon},\n",
            "  \"project\": {{\"workunits\": 4, \"wu_ref_secs\": 900}},\n",
            "  \"pool\": {{\"volunteers\": 8}},\n",
            "  \"deploy\": {deploy},\n",
            "  \"churn\": {{\"level\": 0.25}},\n",
            "  \"options\": {{\"substrate\": \"{substrate}\"}}\n",
            "}}\n"
        ),
        label = label,
        seed = seed,
        horizon = days * 24 * 3600,
        deploy = deploy,
        substrate = substrate,
    )
}

/// Minimal HTTP/1.1 client against the in-process server. Returns
/// `(status, body)`.
fn post(addr: SocketAddr, path: &str, tenant: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to in-process server");
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: vgrid\r\nX-Vgrid-Tenant: {tenant}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn served_manifests_are_byte_identical_to_a_cold_sequential_run() {
    // Two configurations x two substrates, plus a longer-horizon twin
    // of the first config so the trajectory cache's prefix-resume path
    // is crossed by concurrent requests too.
    let bodies: Vec<String> = vec![
        body("det-native", 0xc11, 2, false, "batched"),
        body("det-native-long", 0xc11, 3, false, "batched"),
        body("det-vm", 0xc12, 2, true, "batched"),
        body("det-native-hydrated", 0xc11, 2, false, "hydrated-reference"),
        body("det-vm-hydrated", 0xc12, 2, true, "hydrated-reference"),
    ];

    // Cold sequential reference: empty caches, one request at a time.
    grid::reset_all();
    let expected: Vec<String> = bodies
        .iter()
        .map(|b| wire::run_request_json(b).expect("reference body runs"))
        .collect();
    for (b, e) in bodies.iter().zip(&expected) {
        assert!(
            e.contains(wire::RESPONSE_SCHEMA),
            "reference manifest missing schema for body {b}"
        );
    }

    // Warm shared caches + live server, hammered by interleaved
    // duplicates from CLIENTS tenants.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1".to_string(),
        port: 0,
        workers: 4,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || server.run().expect("server run"));

        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let bodies = &bodies;
                let expected = &expected;
                scope.spawn(move || {
                    let tenant = format!("tenant-{c}");
                    for round in 0..ROUNDS {
                        for i in 0..bodies.len() {
                            // Distinct per-client orderings keep the
                            // duplicates genuinely interleaved.
                            let k = (i + c + round) % bodies.len();
                            let (status, payload) = post(addr, "/v1/campaign", &tenant, &bodies[k]);
                            assert_eq!(status, 200, "request failed: {payload}");
                            assert_eq!(
                                payload, expected[k],
                                "served manifest diverged from the cold sequential \
                                 reference for body index {k} (client {c}, round {round})"
                            );
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }

        // Interleaved duplicates of the same warm identity must have
        // been observed as cross-request cache overlap.
        let stats = vgrid::serve::stats();
        assert_eq!(
            stats.requests,
            (CLIENTS * ROUNDS * bodies.len()) as u64,
            "request counter missed traffic"
        );
        assert_eq!(stats.errors, 0, "no request in the hammer may error");
        assert!(
            stats.cache_cross_hits > 0,
            "duplicate requests must register cross-request cache hits"
        );

        let (status, payload) = post(addr, "/v1/shutdown", "tenant-admin", "");
        assert_eq!(status, 200, "shutdown failed: {payload}");
        server_thread.join().expect("server thread");
    });
}

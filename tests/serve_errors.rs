//! Malformed-request behavior of `vgrid serve`: every bad body gets a
//! typed `vgrid-error/v1` response with the right `kind`, the HTTP
//! status is 400, and — the part that matters for a long-running
//! service — the server keeps serving afterwards.
//!
//! One `#[test]`: server counters are process-wide.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use vgrid::serve::{ServeConfig, Server};

fn send(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to in-process server");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let status: u16 = buf
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {buf:?}"));
    let payload = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: vgrid\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn bad_requests_get_typed_errors_and_the_server_stays_up() {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1".to_string(),
        port: 0,
        workers: 2,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || server.run().expect("server run"));

        let deep = "[".repeat(100_000);
        // (body, expected error kind, message fragment)
        let table: &[(&str, &str, &str)] = &[
            // Truncated JSON: a parse error, not a spec error.
            ("{", "json", "json"),
            // Deep nesting: a parse error, not a worker stack overflow
            // that takes the whole server down.
            (&deep, "json", "nesting deeper than 32 levels"),
            // Valid JSON, wrong protocol version.
            (
                r#"{"spec_version": 2}"#,
                "version",
                "unsupported spec_version 2",
            ),
            // Version missing entirely.
            (r#"{"label": "x"}"#, "version", "missing spec_version"),
            // Valid envelope, semantically invalid spec.
            (
                r#"{"spec_version": 1, "churn": {"availability_shape": 0.0}}"#,
                "invalid",
                "availability_shape",
            ),
            // A shape below the floor rounds most spans to 0 ps: the
            // campaign would stop advancing time.
            (
                r#"{"spec_version": 1, "churn": {"availability_shape": 0.05}}"#,
                "invalid",
                "availability_shape",
            ),
            // Unknown key: diagnosed, never silently ignored.
            (
                r#"{"spec_version": 1, "pool": {"volunteeers": 8}}"#,
                "invalid",
                "volunteeers",
            ),
            // Duplicate keys would make "last one wins" guessing.
            (
                r#"{"spec_version": 1, "seed": 1, "seed": 2}"#,
                "invalid",
                "duplicate",
            ),
            // One second past the u64-picosecond clock must be
            // rejected, not wrapped into a sub-second campaign.
            (
                r#"{"spec_version": 1, "horizon_secs": 18446745}"#,
                "invalid",
                "horizon_secs",
            ),
            // A speed that parses to +inf must be rejected: its
            // canonical form would render as `null`, which no longer
            // parses back.
            (
                r#"{"spec_version": 1, "pool": {"speed_max": 1e400}}"#,
                "invalid",
                "speed_range",
            ),
            // A native task fetches no VM image.
            (
                r#"{"spec_version": 1, "deploy": {"mode": "native", "image_bytes": 1}}"#,
                "invalid",
                "image_bytes",
            ),
        ];
        for (body, kind, fragment) in table {
            let (status, payload) = post(addr, "/v1/campaign", body);
            assert_eq!(status, 400, "body {body:?} must be rejected: {payload}");
            assert!(
                payload.contains(&format!("\"kind\":\"{kind}\"")),
                "body {body:?} must produce a {kind:?} error, got {payload}"
            );
            assert!(
                payload.contains(fragment),
                "error for {body:?} must mention {fragment:?}, got {payload}"
            );
            assert!(
                payload.contains("\"schema\":\"vgrid-error/v1\""),
                "error responses must carry the error schema, got {payload}"
            );
        }

        // Wrong method and unknown path are HTTP-level errors that also
        // must not take the server down.
        let (status, _) = send(
            addr,
            "GET /v1/campaign HTTP/1.1\r\nHost: vgrid\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405, "GET on a POST endpoint");
        let (status, _) = send(
            addr,
            "GET /v1/nope HTTP/1.1\r\nHost: vgrid\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 404, "unknown path");

        // The server is still alive and still serves valid work.
        let good = r#"{"spec_version": 1, "label": "after-the-storm", "horizon_secs": 86400,
            "project": {"workunits": 2}, "pool": {"volunteers": 4}}"#;
        let (status, payload) = post(addr, "/v1/campaign", good);
        assert_eq!(status, 200, "valid request after errors: {payload}");
        assert!(payload.contains("vgrid-campaign-manifest/v1"));

        let stats = vgrid::serve::stats();
        assert_eq!(
            stats.errors,
            table.len() as u64,
            "every table row must count as an error"
        );

        let (status, _) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 200);
        server_thread.join().expect("server thread");
    });
}

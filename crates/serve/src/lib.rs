//! # vgrid-serve — campaign-as-a-service
//!
//! `vgrid serve` turns the campaign simulator into a long-running
//! service: a hand-rolled HTTP/1.1 listener (the workspace takes no
//! external dependencies) accepts versioned `CampaignSpec` JSON
//! documents (`grid::wire`, `"spec_version": 1`), runs them on a
//! worker pool with per-tenant round-robin fairness, and streams the
//! campaign manifest back.
//!
//! ## Determinism contract (DESIGN.md §15)
//!
//! The response body is a **pure function of the request document**.
//! Both the worker and `vgrid campaign --spec` call
//! `grid::wire::run_request_json`, so a served response is
//! byte-identical to the CLI manifest for the same body, regardless of
//! server load, request interleaving, or cache temperature — the
//! `serve_determinism` integration test hammers the server with
//! interleaved duplicates and diffs every byte against a cold
//! sequential run.
//!
//! Because runs share the process-wide trajectory cache
//! (`grid::fastforward`), a request whose configuration was already
//! heated by *another* request resumes from that request's stored
//! trajectory prefix. Those cross-request hits are observable — the
//! `serve.cache_cross_hits` counter on `GET /v1/status` and the
//! per-response `X-Vgrid-Cross-Hit` header — but deliberately **never**
//! appear in the manifest body, for the same reason the engine's
//! cache-concurrency suite excludes hit/miss counters from compared
//! manifests: cache temperature depends on arrival order, and gated
//! bytes must not.
//!
//! ## Endpoints
//!
//! | method | path           | body                                     |
//! |--------|----------------|------------------------------------------|
//! | POST   | `/v1/campaign` | wire request → manifest or error doc     |
//! | GET    | `/v1/health`   | liveness probe                           |
//! | GET    | `/v1/status`   | serve counters incl. `cache_cross_hits`  |
//! | POST   | `/v1/shutdown` | clean shutdown (drains queued requests)  |

#![forbid(unsafe_code)]

pub mod http;
pub mod sched;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vgrid_grid::wire;
use vgrid_simcore::DetSet;
use vgrid_simobs::json;

use http::{read_request, write_response, HttpError, HttpRequest};
use sched::FairQueue;

/// Schema tag of `GET /v1/status` documents.
pub const STATUS_SCHEMA: &str = "vgrid-serve-status/v1";

/// Campaign requests accepted (valid or not) since process start.
static REQUESTS_SERVED: AtomicU64 = AtomicU64::new(0);

/// Campaign requests rejected with a typed error document.
static REQUEST_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Campaign requests whose warm identity was already heated by an
/// earlier request (see [`wire::warm_key`]).
static CROSS_HITS: AtomicU64 = AtomicU64::new(0);

/// Warm identities seen so far. Rank 70: this lock is scoped to a
/// membership check and never held across a campaign run, which takes
/// the rank-60 trajectory lock and the rank-80 characterization memo.
static WARM_KEYS: Mutex<Option<DetSet<u64>>> = Mutex::new(None);

/// Snapshot of the serve counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Campaign requests accepted.
    pub requests: u64,
    /// Campaign requests answered with an error document.
    pub errors: u64,
    /// Requests that overlapped an earlier request's warm cache state.
    pub cache_cross_hits: u64,
}

/// Current serve counters.
pub fn stats() -> ServeStats {
    ServeStats {
        requests: REQUESTS_SERVED.load(Ordering::Relaxed),
        errors: REQUEST_ERRORS.load(Ordering::Relaxed),
        cache_cross_hits: CROSS_HITS.load(Ordering::Relaxed),
    }
}

/// Zero the counters and forget all warm identities (test isolation;
/// does not touch the grid caches — `grid::reset_all` owns those).
pub fn reset() {
    REQUESTS_SERVED.store(0, Ordering::Relaxed);
    REQUEST_ERRORS.store(0, Ordering::Relaxed);
    CROSS_HITS.store(0, Ordering::Relaxed);
    *WARM_KEYS.lock().expect("serve::WARM_KEYS poisoned") = None;
}

/// Record a request's warm identity; true when an earlier request
/// already heated the same configuration (a cross-request cache hit).
fn note_warm_key(key: u64) -> bool {
    let mut guard = WARM_KEYS.lock().expect("serve::WARM_KEYS poisoned");
    let seen = guard.get_or_insert_with(DetSet::new);
    if seen.contains(&key) {
        true
    } else {
        seen.insert(key);
        false
    }
}

/// The status document served at `GET /v1/status`.
pub fn status_json(workers: usize) -> String {
    let s = stats();
    json::object(&[
        ("schema", json::string(STATUS_SCHEMA)),
        (
            "serve",
            json::object(&[
                ("cache_cross_hits", s.cache_cross_hits.to_string()),
                ("errors", s.errors.to_string()),
                ("requests", s.requests.to_string()),
            ]),
        ),
        ("workers", workers.to_string()),
    ]) + "\n"
}

fn health_json() -> String {
    json::object(&[
        ("ok", "true".to_string()),
        ("schema", json::string("vgrid-serve-health/v1")),
    ]) + "\n"
}

fn shutdown_json() -> String {
    json::object(&[
        ("ok", "true".to_string()),
        ("schema", json::string("vgrid-serve-shutdown/v1")),
    ]) + "\n"
}

/// Error document for protocol-level (non-wire) rejections; same
/// envelope as [`wire::render_error`] with kind `http`.
fn http_error_json(e: &HttpError) -> String {
    json::object(&[
        (
            "error",
            json::object(&[
                ("kind", json::string("http")),
                ("message", json::string(&e.message)),
            ]),
        ),
        ("schema", json::string(wire::ERROR_SCHEMA)),
    ]) + "\n"
}

/// Listener configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (default `127.0.0.1`).
    pub addr: String,
    /// TCP port; `0` asks the OS for a free one (tests).
    pub port: u16,
    /// Worker threads running campaigns (minimum 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 7411,
            workers: 4,
        }
    }
}

/// One queued campaign request: the connection to answer on and the
/// request body to run.
struct Job {
    stream: TcpStream,
    body: String,
}

enum Flow {
    Continue,
    Shutdown,
}

/// The campaign service. [`Server::bind`] claims the port;
/// [`Server::run`] blocks until a `POST /v1/shutdown` arrives.
pub struct Server {
    listener: TcpListener,
    workers: usize,
}

impl Server {
    /// Bind the listener. Campaigns do not run until [`Server::run`].
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((cfg.addr.as_str(), cfg.port))?;
        Ok(Server {
            listener,
            workers: cfg.workers.max(1),
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve requests until shutdown. Queued campaigns
    /// drain before this returns; per-connection I/O errors are
    /// answered or dropped without taking the server down.
    pub fn run(&self) -> io::Result<()> {
        let queue: FairQueue<Job> = FairQueue::new();
        std::thread::scope(|s| {
            let queue = &queue;
            for _ in 0..self.workers {
                s.spawn(move || {
                    while let Some(mut job) = queue.pop() {
                        let (status, headers, body) = respond_campaign(&job.body);
                        let _ = write_response(&mut job.stream, status, &headers, &body);
                    }
                });
            }
            let result = self.accept_loop(queue);
            queue.close();
            result
        })
    }

    fn accept_loop(&self, queue: &FairQueue<Job>) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if let Flow::Shutdown = self.handle_connection(stream, queue) {
                return Ok(());
            }
        }
        Ok(())
    }

    fn handle_connection(&self, mut stream: TcpStream, queue: &FairQueue<Job>) -> Flow {
        let req = match read_request(&mut stream) {
            Ok(Ok(req)) => req,
            Ok(Err(e)) => {
                let _ = write_response(&mut stream, e.status, &[], &http_error_json(&e));
                return Flow::Continue;
            }
            // Peer hung up or broke the stream; nothing to answer.
            Err(_) => return Flow::Continue,
        };
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/campaign") => {
                REQUESTS_SERVED.fetch_add(1, Ordering::Relaxed);
                let tenant = req
                    .header("x-vgrid-tenant")
                    .unwrap_or("default")
                    .to_string();
                let body = req.body;
                queue.push(&tenant, Job { stream, body });
                Flow::Continue
            }
            ("GET", "/v1/health") => {
                let _ = write_response(&mut stream, 200, &[], &health_json());
                Flow::Continue
            }
            ("GET", "/v1/status") => {
                let _ = write_response(&mut stream, 200, &[], &status_json(self.workers));
                Flow::Continue
            }
            ("POST", "/v1/shutdown") => {
                let _ = write_response(&mut stream, 200, &[], &shutdown_json());
                Flow::Shutdown
            }
            (_, "/v1/campaign") | (_, "/v1/shutdown") | (_, "/v1/health") | (_, "/v1/status") => {
                self.reject(stream, &req, 405, "method not allowed");
                Flow::Continue
            }
            _ => {
                self.reject(stream, &req, 404, "no such endpoint");
                Flow::Continue
            }
        }
    }

    fn reject(&self, mut stream: TcpStream, req: &HttpRequest, status: u16, what: &str) {
        let e = HttpError {
            status,
            message: format!(
                "{what}: {} {} (endpoints: POST /v1/campaign, GET /v1/health, \
                 GET /v1/status, POST /v1/shutdown)",
                req.method, req.path
            ),
        };
        let _ = write_response(&mut stream, status, &[], &http_error_json(&e));
    }
}

/// Run one campaign request body to its full response. Split from the
/// worker loop so the error/counter policy is unit-testable without a
/// socket.
fn respond_campaign(body: &str) -> (u16, Vec<(&'static str, String)>, String) {
    let parsed = match wire::parse_request(body) {
        Ok(p) => p,
        Err(e) => {
            REQUEST_ERRORS.fetch_add(1, Ordering::Relaxed);
            return (400, Vec::new(), wire::render_error(&e));
        }
    };
    // Membership is recorded before the run: an identical concurrent
    // request may then count as a hit while this one still computes —
    // the counter measures configuration overlap, not wall-clock cache
    // outcomes, and stays out of all gated bytes either way.
    let cross_hit = note_warm_key(wire::warm_key(&parsed.spec));
    if cross_hit {
        CROSS_HITS.fetch_add(1, Ordering::Relaxed);
    }
    match wire::run_request_json(body) {
        Ok(manifest) => (
            200,
            vec![("X-Vgrid-Cross-Hit", u8::from(cross_hit).to_string())],
            manifest,
        ),
        Err(e) => {
            REQUEST_ERRORS.fetch_add(1, Ordering::Relaxed);
            (400, Vec::new(), wire::render_error(&e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter-touching tests share one #[test]: the statics are
    // process-wide and cargo runs #[test] fns concurrently.
    #[test]
    fn respond_campaign_policy_and_counters() {
        reset();

        // Malformed JSON: 400, json kind, error counted.
        let (status, headers, body) = respond_campaign("{");
        assert_eq!(status, 400);
        assert!(headers.is_empty());
        assert!(body.contains(r#""kind":"json""#), "{body}");

        // Unsupported version: 400, version kind.
        let (status, _, body) = respond_campaign(r#"{"spec_version": 2}"#);
        assert_eq!(status, 400);
        assert!(body.contains(r#""kind":"version""#), "{body}");

        // Parses but fails campaign validation: 400, invalid kind, and
        // the warm key was still recorded (parse succeeded).
        let invalid = r#"{"spec_version": 1, "churn": {"availability_shape": 0.0}}"#;
        let (status, _, body) = respond_campaign(invalid);
        assert_eq!(status, 400);
        assert!(body.contains(r#""kind":"invalid""#), "{body}");

        assert_eq!(stats().errors, 3);
        assert_eq!(stats().cache_cross_hits, 0);

        // A tiny valid campaign: 200, manifest schema, cold (miss).
        let valid = r#"{
            "spec_version": 1,
            "label": "unit",
            "horizon_secs": 86400,
            "project": {"workunits": 2, "wu_ref_secs": 600.0},
            "pool": {"volunteers": 4}
        }"#;
        let (status, headers, body) = respond_campaign(valid);
        assert_eq!(status, 200, "{body}");
        assert_eq!(headers, vec![("X-Vgrid-Cross-Hit", "0".to_string())]);
        assert!(
            body.contains(r#""schema":"vgrid-campaign-manifest/v1""#),
            "{body}"
        );

        // Same configuration again: byte-identical body, cross-hit.
        let (status, headers, again) = respond_campaign(valid);
        assert_eq!(status, 200);
        assert_eq!(headers, vec![("X-Vgrid-Cross-Hit", "1".to_string())]);
        assert_eq!(again, body, "manifest bytes must not depend on cache state");

        // Longer horizon of the same config: same warm identity.
        let longer = valid.replace("86400", "172800");
        let (status, headers, _) = respond_campaign(&longer);
        assert_eq!(status, 200);
        assert_eq!(headers, vec![("X-Vgrid-Cross-Hit", "1".to_string())]);

        let s = stats();
        assert_eq!(s.cache_cross_hits, 2);
        assert_eq!(s.errors, 3);

        // Status document carries the counters.
        let doc = status_json(4);
        assert!(doc.contains(r#""cache_cross_hits":2"#), "{doc}");
        assert!(doc.contains(r#""schema":"vgrid-serve-status/v1""#), "{doc}");

        reset();
        assert_eq!(stats(), ServeStats::default());
    }

    #[test]
    fn documents_are_newline_terminated_json() {
        for doc in [health_json(), shutdown_json(), status_json(1)] {
            assert!(doc.ends_with('\n'));
            assert!(doc.starts_with('{'));
        }
    }
}

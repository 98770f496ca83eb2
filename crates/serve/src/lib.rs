//! `mcm-serve`: the query API as a long-lived service.
//!
//! Everything below the wire already existed — `mcm-query` turns a JSON
//! document into a typed report ([`mcm_query::wire`]), and the engine
//! memoizes verdicts in a [`VerdictCache`]. This crate adds the
//! production shell around that core, hand-rolled on
//! [`std::net::TcpListener`] so the workspace stays dependency-free:
//!
//! * **One warm cache per process.** Every request runs against the same
//!   shared [`VerdictCache`], so a sweep warmed by one client accelerates
//!   the next — the cross-request analogue of the §4.2 warm-lattice
//!   effect. Requests opt out with `"cache": false`.
//! * **Backpressure, not queues of unbounded sadness.** The acceptor
//!   pushes connections into a bounded queue; when it is full the
//!   connection is answered `503` + `Retry-After` immediately instead of
//!   silently inflating tail latency.
//! * **Server-side ceilings.** Per-request [`EngineConfig`] knobs are
//!   honoured but clamped ([`ServerConfig::max_jobs`],
//!   [`ServerConfig::max_stream_tests`], [`ServerConfig::max_body_bytes`])
//!   so no request can monopolise the host.
//! * **Graceful shutdown.** A [`ShutdownHandle`] (or SIGTERM/SIGINT via
//!   [`signal`]) stops the acceptor, refuses new connections, drains
//!   queued and in-flight requests to completion, then joins the workers.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept ──► bounded queue ──► worker: parse HTTP ──► parse wire JSON
//!    │            │(full)            │(malformed)         │(invalid)
//!    │            └──► 503           └──► 4xx             └──► 400
//!    │                                                        │
//!    └ shutdown: refuse + drain              clamp ► run ► render ► 200
//!                                                   (shared VerdictCache)
//! ```
//!
//! Endpoints: `POST /query` (a wire-format document, answered in the
//! requested format), `GET /healthz`, `GET /statsz`.
//!
//! ## Example
//!
//! ```
//! use mcm_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.shutdown_handle();
//! let runner = std::thread::spawn(move || server.run());
//!
//! let health = mcm_serve::client::get(addr, "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//!
//! handle.shutdown();
//! runner.join().unwrap().unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcm_explore::{EngineConfig, VerdictCache};
use mcm_query::wire::{QuerySpec, WireRequest};
use mcm_query::{Format, TestSource};
use mcm_store::DiskCache;

pub mod client;
mod http;
mod queue;
pub mod signal;
mod stats;

pub use http::{HttpError, Request, Response, MAX_HEAD_BYTES};
pub use queue::{Bounded, PushError};
pub use stats::{RequestStats, ServeStats, ServiceGauges, Snapshot};

/// Tunables for one server instance. `Default` is sized for local use;
/// the CLI maps flags onto these fields.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Connections the queue holds before the acceptor sheds with `503`.
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes (`413` above).
    pub max_body_bytes: usize,
    /// Ceiling on per-request `engine.jobs`.
    pub max_jobs: usize,
    /// Ceiling on per-request stream-source test counts.
    pub max_stream_tests: usize,
    /// Socket read/write timeout per connection (`408` on expiry).
    pub read_timeout: Duration,
    /// Seconds advertised in `Retry-After` on a `503`.
    pub retry_after_secs: u32,
    /// Directory holding the durable verdict log (`mcm serve
    /// --store-dir`). When set, the shared cache is hydrated from
    /// `<dir>/verdicts.log` at bind time and every fresh verdict is
    /// appended back, so a restarted server answers previously-seen
    /// sweeps without a single checker call. `None` keeps the cache
    /// purely in-memory.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            max_jobs: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            max_stream_tests: 20_000,
            read_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            store_dir: None,
        }
    }
}

/// Everything the acceptor and workers share.
struct ServeState {
    config: ServerConfig,
    cache: Arc<VerdictCache>,
    /// Keeps the verdict log's write half alive for the server's whole
    /// life when `store_dir` is set; the shared `cache` above is the
    /// store's hydrated cache in that case.
    store: Option<DiskCache>,
    stats: ServeStats,
    queue: Bounded<TcpStream>,
}

impl ServeState {
    /// The one snapshot `/statsz` and `/metricsz` render.
    fn snapshot(&self) -> Snapshot {
        let store = self.store.as_ref().map(DiskCache::stats);
        self.stats
            .snapshot(self.cache.stats(), self.queue.len(), store)
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks until a
/// [`ShutdownHandle`] fires.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
}

/// Triggers and observes graceful shutdown; cloneable and sendable so
/// signal watchers and tests can hold one while the server runs.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Initiates shutdown (idempotent): marks the flag, then pokes the
    /// listener with a throwaway connection so a blocking `accept`
    /// observes it immediately.
    pub fn shutdown(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // The poke is best-effort; if the acceptor already exited the
            // connection simply fails.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listener and allocates the shared state (cache, stats,
    /// queue). No threads run until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and — with
    /// [`ServerConfig::store_dir`] — a verdict log that cannot be
    /// opened (a store the server cannot persist to is a startup
    /// error, not a silent downgrade).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Bounded::new(config.queue_depth);
        let store = match &config.store_dir {
            None => None,
            Some(dir) => Some(DiskCache::open(&dir.join("verdicts.log"))?),
        };
        let cache = store
            .as_ref()
            .map_or_else(|| Arc::new(VerdictCache::new()), |s| Arc::clone(s.cache()));
        let state = Arc::new(ServeState {
            cache,
            store,
            stats: ServeStats::new(),
            queue,
            config,
        });
        Ok(Server {
            listener,
            addr,
            state,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-wide verdict cache (shared with every request).
    #[must_use]
    pub fn cache(&self) -> Arc<VerdictCache> {
        Arc::clone(&self.state.cache)
    }

    /// A handle that shuts this server down.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.addr,
        }
    }

    /// Runs the accept loop and worker pool until shutdown, then drains:
    /// the listener closes first (new connections are refused at the TCP
    /// level), queued connections are still served, workers join.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind; the `Result` keeps
    /// room for fatal accept-loop errors.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            state,
            shutdown,
            ..
        } = self;
        std::thread::scope(|scope| {
            for _ in 0..state.config.workers.max(1) {
                let state = &state;
                scope.spawn(move || {
                    while let Some(stream) = state.queue.pop() {
                        handle_connection(state, stream);
                    }
                });
            }

            accept_loop(&listener, &state, &shutdown);

            // Refuse new connections, then let workers drain the queue.
            drop(listener);
            state.queue.close();
        });
        // Drained: make sure every appended verdict reaches the disk
        // before the process can exit.
        if let Some(store) = &state.store {
            let _ = store.sync();
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, state: &ServeState, shutdown: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            // Wake-up poke or raced connection during shutdown: drop it;
            // the peer sees a closed connection, same as post-drain.
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            // Transient accept failure (EMFILE, aborted handshake):
            // keep serving.
            continue;
        };
        state.stats.record_accepted();
        match state.queue.try_push(stream) {
            Ok(()) => {}
            Err(PushError::Full(mut stream)) => {
                state.stats.record_rejected();
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let response = Response::error(
                    503,
                    "query queue is full; retry after the indicated delay",
                )
                .with_header("Retry-After", state.config.retry_after_secs.to_string());
                let _ = http::write_response(&mut stream, &response);
            }
            Err(PushError::Closed(_)) => return,
        }
    }
}

fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let response = match http::read_request(&mut stream, state.config.max_body_bytes) {
        Ok(request) => route(state, &request),
        Err(HttpError::Disconnected) => {
            state.stats.record_hangup();
            return;
        }
        Err(error) => Response::error(error.status(), &error.message()),
    };
    state.stats.record_response(response.status);
    if http::write_response(&mut stream, &response).is_err() {
        state.stats.record_hangup();
    }
}

fn route(state: &ServeState, request: &Request) -> Response {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => Response::ok(
            "application/json",
            mcm_core::json::Json::object([
                ("schema_version", mcm_core::json::Json::Int(1)),
                ("kind", mcm_core::json::Json::from("health")),
                ("status", mcm_core::json::Json::from("ok")),
            ])
            .pretty(),
        ),
        ("GET", "/statsz") => Response::ok("application/json", state.snapshot().to_json().pretty()),
        ("GET", "/metricsz") => Response::ok(
            "text/plain; version=0.0.4",
            state.snapshot().to_prometheus(),
        ),
        ("POST", "/query") => execute(state, &request.body),
        (_, "/healthz" | "/statsz" | "/metricsz") => {
            Response::error(405, "this endpoint only answers GET").with_header("Allow", "GET")
        }
        (_, "/query") => {
            Response::error(405, "queries are POSTed as JSON documents")
                .with_header("Allow", "POST")
        }
        (_, target) => Response::error(
            404,
            &format!(
                "no such endpoint `{}`; try POST /query, GET /healthz, GET /statsz, GET /metricsz",
                target.chars().take(64).collect::<String>()
            ),
        ),
    }
}

fn execute(state: &ServeState, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "request body is not valid UTF-8");
    };
    let mut request = match WireRequest::parse(text) {
        Ok(request) => request,
        Err(error) => return Response::error(400, &error.to_string()),
    };
    let kind = request.spec.kind();
    state.stats.record_kind(kind);
    clamp(&mut request.spec, &state.config);

    // A panic inside a query must cost one 500, not a worker thread.
    // The in-flight gauge and latency histogram bracket exactly the
    // execution (not routing or rendering), so `/statsz` gauges read
    // zero whenever no query is running.
    let started = mcm_obs::Stopwatch::start();
    state.stats.query_started();
    let ran = {
        let _span = mcm_obs::trace::span_with("serve.query", &[("kind", kind)]);
        catch_unwind(AssertUnwindSafe(|| request.spec.run(Some(&state.cache))))
    };
    state.stats.query_finished(kind, started);
    match ran {
        Err(_) => Response::error(500, "query execution panicked; see server logs"),
        Ok(Err(error)) => {
            let status = if error.is_usage() { 400 } else { 500 };
            Response::error(status, &error.to_string())
        }
        Ok(Ok(outcome)) => {
            if let Some(sweep_stats) = &outcome.stats {
                state.stats.absorb_engine(sweep_stats);
            }
            match outcome.report.render(request.format) {
                Ok(rendered) => Response::ok(content_type(request.format), rendered),
                Err(error) => Response::error(400, &error.to_string()),
            }
        }
    }
}

/// Clamps request knobs to the server's ceilings. The request keeps its
/// say below the ceiling; above it, the server wins silently (the
/// response is still correct, just computed with fewer resources).
fn clamp(spec: &mut QuerySpec, config: &ServerConfig) {
    match spec {
        QuerySpec::Sweep(sweep) | QuerySpec::Distinguish(sweep) => {
            clamp_engine(&mut sweep.engine, config);
            if let TestSource::Stream { limit, .. } = &mut sweep.source {
                *limit = Some(
                    limit.map_or(config.max_stream_tests, |l| l.min(config.max_stream_tests)),
                );
            }
        }
        _ => {}
    }
}

fn clamp_engine(engine: &mut EngineConfig, config: &ServerConfig) {
    let ceiling = config.max_jobs.max(1);
    engine.jobs = Some(engine.jobs.map_or(ceiling, |jobs| jobs.min(ceiling)).max(1));
}

fn content_type(format: Format) -> &'static str {
    match format {
        Format::Json => "application/json",
        Format::Csv => "text/csv",
        _ => "text/plain",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping_respects_ceilings_but_not_requests_below_them() {
        let config = ServerConfig {
            max_jobs: 4,
            max_stream_tests: 100,
            ..ServerConfig::default()
        };
        let mut request = WireRequest::parse(
            r#"{"query": "sweep", "engine": {"jobs": 64},
                "tests": {"stream": {"limit": 100000}}}"#,
        )
        .unwrap();
        clamp(&mut request.spec, &config);
        let QuerySpec::Sweep(sweep) = &request.spec else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.jobs, Some(4));
        let TestSource::Stream { limit, .. } = &sweep.source else {
            panic!("expected stream");
        };
        assert_eq!(*limit, Some(100));

        let mut modest = WireRequest::parse(
            r#"{"query": "sweep", "engine": {"jobs": 2},
                "tests": {"stream": {"limit": 10}}}"#,
        )
        .unwrap();
        clamp(&mut modest.spec, &config);
        let QuerySpec::Sweep(sweep) = &modest.spec else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.jobs, Some(2));
        let TestSource::Stream { limit, .. } = &sweep.source else {
            panic!("expected stream");
        };
        assert_eq!(*limit, Some(10));

        // Unbounded requests get the ceiling, not infinity.
        let mut unbounded = WireRequest::parse(
            r#"{"query": "sweep", "tests": {"stream": {}}}"#,
        )
        .unwrap();
        clamp(&mut unbounded.spec, &config);
        let QuerySpec::Sweep(sweep) = &unbounded.spec else {
            panic!("expected sweep");
        };
        assert_eq!(sweep.engine.jobs, Some(4));
        let TestSource::Stream { limit, .. } = &sweep.source else {
            panic!("expected stream");
        };
        assert_eq!(*limit, Some(100));

        // Distinguish runs the same engine under the same ceiling.
        let mut distinguish = WireRequest::parse(
            r#"{"query": "distinguish", "engine": {"jobs": 64}}"#,
        )
        .unwrap();
        clamp(&mut distinguish.spec, &config);
        let QuerySpec::Distinguish(distinguish) = &distinguish.spec else {
            panic!("expected distinguish");
        };
        assert_eq!(distinguish.engine.jobs, Some(4));
    }

    #[test]
    fn bind_run_query_shutdown_round_trip() {
        let server = Server::bind(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run());

        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"ok\""));

        let response = client::post_query(
            addr,
            r#"{"query": "check", "model": "SC", "tests": "catalog"}"#,
        )
        .unwrap();
        assert_eq!(response.status, 200, "body: {}", response.body);
        assert_eq!(response.header("content-type"), Some("application/json"));

        let missing = client::get(addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);

        handle.shutdown();
        runner.join().unwrap().unwrap();

        // After shutdown the port refuses connections.
        assert!(client::get(addr, "/healthz").is_err());
    }
}

//! Load contract for `mcm serve` over real sockets: a multi-threaded
//! generator drives mixed wire-format requests at an in-process server.
//!
//! * every request in a 1000-strong mixed workload (sweep / compare /
//!   distinguish / check / catalog / suite / figures) is answered `200`,
//!   with `503` backpressure retried per `Retry-After`;
//! * a repeated identical sweep is served from the **shared warm cache**
//!   with a hit ratio above 90% and a p50 below the cold p50 — the
//!   cross-request analogue of the §4.2 warm-lattice effect;
//! * graceful shutdown leaves nothing hanging (every boot in the cold
//!   phase is also a clean drain).
//!
//! The p50 comparison is a wall-clock gate, so the test is ignored by
//! default and run in release:
//! `cargo test --release -p mcm-serve --test load -- --ignored`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mcm_core::json::Json;
use mcm_serve::{client, Server, ServerConfig, ShutdownHandle};

/// The identical sweep used for the cold/warm comparison. `jobs: 1`
/// keeps the cold compute single-threaded so the warm speedup is the
/// cache's, not the scheduler's, and the SAT checker makes the checking
/// cost dominate the fixed per-request work (canonicalization, lattice,
/// rendering) — a warm request skips exactly the expensive part.
const WARM_SWEEP: &str = r#"{"query": "sweep", "checker": "sat", "engine": {"jobs": 1},
                             "cache": true, "format": "json"}"#;

/// One cycle of the mixed workload; 100 cycles = 1000 requests.
const MIXED: [&str; 10] = [
    r#"{"query": "sweep", "engine": {"jobs": 2}}"#,
    r#"{"query": "compare", "left": "TSO", "right": "x86"}"#,
    r#"{"query": "check", "model": "SC", "tests": "catalog"}"#,
    r#"{"query": "distinguish", "models": ["SC", "TSO", "PSO", "RMO"]}"#,
    r#"{"query": "catalog"}"#,
    r#"{"query": "sweep", "models": ["SC", "TSO", "PSO"], "tests": "catalog"}"#,
    r#"{"query": "check", "model": "TSO", "tests": "catalog"}"#,
    r#"{"query": "suite"}"#,
    r#"{"query": "figures", "which": "fig3"}"#,
    r#"{"query": "compare", "left": "SC", "right": "PSO"}"#,
];

fn boot(workers: usize) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        workers,
        queue_depth: 64,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle, runner)
}

/// Issues one query, retrying `503` backpressure responses after the
/// advertised delay. Returns the latency of the successful attempt.
fn timed_query(addr: SocketAddr, body: &str) -> Duration {
    loop {
        let start = Instant::now();
        let response = client::post_query(addr, body).expect("request reaches the server");
        if response.status == 503 {
            let secs: u64 = response
                .header("Retry-After")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            // A fraction of the advertised delay keeps the generator
            // aggressive without busy-spinning.
            std::thread::sleep(Duration::from_millis(25.max(secs * 50)));
            continue;
        }
        assert_eq!(response.status, 200, "body: {}", response.body);
        return start.elapsed();
    }
}

/// Fans `requests` out over `threads` client threads (round-robin) and
/// returns every successful-request latency.
fn drive(addr: SocketAddr, requests: &[&str], threads: usize) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(requests.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mine: Vec<&str> = requests
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .copied()
                    .collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|body| timed_query(addr, body))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("client thread"));
        }
    });
    latencies
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

fn engine_counter(addr: SocketAddr, name: &str) -> u64 {
    let stats = client::get(addr, "/statsz").expect("statsz");
    assert_eq!(stats.status, 200);
    let doc = Json::parse(&stats.body).expect("statsz is valid JSON");
    doc.get("engine")
        .and_then(|engine| engine.get(name))
        .and_then(Json::as_u64)
        .expect("engine counter present")
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn mixed_load_is_answered_and_warm_sweeps_hit_the_shared_cache() {
    // Cold phase: a fresh server (empty cache) per sample, one sweep
    // each, then a full graceful drain.
    let mut cold: Vec<Duration> = (0..8)
        .map(|_| {
            let (addr, handle, runner) = boot(4);
            let elapsed = timed_query(addr, WARM_SWEEP);
            handle.shutdown();
            runner.join().expect("drained");
            elapsed
        })
        .collect();
    cold.sort();
    let cold_p50 = percentile(&cold, 0.5);

    // Warm phase: one server, one priming request, then the identical
    // sweep over and over — every verdict should come from the shared
    // cache, no matter which worker serves it.
    let (addr, handle, runner) = boot(4);
    let _prime = timed_query(addr, WARM_SWEEP);
    let hits_before = engine_counter(addr, "cache_hits");
    let calls_before = engine_counter(addr, "checker_calls");
    // Sequential like the cold samples, so the p50 comparison measures
    // the cache and not queueing delay.
    let mut warm = drive(addr, &[WARM_SWEEP; 100], 1);
    warm.sort();
    let warm_p50 = percentile(&warm, 0.5);
    let warm_hits = engine_counter(addr, "cache_hits") - hits_before;
    let warm_calls = engine_counter(addr, "checker_calls") - calls_before;
    let hit_ratio = warm_hits as f64 / (warm_hits + warm_calls).max(1) as f64;
    assert!(
        hit_ratio > 0.90,
        "warm sweeps must be cache-served: hit ratio {hit_ratio:.3} \
         ({warm_hits} hits / {warm_calls} checker calls)"
    );
    assert!(
        warm_p50 < cold_p50,
        "the shared cache must pay for itself: warm p50 {warm_p50:.2?} \
         vs cold p50 {cold_p50:.2?}"
    );

    // Mixed phase on the same (now warm) server: 1000 requests, eight
    // generator threads against four workers, so the bounded queue and
    // 503 path genuinely engage under load.
    let requests: Vec<&str> = MIXED
        .iter()
        .cycle()
        .take(1000)
        .copied()
        .collect();
    let start = Instant::now();
    let mut mixed = drive(addr, &requests, 8);
    let wall = start.elapsed();
    assert_eq!(mixed.len(), 1000);
    mixed.sort();
    let p50 = percentile(&mixed, 0.5);
    let p99 = percentile(&mixed, 0.99);

    handle.shutdown();
    runner.join().expect("drained");

    println!(
        "serve_load: 1000 mixed requests in {wall:.2?} \
         (p50 {p50:.2?}, p99 {p99:.2?}); warm sweep hit ratio {:.1}% \
         (p50 {warm_p50:.2?} warm vs {cold_p50:.2?} cold)",
        hit_ratio * 100.0,
    );
}

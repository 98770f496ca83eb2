//! `/metricsz` is valid Prometheus exposition on a `--store-dir` server
//! that has answered a sweep: every family has one `# TYPE` line, and
//! its samples follow that line without another family in between.

use std::collections::HashSet;

use mcm_serve::{client, Server, ServerConfig};

const SWEEP: &str = r#"{"query": "sweep", "models": ["SC", "TSO", "PSO"],
    "tests": "catalog", "engine": {"jobs": 1}}"#;

/// Checks the exposition rules; returns the family names in order.
fn families(text: &str) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    let mut current: Option<&str> = None;
    for line in text.lines() {
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            let name = typed.split(' ').next().unwrap();
            assert!(seen.insert(name), "`# TYPE {name}` appears twice:\n{text}");
            order.push(name.to_string());
            current = Some(name);
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = line.split(['{', ' ']).next().unwrap();
        let family = current.unwrap_or_else(|| panic!("sample {sample} before any # TYPE"));
        assert!(
            sample == family || sample.starts_with(&format!("{family}_")),
            "sample {sample} sits inside family {family}:\n{text}"
        );
    }
    order
}

#[test]
fn metricsz_types_every_family_once_and_keeps_its_samples_together() {
    let dir = std::env::temp_dir()
        .join("mcm-serve-metricsz-tests")
        .join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServerConfig {
        workers: 2,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind with a store dir");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server runs"));

    let swept = client::post_query(addr, SWEEP).expect("sweep answers");
    assert_eq!(swept.status, 200, "body: {}", swept.body);
    let metrics = client::get(addr, "/metricsz").expect("metricsz answers");
    assert_eq!(metrics.status, 200);
    let names = families(&metrics.body);
    for family in [
        "mcm_store_bytes",
        "mcm_store_appended_total",
        "mcm_cache_hits_disk_total",
        "mcm_cache_shard_contention_total",
        "mcm_engine_peak_batch",
    ] {
        assert!(names.iter().any(|n| n == family), "no {family} family");
    }

    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Shared pieces: the seeded generator, order statistics, digests, the
//! span recorder of traced runs, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the workload generator. The same seed always yields the
/// same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_b3c4_a11e)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile of `values` by nearest rank (`values` non-empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean: how a run sums up its rounds. The shared host the benchmark
/// was sized on drifts between a fast and a slow state over tens of
/// seconds (the same 1-thread sweep took 1.05 s or 1.8 s), so the median of
/// a few rounds jumps between the two, while the mean is the run's time
/// average: over a three-minute trace, means of a run's worth of rounds
/// spread 20-30% less from window to window than medians did.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// FNV-1a, the digest of every correctness gate.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The reference digests committed beside the benchmark.
const REFERENCE: &str = include_str!("../reference/digests.txt");

pub fn reference(name: &str) -> &'static str {
    REFERENCE
        .lines()
        .filter_map(|line| line.split_once('='))
        .find(|(key, _)| key.trim() == name)
        .map(|(_, value)| value.trim())
        .unwrap_or_else(|| panic!("reference/digests.txt has no `{name}`"))
}

/// Peak resident set of this process in MB (`VmHWM`). Each run is one
/// process running one workload, so the figure belongs to that workload.
/// A batch workload reads it after its first round: that is the peak of
/// one pass, as one CLI run reaches it. The rounds after it only repeat
/// the pass for timing, yet raised `store_resume`'s peak from ~220 MB to
/// anywhere between 260 and 310 MB (allocator fragmentation), which no
/// change to the program would have caused.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Progress on standard error: one line per timed round, its phase walls.
pub fn log_round(walls: &[f64]) {
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("perfbench: round walls (s): {}", walls.join(" "));
}

/// Spans recorded by a traced run, kept in memory: name, start and end
/// offsets from the run's origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push((name, start, end));
        out
    }

    /// Wall time since the origin not covered by any span.
    pub fn unattributed(&self) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self.spans.iter().map(|&(_, s, e)| (s, e)).collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = 0.0f64;
        for (s, e) in intervals {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        self.origin.elapsed().as_secs_f64() - covered
    }
}

/// The metrics of one run, printed as the last line of standard output.
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), (value, ""));
    }

    /// Counts one gated operation; a failed gate is a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.into());
        }
    }

    /// Keeps exactly the metrics `names` lists, with their units. An
    /// end-to-end run must have measured every one of them; a traced run
    /// reports 0 for a layer its workload never enters.
    pub fn finish(&mut self, names: &[(&str, &'static str)], end_to_end: bool) {
        if end_to_end {
            let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
            self.set("ok_ratio", ok);
            if !self.metrics.contains_key("peak_rss_mb") {
                self.set("peak_rss_mb", peak_rss_mb());
            }
        }
        let mut kept = BTreeMap::new();
        for (name, unit) in names {
            let value = match self.metrics.get(*name) {
                Some((value, _)) => *value,
                None if end_to_end => panic!("end-to-end metric `{name}` was not measured"),
                None => 0.0,
            };
            kept.insert((*name).to_string(), (value, *unit));
        }
        self.metrics = kept;
    }

    pub fn print(&self) {
        for error in &self.errors {
            eprintln!("perfbench: correctness gate failed: {error}");
        }
        for (name, (value, unit)) in &self.metrics {
            eprintln!("perfbench: {name} = {value} {unit}");
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

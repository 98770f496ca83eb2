//! Hierarchical spans and a Chrome `trace_event` sink.
//!
//! [`span`] returns a guard that emits a begin event now and the
//! matching end event on drop, so begin/end pairs are balanced by
//! construction. Events carry microsecond timestamps from one
//! process-wide monotonic epoch and land in per-thread buffers (one
//! `RefCell`, no locks on the hot path); buffers drain into the
//! process sink when they grow large and when their thread exits —
//! which is before `std::thread::scope` returns, so the sweep's
//! scoped workers flush before the run completes.
//!
//! [`install`] arms the sink with an output path; [`finish`] writes
//! the buffered events as a Chrome JSON-object-format trace:
//!
//! ```json
//! {"schema_version": 1, "kind": "trace", "traceEvents": [ … ]}
//! ```
//!
//! with one event object per line. `chrome://tracing` and Perfetto
//! load the file directly (they read the `traceEvents` key and ignore
//! the envelope), and `mcm_core::json` parses it whole, which is what
//! the CI `obs-smoke` job validates.

use std::cell::RefCell;
use std::io;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use mcm_core::json::Json;

/// How many buffered events force a mid-run flush to the sink.
const FLUSH_THRESHOLD: usize = 4096;

/// One Chrome `trace_event`: a begin (`B`) or end (`E`) marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name, e.g. `engine.chunk`.
    pub name: String,
    /// `'B'` (begin) or `'E'` (end).
    pub phase: char,
    /// Microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Small dense thread id (assigned in thread-creation order).
    pub tid: u64,
    /// Extra key/value arguments shown by the trace viewer.
    pub args: Vec<(String, String)>,
}

impl Event {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::from(self.name.as_str())),
            ("cat", Json::from("mcm")),
            ("ph", Json::from(self.phase.to_string())),
            ("ts", Json::Int(self.ts_us as i64)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(self.tid as i64)),
        ];
        if !self.args.is_empty() {
            fields.push((
                "args",
                Json::object(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                ),
            ));
        }
        Json::object(fields)
    }
}

#[derive(Default)]
struct SinkState {
    path: Option<PathBuf>,
    events: Vec<Event>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<SinkState> {
    SINK.get_or_init(Mutex::default)
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

struct ThreadBuf {
    tid: u64,
    stack: Vec<String>,
    events: Vec<Event>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            events: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut state = sink().lock().unwrap();
        if state.path.is_some() {
            state.events.append(&mut self.events);
        } else {
            // Sink already finished (or never installed): drop them.
            self.events.clear();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Is a trace sink currently armed? One relaxed atomic load.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Arm the trace sink: subsequent spans buffer events destined for
/// `path`. Any events buffered for a previous, unfinished sink are
/// discarded. Call [`finish`] to write the file.
pub fn install(path: impl Into<PathBuf>) {
    let mut state = sink().lock().unwrap();
    state.path = Some(path.into());
    state.events.clear();
    // Pin the epoch so the first span doesn't race the first timestamp.
    now_us();
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Disarm the sink, flush the calling thread's buffer, and write every
/// collected event to the installed path. Returns the path written, or
/// `Ok(None)` if no sink was armed. Threads still running keep their
/// unflushed events; call `finish` after joining workers.
pub fn finish() -> io::Result<Option<PathBuf>> {
    if !ACTIVE.swap(false, Ordering::SeqCst) {
        return Ok(None);
    }
    LOCAL.with(|l| l.borrow_mut().flush());
    let (path, mut events) = {
        let mut state = sink().lock().unwrap();
        match state.path.take() {
            Some(p) => (p, std::mem::take(&mut state.events)),
            None => return Ok(None),
        }
    };
    events.sort_by_key(|e| e.ts_us);
    let mut out = String::from("{\n\"schema_version\": 1,\n\"kind\": \"trace\",\n\"traceEvents\": [\n");
    let lines: Vec<String> = events.iter().map(|e| e.to_json().compact()).collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n}\n");
    std::fs::write(&path, out)?;
    Ok(Some(path))
}

/// An open span: emits the balanced end event when dropped. Not
/// `Send` — a span must begin and end on the same thread, because
/// Chrome nests B/E pairs per `tid`.
#[must_use = "a span measures the region until the guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    live: bool,
    _not_send: PhantomData<*const ()>,
}

/// Open a span named `name`. Inert (two atomic loads, nothing else)
/// unless a sink is armed and instrumentation is enabled.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, &[])
}

/// Open a span with extra `args` shown by the trace viewer.
pub fn span_with(name: &str, args: &[(&str, &str)]) -> SpanGuard {
    if !is_active() || !crate::enabled() {
        return SpanGuard {
            live: false,
            _not_send: PhantomData,
        };
    }
    let ts_us = now_us();
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let tid = buf.tid;
        let mut event_args: Vec<(String, String)> = args
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(parent) = buf.stack.last() {
            event_args.push(("parent".to_string(), parent.clone()));
        }
        buf.stack.push(name.to_string());
        buf.events.push(Event {
            name: name.to_string(),
            phase: 'B',
            ts_us,
            tid,
            args: event_args,
        });
    });
    SpanGuard {
        live: true,
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let ts_us = now_us();
        LOCAL.with(|l| {
            let mut buf = l.borrow_mut();
            let tid = buf.tid;
            let name = buf.stack.pop().unwrap_or_default();
            buf.events.push(Event {
                name,
                phase: 'E',
                ts_us,
                tid,
                args: Vec::new(),
            });
            // Flush whenever the outermost span closes: scoped worker
            // threads are joined before their TLS destructors run, so
            // waiting for thread exit would lose their events.
            if buf.stack.is_empty() || buf.events.len() >= FLUSH_THRESHOLD {
                buf.flush();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global, so exercise the whole lifecycle
    // in one test to avoid cross-test interference.
    #[test]
    fn spans_write_a_parseable_balanced_trace() {
        let _guard = crate::ENABLE_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mcm-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));

        assert!(!is_active());
        {
            let _inert = span("ignored.before.install");
        }
        install(&path);
        assert!(is_active());
        {
            let _outer = span("outer");
            {
                let _inner = span_with("inner", &[("k", "v")]);
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span("worker");
                });
            });
        }
        let written = finish().unwrap().expect("sink was armed");
        assert_eq!(written, path);
        assert!(!is_active());
        {
            let _inert = span("ignored.after.finish");
        }
        assert!(finish().unwrap().is_none());

        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("trace"));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 3 spans -> 6 events, balanced per name.
        assert_eq!(events.len(), 6);
        for name in ["outer", "inner", "worker"] {
            let begins = events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(Json::as_str) == Some(name)
                        && e.get("ph").and_then(Json::as_str) == Some("B")
                })
                .count();
            let ends = events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(Json::as_str) == Some(name)
                        && e.get("ph").and_then(Json::as_str) == Some("E")
                })
                .count();
            assert_eq!((begins, ends), (1, 1), "unbalanced span {name}");
        }
        // The inner span records its parent.
        let inner_b = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("inner"))
            .unwrap();
        assert_eq!(
            inner_b
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("outer")
        );
        std::fs::remove_file(&path).ok();
    }
}

//! Log compaction: rewrite a verdict log down to its live record set.
//!
//! The append-only log keeps every write, so a long-lived store
//! accumulates duplicate keys (re-confirmed verdicts from later sweeps).
//! Compaction replays the log with last-write-wins semantics and
//! atomically replaces the file with one holding exactly the live set,
//! grouped by test so a test's verdicts usually share a row — a
//! deterministic function of the input log, so compacting twice is a
//! no-op. It also
//! upgrades a log of an older format version to the current one.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::log::{read_log, write_atomic, Record};

/// What a [`compact`] run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactStats {
    /// Verdicts read from the old log (including duplicates).
    pub records_in: u64,
    /// Live verdicts written to the new log.
    pub records_out: u64,
    /// Log size before, in bytes (valid prefix only).
    pub bytes_before: u64,
    /// Log size after, in bytes.
    pub bytes_after: u64,
    /// Whether the old log carried a torn/corrupt tail that compaction
    /// dropped.
    pub dropped_tail: bool,
}

/// Collapses `records` to the live set: last write wins per key. The set
/// comes out grouped by test, tests in first-seen order and each test's
/// keys in first-seen order. A test packs into one row when its keys
/// follow the order of its frame's model table and the frame holds the
/// whole test; otherwise it takes a row per run of keys in table order
/// ([`mcm_explore::VerdictRowsBuf::from_cells`]).
pub(crate) fn live_set(records: &[Record]) -> Vec<Record> {
    let mut index: HashMap<(u64, u64), (usize, usize)> = HashMap::with_capacity(records.len());
    let mut row_of: HashMap<u64, usize> = HashMap::new();
    let mut rows: Vec<Vec<Record>> = Vec::new();
    for record in records {
        match index.entry(record.key()) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                let (row, i) = *slot.get();
                rows[row][i].allowed = record.allowed;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let row = *row_of.entry(record.test_fp).or_insert_with(|| {
                    rows.push(Vec::new());
                    rows.len() - 1
                });
                slot.insert((row, rows[row].len()));
                rows[row].push(*record);
            }
        }
    }
    rows.concat()
}

/// Compacts the verdict log at `path` in place (via an atomic
/// rename-over). A missing log compacts to a valid empty log. The
/// rewrite also upgrades the file to the current format version and
/// sheds any torn tail.
pub fn compact(path: &Path) -> io::Result<CompactStats> {
    let timer = mcm_obs::Stopwatch::start();
    let contents = read_log(path)?;
    let live = live_set(&contents.records);
    let bytes_after = write_atomic(path, &live)?;
    let stats = CompactStats {
        records_in: contents.records.len() as u64,
        records_out: live.len() as u64,
        bytes_before: contents.valid_bytes,
        bytes_after,
        dropped_tail: contents.tail.is_some(),
    };
    if mcm_obs::enabled() {
        timer.record(&mcm_obs::metrics::histogram("mcm_store_compact_us", &[]));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogWriter;
    use mcm_explore::VerdictRowsBuf;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-compact-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    fn rec(model_fp: u64, test_fp: u64, allowed: bool) -> Record {
        Record {
            model_fp,
            test_fp,
            allowed,
        }
    }

    fn append(writer: &mut LogWriter, records: &[Record]) {
        let rows = VerdictRowsBuf::from_cells(records.iter().map(Record::cell));
        writer.append_rows(rows.as_rows()).unwrap();
    }

    #[test]
    fn compaction_keeps_the_live_set_last_write_wins() {
        let path = temp_path("live-set");
        let _ = std::fs::remove_file(&path);
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        append(&mut writer, &[rec(1, 10, true), rec(2, 20, false)]);
        append(&mut writer, &[rec(1, 10, false), rec(3, 30, true), rec(2, 20, false)]);
        drop(writer);
        let stats = compact(&path).unwrap();
        assert_eq!(stats.records_in, 5);
        assert_eq!(stats.records_out, 3);
        assert!(stats.bytes_after < stats.bytes_before);
        assert!(!stats.dropped_tail);
        let back = read_log(&path).unwrap();
        assert_eq!(
            back.records,
            vec![rec(1, 10, false), rec(2, 20, false), rec(3, 30, true)],
            "first-seen test order, last-written verdict"
        );
        // Idempotent: a second compaction changes nothing.
        let again = compact(&path).unwrap();
        assert_eq!(again.records_in, again.records_out);
        assert_eq!(again.bytes_before, again.bytes_after);
        assert_eq!(read_log(&path).unwrap().records, back.records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_drops_a_torn_tail_and_missing_logs_compact_to_empty() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        append(&mut writer, &[rec(7, 70, true)]);
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xab; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let stats = compact(&path).unwrap();
        assert!(stats.dropped_tail);
        assert_eq!(stats.records_out, 1);
        assert!(read_log(&path).unwrap().tail.is_none());
        std::fs::remove_file(&path).unwrap();

        let missing = temp_path("missing");
        let _ = std::fs::remove_file(&missing);
        let stats = compact(&missing).unwrap();
        assert_eq!((stats.records_in, stats.records_out), (0, 0));
        assert!(read_log(&missing).unwrap().records.is_empty());
        std::fs::remove_file(&missing).unwrap();
    }
}

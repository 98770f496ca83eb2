//! Merging the verdict logs of sharded sweeps.
//!
//! An N-way sharded sweep (`mcm explore --stream --shard i/N --store`)
//! leaves N disjoint-by-construction logs. [`merge`] concatenates their
//! live sets into one destination log so a later unsharded run — or a
//! warm `mcm serve --store-dir` — sees the whole corpus. Inputs are
//! processed in argument order with last-write-wins per key, so merging
//! genuinely-overlapping logs (e.g. re-runs) is also well-defined.

use std::io;
use std::path::Path;

use crate::compact::live_set;
use crate::log::{read_log, write_atomic, Record};

/// What a [`merge`] run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeStats {
    /// Input logs read.
    pub inputs: u64,
    /// Records read across all inputs (including duplicates).
    pub records_in: u64,
    /// Live records written to the destination.
    pub records_out: u64,
    /// Destination size, in bytes.
    pub bytes_out: u64,
    /// How many inputs carried a torn/corrupt tail (their intact prefix
    /// still merged).
    pub torn_inputs: u64,
}

/// Merges the logs at `inputs` into a fresh log at `dest` (atomic
/// rename-over; `dest` may be one of the inputs or missing). Missing
/// inputs read as empty rather than failing, so a sweep shard that never
/// produced verdicts does not block the merge.
pub fn merge(inputs: &[&Path], dest: &Path) -> io::Result<MergeStats> {
    let mut all: Vec<Record> = Vec::new();
    let mut torn_inputs = 0u64;
    for input in inputs {
        let contents = read_log(input)?;
        torn_inputs += u64::from(contents.tail.is_some());
        all.extend(contents.records);
    }
    let records_in = all.len() as u64;
    let live = live_set(&all);
    let bytes_out = write_atomic(dest, &live)?;
    Ok(MergeStats {
        inputs: inputs.len() as u64,
        records_in,
        records_out: live.len() as u64,
        bytes_out,
        torn_inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogWriter;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-merge-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    fn write_log(name: &str, records: &[Record]) -> PathBuf {
        let path = temp_path(name);
        let _ = std::fs::remove_file(&path);
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        writer.append_batch(records).unwrap();
        path
    }

    fn rec(model_fp: u64, test_fp: u64, allowed: bool) -> Record {
        Record {
            model_fp,
            test_fp,
            allowed,
        }
    }

    #[test]
    fn merge_unions_shards_and_later_inputs_win_overlaps() {
        let a = write_log("shard-a", &[rec(1, 10, true), rec(1, 11, true)]);
        let b = write_log("shard-b", &[rec(1, 12, false), rec(1, 10, false)]);
        let missing = temp_path("shard-missing");
        let _ = std::fs::remove_file(&missing);
        let dest = temp_path("merged");
        let _ = std::fs::remove_file(&dest);
        let stats = merge(&[&a, &b, &missing], &dest).unwrap();
        assert_eq!(stats.inputs, 3);
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.records_out, 3);
        assert_eq!(stats.torn_inputs, 0);
        let back = read_log(&dest).unwrap();
        assert_eq!(
            back.records,
            vec![rec(1, 10, false), rec(1, 11, true), rec(1, 12, false)],
            "key 10 overlapped: the later input's verdict wins"
        );
        for p in [a, b, dest] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_may_write_over_one_of_its_inputs() {
        let a = write_log("inplace-a", &[rec(2, 20, true)]);
        let b = write_log("inplace-b", &[rec(2, 21, false)]);
        let stats = merge(&[&a, &b], &a).unwrap();
        assert_eq!(stats.records_out, 2);
        assert_eq!(
            read_log(&a).unwrap().records,
            vec![rec(2, 20, true), rec(2, 21, false)]
        );
        for p in [a, b] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

//! # mcm-store
//!
//! Disk persistence for the verdict corpus: the durable tier under
//! `mcm-explore`'s RAM [`VerdictCache`](mcm_explore::VerdictCache), and
//! checkpoint/resume state for streaming sweeps. Zero external
//! dependencies, in the house style of `mcm-core::json` — the on-disk
//! formats are hand-rolled little-endian frames with explicit checksums,
//! pinned in `docs/STORE_FORMAT.md`.
//!
//! * [`log`] — the append-only, fingerprint-keyed verdict log:
//!   length-prefixed frames of whole test rows (`known`/`allowed` bits
//!   over the frame's own model table), each frame checksummed, behind a
//!   versioned header. Torn tails from a crash are detected by checksum
//!   and cleanly ignored on open; version-1 logs of one record per
//!   verdict still read and are upgraded on their first append-open.
//! * [`mod@compact`] — rewrites a log to its live record set (duplicates
//!   dropped, last write wins) with an atomic rename-over.
//! * [`disk`] — [`DiskCache`]: a [`VerdictCache`](mcm_explore::VerdictCache)
//!   hydrated from a log on open and writing fresh verdicts through to it
//!   on every batch boundary, so a warm cache survives process restarts.
//! * [`checkpoint`] — serializes
//!   [`StreamCheckpoint`](mcm_explore::StreamCheckpoint) (plus the sweep
//!   identity it belongs to) so `mcm explore --stream --checkpoint FILE`
//!   can be killed and resumed with `--resume FILE`, bit-identically.
//!
//! ## Example
//!
//! ```
//! use mcm_explore::VerdictRowsBuf;
//! use mcm_store::log::LogWriter;
//!
//! let path = std::env::temp_dir().join("mcm-store-doc-example.log");
//! let _ = std::fs::remove_file(&path);
//! let (contents, mut writer) = LogWriter::append(&path).unwrap();
//! assert!(contents.records.is_empty());
//! // One row: test 2's verdict for model 1 is "allowed".
//! let rows = VerdictRowsBuf::from_cells([((1, 2), true)]);
//! writer.append_rows(rows.as_rows()).unwrap();
//! drop(writer);
//! let reopened = mcm_store::log::read_log(&path).unwrap();
//! assert_eq!(reopened.records.len(), 1);
//! assert!(reopened.tail.is_none());
//! std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
pub mod checkpoint;
pub mod compact;
pub mod disk;
pub mod log;

pub use checkpoint::{CheckpointFile, SweepMeta};
pub use compact::{compact, CompactStats};
pub use disk::{DiskCache, StoreStats};
pub use log::{read_log, LogContents, LogWriter, Record, TailError};

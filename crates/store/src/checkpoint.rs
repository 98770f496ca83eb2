//! Checkpoint files: resumable streaming-sweep state on disk.
//!
//! A checkpoint is the engine's [`StreamCheckpoint`] (cursor, verdict
//! rows, counters) plus a [`SweepMeta`] describing the sweep it belongs
//! to — stream bounds, limit, shard, engine knobs. On `--resume`, the
//! loader hands both back; the caller compares the meta against the
//! sweep it is about to run and rejects a mismatched checkpoint instead
//! of silently producing a lattice stitched from two different sweeps.
//!
//! The file is a single whole-payload-checksummed blob (layout pinned in
//! `docs/STORE_FORMAT.md`): unlike the verdict log there is no notion of
//! a usable prefix — a checkpoint is either exactly what was saved or
//! rejected. Saves go through a `.tmp` sibling and an atomic rename, so
//! a crash mid-save leaves the previous checkpoint intact.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use mcm_explore::{StreamCheckpoint, SweepStats, VerdictVector};
use mcm_gen::{Shard, StreamBounds};

use crate::bytes::{fnv1a, put_bool, put_u32, put_u64, put_u8, Reader};

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"MCMCKPT\0";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// The identity of the sweep a checkpoint was taken from. Everything
/// that shapes the deterministic test stream (and therefore the meaning
/// of the cursor) lives here; resume must run with an identical meta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepMeta {
    /// Leader-stream enumeration bounds.
    pub bounds: StreamBounds,
    /// `--limit`: cap on tests taken from the stream, if any.
    pub limit: Option<u64>,
    /// `--shard i/n` partition the sweep ran under, if any.
    pub shard: Option<Shard>,
    /// A byte kept for the layout's sake: older builds recorded an engine
    /// option here that never changed a streamed sweep. Written `false`
    /// by the query layer, and no part of a checkpoint's identity on
    /// resume.
    pub canonicalize: bool,
    /// Tests materialized per chunk — checkpoints land on chunk
    /// boundaries, so the cursor is only meaningful at the same chunking.
    pub stream_chunk: u64,
}

/// A deserialized checkpoint: sweep identity plus resumable state.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFile {
    /// Which sweep this checkpoint belongs to.
    pub meta: SweepMeta,
    /// The engine state to resume from.
    pub state: StreamCheckpoint,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn encode_payload(meta: &SweepMeta, state: &StreamCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, meta.bounds.max_accesses_per_thread as u64);
    put_u64(&mut out, meta.bounds.threads as u64);
    put_u8(&mut out, meta.bounds.max_locs);
    put_bool(&mut out, meta.bounds.include_fences);
    put_bool(&mut out, meta.bounds.include_deps);
    put_bool(&mut out, meta.limit.is_some());
    put_u64(&mut out, meta.limit.unwrap_or(0));
    put_bool(&mut out, meta.shard.is_some());
    put_u32(&mut out, meta.shard.map_or(0, |s| s.index()));
    put_u32(&mut out, meta.shard.map_or(1, |s| s.count()));
    put_bool(&mut out, meta.canonicalize);
    put_u64(&mut out, meta.stream_chunk);

    put_u64(&mut out, state.tests_streamed);
    put_u64(&mut out, state.tests_kept);
    put_u32(
        &mut out,
        u32::try_from(state.model_fps.len()).expect("model count fits u32"),
    );
    for &fp in &state.model_fps {
        put_u64(&mut out, fp);
    }
    // Format v1 stores the per-model column view of the engine's test rows.
    let columns = state.columns();
    let row_count = u32::try_from(columns.len()).expect("model count fits u32");
    put_u32(&mut out, row_count);
    for row in &columns {
        put_u64(&mut out, row.len() as u64);
        let words = row.words();
        put_u32(&mut out, u32::try_from(words.len()).expect("word count fits u32"));
        for &w in words {
            put_u64(&mut out, w);
        }
    }
    for value in state.stats.values() {
        put_u64(&mut out, value);
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<CheckpointFile> {
    let mut r = Reader::new(payload);
    let bounds = StreamBounds {
        max_accesses_per_thread: usize::try_from(r.u64()?).ok()?,
        threads: usize::try_from(r.u64()?).ok()?,
        max_locs: r.u8()?,
        include_fences: r.bool()?,
        include_deps: r.bool()?,
    };
    let limit = { let some = r.bool()?; let v = r.u64()?; some.then_some(v) };
    let shard = {
        let some = r.bool()?;
        let index = r.u32()?;
        let count = r.u32()?;
        if some {
            Some(Shard::new(index, count)?)
        } else {
            None
        }
    };
    let canonicalize = r.bool()?;
    let stream_chunk = r.u64()?;
    let tests_streamed = r.u64()?;
    let tests_kept = r.u64()?;
    // Counts come from the file: every capacity is capped by the bytes
    // left (each element is at least 8 bytes), so a crafted count cannot
    // request an allocation the payload could never fill.
    let model_count = r.u32()? as usize;
    let mut model_fps = Vec::with_capacity(model_count.min(r.remaining() / 8));
    for _ in 0..model_count {
        model_fps.push(r.u64()?);
    }
    let row_count = r.u32()? as usize;
    if row_count != model_count {
        return None;
    }
    let mut columns = Vec::with_capacity(row_count.min(r.remaining() / 8));
    for _ in 0..row_count {
        let len = usize::try_from(r.u64()?).ok()?;
        if len as u64 != tests_kept {
            return None;
        }
        let word_count = r.u32()? as usize;
        let mut words = Vec::with_capacity(word_count.min(r.remaining() / 8));
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        columns.push(VerdictVector::from_words(words, len)?);
    }
    let stats = SweepStats::from_values(&mut || r.u64())?;
    if r.remaining() != 0 {
        return None;
    }
    Some(CheckpointFile {
        meta: SweepMeta {
            bounds,
            limit,
            shard,
            canonicalize,
            stream_chunk,
        },
        state: StreamCheckpoint {
            tests_streamed,
            tests_kept,
            model_fps,
            rows: StreamCheckpoint::rows_from_columns(&columns, usize::try_from(tests_kept).ok()?),
            stats,
        },
    })
}

/// Atomically writes a checkpoint of `state`, taken over the sweep
/// `meta`, to `path` (build in a `.tmp` sibling, fsync, rename over) — a
/// crash mid-save leaves the previous checkpoint readable. Borrows both
/// halves, so a per-chunk checkpoint hook saves the engine's state
/// without copying its verdict rows.
pub fn save(path: &Path, meta: &SweepMeta, state: &StreamCheckpoint) -> io::Result<()> {
    let payload = encode_payload(meta, state);
    let mut out = Vec::with_capacity(12 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    let checksum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    put_u64(&mut out, checksum);
    let mut file_name = path
        .file_name()
        .ok_or_else(|| invalid(format!("{} has no file name", path.display())))?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&out)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

impl CheckpointFile {
    /// [`save`] of this checkpoint's meta and state.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save(path, &self.meta, &self.state)
    }

    /// Loads the checkpoint at `path`. A missing file is `Ok(None)` —
    /// the cold-start case for `--resume` pointing at a checkpoint that
    /// was never written. Anything present but unreadable (foreign file,
    /// newer version, failed checksum, inconsistent structure) is a hard
    /// [`io::ErrorKind::InvalidData`] error: a damaged checkpoint must
    /// not silently degrade to a cold start.
    pub fn load(path: &Path) -> io::Result<Option<CheckpointFile>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        if bytes.len() < 12 + 8 || bytes[..8] != MAGIC {
            return Err(invalid(format!(
                "{} is not an mcm-store checkpoint",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
        if version == 0 || version > VERSION {
            return Err(invalid(format!(
                "{} has checkpoint version {version}, this build reads <= {VERSION}",
                path.display()
            )));
        }
        let payload = &bytes[12..bytes.len() - 8];
        let stored = u64::from_le_bytes(
            bytes[bytes.len() - 8..].try_into().expect("8 trailer bytes"),
        );
        if fnv1a(payload) != stored {
            return Err(invalid(format!(
                "{} failed its checksum (torn or corrupt checkpoint)",
                path.display()
            )));
        }
        decode_payload(payload)
            .map(Some)
            .ok_or_else(|| invalid(format!("{} has inconsistent checkpoint structure", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    fn sample() -> CheckpointFile {
        let mut stats = SweepStats {
            total_pairs: 1000,
            unique_pairs: 400,
            cache_hits: 37,
            cache_hits_disk: 12,
            checker_calls: 363,
            canonical_tests: 90,
            distinct_models: 5,
            tests_streamed: 130,
            peak_batch: 64,
            semantic_merged_models: 1,
            prefilter_groups: 20,
            prefilter_saved_calls: 11,
            ..SweepStats::default()
        };
        stats.sat.decisions = 12345;
        stats.sat.conflicts = 99;
        stats.batch.rows = 90;
        stats.batch.assumption_solves = 7;
        CheckpointFile {
            meta: SweepMeta {
                bounds: StreamBounds {
                    max_accesses_per_thread: 3,
                    threads: 2,
                    max_locs: 2,
                    include_fences: true,
                    include_deps: false,
                },
                limit: Some(130),
                shard: Shard::new(1, 3),
                canonicalize: false,
                stream_chunk: 64,
            },
            state: StreamCheckpoint {
                tests_streamed: 130,
                tests_kept: 90,
                model_fps: vec![0xaaaa, 0xbbbb, 0xcccc],
                // Model `i` allows test `j` when `(i + j) % 3 == 0`.
                rows: (0..90u64)
                    .map(|j| {
                        (0..3)
                            .filter(|i| (i + j) % 3 == 0)
                            .fold(0, |row, i| row | 1 << i)
                    })
                    .collect(),
                stats,
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let path = temp_path("roundtrip");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let back = CheckpointFile::load(&path).unwrap().expect("file exists");
        assert_eq!(back, ckpt);
        // Saving again over the old file works (rename-over).
        ckpt.save(&path).unwrap();
        assert_eq!(CheckpointFile::load(&path).unwrap().unwrap(), ckpt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_a_cold_start_not_an_error() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(CheckpointFile::load(&path).unwrap(), None);
    }

    #[test]
    fn damaged_checkpoints_are_rejected_loudly() {
        let path = temp_path("damaged");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Bit flip in the payload → checksum failure.
        let mut flipped = good.clone();
        flipped[40] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Truncation → checksum failure (whole-payload blob, no prefix).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Foreign file.
        std::fs::write(&path, b"not a checkpoint at all, sorry").unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// `sample()` as saved by format version 1. The encoder and decoder
    /// both follow the counter tables' order, so a reordered table entry
    /// would still round-trip; only fixed bytes catch it.
    const SAMPLE_V1: [&str; 9] = [
        "4d434d434b505400010000000300000000000000020000000000000002010001820000000000000001010000",
        "000300000000400000000000000082000000000000005a0000000000000003000000aaaa000000000000bbbb",
        "000000000000cccc000000000000030000005a00000000000000020000004992244992244992244992000000",
        "00005a0000000000000002000000244992244992244992244902000000005a00000000000000020000009224",
        "4992244992244992240100000000e803000000000000900100000000000025000000000000000c0000000000",
        "00006b010000000000005a000000000000000500000000000000820000000000000040000000000000000100",
        "00000000000014000000000000000b0000000000000039300000000000000000000000000000630000000000",
        "0000000000000000000000000000000000005a00000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000700000000000000ee336a6166ac43f4",
    ];

    #[test]
    fn checkpoint_bytes_are_pinned() {
        let path = temp_path("pinned");
        sample().save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let hex: String = saved.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_V1.concat(), "checkpoint byte layout moved");
    }

    #[test]
    fn checkpoint_digest_is_pinned() {
        let path = temp_path("digest");
        sample().save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            fnv1a(&saved),
            0x2c70_8e55_95df_e503,
            "checkpoint bytes moved"
        );
    }

    #[test]
    fn load_then_save_is_byte_identical() {
        let path = temp_path("resave");
        sample().save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let loaded = CheckpointFile::load(&path).unwrap().unwrap();
        loaded.save(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            saved,
            "load then save moved bytes"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

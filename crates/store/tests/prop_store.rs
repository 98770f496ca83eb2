//! Properties of the verdict-log format:
//!
//! * any sequence of appended row frames (model tables of up to 70
//!   models, so rows span one or two words) reads back exactly, across a
//!   writer reopen;
//! * a log truncated at *every* byte offset opens without panicking,
//!   yielding a prefix of the written verdicts — and whenever the cut
//!   lands mid-frame, a recoverable tail error, never a wrong verdict;
//! * compaction preserves the live record set exactly (last write wins)
//!   and is idempotent;
//! * a log written one record per frame, in the cell-by-cell order of
//!   earlier builds (duplicates and flipped verdicts included), opens into
//!   exactly its live record set, both as current frames and in the
//!   version-1 record layout, and a warm sweep over such a log makes no
//!   checker call;
//! * a version-1 log is rewritten at the current version by compaction
//!   and by its first append-open, with the same live set;
//! * a cold stored sweep writes one row per kept test, not one record
//!   per verdict;
//! * a checkpoint whose checksum is right but whose counts promise more
//!   elements than its bytes hold is rejected as `InvalidData`, without
//!   trying to allocate for those counts.

use mcm_explore::VerdictRowsBuf;
use mcm_store::log::{read_log, LogWriter, Record, HEADER_LEN, MAGIC, VERSION};
use mcm_store::{compact, CheckpointFile, DiskCache};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mcm-store-prop-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.log",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (0u64..50, 0u64..50, proptest::bool::ANY).prop_map(|(model_fp, test_fp, allowed)| Record {
        model_fp,
        test_fp,
        allowed,
    })
}

/// One frame: a model table of 1–70 fingerprints (repeats allowed) and
/// up to 5 rows, each setting random table positions.
fn frame_strategy() -> impl Strategy<Value = VerdictRowsBuf> {
    let cells = proptest::collection::vec((0usize..70, proptest::bool::ANY), 0..30);
    (
        proptest::collection::vec(0u64..90, 1..70),
        proptest::collection::vec((0u64..50, cells), 0..5),
    )
        .prop_map(|(table, rows)| {
            let len = table.len();
            let mut frame = VerdictRowsBuf::new(table);
            for (test_fp, cells) in rows {
                frame.push_row(test_fp);
                for (position, allowed) in cells {
                    frame.set(position % len, allowed);
                }
            }
            frame
        })
}

fn batches_strategy() -> impl Strategy<Value = Vec<VerdictRowsBuf>> {
    proptest::collection::vec(frame_strategy(), 0..4)
}

fn write_batches(path: &PathBuf, batches: &[VerdictRowsBuf]) {
    let _ = std::fs::remove_file(path);
    let (_, mut writer) = LogWriter::append(path).unwrap();
    for batch in batches {
        writer.append_rows(batch.as_rows()).unwrap();
    }
}

/// The verdicts of `batches` one cell at a time, as `read_log` flattens
/// them.
fn flatten(batches: &[VerdictRowsBuf]) -> Vec<Record> {
    batches
        .iter()
        .flat_map(|batch| batch.as_rows().cells().map(Record::from).collect::<Vec<_>>())
        .collect()
}

/// Last write wins per `(model_fp, test_fp)` key.
fn live_map(records: &[Record]) -> std::collections::BTreeMap<(u64, u64), bool> {
    records
        .iter()
        .map(|r| ((r.model_fp, r.test_fp), r.allowed))
        .collect()
}

/// Appends `records` as one frame, packed into rows in order.
fn append(writer: &mut LogWriter, records: &[Record]) {
    let rows = VerdictRowsBuf::from_cells(records.iter().map(Record::cell));
    writer.append_rows(rows.as_rows()).unwrap();
}

/// Writes `records` one frame each, as a cell-by-cell cache wrote them.
fn write_record_by_record(path: &Path, records: &[Record]) {
    let _ = std::fs::remove_file(path);
    let (_, mut writer) = LogWriter::append(path).unwrap();
    for record in records {
        append(&mut writer, std::slice::from_ref(record));
    }
}

/// A version-1 log, byte for byte as earlier builds wrote it: the header
/// at version 1, then one frame per batch of 17-byte
/// `model_fp · test_fp · allowed` records (`docs/STORE_FORMAT.md`).
fn v1_log(batches: &[&[Record]]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    for batch in batches {
        let mut payload = u32::try_from(batch.len()).unwrap().to_le_bytes().to_vec();
        for record in *batch {
            payload.extend_from_slice(&record.model_fp.to_le_bytes());
            payload.extend_from_slice(&record.test_fp.to_le_bytes());
            payload.push(u8::from(record.allowed));
        }
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    }
    bytes
}

/// The format version in the header of the log at `path`.
fn version_of(path: &Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

/// Opens `path` and checks that the cache holds exactly `live`, every
/// entry on the disk tier.
fn assert_opens_to(
    path: &Path,
    live: &std::collections::BTreeMap<(u64, u64), bool>,
    records: u64,
) -> DiskCache {
    let store = DiskCache::open(path).unwrap();
    assert_eq!(store.stats().hydrated, records);
    let cache = store.cache();
    assert_eq!(cache.len(), live.len(), "entries differ from the live set");
    for (&key, &allowed) in live {
        assert_eq!(cache.get(key), Some(allowed), "live entry {key:?}");
    }
    assert_eq!(cache.hits_disk(), live.len() as u64);
    assert_eq!((cache.hits_ram(), cache.misses()), (0, 0));
    store
}

#[test]
fn warm_sweep_over_a_record_by_record_log_makes_no_checker_call() {
    use mcm_axiomatic::CheckerKind;
    use mcm_explore::{EngineConfig, Exploration};
    use mcm_models::{catalog, named};

    let models = vec![
        named::sc(),
        named::tso(),
        named::pso(),
        named::ibm370(),
        named::rmo(),
    ];
    let tests = catalog::all_tests();
    let config = EngineConfig::default();
    let factory = || CheckerKind::Explicit.build_batch();
    let cold_path = temp_path("cold");
    let _ = std::fs::remove_file(&cold_path);
    let cold = {
        let store = DiskCache::open(&cold_path).unwrap();
        let (cold, stats) = Exploration::run_engine(
            models.clone(),
            tests.clone(),
            factory,
            &config,
            Some(store.cache()),
        );
        assert!(stats.checker_calls > 0);
        cold
    };
    // The cold verdicts in the order a cell-keyed cache flushed them
    // (grouped by its cell shard), each preceded by a flipped verdict for
    // the same key and every third one written twice.
    let mut cells = read_log(&cold_path).unwrap().records;
    cells.sort_by_key(|r| (r.model_fp ^ r.test_fp.rotate_left(32)) & 15);
    let mut records = Vec::new();
    for (i, &record) in cells.iter().enumerate() {
        records.push(Record {
            allowed: !record.allowed,
            ..record
        });
        records.push(record);
        if i % 3 == 0 {
            records.push(record);
        }
    }
    let live = live_map(&records);
    assert_eq!(live, live_map(&cells));
    // As current frames, then in the version-1 record layout, which the
    // first open rewrites at the current version.
    for v1 in [false, true] {
        let path = temp_path("legacy");
        if v1 {
            let frames: Vec<&[Record]> = records.iter().map(std::slice::from_ref).collect();
            std::fs::write(&path, v1_log(&frames)).unwrap();
        } else {
            write_record_by_record(&path, &records);
        }
        drop(assert_opens_to(&path, &live, records.len() as u64));
        assert_eq!(version_of(&path), VERSION);

        let store = DiskCache::open(&path).unwrap();
        let (warm, stats) = Exploration::run_engine(
            models.clone(),
            tests.clone(),
            factory,
            &config,
            Some(store.cache()),
        );
        assert_eq!(stats.checker_calls, 0, "the warm sweep reached the checker (v1: {v1})");
        assert_eq!(stats.cache_hits, stats.cache_hits_disk);
        assert_eq!(warm.verdicts, cold.verdicts);
        assert_eq!(store.stats().appended, 0, "a warm sweep appends nothing");
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_file(&cold_path).unwrap();
}

#[test]
fn an_early_stopped_stream_appends_the_same_verdicts_on_any_job_count() {
    use mcm_axiomatic::CheckerKind;
    use mcm_explore::{EngineConfig, Exploration, StreamControl};
    use mcm_gen::stream::{leaders, StreamBounds};
    use mcm_models::named;

    // A streamed sweep on several jobs pulls the chunk after the one it
    // checks; a hook that stops the sweep must still leave the log with
    // exactly the verdicts of the chunks it saw.
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        max_locs: 2,
        ..StreamBounds::default()
    };
    let stopped = |jobs: usize| {
        let path = temp_path(&format!("stop-{jobs}"));
        let _ = std::fs::remove_file(&path);
        let store = DiskCache::open(&path).unwrap();
        let mut chunks = 0;
        let (exploration, _) = Exploration::run_engine_streaming_with(
            vec![named::sc(), named::tso(), named::pso(), named::rmo()],
            leaders(&bounds),
            || CheckerKind::Explicit.build_batch(),
            &EngineConfig {
                jobs: Some(jobs),
                stream_chunk: 16,
            },
            Some(store.cache()),
            StreamControl {
                on_checkpoint: Some(Box::new(|_: &mcm_explore::StreamCheckpoint| {
                    chunks += 1;
                    chunks < 3
                })),
                resume: None,
            },
        )
        .unwrap();
        assert_eq!(exploration.tests.len(), 48, "three chunks of 16 leaders");
        let appended = store.stats().appended;
        drop(store);
        let live = live_map(&read_log(&path).unwrap().records);
        std::fs::remove_file(&path).unwrap();
        (appended, live)
    };
    let single = stopped(1);
    assert!(single.0 > 0);
    for jobs in [2, 3] {
        assert_eq!(stopped(jobs), single, "jobs {jobs}");
    }
}

#[test]
fn a_v1_log_is_upgraded_by_compaction_and_by_its_first_append_open() {
    // Two version-1 frames: the second flips one verdict of the first
    // and repeats another, so the live set is smaller than the log.
    let first: Vec<Record> = (0..40u64)
        .map(|i| Record {
            model_fp: 100 + i % 8,
            test_fp: 7 + i / 8,
            allowed: i % 3 == 0,
        })
        .collect();
    let second = vec![
        Record {
            allowed: !first[5].allowed,
            ..first[5]
        },
        first[9],
        Record {
            model_fp: 999,
            test_fp: 7,
            allowed: true,
        },
    ];
    let mut records = first.clone();
    records.extend(&second);
    let live = live_map(&records);
    let bytes = v1_log(&[&first, &second]);

    // Read as it stands: every record, in order.
    let path = temp_path("v1-read");
    std::fs::write(&path, &bytes).unwrap();
    let back = read_log(&path).unwrap();
    assert_eq!(back.records, records);
    assert_eq!(back.valid_bytes, bytes.len() as u64);
    assert!(back.tail.is_none());
    assert_eq!(version_of(&path), 1, "reading leaves the file alone");

    // Compaction: the live set, at the current version.
    let stats = compact(&path).unwrap();
    assert_eq!((stats.records_in, stats.records_out), (43, 41));
    assert_eq!(version_of(&path), VERSION);
    assert_eq!(live_map(&read_log(&path).unwrap().records), live);
    std::fs::remove_file(&path).unwrap();

    // The first append-open: same verdicts and tiers as the v1 file held,
    // then the file is current and takes appends.
    let path = temp_path("v1-open");
    std::fs::write(&path, &bytes).unwrap();
    let store = assert_opens_to(&path, &live, records.len() as u64);
    assert_eq!(version_of(&path), VERSION);
    store.cache().insert((5, 5), true);
    assert_eq!(store.stats().appended, 1);
    drop(store);
    let mut expected = live.clone();
    expected.insert((5, 5), true);
    assert_eq!(live_map(&read_log(&path).unwrap().records), expected);
    drop(assert_opens_to(&path, &expected, expected.len() as u64));
    std::fs::remove_file(&path).unwrap();

    // A torn v1 tail is shed by the upgrade.
    let path = temp_path("v1-torn");
    let mut torn = bytes.clone();
    torn.truncate(bytes.len() - 3);
    std::fs::write(&path, &torn).unwrap();
    let store = DiskCache::open(&path).unwrap();
    assert!(store.stats().recovered_tail);
    assert_eq!(store.stats().hydrated, first.len() as u64);
    drop(store);
    let back = read_log(&path).unwrap();
    assert!(back.tail.is_none());
    assert_eq!(live_map(&back.records), live_map(&first));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_cold_stored_sweep_writes_one_row_per_kept_test() {
    use mcm_axiomatic::CheckerKind;
    use mcm_explore::{EngineConfig, Exploration};
    use mcm_gen::stream::{leaders, StreamBounds};
    use mcm_models::named;

    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        max_locs: 2,
        ..StreamBounds::default()
    };
    let path = temp_path("size");
    let _ = std::fs::remove_file(&path);
    let store = DiskCache::open(&path).unwrap();
    let (exploration, stats) = Exploration::run_engine_streaming_with(
        vec![named::sc(), named::tso(), named::pso(), named::rmo()],
        leaders(&bounds),
        || CheckerKind::Explicit.build_batch(),
        &EngineConfig {
            jobs: Some(2),
            stream_chunk: 16,
        },
        Some(store.cache()),
        mcm_explore::StreamControl::default(),
    )
    .unwrap();
    let rows = exploration.tests.len() as u64;
    let models = stats.distinct_models as u64;
    let words = models.div_ceil(64);
    let written = store.stats();
    assert!(rows > 16, "the sweep spans several chunks");
    assert_eq!(written.appended, rows * models, "every verdict of a cold sweep is fresh");
    // Per frame: payload_len, model_count, the model table, row_count
    // and the checksum; per row: test_fp and two masks of `words` words.
    let frame_overhead = 4 + 4 + 8 * models + 4 + 8;
    let bound = HEADER_LEN + written.flushes * frame_overhead + rows * (8 + 16 * words);
    assert!(
        written.bytes <= bound,
        "{} bytes for {rows} rows of {models} models in {} frames (bound {bound})",
        written.bytes,
        written.flushes
    );
    assert_eq!(written.bytes, std::fs::metadata(&path).unwrap().len());
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// 64-bit FNV-1a, the checksum `docs/STORE_FORMAT.md` pins for
/// checkpoint payloads.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn checkpoint_with_an_impossible_model_count_is_invalid_data() {
    // A well-formed sweep identity and cursor, then `model_count =
    // u32::MAX` with only 20 bytes behind it: 106 bytes in all, with a
    // correct checksum, so only the payload structure can reject it.
    let mut payload = Vec::new();
    payload.extend_from_slice(&3u64.to_le_bytes()); // max_accesses_per_thread
    payload.extend_from_slice(&2u64.to_le_bytes()); // threads
    payload.push(4); // max_locs
    payload.extend_from_slice(&[0, 0]); // include_fences, include_deps
    payload.push(0); // no limit
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.push(0); // no shard
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(0); // canonicalize
    payload.extend_from_slice(&4096u64.to_le_bytes()); // stream_chunk
    payload.extend_from_slice(&0u64.to_le_bytes()); // tests_streamed
    payload.extend_from_slice(&0u64.to_le_bytes()); // tests_kept
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // model_count
    payload.extend_from_slice(&[0; 20]);
    let mut bytes = mcm_store::checkpoint::MAGIC.to_vec();
    bytes.extend_from_slice(&mcm_store::checkpoint::VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    assert_eq!(bytes.len(), 106);

    let path = temp_path("huge-count-ckpt");
    std::fs::write(&path, &bytes).unwrap();
    let err = CheckpointFile::load(&path).expect_err("the counts overrun the payload");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_batches_roundtrip_across_reopen(batches in batches_strategy()) {
        let path = temp_path("roundtrip");
        write_batches(&path, &batches);
        let flat = flatten(&batches);
        let back = read_log(&path).unwrap();
        prop_assert!(back.tail.is_none());
        prop_assert_eq!(&back.records, &flat);
        // Reopening for append sees the same records and appending more
        // extends, never rewrites.
        let (contents, mut writer) = LogWriter::append(&path).unwrap();
        prop_assert_eq!(&contents.records, &flat);
        let extra = Record { model_fp: 999, test_fp: 999, allowed: true };
        append(&mut writer, &[extra]);
        drop(writer);
        let again = read_log(&path).unwrap();
        let mut expected = flat.clone();
        expected.push(extra);
        prop_assert_eq!(again.records, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_at_every_offset_yields_a_clean_prefix(batches in batches_strategy()) {
        let path = temp_path("truncate");
        write_batches(&path, &batches);
        let full = std::fs::read(&path).unwrap();
        let flat = flatten(&batches);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            // Must never panic and never invent or corrupt a verdict.
            let back = read_log(&path).unwrap();
            prop_assert!(
                back.records.len() <= flat.len(),
                "cut at {cut} produced extra records"
            );
            prop_assert_eq!(
                &back.records[..],
                &flat[..back.records.len()],
                "cut at {} is not a prefix", cut
            );
            prop_assert!(back.valid_bytes <= cut as u64);
            if cut < full.len() && (cut as u64) < HEADER_LEN {
                // Inside the header: zero records, and (unless empty)
                // a reported truncation.
                prop_assert_eq!(back.records.len(), 0);
                prop_assert_eq!(back.tail.is_some(), cut > 0);
            } else if back.valid_bytes < cut as u64 {
                // Cut landed mid-frame: the ignored tail must be reported.
                prop_assert!(back.tail.is_some(), "silent tail drop at cut {}", cut);
            } else {
                // Cut landed on a frame boundary: clean open.
                prop_assert!(back.tail.is_none());
            }
            // The log stays writable after recovery.
            let (_, mut writer) = LogWriter::append(&path).unwrap();
            append(&mut writer, &[Record { model_fp: 1, test_fp: 1, allowed: false }]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_by_record_logs_open_to_their_live_set(
        records in proptest::collection::vec(record_strategy(), 0..80),
    ) {
        let path = temp_path("records");
        write_record_by_record(&path, &records);
        drop(assert_opens_to(&path, &live_map(&records), records.len() as u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_preserves_the_live_set(batches in batches_strategy()) {
        let path = temp_path("compact");
        write_batches(&path, &batches);
        let before = live_map(&flatten(&batches));
        let stats = compact(&path).unwrap();
        let back = read_log(&path).unwrap();
        prop_assert!(back.tail.is_none());
        prop_assert_eq!(live_map(&back.records), before);
        prop_assert_eq!(back.records.len() as u64, stats.records_out);
        // No duplicate keys remain.
        let keys: std::collections::BTreeSet<_> = back.records.iter().map(Record::key).collect();
        prop_assert_eq!(keys.len(), back.records.len());
        // Idempotent: compacting a compacted log is byte-identical.
        let bytes_once = std::fs::read(&path).unwrap();
        compact(&path).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), bytes_once);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_truncation_never_yields_a_wrong_checkpoint(
        kept in 0u64..130,
        fps in proptest::collection::vec(0u64..1000, 1..4),
    ) {
        use mcm_explore::{StreamCheckpoint, SweepStats};
        use mcm_gen::StreamBounds;
        use mcm_store::SweepMeta;
        let rows = fps.len();
        let ckpt = CheckpointFile {
            meta: SweepMeta {
                bounds: StreamBounds::default(),
                limit: None,
                shard: None,
                canonicalize: false,
                stream_chunk: 64,
            },
            state: StreamCheckpoint {
                tests_streamed: kept + 7,
                tests_kept: kept,
                model_fps: fps,
                rows: (0..kept)
                    .map(|j| {
                        (0..rows as u64)
                            .filter(|i| (i + j).is_multiple_of(2))
                            .fold(0, |row, i| row | 1 << i)
                    })
                    .collect(),
                stats: SweepStats::default(),
            },
        };
        let path = temp_path("ckpt").with_extension("ckpt");
        ckpt.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        prop_assert_eq!(CheckpointFile::load(&path).unwrap().unwrap(), ckpt);
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            // All-or-nothing: a truncated checkpoint is an error, never
            // a silently shorter sweep state.
            prop_assert!(
                CheckpointFile::load(&path).is_err(),
                "truncation at {} accepted", cut
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

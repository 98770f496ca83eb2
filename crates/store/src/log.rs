//! The append-only verdict log: the durable tier of the verdict cache.
//!
//! A log is a versioned header followed by zero or more *frames*, each a
//! length-prefixed, checksummed batch of whole test rows over the
//! frame's own model table (the exact byte layout is pinned in
//! `docs/STORE_FORMAT.md`):
//!
//! ```text
//! header:  "MCMVLOG\0" (8 bytes) · version u32-le         = 12 bytes
//! frame:   payload_len u32-le · payload · fnv1a(payload) u64-le
//! payload: model_count u32-le · model_count × model_fp u64-le
//!          · row_count u32-le · row_count × row
//! row:     test_fp u64-le · w × known u64-le · w × allowed u64-le
//!          (w = ⌈model_count / 64⌉; the model at table position p is
//!          bit p % 64 of word p / 64)
//! ```
//!
//! Version-1 logs, whose frames held one 17-byte `(model_fp, test_fp,
//! allowed)` record per verdict, still read; compaction and the first
//! append-open rewrite them at the current version.
//!
//! Appending is crash-tolerant by construction: a frame becomes visible
//! only once its checksum lands, so a reader that hits a torn or
//! truncated tail verifies nothing after the last complete frame and
//! reports the tail as recoverable — every verdict before it is intact.
//! [`LogWriter::append`] then truncates the torn bytes so new frames butt
//! against valid data. Duplicate keys are allowed (later frames win);
//! [`mod@crate::compact`] rewrites the live set.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mcm_explore::{VerdictRows, VerdictRowsBuf};

use crate::bytes::{fnv1a, put_u32, put_u64, Reader};

/// First 8 bytes of every verdict log.
pub const MAGIC: [u8; 8] = *b"MCMVLOG\0";
/// Current format version: frames of whole test rows. Readers reject
/// logs written by a *newer* version (forward compatibility is not
/// promised); version-1 logs are read and rewritten at this version.
pub const VERSION: u32 = 2;
/// Header length: magic plus version.
pub const HEADER_LEN: u64 = 12;
/// Encoded length of one version-1 record.
const V1_RECORD_LEN: usize = 17;
/// Verdicts per frame written by [`write_atomic`]: bounds frame size
/// (and the blast radius of a torn tail) without making tiny frames.
const ATOMIC_FRAME_RECORDS: usize = 65_536;

/// One persisted verdict: the cache key plus the boolean outcome — the
/// flattened, one-cell-at-a-time view of a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Record {
    /// The model-formula fingerprint
    /// ([`mcm_explore::VerdictCache::model_fingerprint`]).
    pub model_fp: u64,
    /// The canonical-orbit test fingerprint (`mcm_gen::canon::fingerprint`).
    pub test_fp: u64,
    /// The memoized verdict: is the outcome allowed?
    pub allowed: bool,
}

impl Record {
    /// The cache key this record carries.
    #[must_use]
    pub fn key(&self) -> (u64, u64) {
        (self.model_fp, self.test_fp)
    }

    /// The record as a cache cell.
    #[must_use]
    pub fn cell(&self) -> ((u64, u64), bool) {
        (self.key(), self.allowed)
    }
}

impl From<((u64, u64), bool)> for Record {
    fn from(((model_fp, test_fp), allowed): ((u64, u64), bool)) -> Self {
        Record {
            model_fp,
            test_fp,
            allowed,
        }
    }
}

/// Why the tail of a log was ignored. Both conditions are *recoverable*:
/// every verdict before the reported offset is intact, and
/// [`LogWriter::append`] drops the bad tail so the log keeps working.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailError {
    /// The file ended mid-frame (torn write or truncation) at `offset`.
    Truncated {
        /// Byte offset of the first incomplete frame.
        offset: u64,
    },
    /// A complete-looking frame at `offset` failed its checksum or
    /// internal structure check (bit rot, or garbage after a crash).
    Corrupt {
        /// Byte offset of the bad frame.
        offset: u64,
    },
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::Truncated { offset } => {
                write!(f, "log tail truncated mid-frame at byte {offset}")
            }
            TailError::Corrupt { offset } => {
                write!(f, "log frame at byte {offset} failed its checksum")
            }
        }
    }
}

/// Everything a read of a log recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogContents {
    /// The verdicts of every intact frame, in file order (duplicates
    /// kept; later records supersede earlier ones for the same key). A
    /// frame's verdicts come row by row, each row's models in the order
    /// of the frame's model table.
    pub records: Vec<Record>,
    /// Bytes of the file that parsed cleanly — the boundary a writer
    /// truncates to before appending.
    pub valid_bytes: u64,
    /// `None` when the file ended exactly on a frame boundary; otherwise
    /// why (and where) the tail was ignored.
    pub tail: Option<TailError>,
}

/// What [`scan_log`] found besides the rows it handed its visitor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogScan {
    /// Verdicts in intact frames, duplicates included.
    pub(crate) records: u64,
    /// As [`LogContents::valid_bytes`].
    pub(crate) valid_bytes: u64,
    /// As [`LogContents::tail`].
    pub(crate) tail: Option<TailError>,
    /// The header's format version; `None` when the file holds no
    /// complete header.
    pub(crate) version: Option<u32>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Encodes one frame holding `rows`.
pub(crate) fn encode_frame(rows: VerdictRows<'_>) -> Vec<u8> {
    let count = |n: usize| u32::try_from(n).expect("a frame holds fewer than 2^32 models and rows");
    let (model_fps, masks) = (rows.model_fps(), rows.masks());
    let payload_len = 4 + 8 * model_fps.len() + 4 + 8 * (rows.len() + masks.len());
    let mut frame = Vec::with_capacity(4 + payload_len + 8);
    put_u32(
        &mut frame,
        u32::try_from(payload_len).expect("frame payloads stay far below 4 GiB"),
    );
    put_u32(&mut frame, count(model_fps.len()));
    for &fp in model_fps {
        put_u64(&mut frame, fp);
    }
    put_u32(&mut frame, count(rows.len()));
    let w = VerdictRows::words(model_fps.len());
    for (r, &test_fp) in rows.test_fps().iter().enumerate() {
        put_u64(&mut frame, test_fp);
        for &word in &masks[2 * w * r..2 * w * (r + 1)] {
            put_u64(&mut frame, word);
        }
    }
    let checksum = fnv1a(&frame[4..]);
    put_u64(&mut frame, checksum);
    frame
}

/// Decoding buffers reused across the frames of one scan.
#[derive(Default)]
struct FrameBuf {
    model_fps: Vec<u64>,
    test_fps: Vec<u64>,
    masks: Vec<u64>,
    v1: VerdictRowsBuf,
}

impl FrameBuf {
    /// Parses a frame payload whose checksum already verified. `None`
    /// means the payload structure is inconsistent: counts that do not
    /// match the byte count, a bit outside the model table, an allowed
    /// bit without its known bit, or a version-1 verdict byte other than
    /// 0/1. Counts are checked against the bytes before anything is
    /// allocated for them.
    fn decode(&mut self, version: u32, payload: &[u8]) -> Option<VerdictRows<'_>> {
        let mut r = Reader::new(payload);
        if version == 1 {
            let count = r.u32()? as usize;
            if r.remaining() != count.checked_mul(V1_RECORD_LEN)? {
                return None;
            }
            let mut cells = Vec::with_capacity(count);
            for _ in 0..count {
                cells.push(((r.u64()?, r.u64()?), r.bool()?));
            }
            self.v1 = VerdictRowsBuf::from_cells(cells.iter().copied());
            return Some(self.v1.as_rows());
        }
        let model_count = r.u32()? as usize;
        if r.remaining() < model_count.checked_mul(8)?.checked_add(4)? {
            return None;
        }
        self.model_fps.clear();
        self.model_fps.reserve(model_count);
        for _ in 0..model_count {
            self.model_fps.push(r.u64()?);
        }
        let row_count = r.u32()? as usize;
        let w = VerdictRows::words(model_count);
        if r.remaining() != row_count.checked_mul(8 + 16 * w)? {
            return None;
        }
        self.test_fps.clear();
        self.test_fps.reserve(row_count);
        self.masks.clear();
        self.masks.reserve(row_count * 2 * w);
        for _ in 0..row_count {
            self.test_fps.push(r.u64()?);
            for _ in 0..2 * w {
                self.masks.push(r.u64()?);
            }
        }
        VerdictRows::new(&self.model_fps, &self.test_fps, &self.masks)
    }
}

/// Reads a verdict log, tolerating a torn or truncated tail.
///
/// A missing or empty file reads as an empty log. A non-empty file whose
/// header is not a (possibly truncated) `mcm-store` header, or that was
/// written by a newer format version, is a hard [`io::ErrorKind::InvalidData`]
/// error — the store never silently treats someone else's file as its
/// own. Everything after the last intact frame is reported via
/// [`LogContents::tail`] and excluded from [`LogContents::valid_bytes`].
pub fn read_log(path: &Path) -> io::Result<LogContents> {
    let mut records = Vec::new();
    let scan = scan_log(path, |rows| records.extend(rows.cells().map(Record::from)))?;
    Ok(LogContents {
        records,
        valid_bytes: scan.valid_bytes,
        tail: scan.tail,
    })
}

/// [`read_log`] without flattening: hands the rows of each intact frame
/// to `visit` as the frame is read, in file order (a version-1 frame
/// packed into rows by [`VerdictRowsBuf::from_cells`]). A frame that
/// fails its checksum or structure check is never visited.
pub(crate) fn scan_log(path: &Path, mut visit: impl FnMut(VerdictRows<'_>)) -> io::Result<LogScan> {
    let mut scan = LogScan {
        records: 0,
        valid_bytes: 0,
        tail: None,
        version: None,
    };
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    }
    if bytes.is_empty() {
        return Ok(scan);
    }
    if bytes.len() < HEADER_LEN as usize {
        // A prefix of our header (crash during creation) is a recoverable
        // truncation; anything else is not our file.
        if MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
            scan.tail = Some(TailError::Truncated { offset: 0 });
            return Ok(scan);
        }
        return Err(invalid(format!("{} is not an mcm-store verdict log", path.display())));
    }
    if bytes[..8] != MAGIC {
        return Err(invalid(format!("{} is not an mcm-store verdict log", path.display())));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version == 0 || version > VERSION {
        return Err(invalid(format!(
            "{} has verdict-log version {version}, this build reads <= {VERSION}",
            path.display()
        )));
    }
    scan.version = Some(version);
    let mut frame = FrameBuf::default();
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let frame_start = pos as u64;
        if bytes.len() - pos < 4 {
            scan.tail = Some(TailError::Truncated { offset: frame_start });
            break;
        }
        let payload_len =
            u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let frame_end = pos + 4 + payload_len + 8;
        if frame_end > bytes.len() {
            scan.tail = Some(TailError::Truncated { offset: frame_start });
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + payload_len];
        let stored = u64::from_le_bytes(
            bytes[pos + 4 + payload_len..frame_end]
                .try_into()
                .expect("8 bytes"),
        );
        if fnv1a(payload) != stored {
            scan.tail = Some(TailError::Corrupt { offset: frame_start });
            break;
        }
        let Some(rows) = frame.decode(version, payload) else {
            scan.tail = Some(TailError::Corrupt { offset: frame_start });
            break;
        };
        scan.records += rows.cell_count();
        visit(rows);
        pos = frame_end;
    }
    scan.valid_bytes = pos as u64;
    Ok(scan)
}

/// An open verdict log positioned for appending.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
}

impl LogWriter {
    /// Opens (or creates) the log at `path` for appending, first reading
    /// everything it already holds. A torn tail reported by the read is
    /// truncated away, so the next frame lands on the valid boundary, and
    /// a log of an older format version is first rewritten at the current
    /// one ([`crate::compact()`]).
    pub fn append(path: &Path) -> io::Result<(LogContents, LogWriter)> {
        let mut records = Vec::new();
        let (scan, writer) = LogWriter::append_with(path, |rows| {
            records.extend(rows.cells().map(Record::from));
        })?;
        let contents = LogContents {
            records,
            valid_bytes: scan.valid_bytes,
            tail: scan.tail,
        };
        Ok((contents, writer))
    }

    /// [`LogWriter::append`] that hands the existing rows to `visit`
    /// frame by frame ([`scan_log`]) instead of collecting them.
    pub(crate) fn append_with(
        path: &Path,
        visit: impl FnMut(VerdictRows<'_>),
    ) -> io::Result<(LogScan, LogWriter)> {
        let scan = scan_log(path, visit)?;
        let mut bytes = scan.valid_bytes;
        if scan.version.is_some_and(|version| version < VERSION) {
            // Upgrade before the first append, so a frame of an older
            // version is never written.
            bytes = crate::compact::compact(path)?.bytes_after;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(bytes)?;
        if bytes == 0 {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&MAGIC);
            put_u32(&mut header, VERSION);
            file.write_all(&header)?;
            bytes = HEADER_LEN;
        } else {
            file.seek(SeekFrom::End(0))?;
        }
        Ok((
            scan,
            LogWriter {
                file,
                path: path.to_path_buf(),
                bytes,
            },
        ))
    }

    /// Appends one frame holding `rows` (no-op when there are none).
    /// The frame is handed to the OS in a single write, so a process
    /// crash leaves either the whole frame or a checksummed-detectable
    /// tear — never a silently half-applied batch.
    pub fn append_rows(&mut self, rows: VerdictRows<'_>) -> io::Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(rows);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Bytes the log occupies (header plus intact frames).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes `records` to `path` atomically: a fresh log (current
/// [`VERSION`], frames of at most 64 Ki verdicts, packed into rows in
/// order) is built in a `.tmp` sibling and renamed over the destination,
/// so readers see either the old log or the complete new one. Returns
/// the bytes written.
pub fn write_atomic(path: &Path, records: &[Record]) -> io::Result<u64> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| invalid(format!("{} has no file name", path.display())))?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    let mut out = Vec::with_capacity(HEADER_LEN as usize + records.len() * 2);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    for chunk in records.chunks(ATOMIC_FRAME_RECORDS) {
        let rows = VerdictRowsBuf::from_cells(chunk.iter().map(Record::cell));
        out.extend_from_slice(&encode_frame(rows.as_rows()));
    }
    let bytes = out.len() as u64;
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&out)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    fn rows_of(records: &[Record]) -> VerdictRowsBuf {
        VerdictRowsBuf::from_cells(records.iter().map(Record::cell))
    }

    fn frame_of(records: &[Record]) -> Vec<u8> {
        encode_frame(rows_of(records).as_rows())
    }

    fn sample(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                model_fp: i * 3 + 1,
                test_fp: i.rotate_left(17) ^ 0xdead,
                allowed: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn write_reopen_roundtrip_across_batches() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (contents, mut writer) = LogWriter::append(&path).unwrap();
        assert!(contents.records.is_empty());
        writer.append_rows(rows_of(&sample(5)).as_rows()).unwrap();
        writer.append_rows(rows_of(&[]).as_rows()).unwrap();
        writer.append_rows(rows_of(&sample(3)).as_rows()).unwrap();
        let bytes = writer.bytes();
        drop(writer);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let back = read_log(&path).unwrap();
        assert!(back.tail.is_none());
        assert_eq!(back.valid_bytes, bytes);
        let mut expected = sample(5);
        expected.extend(sample(3));
        assert_eq!(back.records, expected);
        // Reopening for append keeps the existing records.
        let (contents, _) = LogWriter::append(&path).unwrap();
        assert_eq!(contents.records, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated_on_reopen() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        writer.append_rows(rows_of(&sample(4)).as_rows()).unwrap();
        let valid = writer.bytes();
        drop(writer);
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame_of(&sample(2))[..10]);
        std::fs::write(&path, &bytes).unwrap();
        let back = read_log(&path).unwrap();
        assert_eq!(back.records, sample(4));
        assert_eq!(back.valid_bytes, valid);
        assert_eq!(back.tail, Some(TailError::Truncated { offset: valid }));
        // Reopen-for-append drops the tail and keeps working.
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        writer.append_rows(rows_of(&sample(1)).as_rows()).unwrap();
        drop(writer);
        let back = read_log(&path).unwrap();
        assert!(back.tail.is_none());
        let mut expected = sample(4);
        expected.extend(sample(1));
        assert_eq!(back.records, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_is_reported_not_trusted() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        writer.append_rows(rows_of(&sample(2)).as_rows()).unwrap();
        writer.append_rows(rows_of(&sample(6)).as_rows()).unwrap();
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte inside the second frame.
        let second_frame = HEADER_LEN as usize + frame_of(&sample(2)).len();
        bytes[second_frame + 4 + 4 + 16] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let back = read_log(&path).unwrap();
        assert_eq!(back.records, sample(2), "only the intact frame survives");
        assert_eq!(
            back.tail,
            Some(TailError::Corrupt {
                offset: second_frame as u64
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rows_with_bits_outside_the_table_are_corrupt() {
        let path = temp_path("structure");
        // One model, one row: (known, allowed) masks that pass the
        // checksum but not the row invariants, then a sound row.
        for (known, allowed, sound) in [(0b0, 0b1, false), (0b10, 0, false), (0b1, 0b1, true)] {
            let mut payload = Vec::new();
            put_u32(&mut payload, 1);
            put_u64(&mut payload, 42);
            put_u32(&mut payload, 1);
            for word in [7, known, allowed] {
                put_u64(&mut payload, word);
            }
            let mut bytes = MAGIC.to_vec();
            put_u32(&mut bytes, VERSION);
            put_u32(&mut bytes, payload.len() as u32);
            bytes.extend_from_slice(&payload);
            put_u64(&mut bytes, fnv1a(&payload));
            std::fs::write(&path, &bytes).unwrap();
            let back = read_log(&path).unwrap();
            if sound {
                let record = Record {
                    model_fp: 42,
                    test_fp: 7,
                    allowed: true,
                };
                assert_eq!(back.records, vec![record]);
                assert!(back.tail.is_none());
            } else {
                assert!(back.records.is_empty());
                let tail = Some(TailError::Corrupt { offset: HEADER_LEN });
                assert_eq!(back.tail, tail, "known {known:#b} allowed {allowed:#b}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_and_future_files_are_hard_errors() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a verdict log").unwrap();
        assert_eq!(
            read_log(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        put_u32(&mut future, VERSION + 1);
        std::fs::write(&path, &future).unwrap();
        assert_eq!(
            read_log(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_atomic_replaces_the_log_in_one_step() {
        let path = temp_path("atomic");
        let _ = std::fs::remove_file(&path);
        let records = sample(100);
        let bytes = write_atomic(&path, &records).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let back = read_log(&path).unwrap();
        assert_eq!(back.records, records);
        assert!(back.tail.is_none());
        // No .tmp sibling left behind.
        assert!(!path.with_file_name("atomic.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }
}

//! The append-only verdict log: the durable tier of the verdict cache.
//!
//! A log is a versioned header followed by zero or more *frames*, each a
//! length-prefixed, checksummed batch of fixed-width records (the exact
//! byte layout is pinned in `docs/STORE_FORMAT.md`):
//!
//! ```text
//! header:  "MCMVLOG\0" (8 bytes) · version u32-le         = 12 bytes
//! frame:   payload_len u32-le · payload · fnv1a(payload) u64-le
//! payload: record_count u32-le · record_count × record
//! record:  model_fp u64-le · test_fp u64-le · allowed u8   = 17 bytes
//! ```
//!
//! Appending is crash-tolerant by construction: a frame becomes visible
//! only once its checksum lands, so a reader that hits a torn or
//! truncated tail verifies nothing after the last complete frame and
//! reports the tail as recoverable — every record before it is intact.
//! [`LogWriter::append`] then truncates the torn bytes so new frames butt
//! against valid data. Duplicate keys are allowed (later frames win);
//! [`mod@crate::compact`] rewrites the live set.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::bytes::{fnv1a, put_u32, put_u64, put_u8, Reader};

/// First 8 bytes of every verdict log.
pub const MAGIC: [u8; 8] = *b"MCMVLOG\0";
/// Current format version. Readers reject logs written by a *newer*
/// version (forward compatibility is not promised); older versions are
/// upgraded on compaction.
pub const VERSION: u32 = 1;
/// Header length: magic plus version.
pub const HEADER_LEN: u64 = 12;
/// Encoded length of one record.
pub const RECORD_LEN: usize = 17;
/// Records per frame written by [`write_atomic`] — bounds frame size (and
/// the blast radius of a torn tail) to ~1 MiB without making tiny frames.
const ATOMIC_FRAME_RECORDS: usize = 65_536;

/// One persisted verdict: the cache key plus the boolean outcome.
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
}

/// Why the tail of a log was ignored. Both conditions are *recoverable*:
/// every record before the reported offset is intact, and
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
    /// The records of every intact frame, in file order (duplicates kept;
    /// later records supersede earlier ones for the same key).
    pub records: Vec<Record>,
    /// Bytes of the file that parsed cleanly — the boundary a writer
    /// truncates to before appending.
    pub valid_bytes: u64,
    /// `None` when the file ended exactly on a frame boundary; otherwise
    /// why (and where) the tail was ignored.
    pub tail: Option<TailError>,
}

/// What [`scan_log`] found besides the records it handed its visitor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogScan {
    /// Records in intact frames, duplicates included.
    pub(crate) records: u64,
    /// As [`LogContents::valid_bytes`].
    pub(crate) valid_bytes: u64,
    /// As [`LogContents::tail`].
    pub(crate) tail: Option<TailError>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Encodes one frame for `records`.
pub(crate) fn encode_frame(records: &[Record]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + records.len() * RECORD_LEN);
    put_u32(
        &mut payload,
        u32::try_from(records.len()).expect("a frame holds fewer than 2^32 records"),
    );
    for record in records {
        put_u64(&mut payload, record.model_fp);
        put_u64(&mut payload, record.test_fp);
        put_u8(&mut payload, u8::from(record.allowed));
    }
    let mut frame = Vec::with_capacity(4 + payload.len() + 8);
    put_u32(
        &mut frame,
        u32::try_from(payload.len()).expect("frame payloads stay far below 4 GiB"),
    );
    let checksum = fnv1a(&payload);
    frame.extend_from_slice(&payload);
    put_u64(&mut frame, checksum);
    frame
}

/// Parses a frame payload whose checksum already verified. `None` means
/// the payload structure is inconsistent (declared count does not match
/// the byte count, or a verdict byte is not 0/1).
fn decode_payload(payload: &[u8], out: &mut Vec<Record>) -> Option<()> {
    let mut r = Reader::new(payload);
    let count = r.u32()? as usize;
    if r.remaining() != count * RECORD_LEN {
        return None;
    }
    out.reserve(count);
    for _ in 0..count {
        out.push(Record {
            model_fp: r.u64()?,
            test_fp: r.u64()?,
            allowed: r.bool()?,
        });
    }
    Some(())
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
    let scan = scan_log(path, |frame| records.extend_from_slice(frame))?;
    Ok(LogContents {
        records,
        valid_bytes: scan.valid_bytes,
        tail: scan.tail,
    })
}

/// [`read_log`] without collecting: hands the records of each intact
/// frame to `visit` as the frame is read, in file order. A frame that
/// fails its checksum or structure check is never visited.
pub(crate) fn scan_log(path: &Path, mut visit: impl FnMut(&[Record])) -> io::Result<LogScan> {
    let mut scan = LogScan {
        records: 0,
        valid_bytes: 0,
        tail: None,
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
    let mut frame = Vec::new();
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
        frame.clear();
        if decode_payload(payload, &mut frame).is_none() {
            scan.tail = Some(TailError::Corrupt { offset: frame_start });
            break;
        }
        visit(&frame);
        scan.records += frame.len() as u64;
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
    /// truncated away, so the next frame lands on the valid boundary.
    pub fn append(path: &Path) -> io::Result<(LogContents, LogWriter)> {
        let mut records = Vec::new();
        let (scan, writer) =
            LogWriter::append_with(path, |frame| records.extend_from_slice(frame))?;
        let contents = LogContents {
            records,
            valid_bytes: scan.valid_bytes,
            tail: scan.tail,
        };
        Ok((contents, writer))
    }

    /// [`LogWriter::append`] that hands the existing records to `visit`
    /// frame by frame ([`scan_log`]) instead of collecting them.
    pub(crate) fn append_with(
        path: &Path,
        visit: impl FnMut(&[Record]),
    ) -> io::Result<(LogScan, LogWriter)> {
        let scan = scan_log(path, visit)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = scan.valid_bytes;
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

    /// Appends one frame holding `records` (no-op for an empty batch).
    /// The frame is handed to the OS in a single write, so a process
    /// crash leaves either the whole frame or a checksummed-detectable
    /// tear — never a silently half-applied batch.
    pub fn append_batch(&mut self, records: &[Record]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(records);
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
/// [`VERSION`], frames of at most 64 Ki records) is built in a `.tmp`
/// sibling and renamed over the destination, so readers see either the
/// old log or the complete new one. Returns the bytes written.
pub fn write_atomic(path: &Path, records: &[Record]) -> io::Result<u64> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| invalid(format!("{} has no file name", path.display())))?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    let mut out = Vec::with_capacity(HEADER_LEN as usize + records.len() * (RECORD_LEN + 1));
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    for chunk in records.chunks(ATOMIC_FRAME_RECORDS) {
        out.extend_from_slice(&encode_frame(chunk));
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
        writer.append_batch(&sample(5)).unwrap();
        writer.append_batch(&[]).unwrap();
        writer.append_batch(&sample(3)).unwrap();
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
        writer.append_batch(&sample(4)).unwrap();
        let valid = writer.bytes();
        drop(writer);
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frame(&sample(2))[..10]);
        std::fs::write(&path, &bytes).unwrap();
        let back = read_log(&path).unwrap();
        assert_eq!(back.records, sample(4));
        assert_eq!(back.valid_bytes, valid);
        assert_eq!(back.tail, Some(TailError::Truncated { offset: valid }));
        // Reopen-for-append drops the tail and keeps working.
        let (_, mut writer) = LogWriter::append(&path).unwrap();
        writer.append_batch(&sample(1)).unwrap();
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
        writer.append_batch(&sample(2)).unwrap();
        writer.append_batch(&sample(6)).unwrap();
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one verdict byte inside the second frame.
        let second_frame = HEADER_LEN as usize + encode_frame(&sample(2)).len();
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

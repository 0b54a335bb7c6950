//! The crash-safe append-only temporal edge log (WAL).
//!
//! ## Record format (`EHNL` v1)
//!
//! ```text
//! header:  "EHNL" | version u32 LE (= 1)                      (8 bytes)
//! record:  len u32 LE | payload (len bytes) | fnv1a64 u64 LE
//! payload: count u32 LE | count × (src u32 | dst u32 | t i64 | w f64)  (all LE)
//! ```
//!
//! The header and the record framing are the shared ones of
//! [`ehna_tgraph::ioutil`]: a record is a sealed record, its trailing
//! checksum the workspace's one [`fnv1a64`](ehna_tgraph::ioutil::fnv1a64)
//! folded over the payload only — the framing EHNP frames use too. One
//! record is one ingest batch; replaying records in order reproduces the
//! edge stream exactly.
//!
//! ## Crash semantics
//!
//! Appends write the whole record in one `write_all` and `sync_data`
//! before returning, so a committed batch survives a crash. A crash *mid*
//! append leaves a torn final record; that is indistinguishable from an
//! in-progress append, so readers stop in front of it
//! ([`EdgeLogReader::tail_pending`]) and [`EdgeLogWriter::open`] truncates
//! it away before continuing. Corruption strictly inside the committed
//! prefix (a record that is fully present but fails its checksum or
//! structural validation) is *not* recoverable tail loss and is reported
//! as [`WalError::Corrupt`] instead of being silently dropped.

use ehna_tgraph::ioutil::{self, Cursor, FormatError};
use ehna_tgraph::{NodeId, TemporalEdge, Timestamp};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic of the edge log.
pub const WAL_MAGIC: [u8; 4] = *b"EHNL";
/// Current format version.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes (magic + version).
pub const WAL_HEADER_LEN: u64 = ioutil::HEADER_LEN as u64;
/// Hard cap on one record's payload, checked *before* allocating, so a
/// corrupted length field cannot drive an OOM.
pub const MAX_RECORD_LEN: u32 = ioutil::MAX_SEALED_LEN;

const EDGE_BYTES: usize = 24;

/// Errors reading (or validating) an edge log.
#[derive(Debug)]
pub enum WalError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The file does not start with a valid `EHNL` header.
    BadHeader(String),
    /// A fully-present record failed validation: checksum mismatch,
    /// inconsistent count, or an invalid edge. Unlike a torn tail this is
    /// byte corruption of committed data and is never silently skipped.
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What failed.
        msg: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "edge log io error: {e}"),
            WalError::BadHeader(msg) => write!(f, "edge log header invalid: {msg}"),
            WalError::Corrupt { offset, msg } => {
                write!(f, "edge log corrupt at byte {offset}: {msg}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<Vec<TemporalEdge>, FormatError> {
    let corrupt = FormatError::Corrupt;
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    if count.checked_mul(EDGE_BYTES) != Some(c.remaining()) {
        return Err(corrupt(format!(
            "count {count} inconsistent with payload length {}",
            payload.len()
        )));
    }
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        let (src, dst, t, w) = (c.u32()?, c.u32()?, c.i64()?, c.f64()?);
        if src == dst {
            return Err(corrupt(format!("self-loop on node {src}")));
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(corrupt(format!("invalid weight {w}")));
        }
        edges.push(TemporalEdge::new(NodeId(src), NodeId(dst), Timestamp(t), w));
    }
    Ok(edges)
}

/// Sequential reader over an edge log; also usable as a tailer — each
/// [`next_batch`](Self::next_batch) call re-checks the file length, so new
/// records appended by a writer become visible without reopening.
#[derive(Debug)]
pub struct EdgeLogReader {
    file: File,
    pos: u64,
    tail_pending: bool,
}

impl EdgeLogReader {
    /// Open a log and validate its header.
    ///
    /// # Errors
    /// [`WalError::BadHeader`] for a wrong magic/version or a file shorter
    /// than the header; IO errors otherwise.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, WalError> {
        Self::open_at(path, WAL_HEADER_LEN)
    }

    /// Open a log positioned at `offset` (a value previously returned by
    /// [`offset`](Self::offset)), for resuming a tail without replaying.
    ///
    /// # Errors
    /// [`WalError::BadHeader`] for an invalid header or an offset inside
    /// it.
    pub fn open_at<P: AsRef<Path>>(path: P, offset: u64) -> Result<Self, WalError> {
        let mut file = File::open(path)?;
        let mut header = [0u8; ioutil::HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| WalError::BadHeader("file shorter than header".into()))?;
        ioutil::check_header(&header, WAL_MAGIC, WAL_VERSION..=WAL_VERSION)
            .map_err(|e| WalError::BadHeader(e.to_string()))?;
        if offset < WAL_HEADER_LEN {
            return Err(WalError::BadHeader(format!("offset {offset} inside header")));
        }
        Ok(EdgeLogReader { file, pos: offset, tail_pending: false })
    }

    /// Byte offset of the next unread record (pass back to
    /// [`open_at`](Self::open_at) to resume).
    pub fn offset(&self) -> u64 {
        self.pos
    }

    /// Whether the last [`next_batch`](Self::next_batch) stopped in front
    /// of an incomplete final record (a torn append or one still in
    /// flight) rather than at a clean end of log.
    pub fn tail_pending(&self) -> bool {
        self.tail_pending
    }

    /// Read the next batch, or `None` at the (current) end of the log.
    ///
    /// An incomplete final record — length field, payload, or checksum
    /// extending past the end of the file — returns `None` with
    /// [`tail_pending`](Self::tail_pending) set: it is indistinguishable
    /// from an append in progress, and a future call retries it.
    ///
    /// # Errors
    /// [`WalError::Corrupt`] when a *fully present* record fails its
    /// checksum or structural validation.
    pub fn next_batch(&mut self) -> Result<Option<Vec<TemporalEdge>>, WalError> {
        let file_len = self.file.metadata()?.len();
        self.tail_pending = false;
        if self.pos >= file_len {
            return Ok(None);
        }
        if file_len - self.pos < 4 {
            self.tail_pending = true;
            return Ok(None);
        }
        self.file.seek(SeekFrom::Start(self.pos))?;
        let corrupt = |e: FormatError| WalError::Corrupt { offset: self.pos, msg: e.to_string() };
        let mut len_buf = [0u8; 4];
        self.file.read_exact(&mut len_buf)?;
        // The cap is checked first: a length no valid record can have is
        // corruption, never a torn append still in flight.
        let total = ioutil::sealed_len(len_buf).map_err(corrupt)?;
        let mut record = vec![0u8; total.min((file_len - self.pos) as usize)];
        record[..4].copy_from_slice(&len_buf);
        self.file.read_exact(&mut record[4..])?;
        let payload = match ioutil::open_sealed(&record) {
            Ok((payload, _)) => payload,
            Err(FormatError::Truncated { .. }) => {
                self.tail_pending = true;
                return Ok(None);
            }
            Err(e) => return Err(corrupt(e)),
        };
        let edges = decode_payload(payload).map_err(corrupt)?;
        self.pos += total as u64;
        Ok(Some(edges))
    }

    /// Drain every committed batch from the current position.
    ///
    /// # Errors
    /// Propagates [`WalError::Corrupt`] from any record.
    pub fn read_all(&mut self) -> Result<Vec<Vec<TemporalEdge>>, WalError> {
        let mut batches = Vec::new();
        while let Some(batch) = self.next_batch()? {
            batches.push(batch);
        }
        Ok(batches)
    }
}

/// Appender for an edge log. Each [`append`](Self::append) durably
/// commits one batch (single `write_all` + `sync_data`).
#[derive(Debug)]
pub struct EdgeLogWriter {
    file: File,
    path: PathBuf,
    end: u64,
    recovered_bytes: u64,
}

impl EdgeLogWriter {
    /// Create a fresh (truncated) log at `path`.
    ///
    /// # Errors
    /// IO failures creating or syncing the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        file.write_all(&ioutil::header(WAL_MAGIC, WAL_VERSION))?;
        file.sync_all()?;
        Ok(EdgeLogWriter { file, path, end: WAL_HEADER_LEN, recovered_bytes: 0 })
    }

    /// Open an existing log for appending, creating it when missing.
    ///
    /// Scans the committed prefix; a torn final record (from a crash mid
    /// append) is truncated away and counted in
    /// [`recovered_bytes`](Self::recovered_bytes). Corruption *inside*
    /// the committed prefix fails the open — committed data is never
    /// silently discarded.
    ///
    /// # Errors
    /// IO failures, an invalid header, or mid-log corruption.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path_ref = path.as_ref();
        if !path_ref.exists() {
            return Self::create(path_ref);
        }
        let mut reader = EdgeLogReader::open(path_ref).map_err(io::Error::from)?;
        while reader.next_batch().map_err(io::Error::from)?.is_some() {}
        let valid_end = reader.offset();
        drop(reader);
        let file = OpenOptions::new().read(true).write(true).open(path_ref)?;
        let file_len = file.metadata()?.len();
        let recovered = file_len - valid_end;
        if recovered > 0 {
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        Ok(EdgeLogWriter {
            file,
            path: path_ref.to_path_buf(),
            end: valid_end,
            recovered_bytes: recovered,
        })
    }

    /// Bytes of torn trailing data discarded by [`open`](Self::open).
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Byte offset past the last committed record.
    pub fn offset(&self) -> u64 {
        self.end
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably append one batch as a single record.
    ///
    /// # Errors
    /// Rejects an empty batch (`InvalidInput`), propagates IO failures.
    /// After an error the caller should reopen: the tail may be torn.
    pub fn append(&mut self, edges: &[TemporalEdge]) -> io::Result<()> {
        if edges.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty edge batch"));
        }
        for e in edges {
            if e.src == e.dst {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("self-loop on node {}", e.src.0),
                ));
            }
            if !e.w.is_finite() || e.w <= 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("invalid weight {}", e.w),
                ));
            }
        }
        let payload_len = 4 + edges.len() as u64 * EDGE_BYTES as u64;
        if payload_len > u64::from(MAX_RECORD_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record of {payload_len} bytes exceeds cap {MAX_RECORD_LEN}"),
            ));
        }
        let mut record = Vec::with_capacity(payload_len as usize + ioutil::SEAL_OVERHEAD);
        ioutil::seal(&mut record, |out| {
            out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for e in edges {
                out.extend_from_slice(&e.src.0.to_le_bytes());
                out.extend_from_slice(&e.dst.0.to_le_bytes());
                out.extend_from_slice(&e.t.raw().to_le_bytes());
                out.extend_from_slice(&e.w.to_le_bytes());
            }
        });
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        self.end += record.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: u32, b: u32, t: i64, w: f64) -> TemporalEdge {
        TemporalEdge::new(NodeId(a), NodeId(b), Timestamp(t), w)
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ehna-wal-{}-{name}.log", std::process::id()));
        p
    }

    #[test]
    fn round_trip_two_batches() {
        let path = tmp("round-trip");
        let b1 = vec![edge(0, 1, 5, 1.0), edge(2, 3, 6, 0.5)];
        let b2 = vec![edge(1, 4, 7, 2.0)];
        {
            let mut w = EdgeLogWriter::create(&path).unwrap();
            w.append(&b1).unwrap();
            w.append(&b2).unwrap();
        }
        let mut r = EdgeLogReader::open(&path).unwrap();
        assert_eq!(r.next_batch().unwrap().unwrap(), b1);
        let at_b2 = r.offset();
        assert_eq!(r.next_batch().unwrap().unwrap(), b2);
        assert_eq!(r.next_batch().unwrap(), None);
        assert!(!r.tail_pending());
        // Resume from a saved offset.
        let mut r2 = EdgeLogReader::open_at(&path, at_b2).unwrap();
        assert_eq!(r2.next_batch().unwrap().unwrap(), b2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_sees_new_records_without_reopen() {
        let path = tmp("tail");
        let mut w = EdgeLogWriter::create(&path).unwrap();
        let mut r = EdgeLogReader::open(&path).unwrap();
        assert_eq!(r.next_batch().unwrap(), None);
        w.append(&[edge(0, 1, 1, 1.0)]).unwrap();
        assert_eq!(r.next_batch().unwrap().unwrap(), vec![edge(0, 1, 1, 1.0)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_open_appends_after_existing_records() {
        let path = tmp("reopen");
        {
            let mut w = EdgeLogWriter::create(&path).unwrap();
            w.append(&[edge(0, 1, 1, 1.0)]).unwrap();
        }
        {
            let mut w = EdgeLogWriter::open(&path).unwrap();
            assert_eq!(w.recovered_bytes(), 0);
            w.append(&[edge(1, 2, 2, 1.0)]).unwrap();
        }
        let mut r = EdgeLogReader::open(&path).unwrap();
        assert_eq!(r.read_all().unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_invalid_batches() {
        let path = tmp("invalid");
        let mut w = EdgeLogWriter::create(&path).unwrap();
        assert!(w.append(&[]).is_err());
        let sl = TemporalEdge { src: NodeId(1), dst: NodeId(1), t: Timestamp(0), w: 1.0 };
        assert!(w.append(&[sl]).is_err());
        assert!(w.append(&[edge(0, 1, 0, -1.0)]).is_err());
        assert!(w.append(&[edge(0, 1, 0, f64::NAN)]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_rejected() {
        let path = tmp("bad-header");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(matches!(EdgeLogReader::open(&path), Err(WalError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }
}

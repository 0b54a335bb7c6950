//! The binary-format layer every codec in the workspace is a schema
//! over, plus bulk `f32` block IO and crash-safe file persistence.
//!
//! * [`fnv1a64`] is the one checksum; [`ChecksumWriter`]/[`ChecksumReader`]
//!   fold it over streams.
//! * [`header`]/[`check_header`]/[`read_header`]: the 8-byte
//!   `magic [u8; 4] | version u32 LE` header of EHNL, the EHNP preamble,
//!   EHNM, EHNC and `ParamStore`.
//! * [`seal`]/[`open_sealed`]: the sealed record of EHNP frames and EHNL
//!   records, `len u32 LE | payload | fnv1a64(payload) u64 LE`, whose
//!   `len` is checked against [`MAX_SEALED_LEN`] before any allocation.
//!   A record cut short is [`FormatError::Truncated`] and a damaged one
//!   [`FormatError::Corrupt`], so a log reader can tell a torn tail from
//!   corruption.
//! * [`Cursor`]: bounds-checked little-endian reads from a slice, errors
//!   carrying the offset; [`read_u32`]/[`read_u64`] read from a stream,
//!   [`put_string`]/[`put_f32s`] write what the cursor reads.
//! * [`FormatError`]: each crate's public error wraps it.
//!
//! EHNQ, the embedding-table format, keeps its fixed 64-byte header and
//! uses only the checksum and the cursor.
//! [`atomic_write_path`] is the persistence discipline of every
//! long-lived artifact: tmp file + fsync + `.bak` rotation + atomic
//! rename, so a crash at any byte leaves a loadable prior file on disk.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

/// A byte image that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The field at `offset`, `wanted` bytes long, runs past the input.
    Truncated {
        /// Byte offset of the field.
        offset: usize,
        /// Size of the field.
        wanted: usize,
    },
    /// A field holds a value the format does not allow.
    Corrupt(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated { offset, wanted } => {
                write!(f, "truncated: wanted {wanted} bytes at offset {offset}")
            }
            FormatError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for io::Error {
    fn from(e: FormatError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 of `bytes`: the checksum of every format in the workspace.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Forwards writes to the inner writer while folding [`fnv1a64`] over
/// every byte written. Formats append [`ChecksumWriter::digest`] as a
/// trailing field so loads can detect payload corruption.
#[derive(Debug)]
pub struct ChecksumWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> ChecksumWriter<W> {
    /// Wrap `inner`, starting from the FNV offset basis.
    pub fn new(inner: W) -> Self {
        ChecksumWriter { inner, hash: FNV_OFFSET }
    }

    /// Digest of everything written so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Unwrap, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Forwards reads from the inner reader while folding the same digest
/// [`ChecksumWriter`] computes, for verifying a trailing checksum.
#[derive(Debug)]
pub struct ChecksumReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> ChecksumReader<R> {
    /// Wrap `inner`, starting from the FNV offset basis.
    pub fn new(inner: R) -> Self {
        ChecksumReader { inner, hash: FNV_OFFSET }
    }

    /// Digest of everything read so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Unwrap, returning the inner reader (e.g. to read the trailing
    /// checksum itself outside the digest).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_fold(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// Length of the `magic [u8; 4] | version u32 LE` header.
pub const HEADER_LEN: usize = 8;

/// The header opening a `magic` file or stream at `version`.
pub fn header(magic: [u8; 4], version: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    h[4..].copy_from_slice(&version.to_le_bytes());
    h
}

/// Check the header at the start of `buf` against `magic` and the
/// supported `versions`, returning its version.
///
/// # Errors
/// Truncated when `buf` is short; corrupt on another magic or version.
pub fn check_header(
    buf: &[u8],
    magic: [u8; 4],
    versions: RangeInclusive<u32>,
) -> Result<u32, FormatError> {
    let mut c = Cursor::new(buf);
    let found = c.take(4)?;
    if found != magic {
        return Err(FormatError::Corrupt(format!(
            "bad magic \"{}\" (expected \"{}\")",
            found.escape_ascii(),
            magic.escape_ascii()
        )));
    }
    let version = c.u32()?;
    if !versions.contains(&version) {
        let magic = magic.escape_ascii();
        return Err(FormatError::Corrupt(format!("unsupported \"{magic}\" version {version}")));
    }
    Ok(version)
}

/// [`check_header`] over the next bytes of `r`. The magic is checked
/// before the version is read, so a foreign stream shorter than a header
/// still reports its bad magic.
///
/// # Errors
/// IO failures, or the header check's error as `InvalidData`.
pub fn read_header<R: Read>(
    r: &mut R,
    magic: [u8; 4],
    versions: RangeInclusive<u32>,
) -> io::Result<u32> {
    let mut h = [0u8; HEADER_LEN];
    r.read_exact(&mut h[..4])?;
    if h[..4] == magic {
        r.read_exact(&mut h[4..])?;
    }
    Ok(check_header(&h, magic, versions)?)
}

/// Largest payload a sealed record may carry.
pub const MAX_SEALED_LEN: u32 = 1 << 26;

/// Bytes a seal adds around its payload (length prefix and digest).
pub const SEAL_OVERHEAD: usize = 12;

/// Append a sealed record to `out`, its payload written in place by
/// `fill`. A payload over [`MAX_SEALED_LEN`] makes a record every reader
/// refuses; writers that must not produce one check the size first.
pub fn seal(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    fill(out);
    let len = u32::try_from(out.len() - start - 4).unwrap_or(u32::MAX);
    let digest = fnv1a64(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
}

/// Total length of the sealed record whose length prefix is `prefix`.
///
/// # Errors
/// Corrupt when the prefix exceeds [`MAX_SEALED_LEN`].
pub fn sealed_len(prefix: [u8; 4]) -> Result<usize, FormatError> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_SEALED_LEN {
        let msg = format!("record length {len} exceeds cap {MAX_SEALED_LEN}");
        return Err(FormatError::Corrupt(msg));
    }
    Ok(len as usize + SEAL_OVERHEAD)
}

/// The payload and total length of the sealed record at the start of
/// `buf`.
///
/// # Errors
/// Corrupt when the length prefix exceeds the cap (checked on the
/// prefix alone) or the digest does not match; truncated when `buf` ends
/// inside the record.
pub fn open_sealed(buf: &[u8]) -> Result<(&[u8], usize), FormatError> {
    let mut c = Cursor::new(buf);
    let total = sealed_len(c.array()?)?;
    let payload = c.take(total - SEAL_OVERHEAD)?;
    let (stored, computed) = (c.u64()?, fnv1a64(payload));
    if stored != computed {
        let msg = format!("checksum mismatch: stored {stored:#x}, computed {computed:#x}");
        return Err(FormatError::Corrupt(msg));
    }
    Ok((payload, total))
}

/// Bounds-checked little-endian reader over a byte slice: a corrupt
/// count can never index out of bounds or allocate more than the input
/// holds. Every read fails with [`FormatError::Truncated`] at the
/// current offset when the input is too short.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! le_reads {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        pub fn $t(&mut self) -> Result<$t, FormatError> {
            self.array().map($t::from_le_bytes)
        }
    )*};
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError::Truncated { offset: self.pos, wanted: n });
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    le_reads!(u8, u16, u32, u64, i64, f64);

    /// `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, FormatError> {
        Ok(f32s_from_le(self.take(n.saturating_mul(4))?))
    }

    /// A `len u32 LE | UTF-8 bytes` string, as [`put_string`] writes it;
    /// corrupt when the bytes are not UTF-8.
    pub fn string(&mut self) -> Result<String, FormatError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| FormatError::Corrupt(format!("string at offset {at} is not UTF-8")))
    }

    /// Corrupt unless every byte was consumed.
    pub fn finish(&self) -> Result<(), FormatError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(FormatError::Corrupt(format!("{n} trailing bytes at offset {}", self.pos))),
        }
    }
}

/// Decode little-endian `f32`s (a trailing partial value is ignored).
pub(crate) fn f32s_from_le(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4"))).collect()
}

/// Append `s` as `len u32 LE | UTF-8 bytes`.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append `xs` as little-endian `f32`s.
pub fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    let start = out.len();
    out.resize(start + xs.len() * 4, 0);
    for (chunk, &x) in out[start..].chunks_exact_mut(4).zip(xs) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Read one little-endian `u32` from `r`.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Read one little-endian `u64` from `r`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Write `xs` as one contiguous little-endian block (single `write_all`).
pub fn write_f32_block<W: Write>(w: &mut W, xs: &[f32]) -> io::Result<()> {
    let mut buf = Vec::new();
    put_f32s(&mut buf, xs);
    w.write_all(&buf)
}

/// Read `n` little-endian `f32`s as one block (single `read_exact`).
pub fn read_f32_block<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<f32>> {
    let mut buf = vec![0u8; n * 4];
    r.read_exact(&mut buf)?;
    Ok(f32s_from_le(&buf))
}

/// Narrow a `usize` count to a format's `u32` field, erroring instead of
/// truncating (a truncated count would silently corrupt the stream).
pub fn checked_u32(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{what} {n} exceeds u32 range"))
    })
}

/// The `.bak` sibling `atomic_write_path` rotates the previous file to.
pub fn backup_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".bak");
    PathBuf::from(os)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Crash-safe file replacement: `write` produces the new content into
/// `<path>.tmp`, which is fsynced and renamed over `path`; a pre-existing
/// `path` is first rotated to `<path>.bak`. The parent directory is
/// fsynced after the renames so the entries are durable.
///
/// Interruption at any point leaves a loadable file: before the rotation
/// the old `path` is untouched; between the rotation and the final rename
/// `<path>.bak` holds the complete previous content (loaders should fall
/// back to it); after the final rename the new `path` is complete. The
/// partial `<path>.tmp` is never observable under the destination name.
///
/// # Errors
/// Propagates IO failures from `write`, fsync, or the renames; on error
/// the destination still holds its previous content (possibly under
/// `<path>.bak` if only the final rename failed).
pub fn atomic_write_path<F>(path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    let tmp = tmp_path(path);
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        if path.exists() {
            fs::rename(path, backup_path(path))?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync is what makes the renames durable on Linux;
            // opening a directory read-only for sync is fine there, and
            // filesystems where it fails still got the data fsync above.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_bits() {
        let xs = vec![0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7, -0.0, f32::MAX];
        let mut buf = Vec::new();
        write_f32_block(&mut buf, &xs).unwrap();
        assert_eq!(buf.len(), xs.len() * 4);
        let back = read_f32_block(&mut &buf[..], xs.len()).unwrap();
        assert_eq!(
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_block_roundtrips() {
        let mut buf = Vec::new();
        write_f32_block(&mut buf, &[]).unwrap();
        assert!(buf.is_empty());
        assert!(read_f32_block(&mut &buf[..], 0).unwrap().is_empty());
    }

    #[test]
    fn truncated_block_errors() {
        let mut buf = Vec::new();
        write_f32_block(&mut buf, &[1.0, 2.0]).unwrap();
        assert!(read_f32_block(&mut &buf[..7], 2).is_err());
    }

    #[test]
    fn checksum_writer_and_reader_agree() {
        let mut w = ChecksumWriter::new(Vec::new());
        w.write_all(b"hello").unwrap();
        w.write_all(b" world").unwrap();
        let digest = w.digest();
        let buf = w.into_inner();

        let mut r = ChecksumReader::new(&buf[..]);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"hello world");
        assert_eq!(r.digest(), digest);
    }

    #[test]
    fn checksum_detects_any_single_byte_change() {
        let mut w = ChecksumWriter::new(Vec::new());
        w.write_all(b"checkpoint payload bytes").unwrap();
        let digest = w.digest();
        let buf = w.into_inner();
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x41;
            let mut r = ChecksumReader::new(&corrupt[..]);
            io::copy(&mut r, &mut io::sink()).unwrap();
            assert_ne!(r.digest(), digest, "flip at byte {i} not detected");
        }
    }

    #[test]
    fn sealed_record_tells_incomplete_from_corrupt() {
        let mut rec = Vec::new();
        seal(&mut rec, |out| out.extend_from_slice(b"payload"));
        assert_eq!(open_sealed(&rec).unwrap(), (&b"payload"[..], rec.len()));
        for cut in 0..rec.len() {
            let err = open_sealed(&rec[..cut]).unwrap_err();
            assert!(matches!(err, FormatError::Truncated { .. }), "cut {cut}: {err}");
        }
        rec[6] ^= 1;
        assert!(matches!(open_sealed(&rec), Err(FormatError::Corrupt(_))));
        let huge = (MAX_SEALED_LEN + 1).to_le_bytes();
        assert!(matches!(open_sealed(&huge), Err(FormatError::Corrupt(m)) if m.contains("cap")));
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ehna_ioutil_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_creates_replaces_and_rotates() {
        let dir = tempdir("atomic");
        let path = dir.join("artifact.bin");
        atomic_write_path(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        assert!(!backup_path(&path).exists());

        atomic_write_path(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read(backup_path(&path)).unwrap(), b"first");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_destination_intact() {
        let dir = tempdir("fail");
        let path = dir.join("artifact.bin");
        atomic_write_path(&path, |w| w.write_all(b"good")).unwrap();
        let err = atomic_write_path(&path, |w| {
            w.write_all(b"partial garbage")?;
            Err(io::Error::other("simulated crash"))
        });
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"good", "destination clobbered");
        assert!(!tmp_path(&path).exists(), "tmp file leaked");
        let _ = fs::remove_dir_all(&dir);
    }
}

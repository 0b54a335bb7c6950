//! Byte buffers for snapshot files: a 64-byte-aligned heap buffer and a
//! read-only memory mapping.
//!
//! EHNQ sections start on 64-byte file offsets (see [`crate::quant`]), so
//! keeping the *base* of the in-memory image 64-aligned makes every
//! section pointer cache-line aligned — and, more importantly, makes the
//! `f32`/`u16` reinterpretation views well-aligned — whether the image
//! came from `read` (heap) or `mmap` (page-aligned by the kernel).

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;

/// Alignment of both buffer kinds, matching the EHNQ section alignment.
pub const BUF_ALIGN: usize = 64;

// ------------------------------------------------------------ heap buffer

/// A heap allocation whose base address is 64-byte aligned (a plain
/// `Vec<u8>` only guarantees alignment 1, which would make zero-copy
/// `&[f32]` views of the payload unsound).
pub struct AlignedBuf {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// The buffer is plain owned memory, written once at construction.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len.max(1), BUF_ALIGN).expect("valid layout")
    }

    /// Copy `bytes` into a fresh aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = AlignedBuf::zeroed(bytes.len());
        buf.as_mut().copy_from_slice(bytes);
        buf
    }

    /// A zero-filled aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        // SAFETY: layout has non-zero size (len.max(1)).
        let raw = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) };
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(Self::layout(len));
        };
        AlignedBuf { ptr, len }
    }

    fn as_mut(&mut self) -> &mut [u8] {
        // SAFETY: ptr covers len initialized (zeroed) bytes.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of `len` bytes starting at `off`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        &mut self.as_mut()[off..off + len]
    }

    /// Fill `buf[off..]` by reading exactly that many bytes from `r`.
    pub fn read_into<R: Read>(r: &mut R, buf: &mut AlignedBuf, off: usize) -> io::Result<()> {
        let tail = &mut buf.as_mut()[off..];
        r.read_exact(tail)
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: allocated with the same layout in `zeroed`.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), Self::layout(self.len)) };
    }
}

impl Deref for AlignedBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: ptr covers len initialized bytes.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf").field("len", &self.len).finish()
    }
}

// ---------------------------------------------------------------- mmap

/// A read-only, shared memory mapping of an entire file.
///
/// On unix this is a real `mmap(2)` (private, read-only): opening costs
/// two syscalls regardless of file size, and pages fault in lazily on
/// first touch — this is what makes EHNQ snapshot open O(1) in table
/// size. On other platforms [`MmapBuf::map`] reports `Unsupported` and
/// callers fall back to the heap path.
pub struct MmapBuf {
    ptr: *mut u8,
    len: usize,
}

// Read-only mapping shared freely across threads.
unsafe impl Send for MmapBuf {}
unsafe impl Sync for MmapBuf {}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MmapBuf {
    /// Whether this platform supports memory mapping.
    pub fn supported() -> bool {
        cfg!(unix)
    }

    /// Map all `len` bytes of `file` read-only. The caller supplies the
    /// length it already validated against the file's metadata so a file
    /// growing between stat and map cannot change the view.
    #[cfg(unix)]
    pub fn map(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Ok(MmapBuf { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: fd is open for reading; a read-only private mapping of
        // it cannot alias writable memory we hand out elsewhere.
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if raw as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapBuf { ptr: raw.cast(), len })
    }

    /// Unsupported platform: callers fall back to heap loading.
    #[cfg(not(unix))]
    pub fn map(_file: &File, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mmap unavailable on this platform"))
    }
}

impl Drop for MmapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: exactly the region returned by mmap in `map`.
            unsafe { sys::munmap(self.ptr.cast(), self.len) };
        }
    }
}

impl Deref for MmapBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping covers len bytes and lives until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl std::fmt::Debug for MmapBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapBuf").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn aligned_buf_is_aligned_and_holds_bytes() {
        for len in [0usize, 1, 63, 64, 65, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let buf = AlignedBuf::from_bytes(&bytes);
            assert_eq!(&*buf, &bytes[..]);
            assert_eq!(buf.as_ptr() as usize % BUF_ALIGN, 0, "len {len} misaligned");
        }
    }

    #[test]
    fn aligned_buf_reads_exactly() {
        let data = [7u8; 130];
        let mut buf = AlignedBuf::zeroed(130);
        AlignedBuf::read_into(&mut &data[..], &mut buf, 0).unwrap();
        assert_eq!(&*buf, &data[..]);
        let mut long = AlignedBuf::zeroed(131);
        assert!(AlignedBuf::read_into(&mut &data[..], &mut long, 0).is_err(), "short read");
    }

    #[cfg(unix)]
    #[test]
    fn mmap_roundtrips_file_contents() {
        let path = std::env::temp_dir().join("ehna_tgraph_mmapbuf_test.bin");
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        std::fs::File::create(&path).unwrap().write_all(&bytes).unwrap();
        let file = File::open(&path).unwrap();
        let map = MmapBuf::map(&file, bytes.len()).unwrap();
        assert_eq!(&*map, &bytes[..]);
        assert_eq!(map.as_ptr() as usize % BUF_ALIGN, 0, "page alignment implies 64");
        drop(map);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_of_empty_file_is_empty() {
        let path = std::env::temp_dir().join("ehna_tgraph_mmapbuf_empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = MmapBuf::map(&file, 0).unwrap();
        assert!(map.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}

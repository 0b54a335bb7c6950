//! EHNQ v1 — quantized, mmap-able embedding snapshots.
//!
//! The legacy `EHNA` snapshot ([`crate::NodeEmbeddings`]) stores f32 rows
//! big-endian and must be fully deserialized on open, which makes table
//! memory the scale ceiling for serving and makes hot-swap briefly hold
//! two full tables. EHNQ is the replacement artifact family:
//!
//! * **f32** — full precision, little-endian, zero-copy readable.
//! * **f16** — IEEE binary16, 2 bytes/dim (2x smaller).
//! * **int8** — per-dimension scalar quantization, 1 byte/dim (4x).
//! * **pq**  — product quantization, `m` bytes/row (`dim/m` dims per
//!   sub-codebook of 256 centroids), typically 8–64x smaller.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!  0       4    magic "EHNQ"
//!  4       2    version (1)
//!  6       1    format  (0=f32, 1=f16, 2=int8, 3=pq)
//!  7       1    flags   (bit 0: little-endian payload; always 1)
//!  8       8    num_nodes
//! 16       4    dim
//! 20       2    pq_m    (sub-quantizer count; 0 unless format=pq)
//! 22       2    pq_ks   (centroids per sub-quantizer; 256 for pq, else 0)
//! 24       8    meta_len  (bytes of codebooks/scales, before padding)
//! 32       8    code_len  (bytes of row codes)
//! 40       8    meta_fnv  (FNV-1a 64 over the padded meta section)
//! 48       8    code_fnv  (FNV-1a 64 over the code section)
//! 56       8    header_fnv (FNV-1a 64 over bytes 0..56)
//! 64       …    meta section, zero-padded to a 64-byte boundary
//!  …       …    code section (rows of codes, row-major)
//! ```
//!
//! Every section starts on a 64-byte file offset and every byte of the
//! file is covered by exactly one checksum, so any single-byte corruption
//! is detectable. Heap opens verify all three checksums. Mmap opens
//! verify only `header_fnv` and `meta_fnv` (both O(dim), independent of
//! `num_nodes`) and defer `code_fnv` to [`QuantizedEmbeddings::verify_payload`]
//! — that deferral is what makes mmap open O(1) in table size.
//!
//! ## Meta section per format
//!
//! * f32 / f16 — empty.
//! * int8 — `min[dim] f32` then `scale[dim] f32`; a row decodes as
//!   `min[d] + scale[d] * code[d]` with `scale = (max-min)/255` per
//!   dimension (a constant dimension stores `scale = 0`).
//! * pq — `m * 256 * (dim/m)` f32 centroids, sub-quantizer-major:
//!   centroid `c` of sub-quantizer `j` occupies
//!   `[(j*256 + c) * dsub, (j*256 + c + 1) * dsub)`.
//!
//! ## Distance contract
//!
//! All serve-path distances accumulate as
//! `acc += ((x as f32 - y as f32) as f64)^2` in ascending dimension
//! order — see [`sq_dist_f64`], the single pinned implementation. The PQ
//! scorer builds a per-query f64 lookup table whose entries are
//! `sq_dist_f64` over sub-vectors and sums them in ascending sub-quantizer
//! order, so every index (brute, IVF, sharded) that scores through
//! [`QuantScorer`] produces identical orderings.
//!
//! Inputs are assumed finite; quantizing non-finite values is unspecified
//! (the training pipeline never emits them).

use crate::ioutil::{f32s_from_le, fnv1a64, put_f32s, Cursor, FormatError};
use crate::mmapbuf::{AlignedBuf, MmapBuf};
use crate::{GraphError, NodeEmbeddings, NodeId};
use std::borrow::Cow;
use std::hint::black_box;
use std::io::Read;
use std::path::Path;

/// Magic bytes opening every EHNQ file.
pub const MAGIC: [u8; 4] = *b"EHNQ";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header size; also the alignment of the meta and code sections.
pub const HEADER_LEN: usize = 64;
const SECTION_ALIGN: usize = 64;
const FLAG_LE: u8 = 1;
/// Centroids per PQ sub-quantizer (codes are `u8`).
pub const PQ_KS: usize = 256;
/// Largest accepted embedding dimensionality.
pub const MAX_DIM: usize = 65_536;
/// Rows sampled (deterministically) for PQ codebook training.
const PQ_TRAIN_CAP: usize = 4096;

fn align_up(x: usize) -> usize {
    (x + SECTION_ALIGN - 1) & !(SECTION_ALIGN - 1)
}

// ------------------------------------------------------------------ f16

/// Convert f32 to IEEE binary16 with round-to-nearest-even.
pub fn f32_to_f16(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    if (x & 0x7fff_ffff) > 0x7f80_0000 {
        return sign | 0x7e00; // NaN -> quiet NaN (payload not preserved)
    }
    let mut exp = ((x >> 23) & 0xff) as i32 - 127 + 15;
    let man = x & 0x007f_ffff;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow and infinity -> infinity
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // underflows to signed zero
        }
        // Subnormal result: restore the implicit bit, then shift out
        // 14 - exp mantissa bits with round-to-nearest-even. A carry out
        // of the 10-bit field lands on the smallest normal encoding.
        let man = man | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let half = 1u32 << (shift - 1);
        let rem = man & ((1u32 << shift) - 1);
        let mut half_man = man >> shift;
        if rem > half || (rem == half && half_man & 1 == 1) {
            half_man += 1;
        }
        return sign | half_man as u16;
    }
    let rem = man & 0x1fff;
    let mut half_man = man >> 13;
    if rem > 0x1000 || (rem == 0x1000 && half_man & 1 == 1) {
        half_man += 1;
        if half_man == 0x400 {
            half_man = 0;
            exp += 1;
            if exp >= 0x1f {
                return sign | 0x7c00;
            }
        }
    }
    sign | ((exp as u16) << 10) | half_man as u16
}

/// Convert IEEE binary16 to f32 (exact; every f16 value is an f32 value).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    match (exp, man) {
        (0, 0) => f32::from_bits(sign),
        (0, m) => {
            // Subnormal: m * 2^-24, computed exactly in f32.
            let mag = m as f32 * f32::from_bits(0x3380_0000);
            if sign != 0 {
                -mag
            } else {
                mag
            }
        }
        (0x1f, m) => f32::from_bits(sign | 0x7f80_0000 | (m << 13)),
        (e, m) => f32::from_bits(sign | ((e as u32 + 112) << 23) | (m << 13)),
    }
}

// ------------------------------------------------------ pinned distance

/// The single squared-euclidean accumulation used on every serve path:
/// widen each f32 difference to f64, square, and add in ascending
/// dimension order. No FMA, no reassociation — brute force, IVF scans,
/// and quantized scorers all inherit tie order from this exact sequence
/// of operations, which the byte-identical router equivalence gate
/// depends on.
#[inline]
pub fn sq_dist_f64(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = (x - y) as f64;
        acc += d * d;
    }
    acc
}

// ------------------------------------------------- lane-parallel scoring

/// Rows scored side by side by the block kernels: one SIMD lane per row.
pub const LANES: usize = 16;

/// Rows relaid into blocks of [`LANES`] rows, stored dimension-major:
/// element `d` of the row in lane `l` of block `b` sits at
/// `(b * width + d) * LANES + l`. The last block is zero-padded.
///
/// The block kernels run [`LANES`] rows' [`sq_dist_f64`] chains in
/// parallel lanes. Each lane performs exactly the per-row operation
/// sequence (same widening, same ascending dimension order, no FMA), so
/// a block score is bit-identical to the per-row scorer. The layout
/// costs one copy of the rows' code bytes; building it once (at index
/// build time) is what makes the lane kernels pay off per query.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBlocks {
    /// Code elements per row: `dim`, or `pq_m` for PQ.
    width: usize,
    rows: usize,
    codes: LaneCodes,
}

#[derive(Debug, Clone, PartialEq)]
enum LaneCodes {
    F32(Vec<f32>),
    F16(Vec<u16>),
    Int8(Vec<u8>),
    Pq(Vec<u8>),
}

/// Scatter `rows` rows of `width` elements each (row `r` written by
/// `fill(r, buf)`) into the dimension-major block layout.
fn relayout<T: Copy + Default>(
    width: usize,
    rows: usize,
    mut fill: impl FnMut(usize, &mut [T]),
) -> Vec<T> {
    let mut out = vec![T::default(); rows.div_ceil(LANES) * width * LANES];
    let mut row = vec![T::default(); width];
    for r in 0..rows {
        fill(r, &mut row);
        let base = r / LANES * width * LANES + r % LANES;
        for (d, &x) in row.iter().enumerate() {
            out[base + d * LANES] = x;
        }
    }
    out
}

impl LaneBlocks {
    /// Block f32 rows of length `dim` (dense tables, IVF centroids).
    ///
    /// # Panics
    /// Panics if a row's length differs from `dim`.
    pub fn from_f32_rows<'a>(dim: usize, rows: impl ExactSizeIterator<Item = &'a [f32]>) -> Self {
        let n = rows.len();
        let mut rows = rows;
        let codes = relayout(dim, n, |_, buf| {
            buf.copy_from_slice(rows.next().expect("ExactSizeIterator length"))
        });
        LaneBlocks { width: dim, rows: n, codes: LaneCodes::F32(codes) }
    }

    /// Number of rows (excluding padding).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows are blocked.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of blocks (`ceil(len / LANES)`).
    pub fn num_blocks(&self) -> usize {
        self.rows.div_ceil(LANES)
    }

    /// Score block `b` of f32 rows: `out[l] = sq_dist_f64(query, row_l)`
    /// bit for bit (padding lanes hold unspecified values).
    ///
    /// # Panics
    /// Panics if the blocks are not f32 or `query.len()` differs from
    /// the row length.
    pub fn sq_dist_f32(&self, query: &[f32], b: usize, out: &mut [f64; LANES]) {
        match &self.codes {
            LaneCodes::F32(codes) => lanes_f32(query, self.block(codes, b), out),
            _ => panic!("sq_dist_f32 on non-f32 blocks"),
        }
    }

    fn block<'a, T>(&self, codes: &'a [T], b: usize) -> &'a [T] {
        &codes[b * self.width * LANES..(b + 1) * self.width * LANES]
    }
}

/// The block as `width` columns of [`LANES`] elements.
#[inline(always)]
fn columns<T>(block: &[T]) -> impl Iterator<Item = &[T; LANES]> {
    block.chunks_exact(LANES).map(|c| c.try_into().expect("LANES-wide column"))
}

/// The lanes' f32 differences `q - x(code)` for one dimension.
#[inline(always)]
fn diffs<T: Copy>(q: f32, col: &[T; LANES], x: impl Fn(T) -> f32) -> [f32; LANES] {
    let mut diff = [0.0f32; LANES];
    for (o, &c) in diff.iter_mut().zip(col) {
        *o = q - x(c);
    }
    diff
}

/// One ascending-dimension step of every lane's [`sq_dist_f64`] chain.
#[inline(always)]
fn accumulate(acc: &mut [f64; LANES], diff: &[f32; LANES]) {
    for (a, &d) in acc.iter_mut().zip(diff) {
        let d = d as f64;
        *a += d * d;
    }
}

// The decoding kernels (f16, int8) stage each dimension's differences
// through memory (`black_box`). Without that, the compiler vectorizes the
// f32 decode at the width of the f64 accumulators (4 lanes per 256-bit
// register) instead of 8; staged, they score 1.3x (int8) and 1.6x (f16)
// faster on an AVX-512 Xeon. f32 has no decode to widen and is 10%
// slower staged, so it is not. The values, and so the distances, are
// the same either way.

fn lanes_f32(query: &[f32], block: &[f32], out: &mut [f64; LANES]) {
    assert_eq!(query.len() * LANES, block.len(), "query length");
    let mut acc = [0.0f64; LANES];
    for (&q, col) in query.iter().zip(columns(block)) {
        accumulate(&mut acc, &diffs(q, col, |x| x));
    }
    *out = acc;
}

fn lanes_f16(query: &[f32], block: &[u16], out: &mut [f64; LANES]) {
    assert_eq!(query.len() * LANES, block.len(), "query length");
    let mut acc = [0.0f64; LANES];
    for (&q, col) in query.iter().zip(columns(block)) {
        accumulate(&mut acc, black_box(&diffs(q, col, f16_to_f32_lane)));
    }
    *out = acc;
}

fn lanes_int8(query: &[f32], mins: &[f32], scales: &[f32], block: &[u8], out: &mut [f64; LANES]) {
    assert_eq!(query.len() * LANES, block.len(), "query length");
    let mut acc = [0.0f64; LANES];
    for (((&q, &lo), &scale), col) in query.iter().zip(mins).zip(scales).zip(columns(block)) {
        accumulate(&mut acc, black_box(&diffs(q, col, |c| lo + scale * c as f32)));
    }
    *out = acc;
}

fn lanes_pq(lut: &[f64], block: &[u8], out: &mut [f64; LANES]) {
    assert_eq!(lut.len() / PQ_KS * LANES, block.len(), "pq_m");
    let mut acc = [0.0f64; LANES];
    for (table, col) in lut.chunks_exact(PQ_KS).zip(columns(block)) {
        let table: &[f64; PQ_KS] = table.try_into().expect("PQ_KS entries");
        for (a, &c) in acc.iter_mut().zip(col) {
            *a += table[c as usize];
        }
    }
    *out = acc;
}

/// [`f16_to_f32`] with selects in place of branches, so lanes convert
/// in SIMD. Normals rebias the exponent with an integer add; zeros and
/// subnormals convert the mantissa and scale it by 2^-24 (exact, and no
/// subnormal f32 operand, which would stall the FPU); infinities and NaNs
/// take the all-ones exponent. Bit-identical to [`f16_to_f32`] for every
/// input.
#[inline(always)]
fn f16_to_f32_lane(h: u16) -> f32 {
    let h = h as u32;
    let em = (h & 0x7fff) << 13;
    let small = ((h & 0x3ff) as f32 * f32::from_bits(0x3380_0000)).to_bits();
    let mag = if em >= 0x0f80_0000 {
        em | 0x7f80_0000
    } else if em < 0x0080_0000 {
        small
    } else {
        em + (112 << 23)
    };
    f32::from_bits(mag | (h & 0x8000) << 16)
}

// ---------------------------------------------------------------- spec

/// Quantization variant of an EHNQ artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// Full-precision f32 rows (little-endian, zero-copy readable).
    F32,
    /// IEEE binary16 rows.
    F16,
    /// Per-dimension scalar-quantized u8 rows.
    Int8,
    /// Product-quantized rows, one u8 code per sub-quantizer.
    Pq,
}

impl QuantFormat {
    /// Wire code stored in the header.
    pub fn code(self) -> u8 {
        match self {
            QuantFormat::F32 => 0,
            QuantFormat::F16 => 1,
            QuantFormat::Int8 => 2,
            QuantFormat::Pq => 3,
        }
    }

    /// Inverse of [`QuantFormat::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(QuantFormat::F32),
            1 => Some(QuantFormat::F16),
            2 => Some(QuantFormat::Int8),
            3 => Some(QuantFormat::Pq),
            _ => None,
        }
    }

    /// Human-readable label (`"f32"`, `"f16"`, `"int8"`, `"pq"`).
    pub fn label(self) -> &'static str {
        match self {
            QuantFormat::F32 => "f32",
            QuantFormat::F16 => "f16",
            QuantFormat::Int8 => "int8",
            QuantFormat::Pq => "pq",
        }
    }

    /// Parse a label as accepted by `ehna quantize --format`.
    pub fn parse_label(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(QuantFormat::F32),
            "f16" => Some(QuantFormat::F16),
            "int8" => Some(QuantFormat::Int8),
            "pq" => Some(QuantFormat::Pq),
            _ => None,
        }
    }

    fn code_bytes_per_node(self, dim: usize, pq_m: usize) -> usize {
        match self {
            QuantFormat::F32 => dim * 4,
            QuantFormat::F16 => dim * 2,
            QuantFormat::Int8 => dim,
            QuantFormat::Pq => pq_m,
        }
    }

    fn meta_len(self, dim: usize, pq_m: usize) -> usize {
        match self {
            QuantFormat::F32 | QuantFormat::F16 => 0,
            QuantFormat::Int8 => dim * 8, // min[dim] f32 + scale[dim] f32
            QuantFormat::Pq => pq_m * PQ_KS * (dim / pq_m) * 4,
        }
    }
}

/// Encoding parameters for [`QuantizedEmbeddings::encode`].
#[derive(Debug, Clone, Copy)]
pub struct QuantSpec {
    /// Target format.
    pub format: QuantFormat,
    /// PQ sub-quantizer count (must divide `dim`; ignored otherwise).
    pub pq_m: usize,
    /// Lloyd iterations for PQ codebook training.
    pub pq_iters: usize,
    /// Seed for the deterministic PQ training sampler.
    pub seed: u64,
}

impl QuantSpec {
    /// Defaults: `pq_m = 8`, `pq_iters = 10`, `seed = 42`.
    pub fn new(format: QuantFormat) -> Self {
        QuantSpec { format, pq_m: 8, pq_iters: 10, seed: 42 }
    }
}

// -------------------------------------------------------------- header

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    format: QuantFormat,
    num_nodes: usize,
    dim: usize,
    pq_m: usize,
    meta_len: usize,
    code_len: usize,
    meta_fnv: u64,
    code_fnv: u64,
}

impl Header {
    fn code_off(&self) -> usize {
        align_up(HEADER_LEN + self.meta_len)
    }

    fn file_len(&self) -> usize {
        self.code_off() + self.code_len
    }

    fn code_bytes_per_node(&self) -> usize {
        self.format.code_bytes_per_node(self.dim, self.pq_m)
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4..6].copy_from_slice(&VERSION.to_le_bytes());
        h[6] = self.format.code();
        h[7] = FLAG_LE;
        h[8..16].copy_from_slice(&(self.num_nodes as u64).to_le_bytes());
        h[16..20].copy_from_slice(&(self.dim as u32).to_le_bytes());
        let (m, ks) = match self.format {
            QuantFormat::Pq => (self.pq_m as u16, PQ_KS as u16),
            _ => (0, 0),
        };
        h[20..22].copy_from_slice(&m.to_le_bytes());
        h[22..24].copy_from_slice(&ks.to_le_bytes());
        h[24..32].copy_from_slice(&(self.meta_len as u64).to_le_bytes());
        h[32..40].copy_from_slice(&(self.code_len as u64).to_le_bytes());
        h[40..48].copy_from_slice(&self.meta_fnv.to_le_bytes());
        h[48..56].copy_from_slice(&self.code_fnv.to_le_bytes());
        let hf = fnv1a64(&h[0..56]);
        h[56..64].copy_from_slice(&hf.to_le_bytes());
        h
    }

    /// Parse and fully validate a header. Every length field is checked
    /// for internal consistency *here*, before any caller allocates, so
    /// a hostile header can never trigger an oversized allocation: the
    /// sizes a caller may allocate are exactly the ones derived below.
    fn parse(buf: &[u8]) -> Result<Self, GraphError> {
        if buf.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "EHNQ header truncated ({} of {HEADER_LEN} bytes)",
                buf.len()
            )));
        }
        let mut c = Cursor::new(&buf[..HEADER_LEN]);
        if c.take(4)? != MAGIC {
            return Err(corrupt("bad EHNQ magic".into()));
        }
        if fnv1a64(&buf[0..56]) != Cursor::new(&buf[56..HEADER_LEN]).u64()? {
            return Err(corrupt("EHNQ header checksum mismatch".into()));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(corrupt(format!("unsupported EHNQ version {version}")));
        }
        let code = c.u8()?;
        let format = QuantFormat::from_code(code)
            .ok_or_else(|| corrupt(format!("unknown EHNQ format code {code}")))?;
        let flags = c.u8()?;
        if flags != FLAG_LE {
            return Err(corrupt(format!("unsupported EHNQ flags {flags:#04x}")));
        }
        let num_nodes = c.u64()?;
        if num_nodes > u32::MAX as u64 {
            return Err(corrupt(format!("EHNQ num_nodes {num_nodes} exceeds u32 range")));
        }
        let num_nodes = num_nodes as usize;
        let dim = c.u32()? as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(corrupt(format!("EHNQ dim {dim} outside 1..={MAX_DIM}")));
        }
        let pq_m = c.u16()? as usize;
        let pq_ks = c.u16()? as usize;
        match format {
            QuantFormat::Pq => {
                if pq_m == 0 || pq_m > dim || dim % pq_m != 0 {
                    return Err(corrupt(format!("EHNQ pq_m {pq_m} does not divide dim {dim}")));
                }
                if pq_ks != PQ_KS {
                    return Err(corrupt(format!(
                        "EHNQ pq_ks {pq_ks} unsupported (expected {PQ_KS})"
                    )));
                }
            }
            _ => {
                if pq_m != 0 || pq_ks != 0 {
                    return Err(corrupt("EHNQ pq fields set on non-pq format".into()));
                }
            }
        }
        let meta_len = c.u64()?;
        let code_len = c.u64()?;
        let expect_meta = format.meta_len(dim, pq_m) as u64;
        if meta_len != expect_meta {
            return Err(corrupt(format!("EHNQ meta_len {meta_len} != expected {expect_meta}")));
        }
        let expect_code = num_nodes as u64 * format.code_bytes_per_node(dim, pq_m) as u64;
        if code_len != expect_code {
            return Err(corrupt(format!("EHNQ code_len {code_len} != expected {expect_code}")));
        }
        Ok(Header {
            format,
            num_nodes,
            dim,
            pq_m,
            meta_len: meta_len as usize,
            code_len: code_len as usize,
            meta_fnv: c.u64()?,
            code_fnv: c.u64()?,
        })
    }
}

/// A [`GraphError::Format`] saying `msg`.
fn corrupt(msg: String) -> GraphError {
    GraphError::Format(FormatError::Corrupt(msg))
}

// -------------------------------------------------------------- storage

#[derive(Debug)]
enum ByteStore {
    Heap(AlignedBuf),
    Mmap(MmapBuf),
}

impl std::ops::Deref for ByteStore {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            ByteStore::Heap(b) => b,
            ByteStore::Mmap(m) => m,
        }
    }
}

/// Decoded per-format metadata, cached at open time. All O(dim) — never
/// O(num_nodes) — so building it keeps mmap opens O(1) in table size.
#[derive(Debug, Default)]
struct MetaCache {
    /// int8: per-dimension minima.
    mins: Vec<f32>,
    /// int8: per-dimension scales (0.0 for constant dimensions).
    scales: Vec<f32>,
    /// pq: `m * 256 * dsub` centroids, sub-quantizer-major.
    codebooks: Vec<f32>,
}

// ------------------------------------------------------------ main type

/// A quantized embedding table backed by a full EHNQ file image (heap
/// or mmap). The backing bytes *are* the serialized form — saving is a
/// single write, and [`QuantizedEmbeddings::as_bytes`] round-trips.
#[derive(Debug)]
pub struct QuantizedEmbeddings {
    header: Header,
    bytes: ByteStore,
    meta: MetaCache,
}

impl QuantizedEmbeddings {
    // -------------------------------------------------------- encoding

    /// Quantize `emb` into a fresh EHNQ artifact.
    ///
    /// # Errors
    /// [`GraphError::Format`] when `spec` is invalid for the table shape
    /// (e.g. `pq_m` not dividing `dim`).
    pub fn encode(emb: &NodeEmbeddings, spec: &QuantSpec) -> Result<Self, GraphError> {
        let (n, dim) = (emb.num_nodes(), emb.dim());
        if dim > MAX_DIM {
            return Err(corrupt(format!("dim {dim} exceeds EHNQ maximum {MAX_DIM}")));
        }
        if n > u32::MAX as usize {
            return Err(corrupt(format!("num_nodes {n} exceeds EHNQ maximum {}", u32::MAX)));
        }
        let pq_m = match spec.format {
            QuantFormat::Pq => {
                let m = spec.pq_m;
                if m == 0 || m > dim || dim % m != 0 || m > u16::MAX as usize {
                    return Err(corrupt(format!("pq_m {m} must divide dim {dim}")));
                }
                m
            }
            _ => 0,
        };
        let (meta, codes) = match spec.format {
            QuantFormat::F32 => (Vec::new(), encode_f32(emb)),
            QuantFormat::F16 => (Vec::new(), encode_f16(emb)),
            QuantFormat::Int8 => encode_int8(emb),
            QuantFormat::Pq => encode_pq(emb, pq_m, spec.pq_iters, spec.seed),
        };
        Self::from_sections(spec.format, n, dim, pq_m, &meta, &codes)
    }

    /// Assemble a file image from raw sections and parse it back (so
    /// every constructor funnels through the same validation).
    fn from_sections(
        format: QuantFormat,
        num_nodes: usize,
        dim: usize,
        pq_m: usize,
        meta: &[u8],
        codes: &[u8],
    ) -> Result<Self, GraphError> {
        let mut header = Header {
            format,
            num_nodes,
            dim,
            pq_m,
            meta_len: meta.len(),
            code_len: codes.len(),
            meta_fnv: 0,
            code_fnv: 0,
        };
        let code_off = header.code_off();
        let mut buf = AlignedBuf::zeroed(code_off + codes.len());
        // Fill sections first so the checksums hash final bytes
        // (including the zero padding after meta).
        copy_into(&mut buf, HEADER_LEN, meta);
        copy_into(&mut buf, code_off, codes);
        header.meta_fnv = fnv1a64(&buf[HEADER_LEN..code_off]);
        header.code_fnv = fnv1a64(&buf[code_off..]);
        copy_into(&mut buf, 0, &header.encode());
        let meta_cache = decode_meta(&header, &buf);
        Ok(QuantizedEmbeddings { header, bytes: ByteStore::Heap(buf), meta: meta_cache })
    }

    // --------------------------------------------------------- opening

    /// Parse a full in-memory file image (copied into an aligned heap
    /// buffer; all three checksums verified).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GraphError> {
        let header = Header::parse(bytes)?;
        check_image_len(&header, bytes.len() as u64)?;
        let buf = AlignedBuf::from_bytes(bytes);
        let me = QuantizedEmbeddings {
            meta: decode_meta(&header, &buf),
            header,
            bytes: ByteStore::Heap(buf),
        };
        me.verify_meta()?;
        me.verify_payload()?;
        Ok(me)
    }

    /// Open an EHNQ file.
    ///
    /// With `mmap = false` the file is read into an aligned heap buffer
    /// and all checksums are verified. With `mmap = true` (on unix) the
    /// file is memory-mapped read-only and only the header and meta
    /// checksums are verified — O(dim) work total, so open time is
    /// independent of `num_nodes`; call
    /// [`QuantizedEmbeddings::verify_payload`] to audit the code section
    /// on demand. On non-unix platforms `mmap = true` silently falls
    /// back to the heap path.
    ///
    /// The header is read and validated *before* the body is loaded, so
    /// malformed or truncated files fail early with a typed error and
    /// the only allocation made is bounded by the actual file size.
    pub fn open_path<P: AsRef<Path>>(path: P, mmap: bool) -> Result<Self, GraphError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; HEADER_LEN];
        let got = file_len.min(HEADER_LEN as u64) as usize;
        file.read_exact(&mut head[..got])?;
        let header = Header::parse(&head[..got])?;
        check_image_len(&header, file_len)?;
        if mmap && MmapBuf::supported() {
            let map = MmapBuf::map(&file, header.file_len()).map_err(GraphError::Io)?;
            let me = QuantizedEmbeddings {
                meta: decode_meta(&header, &map),
                header,
                bytes: ByteStore::Mmap(map),
            };
            me.verify_meta()?;
            return Ok(me);
        }
        let mut buf = AlignedBuf::zeroed(header.file_len());
        copy_into(&mut buf, 0, &head);
        AlignedBuf::read_into(&mut file, &mut buf, HEADER_LEN)?;
        let me = QuantizedEmbeddings {
            meta: decode_meta(&header, &buf),
            header,
            bytes: ByteStore::Heap(buf),
        };
        me.verify_meta()?;
        me.verify_payload()?;
        Ok(me)
    }

    /// Write the file image to `path` (single bulk write).
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        std::fs::write(path, self.as_bytes())?;
        Ok(())
    }

    fn verify_meta(&self) -> Result<(), GraphError> {
        let meta = &self.bytes[HEADER_LEN..self.header.code_off()];
        if fnv1a64(meta) != self.header.meta_fnv {
            return Err(corrupt("EHNQ meta checksum mismatch".into()));
        }
        Ok(())
    }

    /// Verify the code-section checksum (reads the whole payload; the
    /// part mmap opens defer).
    pub fn verify_payload(&self) -> Result<(), GraphError> {
        let codes = &self.bytes[self.header.code_off()..];
        if fnv1a64(codes) != self.header.code_fnv {
            return Err(corrupt("EHNQ code section checksum mismatch".into()));
        }
        Ok(())
    }

    // ------------------------------------------------------- accessors

    /// Number of rows.
    pub fn num_nodes(&self) -> usize {
        self.header.num_nodes
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.header.dim
    }

    /// Storage format.
    pub fn format(&self) -> QuantFormat {
        self.header.format
    }

    /// PQ sub-quantizer count (0 unless [`QuantFormat::Pq`]).
    pub fn pq_m(&self) -> usize {
        self.header.pq_m
    }

    /// Bytes of row codes per node (excludes the amortized O(dim) meta).
    pub fn code_bytes_per_node(&self) -> usize {
        self.header.code_bytes_per_node()
    }

    /// Whether the backing bytes are a memory mapping.
    pub fn is_mmap(&self) -> bool {
        matches!(self.bytes, ByteStore::Mmap(_))
    }

    /// The complete serialized file image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn codes(&self) -> &[u8] {
        &self.bytes[self.header.code_off()..]
    }

    fn code_row(&self, idx: usize) -> &[u8] {
        let cb = self.header.code_bytes_per_node();
        &self.codes()[idx * cb..(idx + 1) * cb]
    }

    // -------------------------------------------------------- decoding

    /// Decode row `idx` to f32. For [`QuantFormat::F32`] this borrows the
    /// backing bytes (zero-copy); lossy formats allocate.
    ///
    /// # Panics
    /// Panics if `idx >= num_nodes()`.
    pub fn row(&self, idx: usize) -> Cow<'_, [f32]> {
        if let Some(view) = self.row_f32_view(idx) {
            return Cow::Borrowed(view);
        }
        let mut out = vec![0.0f32; self.header.dim];
        self.decode_row_into(idx, &mut out);
        Cow::Owned(out)
    }

    /// Zero-copy f32 view of row `idx`; `None` unless the format is f32
    /// (and the row bytes are 4-byte aligned, which section alignment
    /// guarantees for both heap and mmap images).
    pub fn row_f32_view(&self, idx: usize) -> Option<&[f32]> {
        if self.header.format != QuantFormat::F32 {
            return None;
        }
        // SAFETY of the reinterpretation is delegated to align_to, which
        // returns a non-empty prefix if the base were ever misaligned.
        let (prefix, floats, _) = unsafe { self.code_row(idx).align_to::<f32>() };
        if prefix.is_empty() && floats.len() == self.header.dim {
            Some(floats)
        } else {
            None
        }
    }

    /// Decode row `idx` into `out` (length must equal `dim`).
    ///
    /// # Panics
    /// Panics if `idx >= num_nodes()` or `out.len() != dim`.
    pub fn decode_row_into(&self, idx: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.header.dim, "decode buffer length");
        let row = self.code_row(idx);
        match self.header.format {
            QuantFormat::F32 => {
                for (o, c) in out.iter_mut().zip(row.chunks_exact(4)) {
                    *o = f32::from_le_bytes(c.try_into().expect("4"));
                }
            }
            QuantFormat::F16 => {
                for (o, c) in out.iter_mut().zip(row.chunks_exact(2)) {
                    *o = f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
                }
            }
            QuantFormat::Int8 => {
                for (d, (o, &c)) in out.iter_mut().zip(row).enumerate() {
                    *o = self.meta.mins[d] + self.meta.scales[d] * c as f32;
                }
            }
            QuantFormat::Pq => {
                let dsub = self.header.dim / self.header.pq_m;
                for (j, &c) in row.iter().enumerate() {
                    let cent = &self.meta.codebooks
                        [(j * PQ_KS + c as usize) * dsub..(j * PQ_KS + c as usize + 1) * dsub];
                    out[j * dsub..(j + 1) * dsub].copy_from_slice(cent);
                }
            }
        }
    }

    /// Decode the full table (used by `ehna quantize --check` and shard
    /// planning fallbacks; O(n*dim) memory, defeats the point of mmap).
    pub fn decode_all(&self) -> NodeEmbeddings {
        let mut emb = NodeEmbeddings::zeros(self.header.num_nodes, self.header.dim);
        for i in 0..self.header.num_nodes {
            self.decode_row_into(i, emb.get_mut(NodeId(i as u32)));
        }
        emb
    }

    // -------------------------------------------------------- scoring

    /// Build a per-query distance scorer over the codes. For PQ this
    /// constructs the asymmetric-distance lookup table (one
    /// `sq_dist_f64` per sub-quantizer centroid) exactly once.
    ///
    /// # Panics
    /// Panics if `query.len() != dim`.
    pub fn scorer(&self, query: &[f32]) -> QuantScorer<'_> {
        assert_eq!(query.len(), self.header.dim, "query length");
        let kind = match self.header.format {
            QuantFormat::F32 => ScorerKind::F32,
            QuantFormat::F16 => ScorerKind::F16,
            QuantFormat::Int8 => ScorerKind::Int8,
            QuantFormat::Pq => {
                let m = self.header.pq_m;
                let dsub = self.header.dim / m;
                let mut lut = vec![0.0f64; m * PQ_KS];
                for j in 0..m {
                    let qs = &query[j * dsub..(j + 1) * dsub];
                    for c in 0..PQ_KS {
                        let cent = &self.meta.codebooks
                            [(j * PQ_KS + c) * dsub..(j * PQ_KS + c + 1) * dsub];
                        lut[j * PQ_KS + c] = sq_dist_f64(qs, cent);
                    }
                }
                ScorerKind::Pq { lut }
            }
        };
        QuantScorer { table: self, query: query.to_vec(), kind }
    }

    /// Copy the codes of rows `ids` (in order) into [`LaneBlocks`] for
    /// [`QuantScorer::dist_block`]. Codes are copied, not decoded, so a
    /// block score is bit-identical to [`QuantScorer::dist`].
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn lane_blocks(&self, ids: &[u32]) -> LaneBlocks {
        let (n, dim) = (ids.len(), self.header.dim);
        let row = |r: usize| self.code_row(ids[r] as usize);
        let (width, codes) = match self.header.format {
            QuantFormat::F32 => (
                dim,
                LaneCodes::F32(relayout(dim, n, |r, buf| {
                    for (o, c) in buf.iter_mut().zip(row(r).chunks_exact(4)) {
                        *o = f32::from_le_bytes(c.try_into().expect("4"));
                    }
                })),
            ),
            QuantFormat::F16 => (
                dim,
                LaneCodes::F16(relayout(dim, n, |r, buf| {
                    for (o, c) in buf.iter_mut().zip(row(r).chunks_exact(2)) {
                        *o = u16::from_le_bytes([c[0], c[1]]);
                    }
                })),
            ),
            QuantFormat::Int8 => {
                (dim, LaneCodes::Int8(relayout(dim, n, |r, buf| buf.copy_from_slice(row(r)))))
            }
            QuantFormat::Pq => {
                let m = self.header.pq_m;
                (m, LaneCodes::Pq(relayout(m, n, |r, buf| buf.copy_from_slice(row(r)))))
            }
        };
        LaneBlocks { width, rows: n, codes }
    }

    // ------------------------------------------------------- subsetting

    /// Build a new EHNQ file image containing exactly `rows` (in order),
    /// reusing this table's codebooks/scales verbatim. Row codes are
    /// copied, not re-encoded, so a subset row's distance to any query is
    /// bit-identical to the same row's distance in the full table — the
    /// property the sharded tier's router-equivalence gate relies on.
    ///
    /// # Errors
    /// [`GraphError::Format`] if any index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Vec<u8>, GraphError> {
        let cb = self.header.code_bytes_per_node();
        let mut codes = Vec::with_capacity(rows.len() * cb);
        for &r in rows {
            if r >= self.header.num_nodes {
                return Err(corrupt(format!(
                    "select_rows index {r} out of range ({})",
                    self.header.num_nodes
                )));
            }
            codes.extend_from_slice(self.code_row(r));
        }
        let meta = &self.bytes[HEADER_LEN..HEADER_LEN + self.header.meta_len];
        let sub = Self::from_sections(
            self.header.format,
            rows.len(),
            self.header.dim,
            self.header.pq_m,
            meta,
            &codes,
        )?;
        Ok(sub.as_bytes().to_vec())
    }
}

fn check_image_len(header: &Header, len: u64) -> Result<(), GraphError> {
    if len != header.file_len() as u64 {
        let declared = header.file_len();
        return Err(corrupt(format!("EHNQ image is {len} bytes, header declares {declared}")));
    }
    Ok(())
}

fn decode_meta(header: &Header, bytes: &[u8]) -> MetaCache {
    let meta = &bytes[HEADER_LEN..HEADER_LEN + header.meta_len];
    match header.format {
        QuantFormat::F32 | QuantFormat::F16 => MetaCache::default(),
        QuantFormat::Int8 => {
            let all = f32s_from_le(meta);
            let (mins, scales) = all.split_at(header.dim);
            MetaCache { mins: mins.to_vec(), scales: scales.to_vec(), codebooks: Vec::new() }
        }
        QuantFormat::Pq => MetaCache { codebooks: f32s_from_le(meta), ..MetaCache::default() },
    }
}

fn copy_into(buf: &mut AlignedBuf, off: usize, src: &[u8]) {
    buf.slice_mut(off, src.len()).copy_from_slice(src);
}

// ------------------------------------------------------------- scorers

enum ScorerKind {
    F32,
    F16,
    Int8,
    Pq { lut: Vec<f64> },
}

/// Per-query distance evaluator over quantized codes. See the module
/// docs for the pinned accumulation contract.
pub struct QuantScorer<'a> {
    table: &'a QuantizedEmbeddings,
    query: Vec<f32>,
    kind: ScorerKind,
}

impl QuantScorer<'_> {
    /// Squared euclidean distance from the query to row `idx` (for PQ,
    /// the asymmetric code-to-query distance).
    #[inline]
    pub fn dist(&self, idx: usize) -> f64 {
        let row = self.table.code_row(idx);
        match &self.kind {
            ScorerKind::F32 => {
                if let Some(view) = self.table.row_f32_view(idx) {
                    return sq_dist_f64(&self.query, view);
                }
                let mut acc = 0.0f64;
                for (&q, c) in self.query.iter().zip(row.chunks_exact(4)) {
                    let x = f32::from_le_bytes(c.try_into().expect("4"));
                    let d = (q - x) as f64;
                    acc += d * d;
                }
                acc
            }
            ScorerKind::F16 => {
                let mut acc = 0.0f64;
                for (&q, c) in self.query.iter().zip(row.chunks_exact(2)) {
                    let x = f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
                    let d = (q - x) as f64;
                    acc += d * d;
                }
                acc
            }
            ScorerKind::Int8 => {
                let mut acc = 0.0f64;
                for (d, (&q, &c)) in self.query.iter().zip(row).enumerate() {
                    let x = self.table.meta.mins[d] + self.table.meta.scales[d] * c as f32;
                    let diff = (q - x) as f64;
                    acc += diff * diff;
                }
                acc
            }
            ScorerKind::Pq { lut } => {
                let mut acc = 0.0f64;
                for (j, &c) in row.iter().enumerate() {
                    acc += lut[j * PQ_KS + c as usize];
                }
                acc
            }
        }
    }

    /// Score block `b` of `blocks` (built by this scorer's table's
    /// [`QuantizedEmbeddings::lane_blocks`]): `out[l]` is bit-identical
    /// to [`QuantScorer::dist`] of the row in lane `l`. Padding lanes
    /// hold unspecified values.
    ///
    /// # Panics
    /// Panics if the blocks were built from a table of another format or
    /// shape.
    pub fn dist_block(&self, blocks: &LaneBlocks, b: usize, out: &mut [f64; LANES]) {
        let meta = &self.table.meta;
        match (&self.kind, &blocks.codes) {
            (ScorerKind::F32, LaneCodes::F32(c)) => lanes_f32(&self.query, blocks.block(c, b), out),
            (ScorerKind::F16, LaneCodes::F16(c)) => lanes_f16(&self.query, blocks.block(c, b), out),
            (ScorerKind::Int8, LaneCodes::Int8(c)) => {
                lanes_int8(&self.query, &meta.mins, &meta.scales, blocks.block(c, b), out)
            }
            (ScorerKind::Pq { lut }, LaneCodes::Pq(c)) => lanes_pq(lut, blocks.block(c, b), out),
            _ => panic!("lane blocks of another format than the scorer's table"),
        }
    }
}

// ------------------------------------------------------------- encoders

fn encode_f32(emb: &NodeEmbeddings) -> Vec<u8> {
    let mut codes = Vec::new();
    put_f32s(&mut codes, emb.as_slice());
    codes
}

fn encode_f16(emb: &NodeEmbeddings) -> Vec<u8> {
    let mut codes = Vec::with_capacity(emb.as_slice().len() * 2);
    for &x in emb.as_slice() {
        codes.extend_from_slice(&f32_to_f16(x).to_le_bytes());
    }
    codes
}

fn encode_int8(emb: &NodeEmbeddings) -> (Vec<u8>, Vec<u8>) {
    let dim = emb.dim();
    let mut mins = vec![f32::INFINITY; dim];
    let mut maxs = vec![f32::NEG_INFINITY; dim];
    for row in emb.as_slice().chunks_exact(dim) {
        for (d, &x) in row.iter().enumerate() {
            mins[d] = mins[d].min(x);
            maxs[d] = maxs[d].max(x);
        }
    }
    if emb.num_nodes() == 0 {
        mins.iter_mut().for_each(|x| *x = 0.0);
        maxs.clone_from(&mins);
    }
    let scales: Vec<f32> = mins.iter().zip(&maxs).map(|(&lo, &hi)| (hi - lo) / 255.0).collect();
    let mut meta = Vec::with_capacity(dim * 8);
    for &x in mins.iter().chain(&scales) {
        meta.extend_from_slice(&x.to_le_bytes());
    }
    let mut codes = Vec::with_capacity(emb.as_slice().len());
    for row in emb.as_slice().chunks_exact(dim) {
        for (d, &x) in row.iter().enumerate() {
            let code = if scales[d] > 0.0 {
                ((x - mins[d]) / scales[d]).round().clamp(0.0, 255.0) as u8
            } else {
                0
            };
            codes.push(code);
        }
    }
    (meta, codes)
}

/// splitmix64 — the deterministic sampler for PQ training (no
/// dependency on the vendored rand crate from this layer).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn encode_pq(emb: &NodeEmbeddings, m: usize, iters: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let dim = emb.dim();
    let dsub = dim / m;
    let n = emb.num_nodes();
    let mut rng = SplitMix64(seed ^ 0xeb4a_9d57_01c3_55a1);

    // Deterministic training sample: all rows when small, otherwise
    // PQ_TRAIN_CAP draws (duplicates act as weights).
    let train: Vec<usize> = if n <= PQ_TRAIN_CAP {
        (0..n).collect()
    } else {
        (0..PQ_TRAIN_CAP).map(|_| rng.below(n)).collect()
    };

    let mut codebooks = vec![0.0f32; m * PQ_KS * dsub];
    let row = |i: usize| emb.get(NodeId(i as u32));

    for j in 0..m {
        let sub = |i: usize| &row(i)[j * dsub..(j + 1) * dsub];
        let book = &mut codebooks[j * PQ_KS * dsub..(j + 1) * PQ_KS * dsub];
        // Init: spread centroids across the training sample.
        for c in 0..PQ_KS {
            let pick = if train.is_empty() {
                0
            } else {
                train[(c * train.len().max(1) / PQ_KS + c) % train.len()]
            };
            if !train.is_empty() {
                book[c * dsub..(c + 1) * dsub].copy_from_slice(sub(pick));
            }
        }
        if train.is_empty() {
            continue;
        }
        let mut assign = vec![0usize; train.len()];
        for _ in 0..iters.max(1) {
            // Assignment step.
            for (a, &i) in assign.iter_mut().zip(&train) {
                let v = sub(i);
                let mut best = (f64::INFINITY, 0usize);
                for c in 0..PQ_KS {
                    let d = sq_dist_f64(v, &book[c * dsub..(c + 1) * dsub]);
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                *a = best.1;
            }
            // Update step (empty clusters reseeded from the sample).
            let mut sums = vec![0.0f64; PQ_KS * dsub];
            let mut counts = vec![0usize; PQ_KS];
            for (&a, &i) in assign.iter().zip(&train) {
                counts[a] += 1;
                for (s, &x) in sums[a * dsub..(a + 1) * dsub].iter_mut().zip(sub(i)) {
                    *s += x as f64;
                }
            }
            for c in 0..PQ_KS {
                if counts[c] == 0 {
                    let pick = train[rng.below(train.len())];
                    book[c * dsub..(c + 1) * dsub].copy_from_slice(sub(pick));
                } else {
                    for (b, &s) in book[c * dsub..(c + 1) * dsub].iter_mut().zip(&sums[c * dsub..])
                    {
                        *b = (s / counts[c] as f64) as f32;
                    }
                }
            }
        }
    }

    let mut meta = Vec::with_capacity(codebooks.len() * 4);
    for &x in &codebooks {
        meta.extend_from_slice(&x.to_le_bytes());
    }
    // Assign every row its nearest centroid per sub-quantizer.
    let mut codes = Vec::with_capacity(n * m);
    for i in 0..n {
        let r = row(i);
        for j in 0..m {
            let v = &r[j * dsub..(j + 1) * dsub];
            let book = &codebooks[j * PQ_KS * dsub..(j + 1) * PQ_KS * dsub];
            let mut best = (f64::INFINITY, 0usize);
            for c in 0..PQ_KS {
                let d = sq_dist_f64(v, &book[c * dsub..(c + 1) * dsub]);
                if d < best.0 {
                    best = (d, c);
                }
            }
            codes.push(best.1 as u8);
        }
    }
    (meta, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, dim: usize) -> NodeEmbeddings {
        let mut rng = SplitMix64(7);
        let data: Vec<f32> =
            (0..n * dim).map(|_| (rng.next() % 2000) as f32 / 1000.0 - 1.0).collect();
        NodeEmbeddings::from_vec(dim, data)
    }

    #[test]
    fn f16_special_values() {
        assert_eq!(f16_to_f32(0x0000), 0.0);
        assert_eq!(f16_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xc000), -2.0);
        assert_eq!(f16_to_f32(0x7bff), 65504.0);
        assert!(f16_to_f32(0x7c00).is_infinite());
        assert!(f16_to_f32(0x7e00).is_nan());
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(65504.0), 0x7bff);
        assert_eq!(f32_to_f16(1e9), 0x7c00, "overflow saturates to +inf");
        assert_eq!(f32_to_f16(-1e9), 0xfc00);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16(1e-10), 0x0000, "deep underflow to +0");
    }

    #[test]
    fn branchless_f16_decode_matches_for_every_input() {
        for h in 0..=u16::MAX {
            assert_eq!(f16_to_f32_lane(h).to_bits(), f16_to_f32(h).to_bits(), "{h:#06x}");
        }
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; the
        // even mantissa (0x3c00) wins.
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11)), 0x3c00);
        // 1 + 3*2^-11 is halfway between mantissa 1 and 2; the even (2) wins.
        assert_eq!(f32_to_f16(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
    }

    #[test]
    fn header_roundtrip_all_formats() {
        for (format, pq_m) in [
            (QuantFormat::F32, 0),
            (QuantFormat::F16, 0),
            (QuantFormat::Int8, 0),
            (QuantFormat::Pq, 4),
        ] {
            let h = Header {
                format,
                num_nodes: 17,
                dim: 8,
                pq_m,
                meta_len: format.meta_len(8, pq_m),
                code_len: 17 * format.code_bytes_per_node(8, pq_m),
                meta_fnv: 0x1234,
                code_fnv: 0x5678,
            };
            let parsed = Header::parse(&h.encode()).unwrap();
            assert_eq!(parsed, h, "{format:?}");
            assert_eq!(parsed.code_off() % 64, 0, "{format:?} alignment");
        }
    }

    #[test]
    fn lossless_f32_roundtrip() {
        let emb = table(13, 6);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F32)).unwrap();
        assert_eq!(q.decode_all(), emb);
        assert!(q.row_f32_view(5).is_some(), "f32 rows are zero-copy");
        assert_eq!(&*q.row(5), emb.get(NodeId(5)));
        let back = QuantizedEmbeddings::from_bytes(q.as_bytes()).unwrap();
        assert_eq!(back.decode_all(), emb);
    }

    #[test]
    fn int8_decode_hits_grid() {
        let emb = NodeEmbeddings::from_vec(2, vec![0.0, 5.0, 1.0, 5.0, 2.0, 5.0]);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8)).unwrap();
        // Dim 0 spans [0,2]; grid step 2/255 reconstructs endpoints exactly.
        let dec = q.decode_all();
        assert_eq!(dec.get(NodeId(0))[0], 0.0);
        assert_eq!(dec.get(NodeId(2))[0], 2.0);
        // Dim 1 is constant: scale 0, decodes to the constant exactly.
        for i in 0..3 {
            assert_eq!(dec.get(NodeId(i))[1], 5.0);
        }
        assert_eq!(q.code_bytes_per_node(), 2, "int8 is one byte per dim");
    }

    #[test]
    fn pq_is_deterministic_and_sane() {
        let emb = table(120, 8);
        let spec = QuantSpec { pq_m: 4, ..QuantSpec::new(QuantFormat::Pq) };
        let a = QuantizedEmbeddings::encode(&emb, &spec).unwrap();
        let b = QuantizedEmbeddings::encode(&emb, &spec).unwrap();
        assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same artifact");
        assert_eq!(a.code_bytes_per_node(), 4);
        // Reconstruction error is bounded by the data spread.
        let dec = a.decode_all();
        for i in 0..emb.num_nodes() as u32 {
            let err = sq_dist_f64(emb.get(NodeId(i)), dec.get(NodeId(i)));
            assert!(err < 8.0 * 4.0, "row {i} err {err}");
        }
    }

    #[test]
    fn scorer_matches_decoded_rows() {
        let emb = table(60, 8);
        let query: Vec<f32> = (0..8).map(|d| d as f32 * 0.3 - 1.0).collect();
        for (format, pq_m) in [
            (QuantFormat::F32, 0),
            (QuantFormat::F16, 0),
            (QuantFormat::Int8, 0),
            (QuantFormat::Pq, 8),
        ] {
            let mut spec = QuantSpec::new(format);
            if pq_m > 0 {
                spec.pq_m = pq_m;
            }
            let q = QuantizedEmbeddings::encode(&emb, &spec).unwrap();
            let scorer = q.scorer(&query);
            for i in 0..q.num_nodes() {
                let want = sq_dist_f64(&query, &q.row(i));
                let got = scorer.dist(i);
                // With pq_m == dim each subspace is one dimension, so even
                // the PQ LUT sum matches sq_dist_f64 exactly; other formats
                // match by construction.
                assert_eq!(got, want, "{format:?} row {i}");
            }
        }
    }

    #[test]
    fn select_rows_copies_codes_verbatim() {
        let emb = table(40, 6);
        for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8] {
            let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(format)).unwrap();
            let img = q.select_rows(&[3, 17, 3, 39]).unwrap();
            let sub = QuantizedEmbeddings::from_bytes(&img).unwrap();
            assert_eq!(sub.num_nodes(), 4);
            for (si, &fi) in [3usize, 17, 3, 39].iter().enumerate() {
                assert_eq!(sub.code_row(si), q.code_row(fi), "{format:?}");
            }
            assert!(q.select_rows(&[40]).is_err(), "out of range");
        }
    }

    #[test]
    fn empty_table_roundtrips() {
        let emb = NodeEmbeddings::zeros(0, 4);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8)).unwrap();
        let back = QuantizedEmbeddings::from_bytes(q.as_bytes()).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.dim(), 4);
    }

    #[test]
    fn bad_specs_rejected() {
        let emb = table(10, 6);
        let mut spec = QuantSpec::new(QuantFormat::Pq);
        spec.pq_m = 4; // does not divide 6
        assert!(QuantizedEmbeddings::encode(&emb, &spec).is_err());
        spec.pq_m = 0;
        assert!(QuantizedEmbeddings::encode(&emb, &spec).is_err());
    }
}

//! Dense node-embedding matrices — the common output type of every
//! embedding method in this workspace (EHNA and all baselines), and the
//! common input type of the evaluation pipelines.

use crate::ioutil::FormatError;
use crate::{GraphError, NodeId};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the binary snapshot format ("EHNA" + version 1).
const MAGIC: u32 = 0x45484E41;
const VERSION: u32 = 1;

/// A `num_nodes x dim` row-major embedding matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEmbeddings {
    dim: usize,
    data: Vec<f32>,
}

impl NodeEmbeddings {
    /// Zero-initialized embeddings.
    pub fn zeros(num_nodes: usize, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        NodeEmbeddings { dim, data: vec![0.0; num_nodes * dim] }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_vec(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "buffer not a multiple of dim");
        NodeEmbeddings { dim, data }
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows (nodes).
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The embedding of node `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> &[f32] {
        &self.data[v.index() * self.dim..(v.index() + 1) * self.dim]
    }

    /// Mutable embedding of node `v`.
    #[inline]
    pub fn get_mut(&mut self, v: NodeId) -> &mut [f32] {
        &mut self.data[v.index() * self.dim..(v.index() + 1) * self.dim]
    }

    /// The raw row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Dot-product similarity between two nodes' embeddings (the ranking
    /// score of the network-reconstruction task, §V-D).
    pub fn dot(&self, a: NodeId, b: NodeId) -> f64 {
        self.get(a).iter().zip(self.get(b)).map(|(&x, &y)| (x as f64) * (y as f64)).sum()
    }

    /// Squared Euclidean distance between two nodes' embeddings (EHNA's
    /// native metric, Eq. 5).
    pub fn sq_dist(&self, a: NodeId, b: NodeId) -> f64 {
        self.get(a)
            .iter()
            .zip(self.get(b))
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum()
    }

    /// L2-normalize every row in place (rows with zero norm are left as
    /// zeros).
    pub fn l2_normalize(&mut self) {
        let dim = self.dim;
        for row in self.data.chunks_mut(dim) {
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                row.iter_mut().for_each(|x| *x /= norm);
            }
        }
    }

    /// Serialize to the compact binary snapshot format.
    ///
    /// Layout (all big-endian, so the magic reads as ASCII `EHNA`):
    /// `magic u32 | version u32 | num_nodes u32 | dim u32 | rows f32*`.
    /// The payload is materialized as one contiguous block rather than
    /// element-by-element — snapshot IO sits on the serving hot path.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; 16 + self.data.len() * 4];
        buf[0..4].copy_from_slice(&MAGIC.to_be_bytes());
        buf[4..8].copy_from_slice(&VERSION.to_be_bytes());
        buf[8..12].copy_from_slice(&(self.num_nodes() as u32).to_be_bytes());
        buf[12..16].copy_from_slice(&(self.dim as u32).to_be_bytes());
        for (chunk, &x) in buf[16..].chunks_exact_mut(4).zip(&self.data) {
            chunk.copy_from_slice(&x.to_be_bytes());
        }
        buf
    }

    /// Deserialize from the binary snapshot format.
    ///
    /// # Errors
    /// [`GraphError::Format`] on bad magic/version/size, including a
    /// header whose `num_nodes x dim` overflows.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, GraphError> {
        let bad = |msg: &str| GraphError::Format(FormatError::Corrupt(msg.into()));
        if buf.len() < 16 {
            return Err(FormatError::Truncated { offset: 0, wanted: 16 }.into());
        }
        let field = |i: usize| u32::from_be_bytes(buf[4 * i..4 * i + 4].try_into().expect("4"));
        if field(0) != MAGIC {
            return Err(bad("bad EHNA magic"));
        }
        if field(1) != VERSION {
            return Err(bad("unsupported EHNA version"));
        }
        let n = field(2) as usize;
        let dim = field(3) as usize;
        if dim == 0 {
            return Err(bad("zero dim"));
        }
        if n.checked_mul(dim).and_then(|x| x.checked_mul(4)) != Some(buf.len() - 16) {
            return Err(bad("payload size mismatch"));
        }
        let data = buf[16..]
            .chunks_exact(4)
            .map(|c| f32::from_be_bytes(c.try_into().expect("4")))
            .collect();
        Ok(NodeEmbeddings { dim, data })
    }

    /// Write the binary snapshot to `w` (one bulk write).
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), GraphError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Read a binary snapshot from `r`.
    pub fn load<R: Read>(mut r: R) -> Result<Self, GraphError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }

    /// Write the binary snapshot to a file (buffered).
    pub fn save_path<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        self.save(BufWriter::new(std::fs::File::create(path)?))
    }

    /// Read a binary snapshot from a file (buffered, size-hinted).
    pub fn load_path<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let file = std::fs::File::open(path)?;
        let hint = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
        let mut buf = Vec::with_capacity(hint);
        BufReader::new(file).read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut e = NodeEmbeddings::zeros(3, 2);
        assert_eq!(e.num_nodes(), 3);
        assert_eq!(e.dim(), 2);
        e.get_mut(NodeId(1)).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(e.get(NodeId(1)), &[3.0, 4.0]);
        assert_eq!(e.get(NodeId(0)), &[0.0, 0.0]);
    }

    #[test]
    fn dot_and_distance() {
        let e = NodeEmbeddings::from_vec(2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(e.dot(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(e.dot(NodeId(0), NodeId(2)), 1.0);
        assert_eq!(e.sq_dist(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(e.sq_dist(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn normalization() {
        let mut e = NodeEmbeddings::from_vec(2, vec![3.0, 4.0, 0.0, 0.0]);
        e.l2_normalize();
        assert!((e.get(NodeId(0))[0] - 0.6).abs() < 1e-6);
        assert_eq!(e.get(NodeId(1)), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn binary_roundtrip() {
        let e = NodeEmbeddings::from_vec(3, vec![1.5, -2.0, 0.25, 9.0, 0.0, -0.5]);
        let bytes = e.to_bytes();
        let back = NodeEmbeddings::from_bytes(&bytes).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        assert!(NodeEmbeddings::from_bytes(&[]).is_err());
        assert!(NodeEmbeddings::from_bytes(&[0u8; 16]).is_err());
        let e = NodeEmbeddings::zeros(2, 2);
        let mut bytes = e.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(NodeEmbeddings::from_bytes(&bytes).is_err());
    }

    #[test]
    fn overflowing_header_rejected() {
        // num_nodes = dim = 2^31: `n * dim * 4` wraps to 0 in 64 bits,
        // which an unchecked size test would take for an empty payload.
        let mut bytes = NodeEmbeddings::zeros(0, 1).to_bytes();
        bytes[8..12].copy_from_slice(&(1u32 << 31).to_be_bytes());
        bytes[12..16].copy_from_slice(&(1u32 << 31).to_be_bytes());
        assert!(NodeEmbeddings::from_bytes(&bytes).is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let e = NodeEmbeddings::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let back = NodeEmbeddings::load(&buf[..]).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bad_buffer_panics() {
        NodeEmbeddings::from_vec(3, vec![0.0; 4]);
    }
}

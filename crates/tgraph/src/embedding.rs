//! Dense node-embedding matrices — the common output type of every
//! embedding method in this workspace (EHNA and all baselines), and the
//! common input type of the evaluation pipelines. On disk a table is an
//! EHNQ artifact ([`crate::quant`]); its lossless `f32` encoding holds
//! these rows bit for bit.

use crate::quant::sq_dist_f64;
use crate::NodeId;

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
    /// native metric, Eq. 5), by the pinned [`sq_dist_f64`].
    pub fn sq_dist(&self, a: NodeId, b: NodeId) -> f64 {
        sq_dist_f64(self.get(a), self.get(b))
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
    #[should_panic(expected = "multiple of dim")]
    fn bad_buffer_panics() {
        NodeEmbeddings::from_vec(3, vec![0.0; 4]);
    }
}

//! The LINE baseline (paper §V-B): first-order plus second-order proximity
//! trained by weighted edge sampling with negative sampling (Tang et al.,
//! WWW 2015). As the authors (and the EHNA paper) recommend, the two
//! half-dimensional representations are trained separately and
//! concatenated.

use crate::EmbeddingMethod;
use ehna_tgraph::{NodeEmbeddings, TemporalGraph};
use ehna_walks::alias::degree_noise_table;
use ehna_walks::AliasTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LINE hyperparameters.
#[derive(Debug, Clone)]
pub struct Line {
    /// Final embedding dimensionality (each proximity order gets half).
    pub dim: usize,
    /// Edge samples per order, expressed as multiples of `|E|`.
    pub samples_per_edge: usize,
    /// Negative samples per edge sample.
    pub negatives: usize,
    /// Initial learning rate with linear decay.
    pub initial_lr: f32,
}

impl Default for Line {
    fn default() -> Self {
        Line { dim: 64, samples_per_edge: 20, negatives: 5, initial_lr: 0.025 }
    }
}

impl Line {
    /// Train one proximity order. `second_order` selects whether context
    /// vectors are separate (2nd order) or shared with vertex vectors
    /// (1st order).
    fn train_order(&self, graph: &TemporalGraph, second_order: bool, seed: u64) -> Vec<f32> {
        let d = self.dim / 2;
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 0.5 / d as f32;
        let mut vertex: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-scale..scale)).collect();
        let mut context: Vec<f32> = if second_order { vec![0.0; n * d] } else { Vec::new() };

        // Weighted edge sampling + degree^0.75 noise.
        let edge_weights: Vec<f64> = graph.edges().iter().map(|e| e.w).collect();
        let edge_table = AliasTable::new(&edge_weights).expect("positive edge weights");
        let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
        let noise = degree_noise_table(&degrees).expect("graph with edges");

        let total = graph.num_edges() * self.samples_per_edge;
        let mut grad = vec![0.0f32; d];
        for step in 0..total {
            let lr = self.initial_lr * (1.0 - step as f32 / total as f32).max(1e-4);
            let e = graph.edge(edge_table.sample(&mut rng));
            // Undirected: train both directions alternately.
            let (src, dst) = if rng.gen::<bool>() {
                (e.src.index(), e.dst.index())
            } else {
                (e.dst.index(), e.src.index())
            };
            grad.iter_mut().for_each(|x| *x = 0.0);
            // Snapshot the source vector: in first-order mode the output
            // table *is* `vertex`, so the borrow must not overlap.
            let src_vec = vertex[src * d..(src + 1) * d].to_vec();
            {
                let (out, o_off) =
                    if second_order { (&mut context, dst * d) } else { (&mut vertex, dst * d) };
                update(out, o_off, &src_vec, 1.0, lr, &mut grad);
            }
            for _ in 0..self.negatives {
                let v = noise.sample(&mut rng);
                if v == dst {
                    continue;
                }
                let (out, o_off) =
                    if second_order { (&mut context, v * d) } else { (&mut vertex, v * d) };
                update(out, o_off, &src_vec, 0.0, lr, &mut grad);
            }
            for (w, &g) in vertex[src * d..(src + 1) * d].iter_mut().zip(&grad) {
                *w += g;
            }
        }
        vertex
    }
}

/// One sigmoid update against target vector at `o_off`.
fn update(out: &mut [f32], o_off: usize, src: &[f32], label: f32, lr: f32, grad: &mut [f32]) {
    let d = src.len();
    let tgt = &mut out[o_off..o_off + d];
    let dot: f32 = src.iter().zip(tgt.iter()).map(|(&a, &b)| a * b).sum();
    let sig = 1.0 / (1.0 + (-dot).exp());
    let g = (label - sig) * lr;
    for i in 0..d {
        grad[i] += g * tgt[i];
        tgt[i] += g * src[i];
    }
}

impl EmbeddingMethod for Line {
    fn name(&self) -> &str {
        "LINE"
    }

    fn embed(&self, graph: &TemporalGraph, seed: u64) -> NodeEmbeddings {
        assert!(self.dim >= 2 && self.dim % 2 == 0, "LINE needs an even dim");
        let first = self.train_order(graph, false, seed);
        let second = self.train_order(graph, true, seed.wrapping_add(1));
        let half = self.dim / 2;
        let n = graph.num_nodes();
        let mut data = Vec::with_capacity(n * self.dim);
        for v in 0..n {
            data.extend_from_slice(&first[v * half..(v + 1) * half]);
            data.extend_from_slice(&second[v * half..(v + 1) * half]);
        }
        NodeEmbeddings::from_vec(self.dim, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::{GraphBuilder, NodeId};

    fn two_cliques() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 4] {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, 1, 1.0).unwrap();
                }
            }
        }
        b.add_edge(0, 4, 2, 1.0).unwrap();
        b.build().unwrap()
    }

    fn fast() -> Line {
        Line { dim: 16, samples_per_edge: 200, ..Default::default() }
    }

    #[test]
    fn first_order_proximity_preserved() {
        let g = two_cliques();
        let e = fast().embed(&g, 3);
        assert_eq!(e.dim(), 16);
        let linked = e.dot(NodeId(1), NodeId(2));
        let unlinked = e.dot(NodeId(1), NodeId(6));
        assert!(linked > unlinked, "linked {linked:.3} !> unlinked {unlinked:.3}");
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        let a = fast().embed(&g, 1);
        let b = fast().embed(&g, 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "even dim")]
    fn odd_dim_rejected() {
        let g = two_cliques();
        Line { dim: 15, ..fast() }.embed(&g, 1);
    }

    #[test]
    fn name_matches_table() {
        assert_eq!(fast().name(), "LINE");
    }
}

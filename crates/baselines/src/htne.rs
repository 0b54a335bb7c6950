//! The HTNE baseline (paper §V-B): Hawkes-process modeling of neighborhood
//! formation sequences (Zuo et al., KDD 2018).
//!
//! For every interaction `(x, y, t)` (a "neighbor formation" event of
//! `x`), the conditional intensity of forming `y` is
//!
//! ```text
//! λ(y | x, t) = g(x, y) + Σ_{h ∈ H_x(t)} w_h(t) · g(h, y)
//! g(a, b)     = -‖e_a - e_b‖²
//! w_h(t)      = softmax_h( -δ · (t - t_h) )
//! ```
//!
//! where `H_x(t)` are the most recent historical neighbors of `x` — more
//! recent formations excite the next one with higher intensity (the Hawkes
//! self-excitation the EHNA paper contrasts against). The likelihood is
//! optimized with negative sampling and manual SGD.
//!
//! Simplification vs. the original: the decay rate `δ` is a global
//! constant derived from the graph's time span instead of a learned
//! per-node parameter; at the scales evaluated here the learned `δ`
//! changes results marginally while doubling the parameter count.

use crate::EmbeddingMethod;
use ehna_tgraph::{NodeEmbeddings, TemporalGraph};
use ehna_walks::alias::degree_noise_table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// HTNE hyperparameters.
#[derive(Debug, Clone)]
pub struct Htne {
    /// Embedding dimensionality.
    pub dim: usize,
    /// History length per event (most recent neighbors of the source).
    pub history: usize,
    /// Negative samples per event.
    pub negatives: usize,
    /// Passes over the event stream.
    pub epochs: usize,
    /// Initial learning rate with linear decay.
    pub initial_lr: f32,
}

impl Default for Htne {
    fn default() -> Self {
        Htne { dim: 64, history: 5, negatives: 5, epochs: 5, initial_lr: 0.02 }
    }
}

/// `-‖e_a - e_b‖²` and its cached difference vector.
fn base_rate(emb: &[f32], a: usize, b: usize, d: usize) -> f32 {
    let (ea, eb) = (&emb[a * d..(a + 1) * d], &emb[b * d..(b + 1) * d]);
    -ea.iter().zip(eb).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>()
}

impl EmbeddingMethod for Htne {
    fn name(&self) -> &str {
        "HTNE"
    }

    fn embed(&self, graph: &TemporalGraph, seed: u64) -> NodeEmbeddings {
        let d = self.dim;
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 0.5 / d as f32;
        let mut emb: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-scale..scale)).collect();

        let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
        let noise = degree_noise_table(&degrees).expect("graph with edges");
        let span = graph.max_time().delta(graph.min_time()).max(1.0);
        let delta = 10.0 / span; // decay over ~a tenth of the span

        let events = graph.edges();
        let total = (events.len() * self.epochs).max(1);
        let mut step = 0usize;
        let mut hist_w: Vec<f32> = Vec::with_capacity(self.history);
        let mut hist_id: Vec<usize> = Vec::with_capacity(self.history);
        for _ in 0..self.epochs {
            for (ei, e) in events.iter().enumerate() {
                let lr = self.initial_lr * (1.0 - step as f32 / total as f32).max(1e-4);
                step += 1;
                // Each undirected interaction is a formation event for both
                // endpoints; alternate deterministically by edge index.
                let (x, y) = if ei % 2 == 0 { (e.src, e.dst) } else { (e.dst, e.src) };
                // History: the most recent prior neighbors of x.
                hist_w.clear();
                hist_id.clear();
                let hist = graph.neighbors_before(x, e.t);
                let take = hist.len().min(self.history);
                for h in &hist[hist.len() - take..] {
                    let dt = e.t.delta(h.t);
                    hist_w.push((-delta * dt) as f32);
                    hist_id.push(h.node.index());
                }
                // Softmax over history recency.
                if !hist_w.is_empty() {
                    let max = hist_w.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut total_w = 0.0;
                    for w in &mut hist_w {
                        *w = (*w - max).exp();
                        total_w += *w;
                    }
                    for w in &mut hist_w {
                        *w /= total_w;
                    }
                }

                // One positive + Q negatives.
                let xi = x.index();
                let yi = y.index();
                self.update_event(&mut emb, xi, yi, &hist_id, &hist_w, 1.0, lr);
                for _ in 0..self.negatives {
                    let v = noise.sample(&mut rng);
                    if v == yi || v == xi {
                        continue;
                    }
                    self.update_event(&mut emb, xi, v, &hist_id, &hist_w, 0.0, lr);
                }
            }
        }
        NodeEmbeddings::from_vec(d, emb)
    }
}

impl Htne {
    /// SGD update for one (event, candidate) pair with label ∈ {0, 1}:
    /// gradient of `label·log σ(λ) + (1-label)·log σ(-λ)`.
    #[allow(clippy::too_many_arguments)]
    fn update_event(
        &self,
        emb: &mut [f32],
        x: usize,
        y: usize,
        hist_id: &[usize],
        hist_w: &[f32],
        label: f32,
        lr: f32,
    ) {
        let d = self.dim;
        let mut lambda = base_rate(emb, x, y, d);
        for (&h, &w) in hist_id.iter().zip(hist_w) {
            lambda += w * base_rate(emb, h, y, d);
        }
        let sig = 1.0 / (1.0 + (-lambda).exp());
        let coeff = (label - sig) * lr;
        // dλ/de_x = -2 (e_x - e_y); dλ/de_y = 2 (e_x - e_y) + Σ w 2 (e_h - e_y);
        // dλ/de_h = -2 w (e_h - e_y).
        for i in 0..d {
            let exy = emb[x * d + i] - emb[y * d + i];
            emb[x * d + i] += coeff * (-2.0 * exy);
            emb[y * d + i] += coeff * (2.0 * exy);
        }
        for (&h, &w) in hist_id.iter().zip(hist_w) {
            for i in 0..d {
                let ehy = emb[h * d + i] - emb[y * d + i];
                emb[h * d + i] += coeff * (-2.0 * w * ehy);
                emb[y * d + i] += coeff * (2.0 * w * ehy);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::{GraphBuilder, NodeId};

    fn temporal_communities() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let mut t = 0i64;
        for round in 0..5 {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    if (i + j + round) % 2 == 0 {
                        t += 1;
                        b.add_edge(i, j, t, 1.0).unwrap();
                        b.add_edge(i + 4, j + 4, t, 1.0).unwrap();
                    }
                }
            }
        }
        b.add_edge(3, 4, t + 1, 1.0).unwrap();
        b.build().unwrap()
    }

    fn fast() -> Htne {
        Htne { dim: 16, epochs: 8, ..Default::default() }
    }

    #[test]
    fn linked_nodes_end_up_closer() {
        let g = temporal_communities();
        let e = fast().embed(&g, 4);
        let linked = e.sq_dist(NodeId(0), NodeId(1));
        let unlinked = e.sq_dist(NodeId(0), NodeId(6));
        assert!(linked < unlinked, "linked {linked:.4} !< unlinked {unlinked:.4}");
    }

    #[test]
    fn deterministic() {
        let g = temporal_communities();
        let a = fast().embed(&g, 2);
        let b = fast().embed(&g, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn finite_output() {
        let g = temporal_communities();
        let e = fast().embed(&g, 6);
        assert!(e.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(e.num_nodes(), g.num_nodes());
    }

    #[test]
    fn name_matches_table() {
        assert_eq!(fast().name(), "HTNE");
    }
}

//! The network-reconstruction task (§V-D, Figure 4).
//!
//! Rank candidate node pairs by dot-product similarity; `Precision@P` is
//! the fraction of the top-`P` pairs that are true edges. Like the paper,
//! we evaluate on a random node sample (processing all `|V|(|V|−1)/2`
//! pairs is infeasible at scale) and average over repetitions.

use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph};
use rand::Rng;

/// Reconstruction evaluation settings.
#[derive(Debug, Clone)]
pub struct ReconstructionConfig {
    /// Nodes sampled per repetition (paper: 10 000; scale down for small
    /// synthetic graphs).
    pub sample_nodes: usize,
    /// Repetitions to average over (paper: 10).
    pub repetitions: usize,
}

impl Default for ReconstructionConfig {
    fn default() -> Self {
        ReconstructionConfig { sample_nodes: 1_000, repetitions: 10 }
    }
}

/// `Precision@P` for each requested `P`, averaged over repetitions.
///
/// Within one repetition: sample nodes, score all pairs among them by dot
/// product, sort descending, and for each `P` count how many of the top-`P`
/// pairs are true edges of `graph`.
pub fn precision_at<R: Rng + ?Sized>(
    graph: &TemporalGraph,
    embeddings: &NodeEmbeddings,
    ps: &[usize],
    config: &ReconstructionConfig,
    rng: &mut R,
) -> Vec<f64> {
    assert_eq!(graph.num_nodes(), embeddings.num_nodes(), "embedding/node count mismatch");
    assert!(!ps.is_empty(), "no P values requested");
    let mut totals = vec![0.0f64; ps.len()];
    for _ in 0..config.repetitions {
        let nodes = sample_nodes(graph, config.sample_nodes, rng);
        let mut scored: Vec<(f64, NodeId, NodeId)> = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                scored.push((embeddings.dot(nodes[i], nodes[j]), nodes[i], nodes[j]));
            }
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN similarity"));
        // One cumulative pass covers every requested P.
        let mut hits = 0usize;
        let mut cursor = 0usize;
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by_key(|&i| ps[i]);
        for &pi in &order {
            let p = ps[pi].min(scored.len());
            while cursor < p {
                let (_, a, b) = scored[cursor];
                if graph.has_edge(a, b) {
                    hits += 1;
                }
                cursor += 1;
            }
            totals[pi] += if p > 0 { hits as f64 / p as f64 } else { 0.0 };
        }
    }
    totals.iter().map(|t| t / config.repetitions as f64).collect()
}

/// Sample up to `count` distinct nodes that have at least one edge.
fn sample_nodes<R: Rng + ?Sized>(graph: &TemporalGraph, count: usize, rng: &mut R) -> Vec<NodeId> {
    let active: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
    if active.len() <= count {
        return active;
    }
    // Partial Fisher–Yates.
    let mut pool = active;
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Embeddings where linked nodes share a coordinate axis.
    fn oracle_setup() -> (TemporalGraph, NodeEmbeddings) {
        let mut b = GraphBuilder::new();
        // Two cliques of 3.
        for &(x, y) in &[(0u32, 1u32), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(x, y, 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let mut e = NodeEmbeddings::zeros(6, 2);
        for v in 0..3u32 {
            e.get_mut(NodeId(v)).copy_from_slice(&[1.0, 0.0]);
        }
        for v in 3..6u32 {
            e.get_mut(NodeId(v)).copy_from_slice(&[0.0, 1.0]);
        }
        (g, e)
    }

    #[test]
    fn oracle_embeddings_get_perfect_precision() {
        let (g, e) = oracle_setup();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ReconstructionConfig { sample_nodes: 6, repetitions: 3 };
        let p = precision_at(&g, &e, &[6], &cfg, &mut rng);
        // 6 true edges; the top 6 pairs by dot product are exactly the
        // intra-clique pairs.
        assert!((p[0] - 1.0).abs() < 1e-12, "precision {p:?}");
    }

    #[test]
    fn random_embeddings_do_poorly() {
        let (g, _) = oracle_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = NodeEmbeddings::zeros(6, 4);
        for v in 0..6u32 {
            for x in e.get_mut(NodeId(v)) {
                *x = rng.gen_range(-1.0..1.0);
            }
        }
        let cfg = ReconstructionConfig { sample_nodes: 6, repetitions: 20 };
        let oracle = {
            let (_, oe) = oracle_setup();
            precision_at(&g, &oe, &[4], &cfg, &mut rng)[0]
        };
        let random = precision_at(&g, &e, &[4], &cfg, &mut rng)[0];
        assert!(random < oracle, "random {random:.3} !< oracle {oracle:.3}");
    }

    #[test]
    fn precision_is_monotone_in_sensible_cases() {
        // With perfect embeddings, precision can only drop as P passes the
        // number of true edges.
        let (g, e) = oracle_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ReconstructionConfig { sample_nodes: 6, repetitions: 2 };
        let ps = precision_at(&g, &e, &[2, 6, 15], &cfg, &mut rng);
        assert!(ps[0] >= ps[1] && ps[1] >= ps[2], "{ps:?}");
        // At P = all 15 pairs, precision = 6/15.
        assert!((ps[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn node_sampling_respects_bounds() {
        let (g, _) = oracle_setup();
        let mut rng = StdRng::seed_from_u64(5);
        let s = sample_nodes(&g, 3, &mut rng);
        assert_eq!(s.len(), 3);
        let all = sample_nodes(&g, 100, &mut rng);
        assert_eq!(all.len(), 6);
    }
}

//! Negative sampling from the degree^0.75 noise distribution (paper §IV-D,
//! following the word2vec convention).

use ehna_tgraph::{GraphError, NodeId, TemporalGraph};
use ehna_walks::alias::degree_noise_table;
use ehna_walks::AliasTable;
use rand::Rng;

/// Draws negative nodes `v_q ~ P_n(v) ∝ d_v^0.75`, rejecting the positive
/// pair's endpoints so a "negative" never coincides with the edge being
/// analyzed.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    table: AliasTable,
    /// Node ids with nonzero degree (the noise support), ascending.
    support: Vec<u32>,
}

impl NegativeSampler {
    /// Build the noise distribution from `graph`'s temporal degrees.
    ///
    /// # Errors
    /// [`GraphError::Empty`] if the graph has no edges (degrees all zero,
    /// so no noise distribution exists). This used to panic; it is a
    /// library path reachable from
    /// [`Trainer::from_model`](crate::Trainer::from_model), so it reports
    /// a typed error instead.
    pub fn new(graph: &TemporalGraph) -> Result<Self, GraphError> {
        let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
        let support: Vec<u32> =
            degrees.iter().enumerate().filter(|&(_, &d)| d > 0).map(|(i, _)| i as u32).collect();
        let table = degree_noise_table(&degrees).ok_or(GraphError::Empty)?;
        Ok(NegativeSampler { table, support })
    }

    /// Draw one negative, avoiding `x` and `y`.
    pub fn sample<R: Rng + ?Sized>(&self, x: NodeId, y: NodeId, rng: &mut R) -> NodeId {
        // Degree-weighted rejection terminates fast: the excluded mass is
        // at most two nodes' worth.
        for _ in 0..64 {
            let v = NodeId(self.table.sample(rng) as u32);
            if v != x && v != y {
                return v;
            }
        }
        // Tiny/pathological support (e.g. almost all noise mass on the
        // endpoints): walk the support exhaustively instead of risking a
        // "negative" that is actually a positive endpoint, which would
        // silently zero the hinge margin.
        let excluded = usize::from(self.support.binary_search(&x.0).is_ok())
            + usize::from(x != y && self.support.binary_search(&y.0).is_ok());
        if let Some(v) =
            nth_excluding(self.support.iter().copied(), x, y, self.support.len() - excluded, rng)
        {
            return v;
        }
        // Support is a subset of {x, y}: no active node qualifies, so take
        // any other node id (isolated nodes still have embeddings).
        let n = self.table.len();
        let active = usize::from(x.0 < n as u32) + usize::from(x != y && y.0 < n as u32);
        if let Some(v) = nth_excluding(0..n as u32, x, y, n - active, rng) {
            return v;
        }
        // Two-node graph: a true negative does not exist. Keep the
        // historical behavior (degree-weighted draw) rather than panic.
        NodeId(self.table.sample(rng) as u32)
    }
}

/// Uniformly pick one of the `count` elements of `ids` that are neither
/// `x` nor `y`; `None` when `count == 0`.
fn nth_excluding<R: Rng + ?Sized>(
    ids: impl Iterator<Item = u32>,
    x: NodeId,
    y: NodeId,
    count: usize,
    rng: &mut R,
) -> Option<NodeId> {
    if count == 0 {
        return None;
    }
    let k = rng.gen_range(0..count);
    ids.filter(|&v| v != x.0 && v != y.0).nth(k).map(NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: u32) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for i in 1..n {
            b.add_edge(0, i, i as i64, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hub_sampled_most_often() {
        let g = star(20);
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hub = 0usize;
        for _ in 0..5_000 {
            if s.sample(NodeId(5), NodeId(6), &mut rng) == NodeId(0) {
                hub += 1;
            }
        }
        // Hub degree 19 vs leaf degree 1: 19^.75 ≈ 9.1 of total ≈ 27.1.
        assert!(hub > 1_000, "hub drawn only {hub}/5000");
    }

    #[test]
    fn positives_excluded() {
        let g = star(10);
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let v = s.sample(NodeId(0), NodeId(3), &mut rng);
            assert!(v != NodeId(0) && v != NodeId(3));
        }
    }

    #[test]
    fn three_node_graph_negatives_never_hit_endpoints() {
        // Path 0-1-2: only node 2 is a valid negative for the edge (0,1).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            assert_eq!(s.sample(NodeId(0), NodeId(1), &mut rng), NodeId(2));
        }
    }

    #[test]
    fn exhausted_rejection_falls_back_to_isolated_node_not_positive() {
        // Nodes 0, 1 carry all the noise mass; node 2 is isolated. The
        // 64-draw rejection loop cannot succeed for the edge (0, 1), and
        // the fallback must still not return an endpoint.
        let mut b = GraphBuilder::with_num_nodes(3);
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(0, 1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            assert_eq!(s.sample(NodeId(0), NodeId(1), &mut rng), NodeId(2));
        }
    }

    #[test]
    fn self_loop_endpoints_excluded_once() {
        // x == y must not be double-counted when sizing the candidate set.
        let g = star(5);
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            assert_ne!(s.sample(NodeId(0), NodeId(0), &mut rng), NodeId(0));
        }
    }

    #[test]
    fn isolated_nodes_never_sampled() {
        // Node ids 0..=5 but node 5 isolated.
        let mut b = GraphBuilder::with_num_nodes(6);
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        b.add_edge(3, 4, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let s = NegativeSampler::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            assert_ne!(s.sample(NodeId(0), NodeId(1), &mut rng), NodeId(5));
        }
    }
}

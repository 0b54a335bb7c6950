//! Classic static node2vec second-order random walks (Grover & Leskovec,
//! KDD 2016) — the NODE2VEC baseline of the paper, and the walk engine
//! behind the EHNA-RW ablation (Table VII).
//!
//! Unlike [`temporal`](crate::temporal), these walks ignore timestamps
//! entirely: they see the static multigraph and bias transitions only with
//! the `1/p, 1, 1/q` scheme.

use ehna_tgraph::{NodeId, TemporalGraph};
use rand::Rng;

/// Tuning parameters for static node2vec walks.
#[derive(Debug, Clone, PartialEq)]
pub struct Node2VecConfig {
    /// Steps per walk (`l = 80` in the paper's baseline setup).
    pub length: usize,
    /// Walks started per node (`k = 10` in the paper).
    pub walks_per_node: usize,
    /// Return parameter.
    pub p: f64,
    /// In-out parameter.
    pub q: f64,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Node2VecConfig { length: 80, walks_per_node: 10, p: 1.0, q: 1.0 }
    }
}

/// The second-order bias `β(u, w)` of Eq. 2, shared by the node2vec and
/// the temporal walker: `1/p` to backtrack (`w == u`), `1` when `w` is
/// adjacent to `u`, `1/q` otherwise.
///
/// When `1/q == 1.0` the adjacent and non-adjacent branches both give
/// exactly `1.0`, so the adjacency lookup is skipped: that is every walk
/// with the default `q = 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SecondOrderBias {
    inv_p: f64,
    inv_q: f64,
}

impl SecondOrderBias {
    pub(crate) fn new(p: f64, q: f64) -> Self {
        SecondOrderBias { inv_p: 1.0 / p, inv_q: 1.0 / q }
    }

    /// `β(prev, w)` for a step out of a neighbour of `prev`.
    #[inline]
    pub(crate) fn beta(&self, graph: &TemporalGraph, prev: NodeId, w: NodeId) -> f64 {
        if w == prev {
            self.inv_p
        } else if self.inv_q != 1.0 && !graph.has_edge(prev, w) {
            self.inv_q
        } else {
            1.0
        }
    }
}

/// Sampler of node2vec walks over one graph.
#[derive(Debug, Clone)]
pub struct Node2VecWalker<'g> {
    graph: &'g TemporalGraph,
    config: Node2VecConfig,
}

impl<'g> Node2VecWalker<'g> {
    /// Bind a config to a graph.
    pub fn new(graph: &'g TemporalGraph, config: Node2VecConfig) -> Self {
        Node2VecWalker { graph, config }
    }

    /// The walk configuration.
    pub fn config(&self) -> &Node2VecConfig {
        &self.config
    }

    /// Sample one walk starting at `start`. Returns just the start node if
    /// it is isolated.
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, rng: &mut R) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.config.length + 1);
        nodes.push(start);
        let first = self.graph.neighbors(start);
        if first.is_empty() {
            return nodes;
        }
        // First step: uniform over interactions (weighted by edge weight).
        let mut total = 0.0;
        let mut pick = 0usize;
        for (i, n) in first.iter().enumerate() {
            total += n.w;
            if rng.gen::<f64>() < n.w / total {
                pick = i;
            }
        }
        let mut prev = start;
        let mut cur = first[pick].node;
        nodes.push(cur);

        let bias = SecondOrderBias::new(self.config.p, self.config.q);
        for _ in 1..self.config.length {
            let nbrs = self.graph.neighbors(cur);
            if nbrs.is_empty() {
                break;
            }
            let mut total = 0.0;
            let mut chosen: Option<NodeId> = None;
            for n in nbrs {
                let w = bias.beta(self.graph, prev, n.node) * n.w;
                if w <= 0.0 {
                    continue;
                }
                total += w;
                if rng.gen::<f64>() < w / total {
                    chosen = Some(n.node);
                }
            }
            let Some(next) = chosen else { break };
            prev = cur;
            cur = next;
            nodes.push(cur);
        }
        nodes
    }

    /// Sample the full corpus: `walks_per_node` walks from every
    /// non-isolated node, in node order.
    pub fn corpus<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        for _ in 0..self.config.walks_per_node {
            for v in self.graph.nodes() {
                if self.graph.degree(v) > 0 {
                    out.push(self.walk(v, rng));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle_plus_tail() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for &(a, bb) in &[(0u32, 1u32), (1, 2), (0, 2), (2, 3)] {
            b.add_edge(a, bb, 1, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn walks_traverse_real_edges() {
        let g = triangle_plus_tail();
        let walker = Node2VecWalker::new(&g, Node2VecConfig { length: 20, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(1);
        let w = walker.walk(NodeId(0), &mut rng);
        assert_eq!(w[0], NodeId(0));
        for pair in w.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]), "phantom edge {pair:?}");
        }
    }

    #[test]
    fn isolated_node_yields_singleton() {
        let mut b = GraphBuilder::with_num_nodes(5);
        b.add_edge(0, 1, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let walker = Node2VecWalker::new(&g, Node2VecConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(walker.walk(NodeId(4), &mut rng), vec![NodeId(4)]);
    }

    #[test]
    fn corpus_covers_active_nodes() {
        let g = triangle_plus_tail();
        let cfg = Node2VecConfig { length: 5, walks_per_node: 3, ..Default::default() };
        let walker = Node2VecWalker::new(&g, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let corpus = walker.corpus(&mut rng);
        assert_eq!(corpus.len(), 4 * 3);
        for v in g.nodes() {
            assert!(corpus.iter().any(|w| w[0] == v), "{v:?} missing from corpus");
        }
    }

    #[test]
    fn walks_ignore_time() {
        // Edge times are wildly different; static walks still cross both.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1_000_000, 1.0).unwrap();
        let g = b.build().unwrap();
        let walker = Node2VecWalker::new(&g, Node2VecConfig { length: 4, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(4);
        let mut reached_2_from_0 = false;
        for _ in 0..50 {
            if walker.walk(NodeId(0), &mut rng).contains(&NodeId(2)) {
                reached_2_from_0 = true;
            }
        }
        assert!(reached_2_from_0);
    }
}

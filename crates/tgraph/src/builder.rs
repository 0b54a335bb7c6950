//! Incremental construction of [`TemporalGraph`]s.

use crate::{GraphError, NodeId, TemporalEdge, TemporalGraph, Timestamp};

/// Accumulates timestamped edges and produces an immutable
/// [`TemporalGraph`].
///
/// The builder validates weights, rejects self-loops (the EHNA walk
/// semantics are undefined for them), and infers the node count from the
/// largest id seen unless [`GraphBuilder::with_num_nodes`] pins it.
///
/// ```
/// use ehna_tgraph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 5, 1.0).unwrap();
/// b.add_edge(2, 1, 3, 2.0).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// // Edges come out sorted by time:
/// assert!(g.edges().windows(2).all(|w| w[0].t <= w[1].t));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<TemporalEdge>,
    num_nodes: Option<usize>,
    max_node: u32,
}

impl GraphBuilder {
    /// Fresh builder with node count inferred from edges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with a fixed node count; edges referencing ids `>= n` are
    /// rejected at [`add_edge`](Self::add_edge) time.
    pub fn with_num_nodes(n: usize) -> Self {
        GraphBuilder { edges: Vec::new(), num_nodes: Some(n), max_node: 0 }
    }

    /// Pre-allocate capacity for `n` edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Number of edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add one undirected interaction `(a, b)` at time `t` with weight `w`.
    ///
    /// Endpoint order is irrelevant. Duplicate `(a, b, t)` triples are kept
    /// — temporal networks are multigraphs.
    ///
    /// # Errors
    /// [`GraphError::SelfLoop`] when `a == b`;
    /// [`GraphError::InvalidWeight`] when `w` is not finite and positive;
    /// [`GraphError::NodeOutOfRange`] when a pinned node count is exceeded.
    pub fn add_edge(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        t: impl Into<Timestamp>,
        w: f64,
    ) -> Result<(), GraphError> {
        let (a, b, t) = (a.into(), b.into(), t.into());
        if a == b {
            return Err(GraphError::SelfLoop { node: a.0 });
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(GraphError::InvalidWeight { weight: w });
        }
        if let Some(n) = self.num_nodes {
            let hi = a.0.max(b.0);
            if hi as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: hi, num_nodes: n });
            }
        }
        self.max_node = self.max_node.max(a.0).max(b.0);
        self.edges.push(TemporalEdge::new(a, b, t, w));
        Ok(())
    }

    /// Add a batch of edges, validating each one like
    /// [`add_edge`](Self::add_edge).
    ///
    /// # Errors
    /// Stops at the first invalid edge; edges before it are kept.
    pub fn extend_edges<I: IntoIterator<Item = TemporalEdge>>(
        &mut self,
        edges: I,
    ) -> Result<(), GraphError> {
        for e in edges {
            self.add_edge(e.src, e.dst, e.t, e.w)?;
        }
        Ok(())
    }

    /// Finalize into an immutable [`TemporalGraph`].
    ///
    /// Sorts edges chronologically (stable, so insertion order breaks ties)
    /// and builds the time-sorted CSR adjacency. Input that is already
    /// time-ordered — the streaming/append common case — skips the sort
    /// entirely after an `O(E)` ordering check.
    ///
    /// # Errors
    /// [`GraphError::Empty`] if no edges were added.
    pub fn build(self) -> Result<TemporalGraph, GraphError> {
        if self.edges.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.num_nodes.unwrap_or(self.max_node as usize + 1);
        let mut edges = self.edges;
        if !edges.windows(2).all(|w| w[0].t <= w[1].t) {
            edges.sort_by_key(|e| e.t);
        }
        Ok(TemporalGraph::from_sorted_edges(n, edges))
    }
}

impl FromIterator<TemporalEdge> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = TemporalEdge>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        for e in iter {
            b.max_node = b.max_node.max(e.src.0).max(e.dst.0);
            b.edges.push(e);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new();
        assert!(matches!(b.add_edge(3, 3, 0, 1.0), Err(GraphError::SelfLoop { node: 3 })));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new();
        assert!(matches!(b.add_edge(0, 1, 0, 0.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, 0, -1.0), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, 0, f64::NAN), Err(GraphError::InvalidWeight { .. })));
        assert!(matches!(
            b.add_edge(0, 1, 0, f64::INFINITY),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_when_pinned() {
        let mut b = GraphBuilder::with_num_nodes(2);
        assert!(b.add_edge(0, 1, 0, 1.0).is_ok());
        assert!(matches!(
            b.add_edge(0, 2, 0, 1.0),
            Err(GraphError::NodeOutOfRange { node: 2, num_nodes: 2 })
        ));
    }

    #[test]
    fn empty_build_fails() {
        assert!(matches!(GraphBuilder::new().build(), Err(GraphError::Empty)));
    }

    #[test]
    fn infers_node_count() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 7, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 8);
    }

    #[test]
    fn multi_edges_are_kept() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 0, 2, 1.0).unwrap();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn extend_edges_validates() {
        use crate::{NodeId, Timestamp};
        let mut b = GraphBuilder::new();
        b.extend_edges(vec![
            TemporalEdge::new(NodeId(0), NodeId(1), Timestamp(1), 1.0),
            TemporalEdge::new(NodeId(1), NodeId(2), Timestamp(2), 2.0),
        ])
        .unwrap();
        assert_eq!(b.len(), 2);
        let bad = TemporalEdge { src: NodeId(3), dst: NodeId(3), t: Timestamp(3), w: 1.0 };
        assert!(matches!(b.extend_edges(vec![bad]), Err(GraphError::SelfLoop { node: 3 })));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn presorted_input_builds_identically() {
        // Sorted input (the streaming common case, which skips the sort)
        // must produce the exact same graph as shuffled input.
        let sorted: Vec<(u32, u32, i64)> =
            vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 5), (1, 3, 8)];
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        let build = |list: &[(u32, u32, i64)]| {
            let mut b = GraphBuilder::new();
            for &(a, bb, t) in list {
                b.add_edge(a, bb, t, 1.0).unwrap();
            }
            b.build().unwrap()
        };
        let g1 = build(&sorted);
        let g2 = build(&shuffled);
        assert_eq!(g1.edges(), g2.edges());
        for v in g1.nodes() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn from_iterator_collects() {
        use crate::{NodeId, Timestamp};
        let edges = vec![
            TemporalEdge::new(NodeId(0), NodeId(1), Timestamp(4), 1.0),
            TemporalEdge::new(NodeId(1), NodeId(2), Timestamp(2), 1.0),
        ];
        let g: GraphBuilder = edges.into_iter().collect();
        let g = g.build().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edge(0).t, Timestamp(2));
    }
}

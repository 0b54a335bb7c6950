//! The immutable CSR temporal graph.

use crate::{GraphError, NeighborEntry, NodeId, TemporalEdge, Timestamp};

/// An immutable temporal network with time-sorted CSR adjacency.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder) or
/// [`read_edge_list`](crate::read_edge_list). Three parallel structures are
/// kept:
///
/// * `edges` — the canonical interaction list, globally sorted by time;
///   this is the order in which EHNA's trainer replays edge formations.
/// * `neighbors`/`offsets` — per-node adjacency sorted by time, answering
///   "interactions of `v` up to time `t`" with one `partition_point`.
/// * `nbr_ids`/`offsets` — per-node neighbor ids sorted by id, answering
///   `has_edge(u, w)` (needed by the node2vec-style `d_uw` bias of Eq. 2)
///   in `O(log deg)`.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    num_nodes: usize,
    edges: Vec<TemporalEdge>,
    offsets: Vec<usize>,
    neighbors: Vec<NeighborEntry>,
    nbr_ids: Vec<NodeId>,
}

impl TemporalGraph {
    /// Build from an edge list already sorted by timestamp.
    ///
    /// Exposed for the builder and the dataset generators; prefer
    /// [`GraphBuilder`](crate::GraphBuilder).
    pub(crate) fn from_sorted_edges(num_nodes: usize, edges: Vec<TemporalEdge>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0].t <= w[1].t), "edges must be time-sorted");
        let mut degree = vec![0usize; num_nodes];
        for e in &edges {
            degree[e.src.index()] += 1;
            degree[e.dst.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        offsets.push(0usize);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let total = *offsets.last().unwrap();
        let mut cursor = offsets[..num_nodes].to_vec();
        let mut neighbors =
            vec![NeighborEntry { node: NodeId(0), t: Timestamp(0), w: 0.0, edge: 0 }; total];
        // Edges are globally time-sorted, so appending in order keeps every
        // per-node slice time-sorted too.
        for (i, e) in edges.iter().enumerate() {
            let ei = i as u32;
            let s = e.src.index();
            neighbors[cursor[s]] = NeighborEntry { node: e.dst, t: e.t, w: e.w, edge: ei };
            cursor[s] += 1;
            let d = e.dst.index();
            neighbors[cursor[d]] = NeighborEntry { node: e.src, t: e.t, w: e.w, edge: ei };
            cursor[d] += 1;
        }
        let mut nbr_ids: Vec<NodeId> = neighbors.iter().map(|n| n.node).collect();
        for v in 0..num_nodes {
            nbr_ids[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        TemporalGraph { num_nodes, edges, offsets, neighbors, nbr_ids }
    }

    /// Number of nodes `|V|` (including any isolated ids below the max).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of temporal edges `|E|` (multi-edges counted individually).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All interactions, globally sorted by timestamp.
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// The `i`-th interaction in chronological order.
    #[inline]
    pub fn edge(&self, i: usize) -> &TemporalEdge {
        &self.edges[i]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u32).map(NodeId)
    }

    /// Temporal degree of `v`: the number of interactions it participates
    /// in (not the number of distinct neighbors).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// All interactions of `v`, sorted by time (ascending).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NeighborEntry] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Interactions of `v` that happened strictly before `t`.
    #[inline]
    pub fn neighbors_before(&self, v: NodeId, t: Timestamp) -> &[NeighborEntry] {
        let nbrs = self.neighbors(v);
        let cut = nbrs.partition_point(|n| n.t < t);
        &nbrs[..cut]
    }

    /// Interactions of `v` with timestamp `<= t`.
    #[inline]
    pub fn neighbors_at_or_before(&self, v: NodeId, t: Timestamp) -> &[NeighborEntry] {
        let nbrs = self.neighbors(v);
        let cut = nbrs.partition_point(|n| n.t <= t);
        &nbrs[..cut]
    }

    /// The most recent interaction of `v`, if any.
    pub fn latest_interaction(&self, v: NodeId) -> Option<&NeighborEntry> {
        self.neighbors(v).last()
    }

    /// Whether `u` and `w` ever interacted (any timestamp).
    ///
    /// `O(log deg(u))` via the id-sorted secondary index. This is the
    /// `d_uw == 1` test of the Eq. 2 walk bias.
    pub fn has_edge(&self, u: NodeId, w: NodeId) -> bool {
        let (u, w) = if self.degree(u) <= self.degree(w) { (u, w) } else { (w, u) };
        let ids = &self.nbr_ids[self.offsets[u.index()]..self.offsets[u.index() + 1]];
        ids.binary_search(&w).is_ok()
    }

    /// Earliest timestamp in the graph.
    pub fn min_time(&self) -> Timestamp {
        self.edges.first().map(|e| e.t).unwrap_or(Timestamp(0))
    }

    /// Latest timestamp in the graph.
    pub fn max_time(&self) -> Timestamp {
        self.edges.last().map(|e| e.t).unwrap_or(Timestamp(0))
    }

    /// Index of the first edge with `t >= cutoff` in the chronological edge
    /// list; everything before is "history" relative to `cutoff`.
    pub fn edges_before(&self, cutoff: Timestamp) -> usize {
        self.edges.partition_point(|e| e.t < cutoff)
    }

    /// Materialize the subgraph of interactions with `t < cutoff`, keeping
    /// node ids stable. Used by the temporal train/test split.
    ///
    /// Returns `None` when no edge precedes `cutoff`.
    pub fn subgraph_before(&self, cutoff: Timestamp) -> Option<TemporalGraph> {
        let n = self.edges_before(cutoff);
        if n == 0 {
            return None;
        }
        Some(TemporalGraph::from_sorted_edges(self.num_nodes, self.edges[..n].to_vec()))
    }

    /// A copy of this graph with capacity for at least `n` node ids.
    ///
    /// Grow-only: `n <= num_nodes` returns an unchanged clone. The extra
    /// ids are isolated until edges referencing them arrive via
    /// [`with_edges_appended`](Self::with_edges_appended). Used by the
    /// streaming path to align a base graph with a model trained with
    /// node-id headroom.
    pub fn padded_to(&self, n: usize) -> TemporalGraph {
        if n <= self.num_nodes {
            return self.clone();
        }
        TemporalGraph::from_sorted_edges(n, self.edges.clone())
    }

    /// Build a new graph with `batch` appended, without re-sorting the
    /// existing edge list.
    ///
    /// Only the batch itself is sorted (`O(b log b)`); it is then merged
    /// with the already-sorted edge list and the CSR adjacency is rebuilt
    /// in `O(V + E + b)`. Ties between an old and a new edge at the same
    /// timestamp keep the old edge first, matching what a stable full
    /// re-sort of "old then new" would produce. The node count is
    /// unchanged, so every batch edge must reference ids `< num_nodes`.
    ///
    /// # Errors
    /// [`GraphError::SelfLoop`] / [`GraphError::InvalidWeight`] /
    /// [`GraphError::NodeOutOfRange`] under the same rules as
    /// [`GraphBuilder::add_edge`](crate::GraphBuilder::add_edge); the
    /// graph is left untouched on error.
    pub fn with_edges_appended(&self, batch: &[TemporalEdge]) -> Result<TemporalGraph, GraphError> {
        for e in batch {
            if e.src == e.dst {
                return Err(GraphError::SelfLoop { node: e.src.0 });
            }
            if !e.w.is_finite() || e.w <= 0.0 {
                return Err(GraphError::InvalidWeight { weight: e.w });
            }
            let hi = e.src.0.max(e.dst.0);
            if hi as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange { node: hi, num_nodes: self.num_nodes });
            }
        }
        if batch.is_empty() {
            return Ok(self.clone());
        }
        let mut new: Vec<TemporalEdge> =
            batch.iter().map(|e| TemporalEdge::new(e.src, e.dst, e.t, e.w)).collect();
        new.sort_by_key(|e| e.t);
        let mut merged = Vec::with_capacity(self.edges.len() + new.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.edges.len() && j < new.len() {
            if new[j].t < self.edges[i].t {
                merged.push(new[j]);
                j += 1;
            } else {
                merged.push(self.edges[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&self.edges[i..]);
        merged.extend_from_slice(&new[j..]);
        Ok(TemporalGraph::from_sorted_edges(self.num_nodes, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The Figure 1 ego network of the paper (node 1's co-author network).
    pub(crate) fn figure1_graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        // (a, b, year) from Figure 1.
        for &(a, bb, t) in &[
            (1u32, 2u32, 2011i64),
            (1, 3, 2012),
            (2, 3, 2011),
            (1, 4, 2013),
            (4, 5, 2014),
            (5, 6, 2015),
            (1, 6, 2016),
            (5, 8, 2016),
            (8, 7, 2017),
            (6, 7, 2017),
            (1, 7, 2018),
        ] {
            b.add_edge(a, bb, t, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn figure1_shape() {
        let g = figure1_graph();
        assert_eq!(g.num_nodes(), 9); // ids 0..=8, 0 isolated
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.degree(NodeId(1)), 5);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.min_time(), Timestamp(2011));
        assert_eq!(g.max_time(), Timestamp(2018));
    }

    #[test]
    fn adjacency_is_time_sorted() {
        let g = figure1_graph();
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0].t <= w[1].t), "node {v:?} not time-sorted");
        }
    }

    #[test]
    fn neighbors_before_is_strict() {
        let g = figure1_graph();
        let before = g.neighbors_before(NodeId(1), Timestamp(2013));
        let nodes: Vec<_> = before.iter().map(|n| n.node.0).collect();
        assert_eq!(nodes, vec![2, 3]);
        let upto = g.neighbors_at_or_before(NodeId(1), Timestamp(2013));
        let nodes: Vec<_> = upto.iter().map(|n| n.node.0).collect();
        assert_eq!(nodes, vec![2, 3, 4]);
    }

    #[test]
    fn has_edge_matches_adjacency() {
        let g = figure1_graph();
        assert!(g.has_edge(NodeId(1), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(5)));
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn latest_interaction() {
        let g = figure1_graph();
        let last = g.latest_interaction(NodeId(1)).unwrap();
        assert_eq!(last.node, NodeId(7));
        assert_eq!(last.t, Timestamp(2018));
        assert!(g.latest_interaction(NodeId(0)).is_none());
    }

    #[test]
    fn subgraph_before_cuts_time() {
        let g = figure1_graph();
        let h = g.subgraph_before(Timestamp(2015)).unwrap();
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.num_edges(), 5);
        assert_eq!(h.max_time(), Timestamp(2014));
        assert!(g.subgraph_before(Timestamp(2000)).is_none());
    }

    #[test]
    fn repeated_interactions_count_toward_degree() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(0, 1, 2, 1.0).unwrap();
        b.add_edge(0, 2, 3, 2.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.degree(NodeId(0)), 3);
    }

    #[test]
    fn append_matches_full_rebuild() {
        let g = figure1_graph();
        let batch = vec![
            TemporalEdge::new(NodeId(3), NodeId(8), Timestamp(2019), 1.0),
            TemporalEdge::new(NodeId(2), NodeId(4), Timestamp(2015), 2.0),
        ];
        let appended = g.with_edges_appended(&batch).unwrap();
        let mut b = GraphBuilder::with_num_nodes(g.num_nodes());
        for e in g.edges() {
            b.add_edge(e.src, e.dst, e.t, e.w).unwrap();
        }
        b.extend_edges(batch).unwrap();
        let rebuilt = b.build().unwrap();
        assert_eq!(appended.edges(), rebuilt.edges());
        for v in appended.nodes() {
            assert_eq!(appended.neighbors(v), rebuilt.neighbors(v));
        }
        // Original is untouched.
        assert_eq!(g.num_edges(), 11);
    }

    #[test]
    fn append_tie_keeps_old_edges_first() {
        let g = figure1_graph();
        // 2016 already has two edges; a new one at the same time must land
        // after them (stable merge).
        let batch = vec![TemporalEdge::new(NodeId(2), NodeId(4), Timestamp(2016), 1.0)];
        let h = g.with_edges_appended(&batch).unwrap();
        let at_2016: Vec<_> = h
            .edges()
            .iter()
            .filter(|e| e.t == Timestamp(2016))
            .map(|e| (e.src.0, e.dst.0))
            .collect();
        assert_eq!(at_2016, vec![(1, 6), (5, 8), (2, 4)]);
    }

    #[test]
    fn append_validates_and_preserves() {
        let g = figure1_graph();
        let loops = vec![TemporalEdge { src: NodeId(2), dst: NodeId(2), t: Timestamp(0), w: 1.0 }];
        assert!(matches!(g.with_edges_appended(&loops), Err(GraphError::SelfLoop { node: 2 })));
        let out = vec![TemporalEdge::new(NodeId(1), NodeId(99), Timestamp(0), 1.0)];
        assert!(matches!(
            g.with_edges_appended(&out),
            Err(GraphError::NodeOutOfRange { node: 99, num_nodes: 9 })
        ));
        let bad = vec![TemporalEdge::new(NodeId(1), NodeId(2), Timestamp(0), -1.0)];
        assert!(matches!(g.with_edges_appended(&bad), Err(GraphError::InvalidWeight { .. })));
        assert!(g.with_edges_appended(&[]).unwrap().edges() == g.edges());
    }

    #[test]
    fn padded_to_grows_only() {
        let g = figure1_graph();
        let h = g.padded_to(20);
        assert_eq!(h.num_nodes(), 20);
        assert_eq!(h.num_edges(), g.num_edges());
        assert_eq!(h.degree(NodeId(19)), 0);
        assert_eq!(g.padded_to(3).num_nodes(), g.num_nodes());
    }

    #[test]
    fn edges_before_partitions() {
        let g = figure1_graph();
        assert_eq!(g.edges_before(Timestamp(2011)), 0);
        assert_eq!(g.edges_before(Timestamp(2019)), g.num_edges());
        let k = g.edges_before(Timestamp(2015));
        assert!(g.edges()[..k].iter().all(|e| e.t < Timestamp(2015)));
        assert!(g.edges()[k..].iter().all(|e| e.t >= Timestamp(2015)));
    }
}

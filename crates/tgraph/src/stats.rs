//! Summary statistics (the Table I columns, plus shape diagnostics used by
//! the dataset generators' tests).

use crate::{NodeId, TemporalGraph};
use std::collections::HashSet;
use std::fmt;

/// Aggregate statistics of a temporal network.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|` — includes isolated ids below the max id.
    pub num_nodes: usize,
    /// Number of nodes with at least one interaction.
    pub num_active_nodes: usize,
    /// `|E|` — temporal (multi-)edges, the Table I "# temporal edges".
    pub num_temporal_edges: usize,
    /// Distinct node pairs that ever interacted (static edge count).
    pub num_static_edges: usize,
    /// Earliest timestamp.
    pub min_time: i64,
    /// Latest timestamp.
    pub max_time: i64,
    /// Maximum temporal degree.
    pub max_degree: usize,
    /// Mean temporal degree over active nodes.
    pub mean_degree: f64,
    /// Degree distribution Gini coefficient in `[0, 1]`; heavy-tailed
    /// networks (social/e-commerce) sit well above 0.5.
    pub degree_gini: f64,
}

impl GraphStats {
    /// Compute statistics for `graph`.
    pub fn compute(graph: &TemporalGraph) -> Self {
        let n = graph.num_nodes();
        let mut degrees: Vec<usize> = Vec::with_capacity(n);
        let mut active = 0usize;
        let mut max_degree = 0usize;
        let mut degree_sum = 0usize;
        for v in graph.nodes() {
            let d = graph.degree(v);
            degrees.push(d);
            if d > 0 {
                active += 1;
                degree_sum += d;
                max_degree = max_degree.max(d);
            }
        }
        let mut pairs: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(graph.num_edges());
        for e in graph.edges() {
            pairs.insert((e.src, e.dst));
        }
        let mean_degree = if active > 0 { degree_sum as f64 / active as f64 } else { 0.0 };
        GraphStats {
            num_nodes: n,
            num_active_nodes: active,
            num_temporal_edges: graph.num_edges(),
            num_static_edges: pairs.len(),
            min_time: graph.min_time().raw(),
            max_time: graph.max_time().raw(),
            max_degree,
            mean_degree,
            degree_gini: gini(&mut degrees),
        }
    }
}

/// Gini coefficient of a non-negative sample. `0` = perfectly equal,
/// `→1` = maximally concentrated. Sorts its input.
fn gini(values: &mut [usize]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let n = values.len() as f64;
    let total: f64 = values.iter().map(|&v| v as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = values.iter().enumerate().map(|(i, &v)| (i as f64 + 1.0) * v as f64).sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes:           {}", self.num_nodes)?;
        writeln!(f, "active nodes:    {}", self.num_active_nodes)?;
        writeln!(f, "temporal edges:  {}", self.num_temporal_edges)?;
        writeln!(f, "static edges:    {}", self.num_static_edges)?;
        writeln!(f, "time span:       [{}, {}]", self.min_time, self.max_time)?;
        writeln!(f, "max degree:      {}", self.max_degree)?;
        writeln!(f, "mean degree:     {:.2}", self.mean_degree)?;
        write!(f, "degree gini:     {:.3}", self.degree_gini)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn basic_stats() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 10, 1.0).unwrap();
        b.add_edge(0, 1, 20, 1.0).unwrap();
        b.add_edge(0, 2, 30, 1.0).unwrap();
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_active_nodes, 3);
        assert_eq!(s.num_temporal_edges, 3);
        assert_eq!(s.num_static_edges, 2);
        assert_eq!(s.max_degree, 3);
        assert_eq!((s.min_time, s.max_time), (10, 30));
        assert!((s.mean_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        let mut equal = vec![5usize; 10];
        assert!(gini(&mut equal).abs() < 1e-9);
        let mut concentrated = vec![0usize; 99];
        concentrated.push(1000);
        assert!(gini(&mut concentrated) > 0.95);
        let mut empty: Vec<usize> = vec![];
        assert_eq!(gini(&mut empty), 0.0);
    }

    #[test]
    fn display_is_complete() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        let s = GraphStats::compute(&b.build().unwrap());
        let out = s.to_string();
        for key in ["nodes", "temporal edges", "time span", "gini"] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }
}

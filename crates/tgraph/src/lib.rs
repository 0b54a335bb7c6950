//! # ehna-tgraph — temporal graph substrate
//!
//! Storage and query layer for temporal networks as defined in the EHNA
//! paper (ICDE 2020, Definition 1): an undirected graph `G = (V, E)` in
//! which every edge `(x, y)` carries a timestamp `t(x,y)` recording when it
//! was formed, and optionally a weight `w(x,y)`.
//!
//! The central type is [`TemporalGraph`], an immutable CSR structure whose
//! per-node adjacency lists are **sorted by timestamp**, so the historical
//! queries that drive EHNA's temporal random walks ("interactions of `v`
//! that happened no later than `t`") are a binary search plus a slice.
//!
//! Temporal networks here are *multigraphs*: the same node pair may interact
//! repeatedly at different times (repeated co-authorships, repeated
//! purchases), and every interaction is kept.
//!
//! ```
//! use ehna_tgraph::{GraphBuilder, NodeId, Timestamp};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 2011, 1.0).unwrap();
//! b.add_edge(1, 2, 2013, 1.0).unwrap();
//! b.add_edge(0, 2, 2017, 1.0).unwrap();
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! // Historical interactions of node 1 strictly before 2013:
//! let before = g.neighbors_before(NodeId(1), Timestamp(2013));
//! assert_eq!(before.len(), 1);
//! assert_eq!(before[0].node, NodeId(0));
//! ```

pub mod algo;
mod builder;
mod edge;
mod embedding;
mod error;
mod graph;
mod ids;
mod io;
pub mod ioutil;
pub mod mmapbuf;
mod names;
pub mod quant;
mod stats;
mod view;

pub use builder::GraphBuilder;
pub use edge::{NeighborEntry, TemporalEdge};
pub use embedding::NodeEmbeddings;
pub use error::GraphError;
pub use graph::TemporalGraph;
pub use ids::{NodeId, Timestamp};
pub use io::{read_edge_list, read_edge_list_path, write_edge_list, write_edge_list_path};
pub use names::{read_named_edge_list, NameMap};
pub use quant::{QuantFormat, QuantSpec, QuantizedEmbeddings};
pub use stats::GraphStats;
pub use view::SnapshotView;

//! # ehna-walks — random-walk engines
//!
//! Walk samplers for temporal network embedding:
//!
//! * [`temporal`] — the EHNA **temporal random walk** (paper §IV-A): from a
//!   target node and a reference time, walk *backwards through history*
//!   along interactions whose timestamps never increase (Definition 2
//!   relevance), with transition probabilities combining a time-decay
//!   kernel (Eq. 1) and the node2vec-style `1/p, 1, 1/q` second-order bias
//!   (Eq. 2). Walks terminate early when no relevant neighbor exists.
//! * [`node2vec`] — the classic static second-order biased walk
//!   (baseline + the EHNA-RW ablation).
//! * [`ctdne`] — forward-in-time temporal walks (the CTDNE baseline).
//! * [`neighborhood`] — bundles `k` temporal walks per target into the
//!   *historical neighborhood* consumed by EHNA's aggregation.
//! * [`prefetch`] — pipelined batch prefetching: samples upcoming training
//!   batches on a background thread, bit-identically to the synchronous
//!   path (the Table VIII sampling cost hidden behind compute).
//! * [`alias`] — O(1) Walker alias sampling (negative sampling, initial
//!   edge selection).
//! * [`context`] — skip-gram `(center, context)` pair extraction.
//! * [`decay`] — time-decay kernels.
//!
//! ```
//! use ehna_tgraph::{GraphBuilder, NodeId, Timestamp};
//! use ehna_walks::{TemporalWalkConfig, TemporalWalker};
//! use rand::SeedableRng;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 10, 1.0).unwrap();
//! b.add_edge(1, 2, 20, 1.0).unwrap();
//! b.add_edge(2, 3, 30, 1.0).unwrap();
//! let g = b.build().unwrap();
//!
//! let walker = TemporalWalker::new(&g, TemporalWalkConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // History of node 2 just before its t=30 interaction:
//! let walk = walker.walk(NodeId(2), Timestamp(30), &mut rng);
//! assert_eq!(walk.nodes[0], NodeId(2));
//! // Times along the walk never increase:
//! assert!(walk.times.windows(2).all(|w| w[0] >= w[1]));
//! ```

pub mod alias;
pub mod context;
pub mod ctdne;
pub mod decay;
pub mod neighborhood;
pub mod node2vec;
pub mod prefetch;
pub mod temporal;

pub use alias::AliasTable;
pub use context::{walk_to_pairs, SkipGramPair};
pub use ctdne::{CtdneConfig, CtdneWalker};
pub use decay::DecayKernel;
pub use neighborhood::{HistoricalNeighborhood, NeighborhoodSampler};
pub use node2vec::{Node2VecConfig, Node2VecWalker};
pub use prefetch::{BatchPlan, BatchPrefetcher, PrefetchStats, PrefetchedBatch};
pub use temporal::{TemporalWalk, TemporalWalkConfig, TemporalWalker};

//! # ehna — Temporal Network Representation Learning via Historical
//! Neighborhoods Aggregation
//!
//! A full Rust reproduction of the EHNA system (Huang, Bao, Li, Zhou,
//! Culpepper — ICDE 2020), including every substrate it depends on:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tgraph`] | `ehna-tgraph` | temporal graph storage, snapshots, IO, stats, embeddings |
//! | [`datasets`] | `ehna-datasets` | seeded synthetic digg/yelp/tmall/dblp-like generators |
//! | [`walks`] | `ehna-walks` | temporal / node2vec / CTDNE walk engines, alias sampling |
//! | [`nn`] | `ehna-nn` | reverse-mode autodiff, LSTM/BN/Linear/Time2Vec layers, Adam |
//! | [`core`] | `ehna-core` | the EHNA model: attention, aggregation, training, ablations |
//! | [`baselines`] | `ehna-baselines` | Node2Vec, CTDNE, LINE, HTNE |
//! | [`eval`] | `ehna-eval` | reconstruction & link-prediction pipelines, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use ehna::datasets::{generate, Dataset, Scale};
//! use ehna::core::{EhnaConfig, Trainer};
//!
//! // A small synthetic co-authorship network.
//! let graph = generate(Dataset::DblpLike, Scale::Tiny, 42);
//!
//! // Train EHNA briefly and read out embeddings.
//! let config = EhnaConfig { epochs: 1, batch_size: 256, ..EhnaConfig::tiny() };
//! let mut trainer = Trainer::new(&graph, config).unwrap();
//! trainer.train();
//! let embeddings = trainer.into_embeddings();
//! assert_eq!(embeddings.num_nodes(), graph.num_nodes());
//! ```

pub use ehna_baselines as baselines;
pub use ehna_core as core;
pub use ehna_datasets as datasets;
pub use ehna_eval as eval;
pub use ehna_nn as nn;
pub use ehna_tgraph as tgraph;
pub use ehna_walks as walks;

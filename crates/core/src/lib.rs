//! # ehna-core — Embedding via Historical Neighborhoods Aggregation
//!
//! The paper's primary contribution (Huang et al., ICDE 2020): learn node
//! embeddings of a temporal network by analyzing, for every edge `(x, y)`
//! formed at `t(x,y)`, the *historical neighborhoods* of both endpoints.
//!
//! Pipeline per analyzed edge (paper Figure 3 / Algorithm 1):
//!
//! 1. **Temporal random walks** ([`ehna_walks`]) identify relevant
//!    historical nodes for `x` and `y`.
//! 2. **Node-level attention** (Eq. 3) weights each walk node by recency,
//!    interaction frequency, and embedding distance to the target; a
//!    stacked LSTM + batch-norm + ReLU summarizes each walk.
//! 3. **Walk-level attention** (Eq. 4) weights whole walks; a second
//!    stacked LSTM + batch-norm summarizes the neighborhood into `H`.
//! 4. **Readout**: `z = W · [H ‖ e_target]`, L2-normalized.
//! 5. The margin hinge loss over Euclidean distances (Eq. 6, or the
//!    bidirectional Eq. 7) pulls linked aggregated embeddings together and
//!    pushes degree^0.75-sampled negatives apart.
//!
//! Negative samples with identifiable history are aggregated through the
//! same network as the targets (routing them differently would let the
//! margin loss discriminate by pathway instead of node identity); nodes
//! without any history are aggregated GraphSAGE-style from sampled one-
//! and two-hop neighbors, as §IV-D prescribes.
//!
//! Entry points: [`EhnaConfig`] → [`Trainer::train`] → [`NodeEmbeddings`].
//! The ablation variants of Table VII live in [`variants`].
//!
//! ```no_run
//! use ehna_core::{EhnaConfig, Trainer};
//! use ehna_tgraph::read_edge_list_path;
//!
//! let graph = read_edge_list_path("network.txt").unwrap();
//! let config = EhnaConfig { dim: 64, epochs: 3, ..Default::default() };
//! let mut trainer = Trainer::new(&graph, config).unwrap();
//! let report = trainer.train();
//! println!("final loss {:.4}", report.epoch_losses.last().unwrap());
//! let embeddings = trainer.into_embeddings();
//! assert_eq!(embeddings.dim(), 64);
//! ```

mod aggregate;
mod aggregator;
pub mod attention;
mod checkpoint;
mod config;
mod infer;
mod model;
mod negative;
mod trainer;
pub mod variants;

pub use aggregator::{Aggregator, AttnAggregator, LstmAggregator};
pub use checkpoint::{load_checkpoint_full, load_checkpoint_path, LoadedCheckpoint, TrainerState};
pub use config::{AggregatorKind, EhnaConfig, WalkStyle, MAX_PIPELINE_DEPTH};
pub use ehna_tgraph::NodeEmbeddings;
pub use infer::refresh_rows;
pub use model::{AttnStage, EhnaModel, NodeStage};
pub use negative::NegativeSampler;
pub use trainer::{CheckpointHook, PhaseTimings, Trainer, TrainingReport};
pub use variants::EhnaVariant;

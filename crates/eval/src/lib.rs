//! # ehna-eval — evaluation pipelines for temporal network embeddings
//!
//! Implements the paper's two downstream tasks exactly as §V describes:
//!
//! * [`reconstruction`] — **network reconstruction** (§V-D): rank node
//!   pairs by dot-product similarity and measure `Precision@P` against the
//!   true edge set (Figure 4).
//! * [`linkpred`] — **future link prediction** (§V-E): hold out the 20 %
//!   most recent edges, train embeddings on the rest, turn node-embedding
//!   pairs into edge features with four binary operators (Table II), and
//!   classify with L2-regularized logistic regression, reporting AUC / F1 /
//!   precision / recall (Tables III–VI).
//!
//! Supporting modules: [`metrics`] (threshold and ranking metrics plus the
//! paper's error-reduction formula), [`logreg`] (the LIBLINEAR
//! substitute), [`operators`] (Table II), and [`split`] (temporal splits
//! and negative pair sampling). [`nodeclass`] adds the node-classification
//! task the paper's introduction motivates, as an extension.

pub mod linkpred;
pub mod logreg;
pub mod metrics;
pub mod nodeclass;
pub mod operators;
pub mod ranking;
pub mod reconstruction;
pub mod split;

pub use linkpred::{LinkPredictionConfig, LinkPredictionTask};
pub use logreg::{LogRegConfig, LogisticRegression};
pub use metrics::{auc, error_reduction, BinaryMetrics};
pub use nodeclass::{NodeClassificationConfig, NodeClassificationResult};
pub use operators::EdgeOperator;
pub use ranking::{average_precision, pr_curve};
pub use reconstruction::{precision_at, ReconstructionConfig};
pub use split::{sample_negative_pairs, temporal_split, TemporalSplit};

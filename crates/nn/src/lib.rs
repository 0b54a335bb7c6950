//! # ehna-nn — minimal reverse-mode autodiff for the EHNA model
//!
//! The paper trains its aggregation network with a deep-learning stack
//! (stacked LSTMs, batch normalization, attention, Adam-style updates).
//! This crate is the from-scratch substitute for that stack: a small,
//! dependency-free define-by-run autodiff engine over dense row-major
//! `f32` matrices, with exactly the operator set the EHNA forward pass
//! (Algorithm 1) and margin loss (Eq. 6–7) require.
//!
//! Architecture:
//!
//! * [`ParamStore`] owns trainable parameters (values + gradient
//!   accumulators) across training steps.
//! * [`Graph`] is a per-step tape: every [`Graph`] op *eagerly* computes
//!   its value at construction and records parents; [`Graph::backward`]
//!   replays the tape in reverse and [`Graph::write_grads`] scatters leaf
//!   gradients back into the store (including sparse scatter for
//!   [`Graph::gather`]-ed embedding rows).
//! * [`layers`] builds `Linear`, `LstmCell`, `StackedLstm`,
//!   `BatchNorm1d` and `Time2Vec` from those ops.
//! * [`optim`] implements Adam with global-norm gradient clipping.
//!
//! Gradient correctness for every op is enforced with central-difference
//! checks in the test suite (`gradcheck` module).
//!
//! ```
//! use ehna_nn::{Graph, ParamStore};
//!
//! let mut store = ParamStore::new();
//! let w = store.add_param("w", 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//!
//! let mut g = Graph::new();
//! let wv = g.param(&store, w);
//! let x = g.constant(2, 1, vec![1.0, 1.0]);
//! let y = g.matmul(wv, x);          // [2,1]
//! let loss = g.sum_all(y);          // scalar: 1+2+3+4 = 10
//! assert_eq!(g.value(loss)[0], 10.0);
//!
//! g.backward(loss);
//! g.write_grads(&mut store);
//! assert_eq!(store.grad(w), &[1.0, 1.0, 1.0, 1.0]);
//! ```

pub mod gradcheck;
mod graph;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod optim;
mod store;

pub use graph::{Graph, LstmWeights, Var};
pub use store::{ParamId, ParamStore};

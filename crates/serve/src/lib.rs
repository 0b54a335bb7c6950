//! # ehna-serve — embedding serving for EHNA
//!
//! Turns a trained [`NodeEmbeddings`](ehna_tgraph::NodeEmbeddings)
//! snapshot into a queryable service:
//!
//! * [`EmbeddingStore`] — the immutable snapshot (rows + optional name
//!   interner), shared across threads behind an `Arc`.
//! * [`BruteForceIndex`] / [`IvfIndex`] — exact and cluster-pruned k-NN
//!   over the rows; the brute-force scan doubles as the correctness
//!   oracle for the approximate index.
//! * [`QueryEngine`] — a batched multi-threaded query layer with a
//!   hot-node LRU cache and latency counters.
//! * [`Server`] — the one socket front end (std-only): a bounded
//!   connection-worker pool with admission control and drain-then-cut
//!   shutdown ([`ServerConfig`]) under any [`Protocol`]; line-delimited
//!   JSON with socket timeouts and capped request lines for every
//!   [`LineHandler`], plus the [`query_lines`] / [`query_lines_timeout`]
//!   one-shot clients.
//!
//! All similarity is squared Euclidean distance — the model's native
//! metric (paper Eq. 5) — so served rankings agree with `ehna-eval`.
//! Lower scores mean stronger predicted links.
//!
//! ```
//! use ehna_serve::{BruteForceIndex, EmbeddingStore, EngineConfig, QueryEngine};
//! use ehna_tgraph::{NodeEmbeddings, NodeId};
//! use std::sync::Arc;
//!
//! let emb = NodeEmbeddings::from_vec(2, vec![0.0, 0.0, 1.0, 0.0, 9.0, 9.0]);
//! let store = Arc::new(EmbeddingStore::new(emb, None).unwrap());
//! let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
//! let engine = QueryEngine::new(store, index, EngineConfig::default());
//! let hits = engine.knn_node(NodeId(0), 1, false).unwrap();
//! assert_eq!(hits.neighbors[0].id, NodeId(1));
//! ```

pub mod cache;
pub mod engine;
pub mod index;
pub mod json;
pub mod server;
pub mod stats;
pub mod store;

pub use engine::{EngineConfig, KnnResult, QueryEngine, SnapshotVersion};
pub use index::{BruteForceIndex, IvfConfig, IvfIndex, KnnIndex, Neighbor, SearchInfo};
pub use json::Json;
pub use server::Reloader;
pub use server::{
    handle_line, op_counts_json, query_lines, query_lines_detailed, query_lines_timeout,
    EngineHandler, LineHandler, Protocol, QueryError, RequestLimits, Server, ServerConfig,
    ServerHandle,
};
pub use stats::{EngineStats, LatencyHistogram, OpCounters, OpCounts, Role, StatsSnapshot};
pub use store::{canonical_node_id, EmbeddingStore, RowDistance, RowSource, MAX_NAME_LEN};

use std::fmt;
use std::io;
use std::sync::{LockResult, PoisonError};

/// Take a `std::sync` lock guard — `lock(m.lock())`, `lock(rw.read())`,
/// `lock(rw.write())` — recovering it if a thread panicked while holding
/// the lock. Every lock in the serving and routing code guards data that
/// each update leaves valid (a map insert or remove, a slot assignment,
/// a cache insert, a queue receive), so the data behind a poisoned lock
/// is still sound, and one failed thread must not wedge every later
/// request.
pub fn lock<G>(acquired: LockResult<G>) -> G {
    acquired.unwrap_or_else(PoisonError::into_inner)
}

/// Everything that can go wrong while serving.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying socket or file IO failed.
    Io(io::Error),
    /// A snapshot or names file was malformed or inconsistent.
    Snapshot(String),
    /// A query referenced a node that is not in the snapshot.
    UnknownNode(String),
    /// A query vector's length differs from the snapshot dimension.
    Dimension {
        /// Snapshot dimensionality.
        expected: usize,
        /// Query vector length.
        got: usize,
    },
    /// A protocol request was malformed.
    BadRequest(String),
    /// The engine's workers have shut down.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Snapshot(msg) => write!(f, "bad snapshot: {msg}"),
            ServeError::UnknownNode(key) => write!(f, "unknown node '{key}'"),
            ServeError::Dimension { expected, got } => {
                write!(f, "query dimension {got} does not match snapshot dimension {expected}")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Closed => f.write_str("query engine is shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn lock_recovers_a_lock_poisoned_by_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let rw = Arc::new(RwLock::new(0));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let panicked = std::thread::spawn(move || {
            let _m = lock(m2.lock());
            let _w = lock(rw2.write());
            panic!("poison both locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.is_poisoned() && rw.is_poisoned());
        *lock(m.lock()) += 1;
        *lock(rw.write()) += 2;
        assert_eq!(*lock(m.lock()), 1);
        assert_eq!(*lock(rw.read()), 2);
    }
}

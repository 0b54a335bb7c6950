//! Sharded, replicated serving for EHNA embedding snapshots.
//!
//! A single `ehna serve` process answers k-NN queries over one
//! in-memory embedding table. This crate scales that horizontally
//! without changing what clients see:
//!
//! * [`plan::plan_shards_quant`] partitions an EHNQ snapshot
//!   round-robin into N shard snapshots plus a checksummed
//!   [`manifest::ClusterManifest`] (`ehna shard`).
//! * [`shard::ShardServer`] serves one partition over EHNP v2
//!   ([`proto`]), a compact length-prefixed binary protocol with
//!   request-id multiplexing, alongside the usual JSON debug port.
//! * [`router::Router`] speaks the existing JSON line protocol to
//!   clients and scatter-gathers each query across all shards, merging
//!   per-shard top-k lists by `(distance, global id)` — *exactly* the
//!   single-node tie-break, so a sharded answer is byte-identical to an
//!   unsharded one.
//! * Each shard can run several replicas; the router health-probes
//!   them, fails over on error or timeout, and opens a per-replica
//!   circuit breaker after repeated failures so a sick replica stops
//!   eating latency budget. Rolling reload upgrades a cluster
//!   shard-by-shard, replica-by-replica, without dropping queries.
//!
//! The router is a [`ehna_serve::LineHandler`], so it inherits the
//! hardened socket front end (admission control, bounded worker pool,
//! read caps, socket timeouts, deterministic shutdown) unchanged.

#![warn(missing_docs)]

pub mod client;
pub mod manifest;
pub mod plan;
pub mod proto;
pub mod router;
pub mod shard;

pub use client::{CallError, MuxClient};
pub use manifest::{global_of, owner_of, ClusterManifest, ShardEntry, MANIFEST_NAME};
pub use plan::plan_shards_quant;
pub use proto::{ProtoError, Request, Response, EHNP_VERSION, MAX_FRAME_LEN};
pub use router::{ReplicaStatus, Router, RouterConfig};
pub use shard::{ShardConfig, ShardHandle, ShardServer};

use std::io;

/// Errors from the cluster layer: planning, manifests, and shard IO.
#[derive(Debug)]
pub enum ClusterError {
    /// Underlying IO failure.
    Io(io::Error),
    /// EHNP wire-level failure.
    Proto(ProtoError),
    /// A malformed or inconsistent cluster manifest.
    Manifest(String),
    /// An invalid shard plan (zero shards, empty shards, bad names).
    Plan(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster io error: {e}"),
            ClusterError::Proto(e) => write!(f, "{e}"),
            ClusterError::Manifest(msg) => write!(f, "bad cluster manifest: {msg}"),
            ClusterError::Plan(msg) => write!(f, "bad shard plan: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            ClusterError::Proto(e) => Some(e),
            ClusterError::Manifest(_) | ClusterError::Plan(_) => None,
        }
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<ProtoError> for ClusterError {
    fn from(e: ProtoError) -> Self {
        ClusterError::Proto(e)
    }
}

//! Subcommand implementations.

pub mod export;
pub mod generate;
pub mod ingest;
pub mod linkpred;
pub mod nodeclass;
pub mod quantize;
pub mod query;
pub mod reconstruct;
pub mod router;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod train;

use crate::flags::Flags;
use crate::CliError;
use ehna_serve::{RequestLimits, ServerConfig};
use std::time::Duration;

/// Map an IO error into a runtime CLI error.
pub(crate) fn io_err(e: std::io::Error) -> CliError {
    CliError::runtime(format!("io error: {e}"))
}

/// The per-request limits from `--max-k`, `--max-pairs` and
/// `--max-batch` (each at least 1), shared by `serve` and `router`.
pub(crate) fn request_limits(flags: &Flags) -> Result<RequestLimits, CliError> {
    let defaults = RequestLimits::default();
    Ok(RequestLimits {
        max_k: flags.get_or("max-k", defaults.max_k)?.max(1),
        max_pairs: flags.get_or("max-pairs", defaults.max_pairs)?.max(1),
        max_batch: flags.get_or("max-batch", defaults.max_batch)?.max(1),
    })
}

/// The socket settings from `--conn-workers`, `--max-conns`,
/// `--read-timeout-ms`, `--write-timeout-ms`, `--max-line-bytes` and
/// `--drain-ms`, shared by `serve` and `router`.
pub(crate) fn server_config(flags: &Flags) -> Result<ServerConfig, CliError> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        conn_workers: flags.get_or("conn-workers", defaults.conn_workers)?.max(1),
        max_connections: flags.get_or("max-conns", defaults.max_connections)?.max(1),
        read_timeout: Duration::from_millis(
            flags.get_or("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?.max(1),
        ),
        write_timeout: Duration::from_millis(
            flags.get_or("write-timeout-ms", defaults.write_timeout.as_millis() as u64)?.max(1),
        ),
        max_line_bytes: flags.get_or("max-line-bytes", defaults.max_line_bytes)?.max(64),
        drain_deadline: Duration::from_millis(
            flags.get_or("drain-ms", defaults.drain_deadline.as_millis() as u64)?,
        ),
    })
}

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
use crate::method::{MethodName, TrainOptions};
use crate::CliError;
use ehna_core::EhnaVariant;
use ehna_serve::{RequestLimits, ServerConfig};
use ehna_tgraph::ioutil::atomic_write_path;
use ehna_tgraph::{NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Map an IO error into a runtime CLI error.
pub(crate) fn io_err(e: std::io::Error) -> CliError {
    CliError::runtime(format!("io error: {e}"))
}

/// Write `emb` to `path` as its lossless EHNQ `f32` encoding, atomically:
/// a torn write never destroys the previous good snapshot.
pub(crate) fn write_snapshot(path: &Path, emb: &NodeEmbeddings) -> Result<(), CliError> {
    let q = QuantizedEmbeddings::encode(emb, &QuantSpec::new(QuantFormat::F32))
        .map_err(|e| CliError::runtime(format!("cannot encode {}: {e}", path.display())))?;
    atomic_write_path(path, |w| w.write_all(q.as_bytes())).map_err(io_err)
}

/// Open an EHNQ snapshot onto the heap, every checksum verified.
pub(crate) fn open_snapshot(path: &str) -> Result<QuantizedEmbeddings, CliError> {
    QuantizedEmbeddings::open_path(path, false)
        .map_err(|e| CliError::runtime(format!("cannot load {path}: {e}")))
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

/// The methods named by the repeatable `--method` flag, `ehna` when it
/// is absent (the evaluation subcommands).
pub(crate) fn methods(flags: &Flags) -> Result<Vec<MethodName>, CliError> {
    match flags.all("method") {
        [] => Ok(vec![MethodName::Ehna(EhnaVariant::Full)]),
        names => names.iter().map(|name| MethodName::parse(name)).collect(),
    }
}

/// The training flags every training subcommand shares: `--dim`,
/// `--epochs`, `--walks`, `--walk-length` and `--seed`. Unset flags keep
/// [`TrainOptions::default`], the paper's settings.
pub(crate) fn train_options(flags: &Flags) -> Result<TrainOptions, CliError> {
    let defaults = TrainOptions::default();
    Ok(TrainOptions {
        dim: flags.get_or("dim", defaults.dim)?,
        epochs: flags.get_or("epochs", defaults.epochs)?,
        num_walks: flags.get_or("walks", defaults.num_walks)?,
        walk_length: flags.get_or("walk-length", defaults.walk_length)?,
        seed: flags.get_or("seed", defaults.seed)?,
        ..defaults
    })
}

/// [`train_options`] plus the architecture flags `ehna train` and
/// `ehna stream` share: `--p`, `--q`, `--bidirectional`, `--aggregator`
/// and `--heads`. (`ehna reconstruct --p` is its precision@P list, so it
/// reads only [`train_options`].)
pub(crate) fn ehna_train_options(flags: &Flags) -> Result<TrainOptions, CliError> {
    let opts = train_options(flags)?;
    Ok(TrainOptions {
        p: flags.get_or("p", opts.p)?,
        q: flags.get_or("q", opts.q)?,
        bidirectional: flags.get_or("bidirectional", opts.bidirectional)?,
        aggregator: flags.get_opt("aggregator")?,
        heads: flags.get_opt("heads")?,
        ..opts
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_core::AggregatorKind;

    #[test]
    fn method_list_defaults_to_ehna() {
        assert_eq!(methods(&flags(&[])).unwrap(), vec![MethodName::Ehna(EhnaVariant::Full)]);
        let named = methods(&flags(&["--method", "line", "--method", "htne"])).unwrap();
        assert_eq!(named, vec![MethodName::Line, MethodName::Htne]);
        assert!(methods(&flags(&["--method", "gcn"])).is_err());
    }

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), "help").unwrap()
    }

    #[test]
    fn unset_training_flags_keep_the_default_options() {
        let want = format!("{:?}", TrainOptions::default());
        assert_eq!(format!("{:?}", train_options(&flags(&[])).unwrap()), want);
        assert_eq!(format!("{:?}", ehna_train_options(&flags(&[])).unwrap()), want);
    }

    #[test]
    fn only_the_ehna_helper_reads_the_walk_bias() {
        // `reconstruct --p` is a precision@P list; the shared helper
        // leaves it alone.
        let f = flags(&["--p", "100,1000", "--epochs", "2"]);
        let opts = train_options(&f).unwrap();
        assert_eq!((opts.epochs, opts.p), (2, 1.0));
        assert!(ehna_train_options(&f).is_err());

        let opts = ehna_train_options(&flags(&[
            "--p",
            "0.5",
            "--q",
            "2",
            "--bidirectional",
            "true",
            "--aggregator",
            "attn",
            "--heads",
            "2",
        ]))
        .unwrap();
        assert_eq!((opts.p, opts.q, opts.bidirectional), (0.5, 2.0, true));
        assert_eq!((opts.aggregator, opts.heads), (Some(AggregatorKind::Attn), Some(2)));
    }
}

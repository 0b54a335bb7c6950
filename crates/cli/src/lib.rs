//! # ehna-cli — the `ehna` command-line tool
//!
//! End-user entry point to the reproduction:
//!
//! ```text
//! ehna generate --dataset dblp --scale tiny --seed 42 --out net.txt
//! ehna stats net.txt
//! ehna train net.txt --method ehna --dim 64 --epochs 5 --out emb.bin
//! ehna linkpred net.txt --method ehna --method node2vec
//! ehna reconstruct net.txt --method line --p 100,1000,10000
//! ```
//!
//! Command implementations live in [`commands`]; [`flags`] is the tiny
//! typed flag parser they share. Everything is exposed as a library so
//! the behavior is unit-testable without spawning processes.

pub mod commands;
pub mod flags;
pub mod method;

use std::fmt;

/// A CLI failure: message plus exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError { message: message.into(), code: 2 }
    }

    /// A runtime failure (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError { message: message.into(), code: 1 }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ehna_tgraph::GraphError> for CliError {
    fn from(e: ehna_tgraph::GraphError) -> Self {
        CliError::runtime(e.to_string())
    }
}

/// Top-level dispatch: `args` excludes `argv[0]`. Output goes to `out`.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(usage()));
    };
    match cmd.as_str() {
        "generate" => commands::generate::run(rest, out),
        "stats" => commands::stats::run(rest, out),
        "train" => commands::train::run(rest, out),
        "export" => commands::export::run(rest, out),
        "linkpred" => commands::linkpred::run(rest, out),
        "nodeclass" => commands::nodeclass::run(rest, out),
        "reconstruct" => commands::reconstruct::run(rest, out),
        "quantize" => commands::quantize::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "query" => commands::query::run(rest, out),
        "shard" => commands::shard::run(rest, out),
        "router" => commands::router::run(rest, out),
        "ingest" => commands::ingest::run(rest, out),
        "stream" => commands::stream::run(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", usage()).map_err(|e| CliError::runtime(e.to_string()))
        }
        other => Err(CliError::usage(format!("unknown command '{other}'\n{}", usage()))),
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "ehna — temporal network embedding (EHNA, ICDE 2020 reproduction)

commands:
  generate     synthesize a dataset preset into an edge-list file
  stats        print statistics of a temporal edge list
  train        train embeddings (ehna | ehna-na | ehna-rw | ehna-sl |
               ehna-attn | node2vec | ctdne | line | htne) and save a
               snapshot
  export       convert an embedding snapshot to TSV
  linkpred     run the future-link-prediction evaluation
  reconstruct  run the network-reconstruction evaluation
  nodeclass    node classification on a temporal SBM (extension)
  quantize     re-encode a snapshot as an EHNQ artifact
               (f32 | f16 | int8 | pq) for compact mmap-able serving
  serve        serve an embedding snapshot over JSON-on-TCP
               (--role shard adds the EHNP binary port for routers;
               --mmap maps EHNQ artifacts zero-copy)
  query        query a running serve instance (knn / score / stats)
  shard        partition a snapshot into cluster shards + manifest
  router       scatter-gather front end over a shard cluster; same
               protocol and byte-identical answers as a single serve
  ingest       append an edge-list file to a crash-safe edge log
  stream       replay an edge log through incremental embedding refresh,
               hot-swapping a live serve instance (zero downtime)
  help         show this message

run `ehna <command> --help` for per-command flags"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn no_command_is_usage_error() {
        let err = run_str(&[]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("commands:"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("linkpred"));
    }

    #[test]
    fn every_method_name_is_in_the_help_texts() {
        let train_help = run_str(&["train", "--help"]).unwrap_err().message;
        for (what, text) in
            [("ehna help", run_str(&["help"]).unwrap()), ("train --help", train_help)]
        {
            let words: Vec<&str> =
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).collect();
            for name in method::METHOD_NAMES {
                assert!(words.contains(&name), "`{name}` missing from `{what}`");
            }
        }
    }
}

//! `ehna stream` — replay an edge log into a trained model, refreshing
//! embeddings incrementally and hot-swapping a live `ehna serve`.

use crate::commands::io_err;
use crate::flags::Flags;
use crate::method::{ehna_config, MethodName, TrainOptions};
use crate::CliError;
use ehna_core::load_checkpoint_path;
use ehna_serve::{query_lines, Json};
use ehna_stream::{EdgeLogReader, StreamOptions, StreamProcessor};
use ehna_tgraph::{ioutil::atomic_write_path, read_edge_list_path};
use std::io::Write;
use std::path::Path;

const HELP: &str = "ehna stream — incremental embedding refresh from an edge log

usage: ehna stream LOG --base EDGELIST --checkpoint CKPT --out SNAPSHOT
                   [--method NAME] [--dim N] [--walks N] [--walk-length N]
                   [--p F] [--q F] [--seed N] [--bidirectional true]
                   [--aggregator lstm|attn] [--heads N] [--nodes N]
                   [--finetune-steps N] [--finetune-lr F]
                   [--full-rebuild-every K]
                   [--reload ADDR] [--poll-ms N] [--once] [--max-batches N]
                   [--checkpoint-out FILE]

Replays batches appended to LOG (see `ehna ingest`) on top of the graph
in --base and the model in --checkpoint. After each batch the dirty
embedding rows are re-aggregated and --out is rewritten atomically; with
--reload, a running `ehna serve` instance serving --out is told to
hot-swap it in (`{\"op\":\"reload\"}`) with zero downtime.

The architecture flags (--method, --dim, --walks, --walk-length, --p,
--q, --bidirectional, --aggregator, --heads) must match the `ehna train`
run that produced --checkpoint; mismatches are rejected at load. --nodes pads the base
graph with isolated trailing ids when the checkpoint was trained with
node headroom.

flags:
  --base FILE          edge list the checkpoint was trained on
  --checkpoint FILE    trained EHNA checkpoint (from `ehna train`)
  --out FILE           embedding snapshot rewritten after every batch
  --nodes N            pad the base graph to N nodes (checkpoint headroom)
  --finetune-steps N   gradient steps per batch; 0 freezes the model,
                       making refresh match a full rebuild near-exactly
                       (default 1)
  --finetune-lr F      reduced learning rate for streaming fine-tune
                       steps (default: the training rate)
  --full-rebuild-every K  refresh every row on every K-th batch (0 = off)
  --reload ADDR        ehna-serve address to send {\"op\":\"reload\"} after
                       each snapshot write
  --poll-ms N          sleep between polls at end-of-log (default 500)
  --once               exit at end-of-log instead of tailing
  --max-batches N      stop after N batches (0 = unlimited)
  --checkpoint-out FILE  write the fine-tuned model here on exit";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(args, HELP, &["once"])?;
    flags.expect_known(&[
        "base",
        "checkpoint",
        "out",
        "method",
        "dim",
        "walks",
        "walk-length",
        "p",
        "q",
        "seed",
        "bidirectional",
        "aggregator",
        "heads",
        "nodes",
        "finetune-steps",
        "finetune-lr",
        "full-rebuild-every",
        "reload",
        "poll-ms",
        "once",
        "max-batches",
        "checkpoint-out",
    ])?;
    let log = flags.one_positional("edge log")?;
    let base = flags.get("base").ok_or_else(|| CliError::usage("--base is required"))?;
    let ckpt =
        flags.get("checkpoint").ok_or_else(|| CliError::usage("--checkpoint is required"))?;
    let snapshot = flags.get("out").ok_or_else(|| CliError::usage("--out is required"))?;

    let method = MethodName::parse(flags.get("method").unwrap_or("ehna"))?;
    let MethodName::Ehna(variant) = method else {
        return Err(CliError::usage(format!(
            "streaming refresh needs an EHNA checkpoint, not {}",
            method.name()
        )));
    };
    let train_opts = TrainOptions {
        dim: flags.get_or("dim", 64usize)?,
        num_walks: flags.get_or("walks", 5usize)?,
        walk_length: flags.get_or("walk-length", 5usize)?,
        p: flags.get_or("p", 1.0f64)?,
        q: flags.get_or("q", 1.0f64)?,
        seed: flags.get_or("seed", 42u64)?,
        bidirectional: flags.get_or("bidirectional", false)?,
        aggregator: flags
            .get("aggregator")
            .map(str::parse)
            .transpose()
            .map_err(|e: String| CliError::usage(format!("--aggregator: {e}")))?,
        heads: flags
            .get("heads")
            .map(str::parse)
            .transpose()
            .map_err(|e: std::num::ParseIntError| CliError::usage(format!("--heads: {e}")))?,
        ..TrainOptions::default()
    };
    let config = ehna_config(variant, &train_opts);

    let stream_opts = StreamOptions {
        finetune_steps: flags.get_or("finetune-steps", 1usize)?,
        full_rebuild_every: flags.get_or("full-rebuild-every", 0u64)?,
        finetune_lr: flags
            .get("finetune-lr")
            .map(str::parse)
            .transpose()
            .map_err(|e| CliError::usage(format!("bad --finetune-lr: {e}")))?,
    };
    let reload_addr = flags.get("reload").map(str::to_string);
    let poll_ms: u64 = flags.get_or("poll-ms", 500u64)?;
    let once = flags.has("once");
    let max_batches: u64 = flags.get_or("max-batches", 0u64)?;

    let mut graph = read_edge_list_path(base)?;
    if let Some(n) = flags
        .get("nodes")
        .map(str::parse)
        .transpose()
        .map_err(|e: std::num::ParseIntError| CliError::usage(format!("bad --nodes: {e}")))?
    {
        if n > graph.num_nodes() {
            graph = graph.padded_to(n);
        }
    }
    let (ckpt_loaded, used_backup) = load_checkpoint_path(Path::new(ckpt), &graph, config)
        .map_err(|e| CliError::runtime(format!("cannot load checkpoint {ckpt}: {e}")))?;
    if used_backup {
        writeln!(out, "warning: checkpoint {ckpt} was unreadable; loaded its .bak backup")
            .map_err(io_err)?;
    }
    for w in &ckpt_loaded.warnings {
        writeln!(out, "warning: {w}").map_err(io_err)?;
    }
    writeln!(
        out,
        "streaming onto {} nodes, {} edges ({} epochs trained)",
        graph.num_nodes(),
        graph.num_edges(),
        ckpt_loaded.model.epochs_trained
    )
    .map_err(io_err)?;

    let mut proc = StreamProcessor::new(graph, ckpt_loaded.model, stream_opts)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    let mut reader = EdgeLogReader::open(log).map_err(|e| CliError::runtime(e.to_string()))?;

    loop {
        match reader.next_batch().map_err(|e| CliError::runtime(e.to_string()))? {
            Some(batch) => {
                let outcome =
                    proc.apply_batch(&batch).map_err(|e| CliError::runtime(e.to_string()))?;
                write_snapshot(snapshot, &proc)?;
                let mut line = format!(
                    "batch {}: +{} edges, refreshed {} rows{}",
                    proc.batches_done(),
                    outcome.edges,
                    outcome.refreshed,
                    if outcome.full_rebuild { " (full rebuild)" } else { "" },
                );
                if let Some(loss) = outcome.finetune_loss {
                    line.push_str(&format!(", finetune loss {loss:.4}"));
                }
                if let Some(addr) = reload_addr.as_deref() {
                    let version = push_reload(addr)?;
                    line.push_str(&format!(", served version {version}"));
                }
                writeln!(out, "{line}").map_err(io_err)?;
                if max_batches > 0 && proc.batches_done() >= max_batches {
                    break;
                }
            }
            None if once => {
                if reader.tail_pending() {
                    writeln!(out, "warning: log ends in a torn record (writer crashed?)")
                        .map_err(io_err)?;
                }
                break;
            }
            None => std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1))),
        }
    }

    if let Some(path) = flags.get("checkpoint-out") {
        atomic_write_path(Path::new(path), |w| proc.model().save_checkpoint(w)).map_err(io_err)?;
        writeln!(out, "wrote fine-tuned checkpoint to {path}").map_err(io_err)?;
    }
    writeln!(out, "processed {} batches; final snapshot at {snapshot}", proc.batches_done())
        .map_err(io_err)?;
    Ok(())
}

/// Atomically rewrite the served snapshot (same discipline as `ehna
/// train`: a torn write must never destroy the previous good snapshot).
fn write_snapshot(path: &str, proc: &StreamProcessor) -> Result<(), CliError> {
    atomic_write_path(Path::new(path), |w| {
        proc.embeddings().save(w).map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(io_err)
}

/// Tell a running `ehna serve` to hot-swap the snapshot; returns the new
/// snapshot version.
fn push_reload(addr: &str) -> Result<u64, CliError> {
    let responses = query_lines(addr, &[r#"{"op":"reload"}"#.to_string()])
        .map_err(|e| CliError::runtime(format!("reload push to {addr} failed: {e}")))?;
    let resp = responses
        .first()
        .ok_or_else(|| CliError::runtime(format!("no reload response from {addr}")))?;
    let json = Json::parse(resp)
        .map_err(|e| CliError::runtime(format!("bad reload response from {addr}: {e}")))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(CliError::runtime(format!("server at {addr} refused reload: {resp}")));
    }
    Ok(json.get("version").and_then(Json::as_f64).unwrap_or(0.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn missing_required_flags_are_usage_errors() {
        let err = run(&args(&["log.wal"]), &mut Vec::new()).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--base"));
    }

    #[test]
    fn baseline_methods_are_rejected() {
        let err = run(
            &args(&[
                "log.wal",
                "--base",
                "net.txt",
                "--checkpoint",
                "c.bin",
                "--out",
                "s.bin",
                "--method",
                "node2vec",
            ]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("EHNA checkpoint"));
    }

    #[test]
    fn architecture_mismatch_is_reported_at_load() {
        // Train a tiny checkpoint through the real CLI path, then stream
        // with the wrong --dim: the loader must reject it.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let net = dir.join(format!("ehna_stream_cmd_net_{pid}.txt"));
        let ckpt = dir.join(format!("ehna_stream_cmd_ckpt_{pid}.bin"));
        let emb = dir.join(format!("ehna_stream_cmd_emb_{pid}.bin"));
        let mut lines = String::new();
        for i in 0u32..6 {
            for j in (i + 1)..6 {
                lines.push_str(&format!("{i} {j} {}\n", 10 * (i + j)));
            }
        }
        std::fs::write(&net, lines).unwrap();
        crate::commands::train::run(
            &args(&[
                net.to_str().unwrap(),
                "--method",
                "ehna",
                "--dim",
                "8",
                "--epochs",
                "1",
                "--walks",
                "2",
                "--walk-length",
                "2",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--out",
                emb.to_str().unwrap(),
            ]),
            &mut Vec::new(),
        )
        .unwrap();

        let err = run(
            &args(&[
                "missing.wal",
                "--base",
                net.to_str().unwrap(),
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--out",
                emb.to_str().unwrap(),
                "--dim",
                "16",
                "--once",
            ]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot load checkpoint"), "got: {}", err.message);

        for f in [&net, &ckpt, &emb] {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_file(dir.join(format!("ehna_stream_cmd_ckpt_{pid}.bin.bak")));
    }
}

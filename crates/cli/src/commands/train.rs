//! `ehna train` — train embeddings on an edge list and save a snapshot.

use crate::commands::io_err;
use crate::flags::Flags;
use crate::method::{MethodName, TrainOptions};
use crate::CliError;
use ehna_tgraph::read_edge_list_path;
use std::io::Write;

const HELP: &str = "ehna train — train node embeddings

usage: ehna train FILE --method NAME [--dim N] [--epochs N] [--walks N]
                  [--walk-length N] [--p F] [--q F] [--seed N]
                  [--bidirectional true] [--threads N] [--pipeline-depth N]
                  [--aggregator lstm|attn] [--heads N]
                  [--checkpoint FILE] [--checkpoint-every N] [--resume]
                  --out SNAPSHOT

methods: ehna, ehna-na, ehna-rw, ehna-sl, ehna-attn, node2vec, ctdne,
line, htne
--threads sets the walk-sampling workers and --pipeline-depth how many
sampled batches the prefetcher may run ahead of the optimizer (0 =
synchronous; results are identical at any depth). EHNA methods print a
sample/compute/stall phase-timing summary after training.
--aggregator (EHNA only) selects the node-level stage: lstm (the paper's
stacked LSTM, default) or attn (Time2Vec + multi-head attention; --heads
sets the head count, which must divide --dim). The ehna-attn method is
shorthand for --method ehna --aggregator attn.
--checkpoint (EHNA only) writes full trainer state (model + optimizer +
RNG) atomically after training; --checkpoint-every N also writes it every
N epochs, rotating the previous file to FILE.bak. --resume continues
training from --checkpoint bit-identically to a run that was never
interrupted (falling back to FILE.bak if FILE is damaged).
The snapshot is the binary NodeEmbeddings format (load with
NodeEmbeddings::load or `ehna linkpred --emb SNAPSHOT`).";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(args, HELP, &["resume"])?;
    flags.expect_known(&[
        "method",
        "dim",
        "epochs",
        "walks",
        "walk-length",
        "p",
        "q",
        "seed",
        "bidirectional",
        "threads",
        "pipeline-depth",
        "aggregator",
        "heads",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "out",
    ])?;
    let input = flags.one_positional("edge-list file")?;
    let method = MethodName::parse(
        flags.get("method").ok_or_else(|| CliError::usage("--method is required"))?,
    )?;
    let snapshot = flags.get("out").ok_or_else(|| CliError::usage("--out is required"))?;
    let opts = TrainOptions {
        dim: flags.get_or("dim", 64usize)?,
        epochs: flags.get_or("epochs", 3usize)?,
        num_walks: flags.get_or("walks", 5usize)?,
        walk_length: flags.get_or("walk-length", 5usize)?,
        p: flags.get_or("p", 1.0f64)?,
        q: flags.get_or("q", 1.0f64)?,
        seed: flags.get_or("seed", 42u64)?,
        bidirectional: flags.get_or("bidirectional", false)?,
        threads: flags.get_or("threads", 1usize)?,
        pipeline_depth: flags.get("pipeline-depth").map(str::parse).transpose().map_err(
            |e: std::num::ParseIntError| CliError::usage(format!("--pipeline-depth: {e}")),
        )?,
        checkpoint: flags.get("checkpoint").map(std::path::PathBuf::from),
        checkpoint_every: flags.get_or("checkpoint-every", 0usize)?,
        resume: flags.has("resume"),
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
    };

    let graph = read_edge_list_path(input)?;
    writeln!(
        out,
        "training {} on {} ({} nodes, {} edges)...",
        method.name(),
        input,
        graph.num_nodes(),
        graph.num_edges()
    )
    .map_err(io_err)?;
    let start = std::time::Instant::now();
    let outcome = method.train_full(&graph, &opts)?;
    for warning in &outcome.warnings {
        writeln!(out, "warning: {warning}").map_err(io_err)?;
    }
    let emb = outcome.embeddings;
    // The snapshot gets the same crash-safety discipline as checkpoints:
    // a torn write must never destroy a previous good snapshot.
    ehna_tgraph::ioutil::atomic_write_path(std::path::Path::new(snapshot), |w| {
        emb.save(w).map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(io_err)?;
    if let Some(report) = &outcome.report {
        let phases = report.total_phase_timings();
        writeln!(
            out,
            "epoch loss {:.4} -> {:.4} over {} epochs ({} batches)",
            report.epoch_losses.first().copied().unwrap_or(f64::NAN),
            report.epoch_losses.last().copied().unwrap_or(f64::NAN),
            report.epoch_losses.len(),
            report.batches,
        )
        .map_err(io_err)?;
        writeln!(
            out,
            "phase timings: sample {:.2}s | compute {:.2}s | prefetch stall {:.2}s",
            phases.sample_time.as_secs_f64(),
            phases.compute_time.as_secs_f64(),
            phases.prefetch_stall_time.as_secs_f64(),
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "trained in {:.2}s; wrote {} x {} snapshot to {snapshot}",
        start.elapsed().as_secs_f64(),
        emb.num_nodes(),
        emb.dim()
    )
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::{write_edge_list_path, GraphBuilder, NodeEmbeddings};

    fn tiny_file(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let mut b = GraphBuilder::new();
        for i in 0..12u32 {
            b.add_edge(i, (i + 1) % 13, i as i64, 1.0).unwrap();
            b.add_edge(i, (i + 5) % 13, i as i64 + 1, 1.0).unwrap();
        }
        write_edge_list_path(&b.build().unwrap(), &path).unwrap();
        path
    }

    #[test]
    fn trains_and_saves_snapshot() {
        let input = tiny_file("ehna_cli_train_in.txt");
        let snap = std::env::temp_dir().join("ehna_cli_train_out.bin");
        let args: Vec<String> = [
            input.to_str().unwrap(),
            "--method",
            "ehna",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--walks",
            "2",
            "--walk-length",
            "3",
            "--out",
            snap.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let emb = NodeEmbeddings::load(std::fs::File::open(&snap).unwrap()).unwrap();
        assert_eq!(emb.dim(), 8);
        assert_eq!(emb.num_nodes(), 13);
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn trains_with_attn_aggregator_flags() {
        let input = tiny_file("ehna_cli_train_attn_in.txt");
        let snap = std::env::temp_dir().join("ehna_cli_train_attn_out.bin");
        let args: Vec<String> = [
            input.to_str().unwrap(),
            "--method",
            "ehna",
            "--aggregator",
            "attn",
            "--heads",
            "2",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--walks",
            "2",
            "--walk-length",
            "3",
            "--out",
            snap.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let emb = NodeEmbeddings::load(std::fs::File::open(&snap).unwrap()).unwrap();
        assert_eq!(emb.dim(), 8);
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(snap);

        // Invalid head count surfaces as a usage-style config error.
        let input = tiny_file("ehna_cli_train_attn_bad_in.txt");
        let args: Vec<String> = [
            input.to_str().unwrap(),
            "--method",
            "ehna-attn",
            "--heads",
            "3",
            "--dim",
            "8",
            "--out",
            "/tmp/ehna_cli_train_attn_bad.bin",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        assert!(err.message.contains("heads"), "{}", err.message);
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn pipelined_flags_print_phase_summary() {
        let input = tiny_file("ehna_cli_train_pipe_in.txt");
        let snap = std::env::temp_dir().join("ehna_cli_train_pipe_out.bin");
        let args: Vec<String> = [
            input.to_str().unwrap(),
            "--method",
            "ehna",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--walks",
            "2",
            "--walk-length",
            "3",
            "--threads",
            "2",
            "--pipeline-depth",
            "3",
            "--out",
            snap.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("phase timings: sample"), "missing timings in: {text}");
        assert!(text.contains("prefetch stall"), "missing stall in: {text}");
        let _ = std::fs::remove_file(input);
        let _ = std::fs::remove_file(snap);
    }

    fn run_args(parts: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn checkpoint_and_resume_through_cli() {
        let input = tiny_file("ehna_cli_train_ckpt_in.txt");
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_cli_train_ckpt_out.bin");
        let ckpt = dir.join("ehna_cli_train_ckpt.ckpt");
        let bak = ehna_tgraph::ioutil::backup_path(&ckpt);
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&bak);
        let common = ["--method", "ehna", "--dim", "8", "--walks", "2", "--walk-length", "3"];

        let mut first = vec![input.to_str().unwrap()];
        first.extend_from_slice(&common);
        first.extend_from_slice(&[
            "--epochs",
            "2",
            "--checkpoint-every",
            "1",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ]);
        let text = run_args(&first).unwrap();
        assert!(!text.contains("warning:"), "unexpected warning: {text}");
        assert!(ckpt.exists(), "checkpoint not written");
        assert!(bak.exists(), "periodic checkpoints did not rotate a backup");

        let mut second = vec![input.to_str().unwrap()];
        second.extend_from_slice(&common);
        second.extend_from_slice(&[
            "--epochs",
            "1",
            "--resume",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ]);
        let text = run_args(&second).unwrap();
        assert!(!text.contains("warning:"), "v2 resume must be warning-free: {text}");
        for p in [&input, &snap, &ckpt, &bak, &ehna_tgraph::ioutil::backup_path(&snap)] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn v1_checkpoint_resume_surfaces_warning() {
        use ehna_core::{EhnaConfig, Trainer};
        let input = tiny_file("ehna_cli_train_v1_in.txt");
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_cli_train_v1_out.bin");
        let ckpt = dir.join("ehna_cli_train_v1.ckpt");

        // A genuine legacy v1 file whose architecture matches the CLI's
        // EHNA config at --dim 8.
        let graph = ehna_tgraph::read_edge_list_path(&input).unwrap();
        let config = EhnaConfig { dim: 8, num_walks: 2, walk_length: 3, ..Default::default() };
        let trainer = Trainer::new(&graph, config).unwrap();
        let f = std::fs::File::create(&ckpt).unwrap();
        ehna_core::write_checkpoint_v1_for_tests(trainer.model(), f).unwrap();

        let args = [
            input.to_str().unwrap(),
            "--method",
            "ehna",
            "--dim",
            "8",
            "--walks",
            "2",
            "--walk-length",
            "3",
            "--epochs",
            "1",
            "--resume",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--out",
            snap.to_str().unwrap(),
        ];
        let text = run_args(&args).unwrap();
        assert!(text.contains("warning:"), "v1 resume must warn: {text}");
        assert!(text.contains("not be bit-faithful"), "caveat missing: {text}");
        for p in [&input, &snap, &ckpt] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(ehna_tgraph::ioutil::backup_path(&ckpt));
        let _ = std::fs::remove_file(ehna_tgraph::ioutil::backup_path(&snap));
    }

    #[test]
    fn snapshot_writes_are_atomic_and_rotate() {
        let input = tiny_file("ehna_cli_train_atomic_in.txt");
        let snap = std::env::temp_dir().join("ehna_cli_train_atomic_out.bin");
        let bak = ehna_tgraph::ioutil::backup_path(&snap);
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&bak);
        let args = [
            input.to_str().unwrap(),
            "--method",
            "htne",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--out",
            snap.to_str().unwrap(),
        ];
        run_args(&args).unwrap();
        assert!(snap.exists() && !bak.exists());
        let first = std::fs::read(&snap).unwrap();
        run_args(&args).unwrap();
        assert!(bak.exists(), "second snapshot did not rotate the first to .bak");
        assert_eq!(std::fs::read(&bak).unwrap(), first, ".bak is not the prior snapshot");
        NodeEmbeddings::load(std::fs::File::open(&snap).unwrap()).unwrap();
        for p in [&input, &snap, &bak] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn resume_with_missing_checkpoint_fails_cleanly() {
        let input = tiny_file("ehna_cli_train_missing_in.txt");
        let args = [
            input.to_str().unwrap(),
            "--method",
            "ehna",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--resume",
            "--checkpoint",
            "/nonexistent/dir/x.ckpt",
            "--out",
            "/tmp/ehna_cli_train_missing_out.bin",
        ];
        let err = run_args(&args).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot resume"), "{}", err.message);
        let _ = std::fs::remove_file(input);
    }

    #[test]
    fn rejects_unknown_flag() {
        let input = tiny_file("ehna_cli_train_in2.txt");
        let args: Vec<String> =
            [input.to_str().unwrap(), "--method", "ehna", "--lr", "0.1", "--out", "/tmp/x.bin"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
        let _ = std::fs::remove_file(input);
    }
}

//! Per-variant training-step cost (the Table VII ablations' compute
//! profile): one optimization step on a 32-edge batch for each variant —
//! plus the sync-vs-pipelined epoch comparison behind
//! `results/BENCH_training_pipeline.json` (methodology in the sibling
//! `BENCH_training_pipeline.md`).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ehna_core::variants::ALL_VARIANTS;
use ehna_core::{EhnaConfig, Trainer, TrainingReport};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_tgraph::{NodeId, TemporalGraph, Timestamp};
use std::time::Duration;

/// The step shape these series were first recorded at (d = 32, k = l = 5,
/// batch 64), kept fixed so the timings stay comparable.
fn step_config() -> EhnaConfig {
    EhnaConfig {
        dim: 32,
        num_walks: 5,
        walk_length: 5,
        batch_size: 64,
        epochs: 8,
        lr: 2e-3,
        seed: 7,
        ..Default::default()
    }
}

fn bench_training(c: &mut Criterion) {
    let g = generate(Dataset::DblpLike, Scale::Tiny, 1);
    let edges: Vec<(NodeId, NodeId, Timestamp)> =
        g.edges().iter().rev().take(32).map(|e| (e.src, e.dst, e.t)).collect();

    let mut group = c.benchmark_group("training");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for variant in ALL_VARIANTS {
        let cfg = variant.configure(step_config());
        group.bench_function(format!("step_{}", variant.name()), |b| {
            b.iter_batched(
                || Trainer::new(&g, cfg.clone()).expect("valid config"),
                |mut trainer| black_box(trainer.train_batch(&edges, 0)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Walk-sampling threads for the pipeline comparison (the acceptance
/// configuration: `threads >= 4` on the digg-like generator).
const PIPELINE_THREADS: usize = 4;
const PIPELINE_EPOCHS: usize = 3;

fn pipeline_config(depth: usize, epochs: usize) -> EhnaConfig {
    EhnaConfig { threads: PIPELINE_THREADS, pipeline_depth: depth, epochs, ..step_config() }
}

fn timed_train(g: &TemporalGraph, depth: usize, epochs: usize) -> TrainingReport {
    let mut trainer = Trainer::new(g, pipeline_config(depth, epochs)).expect("valid config");
    trainer.train()
}

fn mean_epoch_secs(report: &TrainingReport) -> f64 {
    report.epoch_times.iter().map(|t| t.as_secs_f64()).sum::<f64>()
        / report.epoch_times.len().max(1) as f64
}

/// One sync-vs-pipelined comparison on `g`: fresh trainer per mode, same
/// seed, losses asserted bit-identical. Returns the JSON fragment for the
/// results file (without the outer braces' shared metadata).
///
/// Accounting: every field is a **per-epoch mean**, and wall-clock is
/// kept apart from thread-local phase time by name. `epoch_wall_s` is
/// elapsed wall-clock per epoch; `sample_thread_s` / `compute_thread_s`
/// are seconds spent inside each phase *on its own thread* — in the
/// pipelined mode the producer samples concurrently with compute, so
/// `sample_thread_s` is hidden time, not wall-clock, and the fields do
/// not sum to `epoch_wall_s`. (An earlier revision wrote per-run phase
/// totals next to a per-epoch wall mean under look-alike names, which
/// made `compute_s` appear ~3x larger than a whole epoch.)
fn compare_modes(g: &TemporalGraph, epochs: usize) -> String {
    let sync = timed_train(g, 0, epochs);
    let piped = timed_train(g, 2, epochs);
    assert_eq!(
        sync.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        piped.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "pipelined training diverged from synchronous"
    );
    let (s_epoch, p_epoch) = (mean_epoch_secs(&sync), mean_epoch_secs(&piped));
    let speedup = s_epoch / p_epoch;
    let edges_per_sec = g.num_edges() as f64 / p_epoch;
    let per_epoch = 1.0 / epochs as f64;
    let (s_ph, p_ph) = (sync.total_phase_timings(), piped.total_phase_timings());
    let sample_share = s_ph.sample_time.as_secs_f64()
        / (s_ph.sample_time.as_secs_f64() + s_ph.compute_time.as_secs_f64()).max(1e-12);
    println!(
        "  sync {s_epoch:.3}s/epoch, pipelined {p_epoch:.3}s/epoch, speedup {speedup:.2}x \
         (sync sample share {:.1}%)",
        sample_share * 100.0
    );
    format!(
        "\"nodes\": {}, \"edges\": {}, \"epochs_timed\": {epochs},\n    \
         \"sync\": {{\"epoch_wall_s\": {s_epoch:.6}, \"sample_thread_s\": {:.6}, \
         \"compute_thread_s\": {:.6}}},\n    \
         \"pipelined\": {{\"epoch_wall_s\": {p_epoch:.6}, \"sample_thread_s\": {:.6}, \
         \"compute_thread_s\": {:.6}, \"stall_wall_s\": {:.6}}},\n    \
         \"sync_sample_share\": {sample_share:.4},\n    \
         \"epoch_speedup\": {speedup:.4}, \"pipelined_edges_per_s\": {edges_per_sec:.1},\n    \
         \"bit_identical_losses\": true",
        g.num_nodes(),
        g.num_edges(),
        s_ph.sample_time.as_secs_f64() * per_epoch,
        s_ph.compute_time.as_secs_f64() * per_epoch,
        p_ph.sample_time.as_secs_f64() * per_epoch,
        p_ph.compute_time.as_secs_f64() * per_epoch,
        p_ph.prefetch_stall_time.as_secs_f64() * per_epoch,
    )
}

/// Sync vs pipelined epoch throughput, recorded as a JSON entry so the
/// speedup (and the determinism gate) is tracked over time. The primary
/// entry is the acceptance configuration (digg-like tiny, 4 threads);
/// dblp-like rides along because its denser per-node histories give walk
/// sampling a much larger share of epoch time, which is the regime the
/// prefetcher exists for (see BENCH_training_pipeline.md).
fn bench_pipeline(c: &mut Criterion) {
    let digg = generate(Dataset::DiggLike, Scale::Tiny, 1);

    let mut group = c.benchmark_group("training_pipeline");
    group.sample_size(3).measurement_time(Duration::from_secs(10));
    for depth in [0usize, 2] {
        group.bench_function(format!("epoch_depth{depth}_t{PIPELINE_THREADS}"), |b| {
            b.iter_batched(
                || Trainer::new(&digg, pipeline_config(depth, 1)).expect("valid config"),
                |mut trainer| black_box(trainer.train_epoch()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();

    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let oversubscribed = PIPELINE_THREADS > host_cpus;
    if oversubscribed {
        eprintln!(
            "warning: training_pipeline requests {PIPELINE_THREADS} sampling threads on a \
             {host_cpus}-cpu host; workers time-slice cores, so thread counts above \
             host_cpus cannot add throughput here"
        );
    }
    println!("training_pipeline: digg-like tiny ({host_cpus} host cpus)");
    let digg_json = compare_modes(&digg, PIPELINE_EPOCHS);
    let dblp = generate(Dataset::DblpLike, Scale::Tiny, 1);
    println!("training_pipeline: dblp-like tiny");
    let dblp_json = compare_modes(&dblp, 2);

    let json = format!(
        "{{\n  \"bench\": \"training_pipeline\",\n  \"dataset\": \"digg-like\",\n  \
         \"scale\": \"tiny\",\n  \"threads\": {PIPELINE_THREADS},\n  \"pipeline_depth\": 2,\n  \
         \"host_cpus\": {host_cpus},\n  \"threads_oversubscribed\": {oversubscribed},\n  \
         {digg_json},\n  \
         \"secondary\": {{\n    \"dataset\": \"dblp-like\", \"scale\": \"tiny\",\n    \
         {dblp_json}\n  }}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_training_pipeline.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

criterion_group!(benches, bench_training, bench_pipeline);
criterion_main!(benches);

//! `stream`: writes beside reads. An attention-aggregator model is
//! trained in set-up on the first 90% of dblp-like small; the remaining
//! edges are appended to an EHNL edge log in 16-edge batches, each batch
//! is read back and applied with `StreamProcessor` (one fine-tune step,
//! dirty-row refresh), and its table is hot-swapped into a standalone
//! engine while an open-loop client sends `knn` requests. When the
//! held-out edges run out before the time budget, the stream restarts
//! from the set-up model.
//!
//! The write path is closed-loop: a batch is appended once the previous
//! one is served, so freshness (append → served) is one batch's latency,
//! not a queue that grows with the run.

use crate::load::{run_step, Step, Zipf};
use crate::stats;
use crate::trace::Tracer;
use crate::{scratch_dir, Args, Outcome};
use ehna_core::{load_checkpoint_full, AggregatorKind, EhnaConfig, Trainer};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_serve::{
    BruteForceIndex, EmbeddingStore, EngineConfig, Json, QueryEngine, Server, ServerConfig,
    ServerHandle,
};
use ehna_stream::{EdgeLogReader, EdgeLogWriter, RefreshPlanner, StreamOptions, StreamProcessor};
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalEdge, TemporalGraph, Timestamp};
use ehna_walks::NeighborhoodSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator seed of the dataset: one fixed graph, so runs differ by the
/// model's initialisation, walks and negatives and by the read traffic
/// (all from `--seed`), not by a different graph.
const DATASET_SEED: u64 = 1;
const SETUPS: usize = 3;
const INGEST_BATCH: usize = 16;
/// Set-up trains for this many steps over the most recent prefix edges;
/// a full epoch over the prefix takes ~20 s and set-up runs `SETUPS`
/// times.
const TRAIN_STEPS: usize = 4;
/// Open-loop read traffic while the stream applies batches.
const READ_RATE: f64 = 300.0;
const ZIPF_EXPONENT: f64 = 0.8;
/// One request in this many is a `stats` request whose snapshot version
/// the client checks never goes backwards.
const STATS_EVERY: f64 = 20.0;
const K: usize = 10;
/// Freshness is reported at p50 and p90.
const TAIL_PCT: f64 = 90.0;

fn config(seed: u64) -> EhnaConfig {
    EhnaConfig {
        dim: 32,
        num_walks: 5,
        walk_length: 5,
        negatives: 5,
        batch_size: 256,
        aggregator: AggregatorKind::Attn,
        threads: 1,
        seed,
        ..EhnaConfig::default()
    }
}

/// Everything set-up builds.
struct Setup {
    prefix: TemporalGraph,
    suffix: Vec<TemporalEdge>,
    checkpoint: Vec<u8>,
    processor: StreamProcessor,
    engine: Arc<QueryEngine>,
    server: ServerHandle,
}

fn options() -> StreamOptions {
    StreamOptions { finetune_steps: 1, ..Default::default() }
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let graph = tracer
        .span("datasets.generate", 0, |_| generate(Dataset::DblpLike, Scale::Small, DATASET_SEED));
    let cut = graph.edges()[graph.num_edges() * 9 / 10].t;
    let prefix = graph.subgraph_before(cut).ok_or("empty prefix")?.padded_to(graph.num_nodes());
    let suffix: Vec<TemporalEdge> = graph.edges().iter().filter(|e| e.t >= cut).copied().collect();
    let mut trainer = Trainer::new(&prefix, config(seed))?;
    let bs = trainer.model().config.batch_size;
    let recent = &prefix.edges()[prefix.num_edges().saturating_sub(TRAIN_STEPS * bs)..];
    for (i, chunk) in recent.chunks(bs).enumerate() {
        let pairs: Vec<_> = chunk.iter().map(|e| (e.src, e.dst, e.t)).collect();
        trainer.train_batch(&pairs, i as u64);
    }
    let mut checkpoint = Vec::new();
    trainer.save_checkpoint(&mut checkpoint).map_err(|e| e.to_string())?;
    let model = trainer.into_model();
    let processor =
        StreamProcessor::new(prefix.clone(), model, options()).map_err(|e| e.to_string())?;
    let store = Arc::new(
        EmbeddingStore::new(processor.embeddings().clone(), None).map_err(|e| e.to_string())?,
    );
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Box::new(BruteForceIndex::new(store)),
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    ));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig { conn_workers: 2, ..Default::default() },
    )
    .and_then(Server::spawn)
    .map_err(|e| e.to_string())?;
    Ok(Setup { prefix, suffix, checkpoint, processor, engine, server })
}

/// A processor restarted from the set-up model.
fn restart(
    checkpoint: &[u8],
    prefix: &TemporalGraph,
    seed: u64,
) -> Result<StreamProcessor, String> {
    let loaded =
        load_checkpoint_full(checkpoint, prefix, config(seed)).map_err(|e| e.to_string())?;
    StreamProcessor::new(prefix.clone(), loaded.model, options()).map_err(|e| e.to_string())
}

/// Serve `emb` from `engine` as a new snapshot.
fn swap(engine: &QueryEngine, emb: &NodeEmbeddings) -> Result<u64, String> {
    let store = Arc::new(EmbeddingStore::new(emb.clone(), None).map_err(|e| e.to_string())?);
    Ok(engine.swap_snapshot(Arc::clone(&store), Box::new(BruteForceIndex::new(store))).0)
}

/// Whether the engine serves exactly `emb`, bit for bit.
fn serves_exactly(engine: &QueryEngine, emb: &NodeEmbeddings) -> bool {
    let store = engine.store();
    store.num_nodes() == emb.num_nodes()
        && (0..emb.num_nodes()).all(|i| {
            let id = NodeId(i as u32);
            store.row(id).is_ok_and(|row| {
                row.iter().zip(emb.get(id)).all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let dir = scratch_dir(args).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some(s) = state.take() {
            let s: Setup = s;
            s.server.shutdown();
        }
        let t0 = Instant::now();
        state = Some(setup(args.seed, tracer)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let s = state.expect("at least one set-up");
    let mut out = Outcome::default();
    out.record(
        "input",
        format!(
            r#"{{"dataset":"dblp-like small","prefix_edges":{},"suffix_edges":{},"nodes":{},"aggregator":"attn","dim":32,"walks":5,"walk_length":5,"negatives":5,"threads":1,"ingest_batch":{INGEST_BATCH},"train_steps":{TRAIN_STEPS},"read_rate":{READ_RATE}}}"#,
            s.prefix.num_edges(),
            s.suffix.len(),
            s.prefix.num_nodes()
        ),
    );
    let result = if args.trace {
        traced(args, &s, &dir, tracer, &mut out)
    } else {
        out.metric("setup_s", stats::median(&times));
        untraced(
            args,
            s.processor,
            &s.prefix,
            &s.suffix,
            &s.checkpoint,
            &s.engine,
            s.server.addr(),
            &dir,
            &mut out,
        )
    };
    s.server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}

/// What the write loop applied, over all passes.
#[derive(Default)]
struct Applied {
    edges: usize,
    batches: usize,
    dirty: usize,
    busy: Duration,
    freshness_ms: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    first: StreamProcessor,
    prefix: &TemporalGraph,
    suffix: &[TemporalEdge],
    checkpoint: &[u8],
    engine: &QueryEngine,
    addr: std::net::SocketAddr,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let budget = Duration::from_secs(args.seconds);
    let setup_rss = crate::start_measured_rss();
    let zipf = Zipf::new(prefix.num_nodes(), ZIPF_EXPONENT, DATASET_SEED);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x57EA);
    let reads = Step::new(READ_RATE, budget, &mut rng, |r| {
        if r.gen_bool(1.0 / STATS_EVERY) {
            (r#"{"op":"stats"}"#.to_string(), false)
        } else {
            (format!(r#"{{"op":"knn","node":"{}","k":{K}}}"#, zipf.sample(r)), true)
        }
    });

    let mut applied = Applied::default();
    let mut processor = first;
    let mut passes = 0usize;
    let mut pass_batches = 0usize;
    let mut exact = true;
    let (report, writes) = std::thread::scope(|scope| {
        let client = scope.spawn(|| run_step(&conns, &reads));
        let started = Instant::now();
        let writes = (|| -> Result<(), String> {
            'passes: loop {
                let log = dir.join(format!("pass{passes}.ehnl"));
                let mut writer = EdgeLogWriter::create(&log).map_err(|e| e.to_string())?;
                let mut reader = EdgeLogReader::open(&log).map_err(|e| e.to_string())?;
                for batch in suffix.chunks(INGEST_BATCH) {
                    if started.elapsed() >= budget {
                        break 'passes;
                    }
                    let t0 = Instant::now();
                    writer.append(batch).map_err(|e| e.to_string())?;
                    let got = reader
                        .next_batch()
                        .map_err(|e| e.to_string())?
                        .ok_or("appended batch not readable")?;
                    if got != batch {
                        return Err("edge log returned a different batch".into());
                    }
                    let outcome = processor.apply_batch(&got).map_err(|e| e.to_string())?;
                    swap(engine, processor.embeddings())?;
                    let took = t0.elapsed();
                    applied.busy += took;
                    applied.freshness_ms.push(took.as_secs_f64() * 1e3);
                    applied.edges += outcome.edges;
                    applied.dirty += outcome.plan.dirty.len();
                    applied.batches += 1;
                    pass_batches += 1;
                }
                exact &= serves_exactly(engine, processor.embeddings());
                passes += 1;
                pass_batches = 0;
                processor = restart(checkpoint, prefix, args.seed)?;
            }
            // The engine still serves the previous pass when the budget
            // ran out before this one applied anything.
            if pass_batches > 0 {
                exact &= serves_exactly(engine, processor.embeddings());
            }
            Ok(())
        })();
        (client.join().expect("read client panicked"), writes)
    });
    writes?;

    out.check(
        "after each pass's last swap the engine serves the processor's rows bit for bit",
        exact,
    );
    let mut versions_monotone = true;
    let mut stats_seen = 0usize;
    for conn in &report.kept {
        let mut last = 0u64;
        for (_, line) in conn {
            let v = Json::parse(line)
                .ok()
                .and_then(|d| d.get("snapshot_version").and_then(Json::as_f64))
                .map_or(0, |v| v as u64);
            versions_monotone &= v >= last && v > 0;
            last = v;
            stats_seen += 1;
        }
    }
    out.check(
        format!("snapshot versions seen by the client never go backwards ({stats_seen} stats)"),
        versions_monotone && stats_seen > 0,
    );
    out.check("every read response has \"ok\":true", report.failed == 0);
    if applied.batches == 0 {
        return Err("no batch applied".into());
    }
    let mut fresh = applied.freshness_ms.clone();
    fresh.sort_by(f64::total_cmp);
    let p50 = stats::median(&fresh);
    let p90 = stats::percentile(&fresh, TAIL_PCT);
    let rate = applied.edges as f64 / applied.busy.as_secs_f64();
    out.metric("rate_per_s", rate);
    out.metric("p50_ms", p50);
    out.metric("tail_ms", p90);
    out.attempted = (report.sent + applied.batches) as u64;
    out.failed = report.failed as u64;
    let (rp50, rpct, rtail) = if report.primary_ms.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        stats::summarize(&report.primary_ms)
    };
    out.record(
        "stream",
        format!(
            r#"{{"setup_peak_rss_mb":{setup_rss},"stream_edges_per_s":{rate},"freshness_p50_ms":{p50},"freshness_p90_ms":{p90},"batches":{},"completed_passes":{},"dirty_per_batch":{},"tail_samples_beyond":{},"serve_p50_ms":{rp50},"serve_tail_pct":{rpct},"serve_tail_ms":{rtail},"failed_share":{},"reads":{}}}"#,
            applied.batches,
            passes,
            applied.dirty as f64 / applied.batches as f64,
            fresh.len() - (fresh.len() as f64 * TAIL_PCT / 100.0).ceil() as usize,
            report.failed as f64 / report.sent.max(1) as f64,
            report.to_json(f64::INFINITY)
        ),
    );
    Ok(())
}

/// The traced run: one pass through `StreamProcessor` untraced (the
/// reference), then the same pass from the same start with
/// `apply_batch` spelled out over the public layers it calls, each in a
/// span. Both passes must end with bit-identical tables.
fn traced(
    args: &Args,
    s: &Setup,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let batches: Vec<&[TemporalEdge]> = s.suffix.chunks(INGEST_BATCH).collect();

    let mut reference = restart(&s.checkpoint, &s.prefix, args.seed)?;
    let log = dir.join("reference.ehnl");
    let mut writer = EdgeLogWriter::create(&log).map_err(|e| e.to_string())?;
    let mut reader = EdgeLogReader::open(&log).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for batch in &batches {
        writer.append(batch).map_err(|e| e.to_string())?;
        let got =
            reader.next_batch().map_err(|e| e.to_string())?.ok_or("appended batch not readable")?;
        reference.apply_batch(&got).map_err(|e| e.to_string())?;
        swap(&s.engine, reference.embeddings())?;
    }
    let reference_s = t0.elapsed().as_secs_f64();

    let (mut graph, model, mut emb) = restart(&s.checkpoint, &s.prefix, args.seed)?.into_parts();
    let mut model = Some(model);
    let planner = RefreshPlanner::for_config(&model.as_ref().expect("model").config);
    let log = dir.join("traced.ehnl");
    let mut writer = EdgeLogWriter::create(&log).map_err(|e| e.to_string())?;
    let mut reader = EdgeLogReader::open(&log).map_err(|e| e.to_string())?;
    let (mut edges, mut dirty, mut keyed) = (0usize, 0usize, 0usize);
    for (b, batch) in batches.iter().enumerate() {
        let req = b as u64;
        let (next_graph, next_model, rows) =
            tracer.span("stream.batch", req, |t| -> Result<_, String> {
                t.span("stream.wal.append", req, |_| writer.append(batch))
                    .map_err(|e| e.to_string())?;
                let got = t
                    .span("stream.wal.read", req, |_| reader.next_batch())
                    .map_err(|e| e.to_string())?
                    .ok_or("appended batch not readable")?;
                let grown = t
                    .span("tgraph.append", req, |_| graph.with_edges_appended(&got))
                    .map_err(|e| e.to_string())?;
                let plan = t.span("stream.refresh.plan", req, |_| planner.plan(&grown, &got));
                let taken = model.take().expect("model is put back after every batch");
                let mut trainer =
                    t.span("core.rebind", req, |_| Trainer::from_model(&grown, taken))?;
                let pairs: Vec<_> = got.iter().map(|e| (e.src, e.dst, e.t)).collect();
                t.span("core.finetune", req, |_| {
                    trainer.train_batch(&pairs, req.wrapping_mul(1_009))
                });
                t.span("core.refresh_rows", req, |_| trainer.refresh_rows(&mut emb, &plan.dirty))?;
                let trained = trainer.into_model();
                t.span("serve.engine.swap", req, |_| swap(&s.engine, &emb))?;
                edges += got.len();
                dirty += plan.dirty.len();
                Ok((grown, trained, plan.dirty))
            })?;
        graph = next_graph;
        // Walk sampling over the dirty rows, as `refresh_rows` does it,
        // measured on its own outside the batch span.
        let sampler = NeighborhoodSampler::new(
            &graph,
            next_model.walk_config(&graph),
            next_model.config.num_walks,
        );
        model = Some(next_model);
        tracer.span("walks.sample_keyed", req, |_| {
            for &v in &rows {
                let t_ref = graph
                    .latest_interaction(v)
                    .map_or(Timestamp::MAX, |e| Timestamp(e.t.raw().saturating_add(1)));
                keyed += sampler.sample_keyed(v, t_ref, args.seed).walks.len();
            }
        });
    }
    out.check(
        "the traced replica ends bit-identical to StreamProcessor",
        emb.as_slice()
            .iter()
            .zip(reference.embeddings().as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
    );

    let totals = tracer.totals();
    let n = batches.len() as f64;
    let per_batch_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / n / 1e3);
    for (metric, span) in [
        ("stream.wal.append_us", "stream.wal.append"),
        ("stream.wal.read_us", "stream.wal.read"),
        ("tgraph.append_us", "tgraph.append"),
        ("stream.refresh.plan_us", "stream.refresh.plan"),
        ("core.finetune_us", "core.finetune"),
        ("core.refresh_rows_us", "core.refresh_rows"),
        ("walks.sample_keyed_us", "walks.sample_keyed"),
        ("serve.engine.swap_us", "serve.engine.swap"),
        ("stream.unattributed_us", "stream.batch"),
    ] {
        out.metric(metric, per_batch_us(span));
    }
    out.metric("stream.refresh.dirty_per_edge", dirty as f64 / edges.max(1) as f64);
    let traced_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "stream.batch")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    out.metric("trace.overhead_share", traced_s / reference_s - 1.0);
    out.attempted = batches.len() as u64;
    out.record(
        "trace",
        format!(
            r#"{{"batches":{},"untraced_pass_s":{reference_s},"traced_pass_s":{traced_s},"rebind_us":{},"unattributed_share":{},"keyed_walks":{keyed},"note":"per-layer values are microseconds per batch; walks.sample_keyed is measured outside the batch span"}}"#,
            batches.len(),
            per_batch_us("core.rebind"),
            per_batch_us("stream.batch") * n / 1e6 / traced_s
        ),
    );
    Ok(())
}

//! End-to-end benchmark of the EHNA workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train|serve|stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! the outputs, and prints one JSON result as the last line of standard
//! output. With `--trace 0` the result holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics of a separate run in
//! which the benchmark wraps each call it makes into a layer in a span.
//! A record of the run (host, commit, toolchain, seed, every rate step
//! and check) is printed on the line before and written under
//! `.bench_runs/`, next to the spans of a traced run. See `README.md`.

mod load;
mod serve;
mod stats;
mod stream;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every untraced run reports, with units. Their
/// meaning on each workload is in `README.md`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics every traced run reports; a layer the workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("walks.sample_s", "s"),
    ("walks.steps_per_walk", "ratio"),
    ("trainer.compute_s", "s"),
    ("trainer.stall_s", "s"),
    ("core.aggregate_s", "s"),
    ("core.fallback_s", "s"),
    ("nn.loss_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.optim_s", "s"),
    ("core.fallback_share", "ratio"),
    ("walks.infer_sample_s", "s"),
    ("core.infer_aggregate_s", "s"),
    ("eval.linkpred_s", "s"),
    ("datasets.generate_s", "s"),
    ("train.unattributed_s", "s"),
    ("serve.server.handle_us", "us"),
    ("serve.engine.knn_us", "us"),
    ("serve.index.search_us", "us"),
    ("tgraph.quant.scan_us", "us"),
    ("serve.index.candidates_per_query", "count"),
    ("cluster.router.handle_us", "us"),
    ("cluster.proto.roundtrip_us", "us"),
    ("cluster.router.cache_hit_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.overloads", "count"),
    ("tgraph.quant.encode_s", "s"),
    ("cluster.plan_s", "s"),
    ("serve.index.build_s", "s"),
    ("stream.wal.append_us", "us"),
    ("stream.wal.read_us", "us"),
    ("tgraph.append_us", "us"),
    ("stream.refresh.plan_us", "us"),
    ("stream.refresh.dirty_per_edge", "ratio"),
    ("core.finetune_us", "us"),
    ("core.refresh_rows_us", "us"),
    ("walks.sample_keyed_us", "us"),
    ("serve.engine.swap_us", "us"),
    ("stream.unattributed_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a workload hands back: metrics, correctness checks and the
/// extra fields of the run record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    record: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("correctness check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Add a field to the run record; `json` must be valid JSON.
    pub fn record(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.record.push((key.into(), json.into()));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Start a new peak-RSS window for the measured phase, and return the
/// set-up's peak (MiB) for the record. Set-up allocations (training
/// tapes, tables being encoded, the discarded earlier set-ups) would
/// otherwise set the peak, and how much of them the allocator keeps
/// varies from run to run; free heap pages are handed back first.
pub fn start_measured_rss() -> f64 {
    let setup_peak = peak_rss_mb();
    release_free_heap();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset the peak RSS counter ({e}); peak_rss_mb includes set-up");
    }
    setup_peak
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes a byte count, touches only the
    // allocator's own free lists, and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A scratch directory for one run's files, inside the working directory.
pub fn scratch_dir(args: &Args) -> std::io::Result<PathBuf> {
    let dir = runs_dir().join(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn runs_dir() -> PathBuf {
    PathBuf::from(".bench_runs")
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn json_str(s: &str) -> String {
    ehna_serve::Json::Str(s.to_string()).to_string()
}

fn metrics_json(names: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn write_record(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <train|serve|stream> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(runs_dir()) {
        eprintln!("cannot create {}: {e}", runs_dir().display());
        return ExitCode::FAILURE;
    }
    let mut tracer = trace::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "train" => train::run(&args, &mut tracer),
        "serve" => serve::run(&args, &mut tracer),
        "stream" => stream::run(&args, &mut tracer),
        other => Err(format!("unknown workload '{other}' (train|serve|stream)")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} workload failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        out.metric("trace.spans", tracer.spans().len() as f64);
    } else {
        out.metric("peak_rss_mb", peak_rss_mb());
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            out.check(format!("{name} is measured and nonzero"), v.is_finite() && v > 0.0);
        }
    }
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if args.trace {
        let path = runs_dir().join(format!("{stem}.spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let correct = out.correct();
    let metrics = metrics_json(names, &out.metrics);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok)| format!("{{\"check\":{},\"ok\":{ok}}}", json_str(n)))
        .collect();
    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("host_cpus".into(), host_cpus.to_string()),
        ("commit".into(), json_str(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc".into(), json_str(&command_line("rustc", &["--version"]))),
        ("metrics".into(), metrics.clone()),
        ("checks".into(), format!("[{}]", checks.join(","))),
    ];
    record.append(&mut out.record);
    let record: Vec<String> = record.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let record = format!("{{{}}}", record.join(","));
    write_record(&runs_dir().join(format!("{stem}.json")), &record);
    println!("{record}");
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{metrics}}}"#,
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

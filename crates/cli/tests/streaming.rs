//! End-to-end streaming: train on a prefix of a temporal network, serve
//! the snapshot, ingest the suffix into an edge log in batches, and
//! stream it back — incremental refreshes hot-swapping the live server
//! with zero downtime while clients keep querying.

use ehna_serve::{query_lines, Json};
use ehna_tgraph::{NodeEmbeddings, QuantizedEmbeddings};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const NUM_NODES: u32 = 10;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn run_cli(list: &[&str]) -> String {
    let mut buf = Vec::new();
    ehna_cli::run(&args(list), &mut buf)
        .unwrap_or_else(|e| panic!("`ehna {}` failed: {}", list.join(" "), e.message));
    String::from_utf8(buf).expect("utf8")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ehna_e2e_{name}_{}", std::process::id()))
}

/// Dense-ish two-community network. The prefix (rounds 0..4) touches
/// every node — including the max id — so the checkpoint covers the
/// whole table; the suffix (rounds 4..8) arrives via the edge log.
fn write_edge_files(prefix: &PathBuf, suffix: &PathBuf) {
    let mut pre = String::new();
    let mut suf = String::new();
    for round in 0u32..8 {
        let out = if round < 4 { &mut pre } else { &mut suf };
        for i in 0..NUM_NODES {
            for j in (i + 1)..NUM_NODES {
                let same = (i < 5) == (j < 5);
                if (i + j + round) % 3 == 0 && (same || round % 2 == 0) {
                    out.push_str(&format!("{i} {j} {}\n", round * 100 + i + j));
                }
            }
        }
    }
    std::fs::write(prefix, pre).unwrap();
    std::fs::write(suffix, suf).unwrap();
}

fn max_row_dist(a: &NodeEmbeddings, b: &NodeEmbeddings) -> f32 {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.dim(), b.dim());
    (0..a.num_nodes())
        .map(|v| {
            let (ra, rb) =
                (a.get(ehna_tgraph::NodeId(v as u32)), b.get(ehna_tgraph::NodeId(v as u32)));
            ra.iter().zip(rb).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        })
        .fold(0.0f32, f32::max)
}

#[test]
fn train_ingest_stream_reload_round_trip() {
    let prefix = tmp("prefix.txt");
    let suffix = tmp("suffix.txt");
    let ckpt = tmp("ckpt.bin");
    let snap = tmp("snap.bin");
    let snap_full = tmp("snap_full.bin");
    let log = tmp("edges.wal");
    for f in [&ckpt, &snap, &snap_full, &log] {
        let _ = std::fs::remove_file(f);
    }
    write_edge_files(&prefix, &suffix);

    // 1. Train on the prefix, keeping the checkpoint for streaming.
    let arch = ["--dim", "8", "--walks", "2", "--walk-length", "2", "--seed", "7"];
    let mut train_args = vec![
        "train",
        prefix.to_str().unwrap(),
        "--method",
        "ehna",
        "--epochs",
        "1",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ];
    train_args.extend_from_slice(&arch);
    run_cli(&train_args);

    // 2. Serve the trained snapshot on an ephemeral port.
    let server = ehna_cli::commands::serve::prepare(
        &args(&[snap.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "2"]),
        &mut Vec::new(),
    )
    .unwrap();
    let handle = server.server.spawn().unwrap();
    let addr = handle.addr().to_string();

    // 3. Ingest the suffix into the edge log in small batches.
    let out =
        run_cli(&["ingest", log.to_str().unwrap(), suffix.to_str().unwrap(), "--batch", "20"]);
    assert!(out.contains("records"), "ingest output: {out}");

    // 4. Clients hammer the server for the whole streaming window; every
    //    response must be well-formed — reloads may never break a query.
    let done = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let done = Arc::clone(&done);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let node = (c * 3) % NUM_NODES as usize;
                    let reqs = [
                        format!(r#"{{"op":"knn","node":"{node}","k":3}}"#),
                        r#"{"op":"score","pairs":[["1","2"]]}"#.to_string(),
                    ];
                    let responses = query_lines(addr.as_str(), &reqs).expect("query io");
                    for r in &responses {
                        let json = Json::parse(r).expect("well-formed response");
                        assert_eq!(json.get("ok"), Some(&Json::Bool(true)), "response: {r}");
                    }
                    served += responses.len();
                }
                served
            })
        })
        .collect();

    // 5. Stream the log with a frozen model (pure re-aggregation),
    //    rewriting the snapshot and hot-swapping the server per batch.
    let mut stream_args = vec![
        "stream",
        log.to_str().unwrap(),
        "--base",
        prefix.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--finetune-steps",
        "0",
        "--once",
        "--reload",
        &addr,
    ];
    stream_args.extend_from_slice(&arch);
    let out = run_cli(&stream_args);
    assert!(out.contains("served version"), "stream output: {out}");

    done.store(true, Ordering::Relaxed);
    let total_served: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total_served > 0, "clients never got a response in");

    // 6. The server must now be past the boot snapshot, one reload per
    //    batch, still healthy.
    let batches = out.matches("batch ").count() as f64;
    assert!(batches >= 2.0, "want multiple streamed batches, got: {out}");
    let stats_resp = query_lines(addr.as_str(), &[r#"{"op":"stats"}"#.to_string()]).unwrap();
    let stats = Json::parse(&stats_resp[0]).unwrap();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(stats.get("reloads").and_then(Json::as_f64), Some(batches));
    assert_eq!(stats.get("snapshot_version").and_then(Json::as_f64), Some(batches + 1.0));
    assert!(stats.get("last_reload_unix").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
    handle.shutdown();

    // 7. Tolerance: the incrementally-refreshed table must match a run
    //    that rebuilds every row on every batch (the documented frozen-
    //    model equivalence bound; see DESIGN.md and the ehna-stream
    //    refresh_equivalence tests).
    let mut full_args = vec![
        "stream",
        log.to_str().unwrap(),
        "--base",
        prefix.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        snap_full.to_str().unwrap(),
        "--finetune-steps",
        "0",
        "--full-rebuild-every",
        "1",
        "--once",
    ];
    full_args.extend_from_slice(&arch);
    run_cli(&full_args);
    let load = |path: &PathBuf| QuantizedEmbeddings::open_path(path, false).unwrap().decode_all();
    let (incremental, rebuilt) = (load(&snap), load(&snap_full));
    let dist = max_row_dist(&incremental, &rebuilt);
    assert!(dist < 1e-4, "incremental drifted {dist} from full rebuild");

    for f in [&prefix, &suffix, &ckpt, &snap, &snap_full, &log] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_file(tmp("ckpt.bin.bak"));
}

//! End-to-end CLI flow: generate → stats → train → evaluate, all through
//! the library entry point (no subprocesses).

use ehna_cli::method::{ehna_config, TrainOptions};
use ehna_cli::run;
use ehna_core::{EhnaVariant, Trainer};
use ehna_serve::EmbeddingStore;
use ehna_tgraph::{read_edge_list_path, QuantFormat, QuantizedEmbeddings};

fn cli(args: &[&str]) -> Result<String, String> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&v, &mut out).map_err(|e| e.message)?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

#[test]
fn generate_stats_train_evaluate_pipeline() {
    let dir = std::env::temp_dir();
    let net = dir.join("ehna_e2e_net.txt");
    let snap = dir.join("ehna_e2e_emb.bin");
    let net_s = net.to_str().unwrap();
    let snap_s = snap.to_str().unwrap();

    // 1. generate
    let out =
        cli(&["generate", "--dataset", "digg", "--scale", "tiny", "--seed", "5", "--out", net_s])
            .expect("generate");
    assert!(out.contains("digg-like"));

    // 2. stats
    let out = cli(&["stats", net_s]).expect("stats");
    assert!(out.contains("temporal edges"));

    // 3. train (cheap method for test speed)
    let out =
        cli(&["train", net_s, "--method", "line", "--dim", "16", "--epochs", "1", "--out", snap_s])
            .expect("train");
    assert!(out.contains("wrote"));
    let emb = QuantizedEmbeddings::open_path(&snap, false).expect("snapshot");
    assert_eq!(emb.format(), QuantFormat::F32);
    assert_eq!(emb.dim(), 16);

    // 4. link prediction evaluation
    let out = cli(&["linkpred", net_s, "--method", "line", "--dim", "16", "--epochs", "1"])
        .expect("linkpred");
    assert!(out.contains("Weighted-L2"));

    // 5. reconstruction evaluation
    let out = cli(&[
        "reconstruct",
        net_s,
        "--method",
        "line",
        "--dim",
        "16",
        "--epochs",
        "1",
        "--p",
        "50,200",
        "--sample-nodes",
        "120",
        "--repetitions",
        "2",
    ])
    .expect("reconstruct");
    assert!(out.contains("P=200"));

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn cli_errors_are_actionable() {
    // Unknown method names the valid set.
    let err =
        cli(&["train", "/tmp/nonexistent.txt", "--method", "gcn", "--out", "/tmp/x"]).unwrap_err();
    assert!(err.contains("node2vec"), "{err}");
    // Missing file is a runtime error mentioning io.
    let err = cli(&["stats", "/definitely/missing.txt"]).unwrap_err();
    assert!(err.contains("io error"), "{err}");
}

#[test]
fn trained_artifact_maps_zero_copy() {
    // `ehna train --out` writes the lossless EHNQ f32 table, so the file
    // a training run leaves behind is served memory-mapped, and every
    // served row is the trainer's own inference row bit for bit.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let net = dir.join(format!("ehna_e2e_mmap_net_{pid}.txt"));
    let snap = dir.join(format!("ehna_e2e_mmap_emb_{pid}.bin"));
    let net_s = net.to_str().unwrap();
    cli(&["generate", "--dataset", "dblp", "--scale", "tiny", "--seed", "3", "--out", net_s])
        .expect("generate");
    let mut argv = vec!["train", net_s, "--out", snap.to_str().unwrap()];
    argv.extend("--method ehna --seed 5 --dim 8 --epochs 1 --walks 2 --walk-length 3".split(' '));
    cli(&argv).expect("train");

    let graph = read_edge_list_path(&net).expect("edge list");
    let opts = TrainOptions {
        dim: 8,
        epochs: 1,
        num_walks: 2,
        walk_length: 3,
        seed: 5,
        ..Default::default()
    };
    let mut trainer = Trainer::new(&graph, ehna_config(EhnaVariant::Full, &opts)).expect("config");
    trainer.train();
    let expected = trainer.embeddings();

    let store = EmbeddingStore::open_with(&snap, None, true).expect("open");
    if cfg!(unix) {
        assert!(store.is_mmap(), "the trained artifact was read onto the heap");
    }
    assert_eq!(store.format_label(), "f32");
    assert_eq!((store.num_nodes(), store.dim()), (expected.num_nodes(), expected.dim()));
    for v in graph.nodes() {
        let served: Vec<u32> = store.row(v).unwrap().iter().map(|x| x.to_bits()).collect();
        let trained: Vec<u32> = expected.get(v).iter().map(|x| x.to_bits()).collect();
        assert_eq!(served, trained, "row {v:?}");
    }
    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(snap);
}

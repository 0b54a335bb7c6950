//! End-to-end serving pipeline: train a tiny model with the real CLI,
//! export the snapshot plus a name map, serve it over TCP, and query it
//! back over the wire — then hold the IVF index to the paper-grade
//! recall bar on a 10k-node synthetic snapshot.

use ehna_serve::{
    query_lines, BruteForceIndex, EmbeddingStore, EngineConfig, IvfConfig, IvfIndex, Json,
    KnnIndex, QueryEngine, Server,
};
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

/// Run the `ehna` CLI in-process, capturing stdout.
fn ehna(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    ehna_cli::run(&args, &mut buf).unwrap_or_else(|e| panic!("ehna {args:?} failed: {e}"));
    String::from_utf8(buf).expect("utf8 output")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ehna_e2e_{}_{name}", std::process::id()))
}

/// The whole user journey: generate -> train -> serve -> query, with the
/// query leg going through a real TCP socket and node *names*.
#[test]
fn train_export_serve_query_round_trip() {
    let net = temp_path("net.txt");
    let emb = temp_path("emb.bin");
    let names = temp_path("names.txt");

    ehna(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--out",
        net.to_str().unwrap(),
    ]);
    let train_out = ehna(&[
        "train",
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
        "4",
        "--out",
        emb.to_str().unwrap(),
    ]);
    assert!(train_out.contains("wrote"), "train output: {train_out}");

    // Name every node, as a real export pipeline would.
    let snapshot = QuantizedEmbeddings::open_path(&emb, false).expect("trained snapshot loads");
    let name_lines: Vec<String> = (0..snapshot.num_nodes()).map(|v| format!("author{v}")).collect();
    std::fs::write(&names, name_lines.join("\n") + "\n").expect("write names");

    // Serve on an ephemeral port, in a thread, via the real CLI path.
    let mut banner = Vec::new();
    let server = ehna_cli::commands::serve::prepare(
        &[
            emb.to_str().unwrap().to_string(),
            "--names".into(),
            names.to_str().unwrap().into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
        ],
        &mut banner,
    )
    .expect("serve prepares");
    let handle = server.server.spawn().expect("serve spawns");
    let banner = String::from_utf8(banner).unwrap();
    assert!(banner.contains("loaded 250 x 8 snapshot"), "banner: {banner}");

    // Query the live server by name over the wire.
    let responses = query_lines(
        handle.addr(),
        &[
            r#"{"op":"ping"}"#.to_string(),
            r#"{"op":"knn","node":"author3","k":5}"#.to_string(),
            r#"{"op":"score","pairs":[["author0","author1"],["author0","author0"]]}"#.to_string(),
            r#"{"op":"knn","node":"author3","k":5,"explain":true}"#.to_string(),
        ],
    )
    .expect("wire round trip");
    assert_eq!(responses.len(), 4);

    let knn = Json::parse(&responses[1]).expect("knn response is json");
    assert_eq!(knn.get("ok"), Some(&Json::Bool(true)), "knn failed: {}", responses[1]);
    let neighbors = knn.get("neighbors").and_then(Json::as_arr).expect("neighbors");
    assert_eq!(neighbors.len(), 5);
    // Self is excluded and labels resolve through the name map.
    for n in neighbors {
        let label = n.get("node").and_then(Json::as_str).expect("node label");
        assert_ne!(label, "author3");
        assert!(label.starts_with("author"), "unexpected label {label}");
    }

    let score = Json::parse(&responses[2]).expect("score response is json");
    let scores = score.get("scores").and_then(Json::as_arr).expect("scores");
    // Eq. 5 distance of a node to itself is exactly zero.
    assert_eq!(scores[1].as_f64(), Some(0.0));

    let explained = Json::parse(&responses[3]).expect("explain response is json");
    assert!(explained.get("explain").is_some(), "no explain block: {}", responses[3]);

    // The CLI query client sees the same thing the raw protocol does.
    let cli_out =
        ehna(&["query", "--addr", &handle.addr().to_string(), "--node", "author3", "--k", "3"]);
    assert!(cli_out.contains("author"), "query output: {cli_out}");

    handle.shutdown();
    for p in [net, emb, names] {
        let _ = std::fs::remove_file(p);
    }
}

/// The same journey under the attention aggregator: `--aggregator attn`
/// must train, export, and serve through the identical pipeline — the
/// aggregator is a training-time choice that leaves no trace in the
/// snapshot format.
#[test]
fn train_attn_aggregator_round_trip() {
    let net = temp_path("attn_net.txt");
    let emb = temp_path("attn_emb.bin");

    ehna(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--out",
        net.to_str().unwrap(),
    ]);
    let train_out = ehna(&[
        "train",
        net.to_str().unwrap(),
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
        "4",
        "--out",
        emb.to_str().unwrap(),
    ]);
    assert!(train_out.contains("wrote"), "train output: {train_out}");

    let snapshot =
        QuantizedEmbeddings::open_path(&emb, false).expect("trained snapshot loads").decode_all();
    assert_eq!(snapshot.dim(), 8);
    assert!(
        snapshot.as_slice().iter().all(|v| v.is_finite()),
        "attn-trained snapshot contains non-finite values"
    );

    // Serve + query over the wire, same path as the LSTM journey.
    let mut banner = Vec::new();
    let server = ehna_cli::commands::serve::prepare(
        &[emb.to_str().unwrap().to_string(), "--addr".into(), "127.0.0.1:0".into()],
        &mut banner,
    )
    .expect("serve prepares");
    let handle = server.server.spawn().expect("serve spawns");
    let responses = query_lines(handle.addr(), &[r#"{"op":"knn","node":"3","k":5}"#.to_string()])
        .expect("wire round trip");
    let knn = Json::parse(&responses[0]).expect("knn response is json");
    assert_eq!(knn.get("ok"), Some(&Json::Bool(true)), "knn failed: {}", responses[0]);
    assert_eq!(knn.get("neighbors").and_then(Json::as_arr).map(|n| n.len()), Some(5));

    handle.shutdown();
    for p in [net, emb] {
        let _ = std::fs::remove_file(p);
    }
}

/// Draw a clustered 10k-node snapshot: points around random blob centers,
/// the regime IVF is built for (and the shape real embeddings take).
fn clustered_embeddings(n: usize, dim: usize, blobs: usize, seed: u64) -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> =
        (0..blobs).map(|_| (0..dim).map(|_| rng.gen_range(-8.0f32..8.0)).collect()).collect();
    let mut data = Vec::with_capacity(n * dim);
    for v in 0..n {
        let c = &centers[v % blobs];
        data.extend(c.iter().map(|x| x + rng.gen_range(-0.5f32..0.5)));
    }
    NodeEmbeddings::from_vec(dim, data)
}

/// Acceptance bar from the issue: IVF top-10 recall >= 0.95 against the
/// brute-force oracle on a 10k-node snapshot, measured over the wire.
#[test]
fn ivf_recall_meets_bar_on_10k_nodes() {
    const N: usize = 10_000;
    const K: usize = 10;
    let emb = temp_path("recall10k.bin");
    let table = clustered_embeddings(N, 16, 64, 0xE47);
    QuantizedEmbeddings::encode(&table, &QuantSpec::new(QuantFormat::F32))
        .and_then(|q| q.save_path(&emb))
        .expect("save snapshot");

    let store = Arc::new(EmbeddingStore::open(emb.to_str().unwrap(), None).expect("open"));
    let brute = BruteForceIndex::new(Arc::clone(&store));
    let ivf = IvfIndex::build(Arc::clone(&store), IvfConfig::default());
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Box::new(ivf),
        EngineConfig { workers: 2, cache_capacity: 0 },
    ));
    let handle = Server::bind("127.0.0.1:0", engine).expect("bind").spawn().expect("spawn");

    // 100 evenly spread probe nodes, queried over TCP.
    let probes: Vec<u32> = (0..100).map(|i| (i * 97) as u32 % N as u32).collect();
    let requests: Vec<String> =
        probes.iter().map(|v| format!(r#"{{"op":"knn","node":{v},"k":{K}}}"#)).collect();
    let responses = query_lines(handle.addr(), &requests).expect("wire round trip");

    let mut hits = 0usize;
    for (v, line) in probes.iter().zip(&responses) {
        let resp = Json::parse(line).expect("json");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "failed: {line}");
        let approx: Vec<u32> = resp
            .get("neighbors")
            .and_then(Json::as_arr)
            .expect("neighbors")
            .iter()
            .map(|n| n.get("id").and_then(Json::as_f64).expect("id") as u32)
            .collect();
        assert_eq!(approx.len(), K);
        // Exact ground truth (self excluded, like the engine does).
        let exact: Vec<u32> = brute
            .search(&store.row(NodeId(*v)).unwrap(), K + 1)
            .into_iter()
            .filter(|n| n.id.0 != *v)
            .take(K)
            .map(|n| n.id.0)
            .collect();
        hits += approx.iter().filter(|id| exact.contains(id)).count();
    }
    let recall = hits as f64 / (probes.len() * K) as f64;
    assert!(recall >= 0.95, "IVF top-{K} recall {recall:.3} < 0.95");

    handle.shutdown();
    let _ = std::fs::remove_file(emb);
}

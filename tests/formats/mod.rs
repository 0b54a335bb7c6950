//! One seeded artifact per binary format, shared by the format gates
//! (`format_bytes`, `format_corruption`).
//!
//! Every artifact is built from fixed inputs with no training step:
//! models are seeded initializations and the optimizer state comes from
//! one hand-fed Adam step, so the bytes depend on no kernel dispatch,
//! thread count or host.

use ehna_cluster::{ClusterManifest, Request, Response, ShardEntry};
use ehna_core::{EhnaConfig, Trainer};
use ehna_nn::optim::Adam;
use ehna_nn::ParamStore;
use ehna_stream::EdgeLogWriter;
use ehna_tgraph::quant::{QuantFormat, QuantSpec, QuantizedEmbeddings};
use ehna_tgraph::{GraphBuilder, NodeEmbeddings, NodeId, TemporalEdge, TemporalGraph, Timestamp};

/// `n` deterministic values in `[-1, 1)` (xorshift64, seeded).
pub fn values(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// A 40 x 8 embedding table.
pub fn embeddings() -> NodeEmbeddings {
    NodeEmbeddings::from_vec(8, values(1, 40 * 8))
}

/// The EHNQ image of [`embeddings`] in `format` (PQ: 4 sub-quantizers).
pub fn ehnq(format: QuantFormat) -> Vec<u8> {
    let spec = QuantSpec { pq_m: 4, pq_iters: 4, seed: 7, ..QuantSpec::new(format) };
    QuantizedEmbeddings::encode(&embeddings(), &spec).unwrap().as_bytes().to_vec()
}

/// Every EHNQ format.
pub const QUANT_FORMATS: [QuantFormat; 4] =
    [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq];

/// A two-tensor parameter store.
pub fn param_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.add_param("w", 3, 4, values(2, 12));
    store.add_param("bias", 1, 4, values(3, 4));
    store
}

/// Serialized [`param_store`].
pub fn param_store_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    param_store().save(&mut buf).unwrap();
    buf
}

/// An Adam blob after one step on fixed gradients.
pub fn adam_blob() -> Vec<u8> {
    let mut store = param_store();
    for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
        let grads = values(10 + i as u64, store.grad(id).len());
        store.grad_mut(id).copy_from_slice(&grads);
    }
    let mut adam = Adam::new(0.01);
    adam.step(&mut store);
    let mut buf = Vec::new();
    adam.save(&mut buf).unwrap();
    buf
}

/// A 7-node temporal graph.
pub fn graph() -> TemporalGraph {
    let mut b = GraphBuilder::new();
    for i in 0..6u32 {
        b.add_edge(i, (i + 1) % 7, i as i64, 1.0).unwrap();
        b.add_edge(i, (i + 3) % 7, i as i64 + 1, 1.0).unwrap();
    }
    b.build().unwrap()
}

/// The model configuration of [`checkpoint`].
pub fn config() -> EhnaConfig {
    EhnaConfig { dim: 4, num_walks: 2, walk_length: 2, batch_size: 8, ..EhnaConfig::tiny() }
}

/// An EHNC v3 checkpoint with trainer state, taken before any epoch.
pub fn checkpoint() -> Vec<u8> {
    let g = graph();
    let trainer = Trainer::new(&g, config()).unwrap();
    let mut buf = Vec::new();
    trainer.save_checkpoint(&mut buf).unwrap();
    buf
}

/// The three batches of [`edge_log`].
pub fn edge_batches() -> Vec<Vec<TemporalEdge>> {
    let e =
        |a: u32, b: u32, t: i64, w: f64| TemporalEdge::new(NodeId(a), NodeId(b), Timestamp(t), w);
    vec![
        vec![e(0, 1, 10, 1.0), e(1, 2, 11, 0.5)],
        vec![e(2, 3, 12, 2.0)],
        vec![e(3, 4, 13, 1.5), e(4, 0, 14, 0.25), e(0, 2, 15, 3.0)],
    ]
}

/// An EHNL log holding [`edge_batches`], written under `name` in the
/// temp directory and read back.
pub fn edge_log(name: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("ehna-{name}-{}.log", std::process::id()));
    let mut w = EdgeLogWriter::create(&path).unwrap();
    for batch in edge_batches() {
        w.append(&batch).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// A two-shard manifest.
pub fn manifest() -> ClusterManifest {
    let shard = |i: u64, nodes: u64| ShardEntry {
        snapshot: format!("shard_{i}.bin"),
        names: format!("shard_{i}.names"),
        nodes,
        snapshot_fnv: 0x1234_5678_9abc_def0 ^ i,
        names_fnv: 0x0fed_cba9_8765_4321 ^ i,
    };
    ClusterManifest {
        num_shards: 2,
        total_nodes: 7,
        dim: 8,
        shards: vec![shard(0, 4), shard(1, 3)],
    }
}

/// One request of every EHNP kind.
pub fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Knn { k: 5, explain: true, vector: values(4, 8) },
        Request::Resolve { key: "author3".into() },
        Request::GetRow { local: 17 },
        Request::Stats,
        Request::Reload,
    ]
}

/// One response of every EHNP kind (both arms of the optional fields).
pub fn responses() -> Vec<Response> {
    vec![
        Response::Error("unknown node \"x\"".into()),
        Response::Pong { version: 9 },
        Response::Knn {
            neighbors: vec![(1, 0.5, "a".into()), (4, 2.25, "author4".into())],
            info: Some((vec![0, 3], 120, 4)),
        },
        Response::Knn { neighbors: vec![], info: None },
        Response::Resolved { hit: Some((2, "author2".into(), values(5, 8))) },
        Response::Resolved { hit: None },
        Response::Row { local: 3, label: "author6".into(), row: values(6, 8) },
        Response::StatsText("{\"ok\":true}".into()),
        Response::Reloaded { version: 2, nodes: 40 },
    ]
}

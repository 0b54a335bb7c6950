//! Serving index equivalence: an IVF index probing every list must rank
//! exactly like the brute-force oracle — same ids, same distance bits —
//! for the dense store and every EHNQ format. IVF scores its lists 16
//! rows at a time from blocked copies of the codes, brute force scores
//! one row at a time, so this pins the block kernels to the per-row
//! distance contract on ragged list lengths (partial last blocks).

use ehna::tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use ehna_serve::{BruteForceIndex, EmbeddingStore, IvfConfig, IvfIndex, KnnIndex};
use std::sync::Arc;

const DIM: usize = 12;

/// 150 rows: a third on a coarse integer grid (dozens of exact ties),
/// the rest spread out, so k-means lists come out at uneven lengths.
/// The spread rows scale each dimension by a different power of two, so
/// their f64 sums round, and a summation order other than the pinned
/// one changes distance bits.
fn table() -> NodeEmbeddings {
    let data = (0..150 * DIM)
        .map(|i| {
            let (row, d) = (i / DIM, i % DIM);
            if row % 3 == 0 {
                ((row * 7 + d * 3) % 5) as f32
            } else {
                (((row * 31 + d * 17) % 101) as f32 * 0.37 - 18.0) * (1 << (d % 7)) as f32
            }
        })
        .collect();
    NodeEmbeddings::from_vec(DIM, data)
}

fn stores(emb: &NodeEmbeddings) -> Vec<Arc<EmbeddingStore>> {
    let mut stores = vec![Arc::new(EmbeddingStore::new(emb.clone(), None).unwrap())];
    for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq] {
        let spec = QuantSpec { pq_m: 4, ..QuantSpec::new(format) };
        let q = QuantizedEmbeddings::encode(emb, &spec).unwrap();
        stores.push(Arc::new(EmbeddingStore::from_quant(q, None).unwrap()));
    }
    stores
}

#[test]
fn full_probe_ivf_ranks_bit_identically_to_brute_force() {
    let emb = table();
    for store in stores(&emb) {
        let format = store.format_label();
        let brute = BruteForceIndex::new(Arc::clone(&store));
        for clusters in [1usize, 3, 7, 12] {
            let config = |nprobe| IvfConfig {
                num_clusters: Some(clusters),
                nprobe,
                kmeans_iters: 6,
                ..Default::default()
            };
            let ivf = IvfIndex::build(Arc::clone(&store), config(clusters));
            // The same build probing one list reports that list's length.
            let single = IvfIndex::build(Arc::clone(&store), config(1));
            let mut ragged = false;
            for probe in 0..store.num_nodes() as u32 {
                let query = store.row(NodeId(probe)).unwrap().into_owned();
                let want = brute.search(&query, 20);
                let (got, info) = ivf.search_explained(&query, 20);
                assert_eq!(info.scanned, store.num_nodes(), "{format}: full probe");
                let key = |hits: &[ehna_serve::Neighbor]| -> Vec<(u32, u64)> {
                    hits.iter().map(|h| (h.id.0, h.dist.to_bits())).collect()
                };
                assert_eq!(key(&got), key(&want), "{format}, {clusters} lists, query {probe}");
                ragged |= single.search_explained(&query, 1).1.scanned % 16 != 0;
            }
            assert!(ragged, "{format}, {clusters} lists: no partial block was scored");
        }
    }
}

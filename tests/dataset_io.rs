//! Dataset generators round-tripped through the edge-list IO layer, and
//! embedding snapshots through files — the persistence story end to end.

use ehna::datasets::{generate, Dataset, Scale, ALL_DATASETS};
use ehna::tgraph::{
    read_edge_list, write_edge_list, GraphStats, NodeEmbeddings, NodeId, QuantFormat, QuantSpec,
    QuantizedEmbeddings,
};
use std::io::Cursor;

#[test]
fn every_dataset_roundtrips_through_edge_lists() {
    for d in ALL_DATASETS {
        let g = generate(d, Scale::Tiny, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write");
        let g2 = read_edge_list(Cursor::new(&buf)).expect("read");
        assert_eq!(g.num_edges(), g2.num_edges(), "{d:?}");
        // Isolated trailing nodes may drop on reload (no edges reference
        // them); active-node stats must match exactly.
        let (s1, s2) = (GraphStats::compute(&g), GraphStats::compute(&g2));
        assert_eq!(s1.num_active_nodes, s2.num_active_nodes, "{d:?}");
        assert_eq!(s1.num_static_edges, s2.num_static_edges, "{d:?}");
        assert_eq!(s1.min_time, s2.min_time, "{d:?}");
        assert_eq!(s1.max_time, s2.max_time, "{d:?}");
        for e in g.edges().iter().step_by(53) {
            assert!(g2.has_edge(e.src, e.dst), "{d:?}: lost edge {e:?}");
        }
    }
}

#[test]
fn embedding_snapshot_file_roundtrip() {
    let dir = std::env::temp_dir().join("ehna_it_snapshot.bin");
    let mut e = NodeEmbeddings::zeros(10, 8);
    for v in 0..10u32 {
        for (i, x) in e.get_mut(NodeId(v)).iter_mut().enumerate() {
            *x = (v as f32) * 0.1 + (i as f32) * 0.01;
        }
    }
    let q = QuantizedEmbeddings::encode(&e, &QuantSpec::new(QuantFormat::F32)).expect("encode");
    q.save_path(&dir).expect("save");
    for mmap in [false, true] {
        let back = QuantizedEmbeddings::open_path(&dir, mmap).expect("open");
        assert_eq!(back.decode_all(), e, "mmap = {mmap}");
    }
    let _ = std::fs::remove_file(dir);
}

#[test]
fn snapshot_view_consistent_with_split_training() {
    // The training graph of a temporal split must agree with a strict
    // snapshot view at the cutoff.
    use ehna::eval::temporal_split;
    use ehna::tgraph::{SnapshotView, Timestamp};
    let g = generate(Dataset::DblpLike, Scale::Tiny, 3);
    let split = temporal_split(&g, 0.2);
    let view = SnapshotView::strict(&g, Timestamp(split.cutoff));
    assert_eq!(view.num_edges(), split.train.num_edges());
    for v in g.nodes().step_by(17) {
        assert_eq!(view.degree(v), split.train.degree(v), "{v:?}");
    }
}

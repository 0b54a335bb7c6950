//! The shard planner: partition one EHNS embedding snapshot into N
//! shard snapshots plus a checksummed [`ClusterManifest`].
//!
//! Partitioning is round-robin by global row id: global `g` lands on
//! shard `g % N` at local index `g / N` (see
//! [`owner_of`]). Round-robin keeps shard
//! sizes within one row of each other for any table, and — because the
//! global→local map is monotone within a shard — makes shard-local id
//! order equal global id order, which is what lets the router merge
//! per-shard top-k lists with *exact* global tie-breaking.
//!
//! Every shard gets a names file of **global labels** (the source name
//! map's names, or decimal global ids for anonymous tables). Shards
//! resolve keys through names only, so a global decimal key can never be
//! misread as a shard-local row number, and shard responses can label
//! neighbors exactly as a single-node server would.

use crate::manifest::{owner_of, ClusterManifest, ShardEntry};
use crate::ClusterError;
use ehna_tgraph::ioutil::{atomic_write_path, fnv1a64};
use ehna_tgraph::{NameMap, NodeEmbeddings, NodeId, QuantizedEmbeddings};
use std::io::Write;
use std::path::Path;

/// File name of shard `i`'s embedding snapshot.
pub fn shard_snapshot_name(shard: u32) -> String {
    format!("shard_{shard}.bin")
}

/// File name of shard `i`'s names file.
pub fn shard_names_name(shard: u32) -> String {
    format!("shard_{shard}.names")
}

/// Partition `emb` (with optional `names`) into `num_shards` shard
/// snapshots under `out_dir`, and write `out_dir/cluster.manifest`.
/// Returns the manifest.
///
/// # Errors
/// [`ClusterError::Plan`] on invalid inputs (zero shards, a names file
/// of the wrong length); IO failures writing the shard files. More
/// shards than rows is *valid*: the extra shards hold zero rows.
pub fn plan_shards(
    emb: &NodeEmbeddings,
    names: Option<&NameMap>,
    num_shards: u32,
    out_dir: &Path,
) -> Result<ClusterManifest, ClusterError> {
    plan_with(emb.num_nodes(), emb.dim(), names, num_shards, out_dir, |globals| {
        let mut rows: Vec<f32> = Vec::with_capacity(globals.len() * emb.dim());
        for &global in globals {
            rows.extend_from_slice(emb.get(NodeId(global)));
        }
        Ok(NodeEmbeddings::from_vec(emb.dim(), rows).to_bytes())
    })
}

/// [`plan_shards`] over a quantized EHNQ table: each shard snapshot is an
/// EHNQ file in the *same* format as the source, with the source's
/// codebooks/scales copied verbatim and the shard's row codes sliced out
/// (never re-encoded). A shard row therefore scores bit-identically to
/// the same row in the standalone table, which keeps the router's
/// byte-identical equivalence gate intact for quantized clusters.
///
/// # Errors
/// Same failure modes as [`plan_shards`].
pub fn plan_shards_quant(
    q: &QuantizedEmbeddings,
    names: Option<&NameMap>,
    num_shards: u32,
    out_dir: &Path,
) -> Result<ClusterManifest, ClusterError> {
    plan_with(q.num_nodes(), q.dim(), names, num_shards, out_dir, |globals| {
        let rows: Vec<usize> = globals.iter().map(|&g| g as usize).collect();
        q.select_rows(&rows).map_err(|e| ClusterError::Plan(e.to_string()))
    })
}

/// The shared partitioning loop: `snapshot_bytes` maps one shard's
/// global row ids (ascending) to its serialized snapshot file.
fn plan_with(
    total: usize,
    dim: usize,
    names: Option<&NameMap>,
    num_shards: u32,
    out_dir: &Path,
    mut snapshot_bytes: impl FnMut(&[u32]) -> Result<Vec<u8>, ClusterError>,
) -> Result<ClusterManifest, ClusterError> {
    if num_shards == 0 {
        return Err(ClusterError::Plan("shard count must be at least 1".into()));
    }
    // Fewer rows than shards is allowed: some shards simply hold zero
    // rows (their knn answer is an empty list and the router's merge
    // ignores them). Refusing would make small or freshly-bootstrapped
    // tables unservable on a fixed-size cluster.
    if let Some(map) = names {
        if map.len() != total {
            return Err(ClusterError::Plan(format!(
                "name map has {} names but snapshot has {total} rows",
                map.len()
            )));
        }
    }
    std::fs::create_dir_all(out_dir).map_err(ClusterError::Io)?;

    let mut entries = Vec::with_capacity(num_shards as usize);
    for shard in 0..num_shards {
        // Walk globals in order; g % N == shard lands at local g / N, so
        // pushing in global order *is* pushing in local order.
        let globals: Vec<u32> = (shard..total as u32).step_by(num_shards as usize).collect();
        let mut shard_names = NameMap::new();
        for &global in &globals {
            debug_assert_eq!(owner_of(global, num_shards).0, shard);
            let label = match names.and_then(|m| m.name(NodeId(global))) {
                Some(name) => name.to_string(),
                None => global.to_string(),
            };
            shard_names.intern(&label);
        }
        let snap_bytes = snapshot_bytes(&globals)?;

        let snap_name = shard_snapshot_name(shard);
        let names_name = shard_names_name(shard);
        atomic_write_path(&out_dir.join(&snap_name), |w| w.write_all(&snap_bytes))
            .map_err(ClusterError::Io)?;
        let mut names_bytes = Vec::new();
        shard_names.save(&mut names_bytes).map_err(ClusterError::Io)?;
        atomic_write_path(&out_dir.join(&names_name), |w| w.write_all(&names_bytes))
            .map_err(ClusterError::Io)?;

        entries.push(ShardEntry {
            snapshot: snap_name,
            names: names_name,
            nodes: globals.len() as u64,
            snapshot_fnv: fnv1a64(&snap_bytes),
            names_fnv: fnv1a64(&names_bytes),
        });
    }

    let manifest =
        ClusterManifest { num_shards, total_nodes: total as u64, dim: dim as u32, shards: entries };
    manifest.save(out_dir)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_serve::EmbeddingStore;

    fn emb(n: usize, dim: usize) -> NodeEmbeddings {
        let data: Vec<f32> = (0..n * dim).map(|i| i as f32 * 0.5).collect();
        NodeEmbeddings::from_vec(dim, data)
    }

    #[test]
    fn round_robin_partition_covers_every_row_once() {
        let dir = std::env::temp_dir().join("ehna_cluster_plan_rr");
        let source = emb(10, 3);
        let m = plan_shards(&source, None, 4, &dir).unwrap();
        assert_eq!(m.num_shards, 4);
        assert_eq!(m.total_nodes, 10);
        assert_eq!(m.shards.iter().map(|s| s.nodes).sum::<u64>(), 10);
        // Shard sizes within one row of each other: 3,3,2,2.
        assert_eq!(m.shards.iter().map(|s| s.nodes).collect::<Vec<_>>(), vec![3, 3, 2, 2]);
        m.verify(&dir).unwrap();

        // Every global row appears at its computed (shard, local) slot,
        // bit-identical, labeled with its global id.
        for global in 0..10u32 {
            let (shard, local) = owner_of(global, 4);
            let store = EmbeddingStore::open(
                dir.join(&m.shards[shard as usize].snapshot),
                Some(dir.join(&m.shards[shard as usize].names)),
            )
            .unwrap();
            assert_eq!(store.row(NodeId(local)).unwrap(), source.get(NodeId(global)));
            assert_eq!(store.label(NodeId(local)), global.to_string());
            assert_eq!(store.resolve_name(&global.to_string()), Some(NodeId(local)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_tables_keep_their_names() {
        let dir = std::env::temp_dir().join("ehna_cluster_plan_named");
        let mut names = NameMap::new();
        for n in ["alice", "bob", "carol", "dave", "eve"] {
            names.intern(n);
        }
        let m = plan_shards(&emb(5, 2), Some(&names), 2, &dir).unwrap();
        // "carol" is global 2 -> shard 0, local 1.
        let store = EmbeddingStore::open(
            dir.join(&m.shards[0].snapshot),
            Some(dir.join(&m.shards[0].names)),
        )
        .unwrap();
        assert_eq!(store.resolve_name("carol"), Some(NodeId(1)));
        assert_eq!(store.resolve_name("bob"), None, "bob lives on shard 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let dir = std::env::temp_dir().join("ehna_cluster_plan_one");
        let source = emb(6, 2);
        let m = plan_shards(&source, None, 1, &dir).unwrap();
        let back = NodeEmbeddings::load_path(dir.join(&m.shards[0].snapshot)).unwrap();
        assert_eq!(back, source);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quant_plan_slices_codes_verbatim() {
        use ehna_tgraph::quant::{QuantFormat, QuantSpec};
        let dir = std::env::temp_dir().join("ehna_cluster_plan_quant");
        let source = emb(10, 4);
        for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8] {
            let q = QuantizedEmbeddings::encode(&source, &QuantSpec::new(format)).unwrap();
            let m = plan_shards_quant(&q, None, 3, &dir).unwrap();
            m.verify(&dir).unwrap();
            assert_eq!(m.shards.iter().map(|s| s.nodes).sum::<u64>(), 10);
            for global in 0..10u32 {
                let (shard, local) = owner_of(global, 3);
                let sq = QuantizedEmbeddings::open_path(
                    dir.join(&m.shards[shard as usize].snapshot),
                    false,
                )
                .unwrap();
                assert_eq!(sq.format(), format);
                // Decoded shard row == decoded global row, bit for bit.
                assert_eq!(
                    &*sq.row(local as usize),
                    &*q.row(global as usize),
                    "{format:?} global {global}"
                );
                // And the shard store resolves the global label.
                let store = EmbeddingStore::open(
                    dir.join(&m.shards[shard as usize].snapshot),
                    Some(dir.join(&m.shards[shard as usize].names)),
                )
                .unwrap();
                assert_eq!(store.resolve_name(&global.to_string()), Some(NodeId(local)));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_plans_are_refused() {
        let dir = std::env::temp_dir().join("ehna_cluster_plan_bad");
        assert!(plan_shards(&emb(3, 2), None, 0, &dir).is_err(), "zero shards");
        let mut short = NameMap::new();
        short.intern("only");
        assert!(plan_shards(&emb(3, 2), Some(&short), 2, &dir).is_err(), "short names");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_shards_than_rows_leaves_trailing_shards_empty() {
        let dir = std::env::temp_dir().join("ehna_cluster_plan_sparse");
        let source = emb(3, 2);
        let m = plan_shards(&source, None, 4, &dir).unwrap();
        assert_eq!(m.shards.iter().map(|s| s.nodes).collect::<Vec<_>>(), vec![1, 1, 1, 0]);
        m.verify(&dir).unwrap();
        // The empty shard's files open into a zero-row store.
        let store = EmbeddingStore::open(
            dir.join(&m.shards[3].snapshot),
            Some(dir.join(&m.shards[3].names)),
        )
        .unwrap();
        assert_eq!(store.num_nodes(), 0);
        // A fully empty table plans too (every shard empty).
        let m0 = plan_shards(&emb(0, 2), None, 2, &dir).unwrap();
        assert_eq!(m0.total_nodes, 0);
        m0.verify(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

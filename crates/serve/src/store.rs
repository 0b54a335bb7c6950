//! The immutable serving snapshot: one EHNQ row table (heap- or
//! mmap-backed; an in-memory dense table is held as its lossless `f32`
//! encoding) plus the optional name interner, loadable once and shared
//! across every worker and connection behind an `Arc`.

use crate::ServeError;
use ehna_tgraph::quant::{sq_dist_f64, QuantFormat, QuantScorer, QuantSpec, QuantizedEmbeddings};
use ehna_tgraph::{GraphError, NameMap, NodeEmbeddings, NodeId};
use std::borrow::Cow;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Longest accepted line in a names file, in bytes. Real node labels are
/// whitespace-split tokens; anything longer is a corrupt or hostile file
/// and fails before it is buffered whole.
pub const MAX_NAME_LEN: usize = 4096;

/// Canonical decimal form of a dense node id: non-empty, ASCII digits
/// only, no leading zeros (except `"0"` itself), within `u32` range.
///
/// This is the *only* string-to-id fallback the serving tier accepts.
/// Rust's `str::parse::<u32>` also accepts `"+3"` and `"007"`, which
/// would let distinct request keys alias one node and seed duplicate
/// entries in the version-keyed knn and router resolve caches — so the
/// parser is pinned here and shared by the standalone store and the
/// cluster router.
pub fn canonical_node_id(key: &str) -> Option<u32> {
    // u32::MAX is 10 digits; longer strings cannot be canonical.
    if key.is_empty() || key.len() > 10 {
        return None;
    }
    if !key.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    if key.len() > 1 && key.starts_with('0') {
        return None;
    }
    key.parse::<u32>().ok()
}

/// An immutable, shareable store over a trained embedding snapshot.
///
/// Every table is served from one [`QuantizedEmbeddings`]: an EHNQ
/// artifact as opened, a dense matrix as its lossless
/// [`QuantFormat::F32`] encoding, whose rows, distances and tie order
/// are the matrix's bit for bit.
///
/// Scoring follows the model's native metric (squared Euclidean distance,
/// paper Eq. 5): **lower scores mean stronger predicted links**, matching
/// the ranking `ehna-eval` produces, so serve-time answers agree with the
/// offline evaluation.
#[derive(Debug)]
pub struct EmbeddingStore {
    pub(crate) rows: QuantizedEmbeddings,
    names: Option<NameMap>,
}

impl EmbeddingStore {
    /// Wrap a dense embedding matrix, optionally with the name interner
    /// the graph was built with. The rows are encoded as EHNQ `f32`.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] if the name count differs from the row
    /// count, or the table does not fit EHNQ (`dim` above
    /// [`MAX_DIM`](ehna_tgraph::quant::MAX_DIM)).
    pub fn new(emb: NodeEmbeddings, names: Option<NameMap>) -> Result<Self, ServeError> {
        let rows = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F32))
            .map_err(|e| ServeError::Snapshot(e.to_string()))?;
        Self::from_quant(rows, names)
    }

    /// Wrap a quantized table, optionally with names.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] on a name/row count mismatch.
    pub fn from_quant(
        rows: QuantizedEmbeddings,
        names: Option<NameMap>,
    ) -> Result<Self, ServeError> {
        if let Some(ref map) = names {
            if map.len() != rows.num_nodes() {
                return Err(ServeError::Snapshot(format!(
                    "name map has {} names but snapshot has {} nodes",
                    map.len(),
                    rows.num_nodes()
                )));
            }
        }
        Ok(EmbeddingStore { rows, names })
    }

    /// Load a snapshot file (and optional names file) from disk into
    /// heap memory. Equivalent to [`EmbeddingStore::open_with`] with
    /// `mmap = false`.
    ///
    /// # Errors
    /// IO failures or malformed files.
    pub fn open<P: AsRef<Path>>(snapshot: P, names: Option<P>) -> Result<Self, ServeError> {
        Self::open_with(snapshot, names, false)
    }

    /// Load an EHNQ snapshot in any format, zero-copy mmap when `mmap`
    /// is set (which keeps open time O(1) in table size).
    ///
    /// The snapshot header is validated *first*, so the names file is
    /// read with hard caps derived from the declared row count: a
    /// malformed or oversized names file fails early with a typed error
    /// on both heap and mmap paths, before any row-count-sized
    /// allocation happens on its behalf.
    ///
    /// # Errors
    /// IO failures or malformed files.
    pub fn open_with<P: AsRef<Path>>(
        snapshot: P,
        names: Option<P>,
        mmap: bool,
    ) -> Result<Self, ServeError> {
        let rows =
            QuantizedEmbeddings::open_path(snapshot.as_ref(), mmap).map_err(|e| match e {
                GraphError::Io(e) => ServeError::Io(e),
                e => ServeError::Snapshot(e.to_string()),
            })?;
        let names = match names {
            Some(path) => Some(open_names(path.as_ref(), rows.num_nodes())?),
            None => None,
        };
        Self::from_quant(rows, names)
    }

    /// Number of serveable nodes.
    pub fn num_nodes(&self) -> usize {
        self.rows.num_nodes()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.rows.dim()
    }

    /// Storage format label for stats/logs (`"f32"`, `"f16"`, `"int8"`,
    /// `"pq"`).
    pub fn format_label(&self) -> &'static str {
        self.rows.format().label()
    }

    /// Whether rows are served from a memory-mapped file.
    pub fn is_mmap(&self) -> bool {
        self.rows.is_mmap()
    }

    /// Resolve a query key to a node: an interned name when a name map is
    /// loaded, else (or as fallback) a canonical decimal dense id — see
    /// [`canonical_node_id`] for what "canonical" rejects.
    pub fn resolve(&self, key: &str) -> Result<NodeId, ServeError> {
        if let Some(ref names) = self.names {
            if let Some(id) = names.get(key) {
                return Ok(id);
            }
        }
        if let Some(raw) = canonical_node_id(key) {
            if (raw as usize) < self.num_nodes() {
                return Ok(NodeId(raw));
            }
        }
        Err(ServeError::UnknownNode(key.to_string()))
    }

    /// Resolve a key through the name map only — no decimal-id fallback.
    ///
    /// Shard stores need this: their rows are locally indexed, so a
    /// *global* decimal key must never be misread as a local row number.
    /// The shard planner writes every shard a names file of global
    /// labels, and the router resolves numeric keys by ownership
    /// arithmetic instead.
    pub fn resolve_name(&self, key: &str) -> Option<NodeId> {
        self.names.as_ref().and_then(|names| names.get(key))
    }

    /// Display label for a node: its interned name when known, else the
    /// decimal id.
    pub fn label(&self, id: NodeId) -> String {
        match self.names.as_ref().and_then(|m| m.name(id)) {
            Some(name) => name.to_string(),
            None => id.index().to_string(),
        }
    }

    /// The row of `id`, decoded to f32 (borrowed when storage allows).
    ///
    /// # Errors
    /// [`ServeError::UnknownNode`] when out of range.
    pub fn row(&self, id: NodeId) -> Result<Cow<'_, [f32]>, ServeError> {
        if id.index() >= self.num_nodes() {
            return Err(ServeError::UnknownNode(id.index().to_string()));
        }
        Ok(self.rows.row(id.index()))
    }

    /// Link score of a node pair: squared Euclidean distance (Eq. 5)
    /// between the decoded rows. Lower = stronger predicted link.
    ///
    /// # Errors
    /// [`ServeError::UnknownNode`] when either endpoint is out of range.
    pub fn link_score(&self, a: NodeId, b: NodeId) -> Result<f64, ServeError> {
        let ra = self.row(a)?;
        let rb = self.row(b)?;
        Ok(sq_dist_f64(&ra, &rb))
    }

    /// A per-query distance evaluator over the rows (see
    /// [`QuantizedEmbeddings::scorer`]). Build one per query: the PQ
    /// scorer builds its asymmetric-distance table here.
    pub fn scorer(&self, query: &[f32]) -> QuantScorer<'_> {
        self.rows.scorer(query)
    }
}

fn open_names(path: &Path, num_nodes: usize) -> Result<NameMap, ServeError> {
    let map = NameMap::load_capped(BufReader::new(File::open(path)?), num_nodes, MAX_NAME_LEN)
        .map_err(|e| ServeError::Snapshot(format!("bad names file: {e}")))?;
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named_store() -> EmbeddingStore {
        let emb = NodeEmbeddings::from_vec(2, vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0]);
        let mut names = NameMap::new();
        for n in ["alice", "bob", "carol"] {
            names.intern(n);
        }
        EmbeddingStore::new(emb, Some(names)).unwrap()
    }

    #[test]
    fn resolves_names_and_ids() {
        let s = named_store();
        assert_eq!(s.resolve("bob").unwrap(), NodeId(1));
        assert_eq!(s.resolve("2").unwrap(), NodeId(2));
        assert!(s.resolve("dave").is_err());
        assert!(s.resolve("99").is_err());
        assert_eq!(s.label(NodeId(0)), "alice");
    }

    #[test]
    fn anonymous_store_resolves_ids_only() {
        let emb = NodeEmbeddings::zeros(4, 2);
        let s = EmbeddingStore::new(emb, None).unwrap();
        assert_eq!(s.resolve("3").unwrap(), NodeId(3));
        assert!(s.resolve("4").is_err());
        assert_eq!(s.label(NodeId(3)), "3");
    }

    #[test]
    fn resolve_requires_canonical_decimal() {
        let s = EmbeddingStore::new(NodeEmbeddings::zeros(10, 2), None).unwrap();
        assert_eq!(s.resolve("0").unwrap(), NodeId(0));
        assert_eq!(s.resolve("7").unwrap(), NodeId(7));
        // Non-canonical spellings of valid ids must NOT alias them: each
        // distinct accepted key seeds its own version-keyed cache entry.
        for bad in ["+3", "007", "03", " 3", "3 ", "3.0", "0x3", "", "-1", "00"] {
            assert!(s.resolve(bad).is_err(), "{bad:?} must be rejected");
        }
        // A name map may still intern such tokens explicitly.
        let mut names = NameMap::new();
        names.intern("007");
        names.intern("bob");
        let s = EmbeddingStore::new(NodeEmbeddings::zeros(2, 2), Some(names)).unwrap();
        assert_eq!(s.resolve("007").unwrap(), NodeId(0), "interned name wins");
    }

    #[test]
    fn canonical_node_id_rules() {
        assert_eq!(canonical_node_id("0"), Some(0));
        assert_eq!(canonical_node_id("42"), Some(42));
        assert_eq!(canonical_node_id("4294967295"), Some(u32::MAX));
        for bad in ["", "+1", "-1", "01", "00", "4294967296", "99999999999", "1e3", "٣"] {
            assert_eq!(canonical_node_id(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn link_score_is_squared_euclidean() {
        let s = named_store();
        assert_eq!(s.link_score(NodeId(0), NodeId(1)).unwrap(), 25.0);
        assert_eq!(s.link_score(NodeId(2), NodeId(2)).unwrap(), 0.0);
        assert!(s.link_score(NodeId(0), NodeId(9)).is_err());
    }

    #[test]
    fn name_count_mismatch_rejected() {
        let emb = NodeEmbeddings::zeros(2, 2);
        let mut names = NameMap::new();
        names.intern("only-one");
        assert!(EmbeddingStore::new(emb, Some(names)).is_err());
    }

    #[test]
    fn dense_table_is_served_as_f32() {
        let s = named_store();
        assert_eq!(s.format_label(), "f32");
        assert!(!s.is_mmap());
        assert_eq!(s.num_nodes(), 3);
        assert!(matches!(s.row(NodeId(1)).unwrap(), Cow::Borrowed(&[3.0, 4.0])));
    }

    #[test]
    fn dense_table_too_wide_for_ehnq_is_a_snapshot_error() {
        let emb = NodeEmbeddings::zeros(1, ehna_tgraph::quant::MAX_DIM + 1);
        match EmbeddingStore::new(emb, None) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn quant_store_serves_rows_and_scores() {
        let emb = NodeEmbeddings::from_vec(2, vec![0.0, 0.0, 3.0, 4.0, 1.0, 1.0]);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F32)).unwrap();
        let s = EmbeddingStore::from_quant(q, None).unwrap();
        assert_eq!(s.format_label(), "f32");
        assert_eq!(s.link_score(NodeId(0), NodeId(1)).unwrap(), 25.0);
        assert_eq!(&*s.row(NodeId(2)).unwrap(), &[1.0, 1.0]);
        let scorer = s.scorer(&[0.0, 0.0]);
        assert_eq!(scorer.dist(1), 25.0);
    }

    #[test]
    fn open_roundtrips_files() {
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_serve_store_test.bin");
        let names_path = dir.join("ehna_serve_store_test.names");
        let emb = NodeEmbeddings::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        EmbeddingStore::new(emb, None).unwrap().rows.save_path(&snap).unwrap();
        let mut names = NameMap::new();
        names.intern("x");
        names.intern("y");
        let mut buf = Vec::new();
        names.save(&mut buf).unwrap();
        std::fs::write(&names_path, buf).unwrap();

        let s = EmbeddingStore::open(&snap, Some(&names_path)).unwrap();
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.resolve("y").unwrap(), NodeId(1));
        let _ = std::fs::remove_file(snap);
        let _ = std::fs::remove_file(names_path);
    }

    #[test]
    fn open_honors_mmap() {
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_serve_store_quant.ehnq");
        let emb = NodeEmbeddings::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F16)).unwrap();
        q.save_path(&snap).unwrap();
        let heap = EmbeddingStore::open_with(&snap, None, false).unwrap();
        assert_eq!(heap.format_label(), "f16");
        assert!(!heap.is_mmap());
        let mapped = EmbeddingStore::open_with(&snap, None, true).unwrap();
        assert_eq!(mapped.format_label(), "f16");
        if cfg!(unix) {
            assert!(mapped.is_mmap());
        }
        assert_eq!(&*heap.row(NodeId(1)).unwrap(), &*mapped.row(NodeId(1)).unwrap());
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn a_file_that_is_not_ehnq_is_a_snapshot_error() {
        let snap = std::env::temp_dir().join("ehna_serve_store_not_ehnq.bin");
        let mut bytes = b"EHNA".to_vec();
        bytes.resize(96, 0);
        std::fs::write(&snap, bytes).unwrap();
        for mmap in [false, true] {
            match EmbeddingStore::open_with(&snap, None, mmap) {
                Err(ServeError::Snapshot(msg)) => assert!(msg.contains("bad EHNQ magic"), "{msg}"),
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn oversized_names_file_fails_early() {
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_serve_store_names_cap.bin");
        let names_path = dir.join("ehna_serve_store_names_cap.names");
        let store = EmbeddingStore::new(NodeEmbeddings::zeros(2, 2), None).unwrap();
        store.rows.save_path(&snap).unwrap();
        // Three names for a two-row snapshot: must fail from the cap (a
        // typed Snapshot error), not from the post-load length check.
        std::fs::write(&names_path, "a\nb\nc\n").unwrap();
        match EmbeddingStore::open(&snap, Some(&names_path)) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("more than 2"), "{msg}"),
            other => panic!("expected early cap failure, got {other:?}"),
        }
        // One absurdly long line also fails early.
        std::fs::write(&names_path, format!("{}\n", "x".repeat(MAX_NAME_LEN + 10))).unwrap();
        match EmbeddingStore::open(&snap, Some(&names_path)) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("longer than"), "{msg}"),
            other => panic!("expected length cap failure, got {other:?}"),
        }
        let _ = std::fs::remove_file(snap);
        let _ = std::fs::remove_file(names_path);
    }
}

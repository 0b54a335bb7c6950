//! The checksummed cluster manifest (`EHNM` v1) — the single source of
//! truth for what a sharded deployment *is*.
//!
//! The shard planner writes one manifest next to the shard snapshots it
//! produces; the router loads it to learn the shard count, the total
//! node count, the dimensionality, and the expected digest of every
//! shard file. Routing is pure arithmetic from `num_shards`
//! ([`owner_of`] / [`global_of`]), so the manifest is small and O(1) to
//! consult per query.
//!
//! ## File format
//!
//! ```text
//! header:  "EHNM" | version u32 LE (= 1)
//! payload: num_shards u32 | total_nodes u64 | dim u32 |
//!          num_shards x ( snapshot_name str | names_name str |
//!                         nodes u64 | snapshot_fnv u64 | names_fnv u64 )
//! trailer: fnv1a64(payload) u64 LE
//! str:     len u32 LE | UTF-8 bytes
//! ```
//!
//! File names are stored relative to the manifest's directory so a shard
//! directory can be moved or rsynced wholesale. The header and the
//! trailing digest are the shared ones of [`ehna_tgraph::ioutil`] (the
//! workspace's one [`fnv1a64`]); [`ClusterManifest::verify`]
//! additionally re-hashes every referenced file so a truncated or
//! swapped shard snapshot is caught before it serves a single query.

use crate::ClusterError;
use ehna_tgraph::ioutil::{self, atomic_write_path, fnv1a64, put_string, Cursor, FormatError};
use std::io::{Read, Write};
use std::path::Path;

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"EHNM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Conventional manifest file name inside a shard directory.
pub const MANIFEST_NAME: &str = "cluster.manifest";

/// One shard's files and their expected digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Embedding snapshot file name, relative to the manifest directory.
    pub snapshot: String,
    /// Names file (global labels, one per local row), relative likewise.
    pub names: String,
    /// Rows in this shard.
    pub nodes: u64,
    /// FNV-1a 64 digest of the snapshot file's bytes.
    pub snapshot_fnv: u64,
    /// FNV-1a 64 digest of the names file's bytes.
    pub names_fnv: u64,
}

/// A sharded deployment: how many shards, how big the global table is,
/// and which files hold each partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// Number of shards (round-robin partitioning modulus).
    pub num_shards: u32,
    /// Rows in the unsharded table.
    pub total_nodes: u64,
    /// Embedding dimensionality.
    pub dim: u32,
    /// Per-shard entries, indexed by shard id.
    pub shards: Vec<ShardEntry>,
}

/// Which shard owns global row `global`, and at which local index.
/// Round-robin: shard `global % num_shards`, local `global / num_shards`.
/// The map is monotone within a shard, so shard-local id order equals
/// global id order — the property the router's exact tie-break merge
/// rests on.
pub fn owner_of(global: u32, num_shards: u32) -> (u32, u32) {
    (global % num_shards, global / num_shards)
}

/// Inverse of [`owner_of`]: the global row of `(shard, local)`.
pub fn global_of(shard: u32, local: u32, num_shards: u32) -> u32 {
    local * num_shards + shard
}

impl ClusterManifest {
    /// Serialize to the `EHNM` v1 byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = ioutil::header(MANIFEST_MAGIC, MANIFEST_VERSION).to_vec();
        buf.extend_from_slice(&self.num_shards.to_le_bytes());
        buf.extend_from_slice(&self.total_nodes.to_le_bytes());
        buf.extend_from_slice(&self.dim.to_le_bytes());
        for s in &self.shards {
            put_string(&mut buf, &s.snapshot);
            put_string(&mut buf, &s.names);
            buf.extend_from_slice(&s.nodes.to_le_bytes());
            buf.extend_from_slice(&s.snapshot_fnv.to_le_bytes());
            buf.extend_from_slice(&s.names_fnv.to_le_bytes());
        }
        let digest = fnv1a64(&buf[ioutil::HEADER_LEN..]);
        buf.extend_from_slice(&digest.to_le_bytes());
        buf
    }

    /// Parse the `EHNM` v1 byte format.
    ///
    /// # Errors
    /// [`ClusterError::Manifest`] on bad magic/version, truncation,
    /// checksum mismatch, or inconsistent shard counts.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ClusterError> {
        Self::parse(buf).map_err(|e| ClusterError::Manifest(e.to_string()))
    }

    fn parse(buf: &[u8]) -> Result<Self, FormatError> {
        let bad = FormatError::Corrupt;
        if buf.len() < ioutil::HEADER_LEN + 8 {
            return Err(bad(format!("manifest of {} bytes is too short", buf.len())));
        }
        ioutil::check_header(buf, MANIFEST_MAGIC, MANIFEST_VERSION..=MANIFEST_VERSION)?;
        let (payload, digest) =
            buf[ioutil::HEADER_LEN..].split_at(buf.len() - ioutil::HEADER_LEN - 8);
        if Cursor::new(digest).u64()? != fnv1a64(payload) {
            return Err(bad("checksum mismatch".into()));
        }
        let mut c = Cursor::new(payload);
        let num_shards = c.u32()?;
        let total_nodes = c.u64()?;
        let dim = c.u32()?;
        if num_shards == 0 {
            return Err(bad("zero shards".into()));
        }
        // Each entry is at least 32 bytes; bound the count before the
        // allocation below so a corrupt field cannot drive an OOM.
        if (num_shards as usize) > payload.len() / 32 + 1 {
            return Err(bad(format!("shard count {num_shards} inconsistent with payload")));
        }
        let mut shards = Vec::with_capacity(num_shards as usize);
        for _ in 0..num_shards {
            shards.push(ShardEntry {
                snapshot: c.string()?,
                names: c.string()?,
                nodes: c.u64()?,
                snapshot_fnv: c.u64()?,
                names_fnv: c.u64()?,
            });
        }
        c.finish()?;
        let sum: u64 = shards.iter().map(|s| s.nodes).sum();
        if sum != total_nodes {
            return Err(bad(format!(
                "shard node counts sum to {sum} but total_nodes is {total_nodes}"
            )));
        }
        Ok(ClusterManifest { num_shards, total_nodes, dim, shards })
    }

    /// Write the manifest to `dir/cluster.manifest` crash-safely (tmp +
    /// fsync + atomic rename).
    ///
    /// # Errors
    /// IO failures.
    pub fn save(&self, dir: &Path) -> Result<(), ClusterError> {
        let bytes = self.to_bytes();
        atomic_write_path(&dir.join(MANIFEST_NAME), |w| w.write_all(&bytes))
            .map_err(ClusterError::Io)
    }

    /// Load `dir/cluster.manifest`.
    ///
    /// # Errors
    /// IO failures or a malformed manifest.
    pub fn load(dir: &Path) -> Result<Self, ClusterError> {
        let mut buf = Vec::new();
        std::fs::File::open(dir.join(MANIFEST_NAME))
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(ClusterError::Io)?;
        Self::from_bytes(&buf)
    }

    /// Re-hash every referenced shard file under `dir` and compare
    /// against the recorded digests, so a truncated, swapped, or
    /// bit-rotted shard snapshot is refused before it serves queries.
    ///
    /// # Errors
    /// [`ClusterError::Manifest`] naming the first mismatching file.
    pub fn verify(&self, dir: &Path) -> Result<(), ClusterError> {
        for (i, s) in self.shards.iter().enumerate() {
            for (name, expected) in [(&s.snapshot, s.snapshot_fnv), (&s.names, s.names_fnv)] {
                let mut buf = Vec::new();
                std::fs::File::open(dir.join(name))
                    .and_then(|mut f| f.read_to_end(&mut buf))
                    .map_err(ClusterError::Io)?;
                let got = fnv1a64(&buf);
                if got != expected {
                    return Err(ClusterError::Manifest(format!(
                        "shard {i} file '{name}' digest {got:#018x} != recorded {expected:#018x}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ClusterManifest {
        ClusterManifest {
            num_shards: 2,
            total_nodes: 5,
            dim: 4,
            shards: vec![
                ShardEntry {
                    snapshot: "shard_0.bin".into(),
                    names: "shard_0.names".into(),
                    nodes: 3,
                    snapshot_fnv: 0xdead,
                    names_fnv: 0xbeef,
                },
                ShardEntry {
                    snapshot: "shard_1.bin".into(),
                    names: "shard_1.names".into(),
                    nodes: 2,
                    snapshot_fnv: 1,
                    names_fnv: 2,
                },
            ],
        }
    }

    #[test]
    fn ownership_arithmetic_roundtrips() {
        for shards in [1u32, 2, 4, 7] {
            for global in 0..100u32 {
                let (s, l) = owner_of(global, shards);
                assert!(s < shards);
                assert_eq!(global_of(s, l, shards), global);
            }
        }
        // Monotone within a shard: local order == global order.
        let (_, l5) = owner_of(5, 4);
        let (_, l9) = owner_of(9, 4);
        assert!(l5 < l9, "5 and 9 both live on shard 1; local order must match");
    }

    #[test]
    fn byte_roundtrip() {
        let m = manifest();
        assert_eq!(ClusterManifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn corrupt_manifests_rejected() {
        let m = manifest();
        let bytes = m.to_bytes();
        // Every truncation fails.
        for cut in 0..bytes.len() {
            assert!(ClusterManifest::from_bytes(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
        // Any flipped payload byte fails the checksum.
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(ClusterManifest::from_bytes(&bad).is_err(), "flip at {i} accepted");
        }
        // Bad magic / version.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ClusterManifest::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad[4] = 9;
        assert!(ClusterManifest::from_bytes(&bad).is_err());
    }

    #[test]
    fn save_load_and_verify() {
        let dir = std::env::temp_dir().join("ehna_cluster_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Write the shard files first so digests are real.
        let mut m = manifest();
        for (i, s) in m.shards.iter_mut().enumerate() {
            let snap = format!("snapshot bytes {i}");
            let names = format!("names bytes {i}");
            std::fs::write(dir.join(&s.snapshot), &snap).unwrap();
            std::fs::write(dir.join(&s.names), &names).unwrap();
            s.snapshot_fnv = fnv1a64(snap.as_bytes());
            s.names_fnv = fnv1a64(names.as_bytes());
        }
        m.save(&dir).unwrap();
        let back = ClusterManifest::load(&dir).unwrap();
        assert_eq!(back, m);
        back.verify(&dir).unwrap();
        // Tamper with one shard file: verify must name it.
        std::fs::write(dir.join("shard_1.bin"), b"swapped!").unwrap();
        let err = back.verify(&dir).unwrap_err();
        assert!(err.to_string().contains("shard_1.bin"), "err: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! `ehna shard` — partition an embedding snapshot for cluster serving.

use crate::commands::{io_err, open_snapshot};
use crate::flags::Flags;
use crate::CliError;
use ehna_cluster::{plan_shards_quant, MANIFEST_NAME};
use ehna_tgraph::NameMap;
use std::io::{BufReader, Write};
use std::path::Path;

const HELP: &str = "ehna shard — partition a snapshot into cluster shards

usage: ehna shard SNAPSHOT --shards N --out DIR [--names FILE]

Splits SNAPSHOT round-robin into N shard snapshots (global node g lands
at local row g/N of shard g%N) and writes them to DIR as shard_I.bin +
shard_I.names, plus a checksummed cluster.manifest describing the
layout. Serve each shard with `ehna serve shard_I.bin --names
shard_I.names --role shard --shard-id I --ehnp-addr ...`, then front
them with `ehna router --manifest DIR --shard ADDR ...`; the routed
answers are byte-identical to serving the unsplit SNAPSHOT.

SNAPSHOT is an EHNQ snapshot in any format: the f32 snapshot `ehna
train` writes, or an artifact from `ehna quantize`. Shards are EHNQ in
the source's format, cut by slicing each node's code row verbatim —
never re-encoding — and copying the source's codebooks/scales into every
shard, so every cluster keeps the byte-identical guarantee (serve the
shards with --mmap if desired).

flags:
  --shards N    number of shards to produce (at least 1, at most the
                node count)
  --out DIR     output directory (created if missing)
  --names FILE  name map for SNAPSHOT (one name per line, line i names
                node i); shard name files then carry the global names,
                so clusters resolve the same keys a single node does";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, HELP)?;
    flags.expect_known(&["shards", "out", "names"])?;
    let snapshot = flags.one_positional("snapshot file")?;
    let num_shards: u32 = flags.get_or("shards", 0u32)?;
    if num_shards == 0 {
        return Err(CliError::usage(format!("--shards is required (and must be >= 1)\n{HELP}")));
    }
    let Some(out_dir) = flags.get("out") else {
        return Err(CliError::usage(format!("--out is required\n{HELP}")));
    };

    let q = open_snapshot(snapshot)?;
    let names = flags
        .get("names")
        .map(|path| {
            std::fs::File::open(path)
                .map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))
                .and_then(|f| {
                    NameMap::load(BufReader::new(f))
                        .map_err(|e| CliError::runtime(format!("bad name map {path}: {e}")))
                })
        })
        .transpose()?;
    let (n, dim, kind) = (q.num_nodes(), q.dim(), q.format().label());
    writeln!(out, "loaded {n} x {dim} {kind} snapshot from {snapshot}").map_err(io_err)?;

    let dir = Path::new(out_dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::runtime(format!("cannot create {out_dir}: {e}")))?;
    let manifest = plan_shards_quant(&q, names.as_ref(), num_shards, dir)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    for (i, entry) in manifest.shards.iter().enumerate() {
        writeln!(out, "shard {i}: {} nodes -> {}/{}", entry.nodes, out_dir, entry.snapshot)
            .map_err(io_err)?;
    }
    writeln!(
        out,
        "wrote {}/{MANIFEST_NAME} ({} shards, {} nodes, dim {})",
        out_dir, manifest.num_shards, manifest.total_nodes, manifest.dim
    )
    .map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::write_snapshot;
    use ehna_cluster::ClusterManifest;
    use ehna_tgraph::{NodeEmbeddings, QuantizedEmbeddings};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shards_a_snapshot_and_writes_a_manifest() {
        let dir = std::env::temp_dir().join("ehna_cli_shard_cmd");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dir.join("full.bin");
        std::fs::create_dir_all(&dir).unwrap();
        let data: Vec<f32> = (0..10 * 3).map(|i| i as f32).collect();
        write_snapshot(&snap, &NodeEmbeddings::from_vec(3, data)).unwrap();

        let out_dir = dir.join("cluster");
        let mut buf = Vec::new();
        run(
            &args(&[snap.to_str().unwrap(), "--shards", "3", "--out", out_dir.to_str().unwrap()]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("10 x 3 f32 snapshot"), "output: {text}");
        assert!(text.contains("3 shards, 10 nodes, dim 3"), "output: {text}");

        let manifest = ClusterManifest::load(&out_dir).unwrap();
        assert_eq!(manifest.num_shards, 3);
        manifest.verify(&out_dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_a_quantized_artifact_by_slicing_codes() {
        use ehna_tgraph::{QuantFormat, QuantSpec};
        let dir = std::env::temp_dir().join("ehna_cli_shard_quant_cmd");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data: Vec<f32> = (0..12 * 4).map(|i| i as f32 * 0.5).collect();
        let emb = NodeEmbeddings::from_vec(4, data);
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8)).unwrap();
        let snap = dir.join("full.ehnq");
        q.save_path(&snap).unwrap();

        let out_dir = dir.join("cluster");
        let mut buf = Vec::new();
        run(
            &args(&[snap.to_str().unwrap(), "--shards", "2", "--out", out_dir.to_str().unwrap()]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("12 x 4 int8 snapshot"), "output: {text}");

        let manifest = ClusterManifest::load(&out_dir).unwrap();
        manifest.verify(&out_dir).unwrap();
        // Shard files are EHNQ in the source format with verbatim rows.
        let shard0 =
            QuantizedEmbeddings::open_path(out_dir.join(&manifest.shards[0].snapshot), false)
                .unwrap();
        assert_eq!(shard0.format(), QuantFormat::Int8);
        assert_eq!(&*shard0.row(1), &*q.row(2), "global 2 -> shard 0 local 1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        let mut buf = Vec::new();
        let err = run(&args(&["snap.bin", "--out", "/tmp/x"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2, "missing --shards: {}", err.message);
        let err = run(&args(&["snap.bin", "--shards", "2"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2, "missing --out: {}", err.message);
        let err = run(
            &args(&["/nonexistent.bin", "--shards", "2", "--out", "/tmp/ehna_shard_nope"]),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
    }
}

//! `ehna quantize` — convert a dense embedding snapshot into an EHNQ
//! quantized artifact (f32 / f16 / int8 / pq) for compact, mmap-able
//! serving.

use crate::commands::io_err;
use crate::flags::Flags;
use crate::CliError;
use ehna_tgraph::ioutil::atomic_write_path;
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use std::io::{Read, Write};
use std::path::Path;

const HELP: &str = "ehna quantize — produce an EHNQ quantized embedding artifact

usage: ehna quantize SNAPSHOT --out FILE [--format f32|f16|int8|pq]
                     [--pq-m N] [--pq-iters N] [--seed N] [--check]

Re-encodes a dense (EHNA) snapshot as an EHNQ v1 artifact: a versioned,
checksummed, 64-byte-aligned file that `ehna serve` and `ehna shard`
auto-detect, and that `ehna serve --mmap` maps zero-copy so open time
stays O(1) in table size. Formats:

  f32    lossless; 4 bytes/dim (alignment + checksums over raw rows)
  f16    IEEE binary16, round-to-nearest-even; 2 bytes/dim
  int8   per-dimension min/scale affine codes; 1 byte/dim
  pq     product quantization, 256 centroids per sub-space; --pq-m
         bytes per node (pq-m must divide the dimension)

Encoding is deterministic: the same snapshot, format, and seed produce a
byte-identical artifact.

flags:
  --out FILE     output artifact path (written atomically; required)
  --format KIND  target format (default f16)
  --pq-m N       PQ sub-quantizers = code bytes per node (default 8)
  --pq-iters N   Lloyd iterations for PQ codebook training (default 10)
  --seed N       PQ training sample/init seed (default 42)
  --check        re-open the written artifact, verify every checksum,
                 and report the worst per-value decode error";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse_with_switches(args, HELP, &["check"])?;
    flags.expect_known(&["out", "format", "pq-m", "pq-iters", "seed", "check"])?;
    let snapshot = flags.one_positional("snapshot file")?;
    let Some(out_path) = flags.get("out") else {
        return Err(CliError::usage(format!("--out is required\n{HELP}")));
    };
    let label = flags.get("format").unwrap_or("f16");
    let format = QuantFormat::parse_label(label)
        .ok_or_else(|| CliError::usage(format!("unknown format '{label}' (f32|f16|int8|pq)")))?;
    let mut spec = QuantSpec::new(format);
    spec.pq_m = flags.get_or("pq-m", spec.pq_m)?;
    spec.pq_iters = flags.get_or("pq-iters", spec.pq_iters)?;
    spec.seed = flags.get_or("seed", spec.seed)?;

    // A clearer message than the dense loader's parse error when someone
    // points this at an artifact that is already quantized.
    let mut magic = [0u8; 4];
    let got = std::fs::File::open(snapshot)
        .and_then(|mut f| f.read(&mut magic))
        .map_err(|e| CliError::runtime(format!("cannot open {snapshot}: {e}")))?;
    if got == 4 && &magic == b"EHNQ" {
        return Err(CliError::runtime(format!(
            "{snapshot} is already an EHNQ artifact; quantize from the dense snapshot \
             to avoid stacking quantization error"
        )));
    }

    let emb = NodeEmbeddings::load_path(snapshot)
        .map_err(|e| CliError::runtime(format!("cannot load {snapshot}: {e}")))?;
    writeln!(out, "loaded {} x {} snapshot from {snapshot}", emb.num_nodes(), emb.dim())
        .map_err(io_err)?;

    let q = QuantizedEmbeddings::encode(&emb, &spec)
        .map_err(|e| CliError::runtime(format!("encode failed: {e}")))?;
    atomic_write_path(Path::new(out_path), |w| w.write_all(q.as_bytes()))
        .map_err(|e| CliError::runtime(format!("cannot write {out_path}: {e}")))?;

    let dense_bpn = emb.dim() * 4;
    let code_bpn = q.code_bytes_per_node();
    let ratio = if code_bpn > 0 { dense_bpn as f64 / code_bpn as f64 } else { 0.0 };
    writeln!(
        out,
        "wrote {out_path}: format {}, {} code bytes/node ({ratio:.1}x vs f32 dense), \
         {} bytes total",
        format.label(),
        code_bpn,
        q.as_bytes().len()
    )
    .map_err(io_err)?;

    if flags.has("check") {
        // A heap open re-verifies header, meta, and payload checksums
        // against the bytes that actually hit the disk.
        let back = QuantizedEmbeddings::open_path(out_path, false)
            .map_err(|e| CliError::runtime(format!("check failed: {e}")))?;
        let mut worst = 0f32;
        for i in 0..back.num_nodes() {
            let decoded = back.row(i);
            let source = emb.get(NodeId(i as u32));
            for (d, s) in decoded.iter().zip(source) {
                worst = worst.max((d - s).abs());
            }
        }
        if format == QuantFormat::F32 && worst != 0.0 {
            return Err(CliError::runtime(format!(
                "check failed: f32 round-trip is not lossless (max error {worst:e})"
            )));
        }
        writeln!(out, "check ok: checksums verified, max |decoded - source| = {worst:e}")
            .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn dense_snapshot(dir: &Path, n: usize, dim: usize) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let snap = dir.join("dense.bin");
        let data: Vec<f32> = (0..n * dim).map(|i| ((i % 23) as f32 - 11.0) * 0.37).collect();
        NodeEmbeddings::from_vec(dim, data).save_path(&snap).unwrap();
        snap
    }

    #[test]
    fn quantizes_every_format_with_check() {
        let dir = std::env::temp_dir().join("ehna_cli_quantize");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dense_snapshot(&dir, 40, 8);
        for (label, min_ratio) in [("f32", 1.0), ("f16", 2.0), ("int8", 4.0), ("pq", 4.0)] {
            let out_path = dir.join(format!("emb.{label}.ehnq"));
            let mut buf = Vec::new();
            run(
                &args(&[
                    snap.to_str().unwrap(),
                    "--format",
                    label,
                    "--out",
                    out_path.to_str().unwrap(),
                    "--pq-m",
                    "4",
                    "--check",
                ]),
                &mut buf,
            )
            .unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains(&format!("format {label}")), "{label}: {text}");
            assert!(text.contains("check ok"), "{label}: {text}");
            let q = QuantizedEmbeddings::open_path(&out_path, false).unwrap();
            let ratio = (q.dim() * 4) as f64 / q.code_bytes_per_node() as f64;
            assert!(ratio >= min_ratio, "{label}: ratio {ratio}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantizing_an_ehnq_artifact_is_refused() {
        let dir = std::env::temp_dir().join("ehna_cli_quantize_twice");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dense_snapshot(&dir, 8, 4);
        let first = dir.join("once.ehnq");
        let mut buf = Vec::new();
        run(
            &args(&[snap.to_str().unwrap(), "--format", "f16", "--out", first.to_str().unwrap()]),
            &mut buf,
        )
        .unwrap();
        let err = run(
            &args(&[first.to_str().unwrap(), "--format", "int8", "--out", "/tmp/nope.ehnq"]),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("already an EHNQ artifact"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_bad_flags_are_usage_errors() {
        let mut buf = Vec::new();
        let err = run(&args(&["snap.bin"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2, "missing --out: {}", err.message);
        let err =
            run(&args(&["snap.bin", "--out", "/tmp/x", "--format", "bf16"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2, "bad format: {}", err.message);
    }

    #[test]
    fn same_seed_means_byte_identical_artifacts() {
        let dir = std::env::temp_dir().join("ehna_cli_quantize_det");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = dense_snapshot(&dir, 32, 8);
        let a = dir.join("a.ehnq");
        let b = dir.join("b.ehnq");
        for path in [&a, &b] {
            let mut buf = Vec::new();
            run(
                &args(&[
                    snap.to_str().unwrap(),
                    "--format",
                    "pq",
                    "--pq-m",
                    "4",
                    "--seed",
                    "7",
                    "--out",
                    path.to_str().unwrap(),
                ]),
                &mut buf,
            )
            .unwrap();
        }
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

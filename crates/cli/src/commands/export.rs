//! `ehna export` — convert an EHNQ embedding snapshot to TSV for
//! plotting or downstream tooling.

use crate::commands::{io_err, open_snapshot};
use crate::flags::Flags;
use crate::CliError;
use std::io::Write;

const HELP: &str = "ehna export — embedding snapshot to TSV

usage: ehna export SNAPSHOT [--out FILE]

Writes one line per node of an EHNQ snapshot (any format; quantized rows
are decoded): `node_id\\tv0\\tv1\\t...`. Without --out, prints to stdout.";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, HELP)?;
    flags.expect_known(&["out"])?;
    let snapshot = flags.one_positional("snapshot file")?;
    let emb = open_snapshot(snapshot)?;

    let mut sink: Box<dyn Write> = match flags.get("out") {
        Some(path) => Box::new(std::fs::File::create(path).map_err(io_err)?),
        None => Box::new(&mut *out),
    };
    for v in 0..emb.num_nodes() {
        let row = emb.row(v);
        let mut line = String::with_capacity(8 + row.len() * 10);
        line.push_str(&v.to_string());
        for x in row.iter() {
            line.push('\t');
            line.push_str(&format!("{x}"));
        }
        writeln!(sink, "{line}").map_err(io_err)?;
    }
    sink.flush().map_err(io_err)?;
    drop(sink);
    if let Some(path) = flags.get("out") {
        writeln!(out, "wrote {} x {} embeddings to {path}", emb.num_nodes(), emb.dim())
            .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::write_snapshot;
    use ehna_tgraph::NodeEmbeddings;

    #[test]
    fn exports_tsv() {
        let dir = std::env::temp_dir();
        let snap = dir.join("ehna_cli_export.bin");
        let emb = NodeEmbeddings::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
        write_snapshot(&snap, &emb).unwrap();

        let args = vec![snap.to_str().unwrap().to_string()];
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("0\t1\t2"));

        let tsv = dir.join("ehna_cli_export.tsv");
        let args: Vec<String> = [snap.to_str().unwrap(), "--out", tsv.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let content = std::fs::read_to_string(&tsv).unwrap();
        assert_eq!(content.lines().count(), 2);
        let _ = std::fs::remove_file(snap);
        let _ = std::fs::remove_file(tsv);
    }

    #[test]
    fn corrupt_snapshot_is_error() {
        let dir = std::env::temp_dir().join("ehna_cli_export_bad.bin");
        std::fs::write(&dir, b"garbage").unwrap();
        let args = vec![dir.to_str().unwrap().to_string()];
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
        let _ = std::fs::remove_file(dir);
    }
}

//! One corruption sweep over every binary format, through each format's
//! public loader: the intact artifact loads, every strict truncation is
//! refused, and every single-byte flip is refused. The per-format suites
//! (`quant_robustness`, `wal_robustness`, `checkpoint_robustness`,
//! `proto_robustness`, the manifest unit sweep) stay as they are; this
//! harness runs beside them with one rule for all.
//!
//! Two formats carry no checksum of their own:
//! - the EHNA snapshot: its flips are swept over the 16-byte header only,
//!   since a flipped row value is a different but well-formed table;
//! - `ParamStore` and the Adam blob are sections of EHNC, whose checksum
//!   covers them; standalone they are swept for truncation only, and
//!   their flips are covered by the EHNC sweep.

mod formats;

use ehna_cluster::proto::{decode_frame, encode_frame, read_preamble, write_preamble};
use ehna_cluster::{ClusterManifest, Request, Response};
use ehna_core::load_checkpoint_full;
use ehna_nn::optim::Adam;
use ehna_nn::ParamStore;
use ehna_stream::EdgeLogReader;
use ehna_tgraph::quant::QuantizedEmbeddings;
use ehna_tgraph::NodeEmbeddings;
use formats::*;
use std::ops::Range;

/// The xor masks each swept byte is flipped with.
const FLIPS: [u8; 3] = [0x01, 0x80, 0xff];

/// Assert that `accepts` takes `bytes`, refuses every strict prefix of
/// it, and refuses every copy with one byte in `flips` flipped.
fn sweep(name: &str, bytes: &[u8], flips: Range<usize>, accepts: impl Fn(&[u8]) -> bool) {
    assert!(accepts(bytes), "{name}: intact artifact refused");
    for cut in 0..bytes.len() {
        assert!(!accepts(&bytes[..cut]), "{name}: {cut}-byte prefix of {} accepted", bytes.len());
    }
    let mut copy = bytes.to_vec();
    for i in flips {
        for mask in FLIPS {
            copy[i] ^= mask;
            assert!(!accepts(&copy), "{name}: byte {i} ^ {mask:#04x} accepted");
            copy[i] ^= mask;
        }
    }
}

#[test]
fn ehna_snapshot() {
    let bytes = embeddings().to_bytes();
    sweep("EHNA", &bytes, 0..16, |b| NodeEmbeddings::from_bytes(b).is_ok());
}

#[test]
fn ehnq_every_format_on_heap_open() {
    for format in QUANT_FORMATS {
        let bytes = ehnq(format);
        let name = format!("EHNQ {}", format.label());
        sweep(&name, &bytes, 0..bytes.len(), |b| QuantizedEmbeddings::from_bytes(b).is_ok());
    }
}

#[test]
fn param_store_and_adam_truncations() {
    let bytes = param_store_bytes();
    sweep("ParamStore", &bytes, 0..0, |b| ParamStore::load(b).is_ok());
    let bytes = adam_blob();
    sweep("Adam", &bytes, 0..0, |b| Adam::load(b).is_ok());
}

#[test]
fn ehnc_checkpoint() {
    let bytes = checkpoint();
    let g = graph();
    sweep("EHNC", &bytes, 0..bytes.len(), |b| load_checkpoint_full(b, &g, config()).is_ok());
}

#[test]
fn ehnl_log_is_fail_stop() {
    // A damaged log may end early (a torn tail reads as an append still
    // in flight) but must never yield altered batches: the reader either
    // errors or returns a clean prefix, and only the intact log returns
    // every batch.
    let bytes = edge_log("format-corruption");
    let batches = edge_batches();
    let path = std::env::temp_dir().join(format!("ehna-sweep-{}.log", std::process::id()));
    sweep("EHNL", &bytes, 0..bytes.len(), |b| {
        std::fs::write(&path, b).unwrap();
        match EdgeLogReader::open(&path).and_then(|mut r| r.read_all()) {
            Ok(got) => {
                assert!(batches.starts_with(&got), "EHNL: damaged log yielded altered batches");
                got.len() == batches.len()
            }
            Err(_) => false,
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn ehnm_manifest() {
    let bytes = manifest().to_bytes();
    sweep("EHNM", &bytes, 0..bytes.len(), |b| ClusterManifest::from_bytes(b).is_ok());
}

#[test]
fn ehnp_preamble_and_every_frame_kind() {
    let mut preamble = Vec::new();
    write_preamble(&mut preamble).unwrap();
    sweep("EHNP preamble", &preamble, 0..preamble.len(), |b| read_preamble(&mut &b[..]).is_ok());
    for (i, req) in requests().iter().enumerate() {
        let frame = encode_frame(i as u64, req);
        let name = format!("EHNP request {i}");
        sweep(&name, &frame, 0..frame.len(), |b| decode_frame::<Request>(b).is_ok());
    }
    for (i, resp) in responses().iter().enumerate() {
        let frame = encode_frame(i as u64, resp);
        let name = format!("EHNP response {i}");
        sweep(&name, &frame, 0..frame.len(), |b| decode_frame::<Response>(b).is_ok());
    }
}

//! Bytes-on-disk gate: one seeded artifact per binary format, hashed
//! and compared against committed constants. Any change to an encoder
//! (field order, endianness, checksum, padding) changes a hash here.
//!
//! The hash is a test-local FNV-1a 64, independent of the codecs' own
//! checksum helpers, so the gate holds even while those helpers are
//! being refactored.

mod formats;

use ehna_cluster::proto::{encode_frame, write_preamble};
use formats::*;

/// FNV-1a 64, written out here so the gate shares no code with the
/// codecs it checks.
fn hash(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn artifacts() -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("EHNA snapshot".to_string(), embeddings().to_bytes())];
    for format in QUANT_FORMATS {
        out.push((format!("EHNQ {}", format.label()), ehnq(format)));
    }
    out.push(("ParamStore".into(), param_store_bytes()));
    out.push(("Adam blob".into(), adam_blob()));
    out.push(("EHNC v3".into(), checkpoint()));
    out.push(("EHNL".into(), edge_log("format-bytes")));
    out.push(("EHNM".into(), manifest().to_bytes()));
    let mut preamble = Vec::new();
    write_preamble(&mut preamble).unwrap();
    out.push(("EHNP preamble".into(), preamble));
    for (i, req) in requests().iter().enumerate() {
        out.push((format!("EHNP request {i}"), encode_frame(100 + i as u64, req)));
    }
    for (i, resp) in responses().iter().enumerate() {
        out.push((format!("EHNP response {i}"), encode_frame(200 + i as u64, resp)));
    }
    out
}

/// `(artifact, length, FNV-1a 64)` as produced by the encoders at the
/// time the gate was committed.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("EHNA snapshot", 1296, 0x686c8df34f106d80),
    ("EHNQ f32", 1344, 0xa2a515ccade49fb6),
    ("EHNQ f16", 704, 0xf12533f677bfcfe7),
    ("EHNQ int8", 448, 0x7303b337ec9f0fa0),
    ("EHNQ pq", 8416, 0x67f139009ce6c30a),
    ("ParamStore", 105, 0x3dd8881adc7beb16),
    ("Adam blob", 180, 0xa54055432db8d6b9),
    ("EHNC v3", 3350, 0xfb96632c1139267d),
    ("EHNL", 200, 0xb3907ce7178c5146),
    ("EHNM", 144, 0x766f6411b44eac8d),
    ("EHNP preamble", 8, 0x6ee47fbacdc76494),
    ("EHNP request 0", 21, 0x1b003259d592c19e),
    ("EHNP request 1", 62, 0xe10c028cfa8ff291),
    ("EHNP request 2", 32, 0x6a7bfa881b66066e),
    ("EHNP request 3", 25, 0x5dc91c549f14da40),
    ("EHNP request 4", 21, 0xcfaebdd9b8f56460),
    ("EHNP request 5", 21, 0xdae57fe2ffc3289a),
    ("EHNP response 0", 41, 0xef7085db87f6f40e),
    ("EHNP response 1", 29, 0xdd4c2924e6c9b8ce),
    ("EHNP response 2", 90, 0x21b0d34c99172a7e),
    ("EHNP response 3", 26, 0xb439e05eb4ac4996),
    ("EHNP response 4", 73, 0x2d065674f3995aa6),
    ("EHNP response 5", 22, 0x5d8933c155c6f370),
    ("EHNP response 6", 72, 0x412f67618bbe0a7f),
    ("EHNP response 7", 36, 0xc23639d2a71de8d6),
    ("EHNP response 8", 37, 0x3126e2898d16b552),
];

#[test]
fn every_format_encodes_the_committed_bytes() {
    let got: Vec<(String, usize, u64)> =
        artifacts().into_iter().map(|(name, bytes)| (name, bytes.len(), hash(&bytes))).collect();
    let table: String =
        got.iter().map(|(name, len, h)| format!("    ({name:?}, {len}, {h:#018x}),\n")).collect();
    assert_eq!(got.len(), EXPECTED.len(), "artifact count changed; got:\n{table}");
    for ((name, len, h), &(want_name, want_len, want_h)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "artifact order changed; got:\n{table}");
        assert_eq!((*len, *h), (want_len, want_h), "{name} bytes changed; got:\n{table}");
    }
}

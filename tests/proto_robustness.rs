//! Property tests for the EHNP v2 frame codec: random messages must
//! survive a round trip bit-exactly, every strict truncation of a valid
//! frame must be rejected (never mis-parsed, never panic), a corrupted
//! byte anywhere in the frame must trip the checksum, and a hostile
//! length prefix must be refused *before* any allocation happens.
//!
//! The same holds for the shard's reader on a live socket: after a valid
//! preamble, arbitrary bytes get whole, decodable answer frames or a
//! close, and the shard keeps serving fresh clients afterwards.

use ehna_cluster::proto::{
    decode_frame, encode_frame, read_msg, write_msg, write_preamble, Request, Response,
    MAX_FRAME_LEN,
};
use ehna_cluster::{MuxClient, ProtoError, ShardConfig, ShardHandle, ShardServer};
use ehna_serve::{BruteForceIndex, EmbeddingStore, EngineConfig, QueryEngine, RequestLimits};
use ehna_tgraph::NodeEmbeddings;
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Arbitrary short strings, including NUL and multi-byte code points —
/// labels and error messages cross the wire verbatim.
fn wire_string() -> impl Strategy<Value = String> {
    vec(0u32..0xD7FF, 0..12).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Finite f32s (NaN would break the `PartialEq` round-trip oracle, and
/// the protocol never produces NaN distances).
fn rows() -> impl Strategy<Value = Vec<f32>> {
    vec(-1e6f32..1e6f32, 0..24)
}

/// Every [`Request`] variant with arbitrary contents.
fn request() -> impl Strategy<Value = Request> {
    (0u8..6, (0u32..5000, proptest::bool::ANY, rows()), wire_string(), 0u32..100_000).prop_map(
        |(variant, (k, explain, vector), key, local)| match variant {
            0 => Request::Ping,
            1 => Request::Knn { k, explain, vector },
            2 => Request::Resolve { key },
            3 => Request::GetRow { local },
            4 => Request::Stats,
            _ => Request::Reload,
        },
    )
}

/// Every [`Response`] variant with arbitrary contents.
fn response() -> impl Strategy<Value = Response> {
    (
        0u8..7,
        vec((0u32..100_000, -1e9f64..1e9f64, wire_string()), 0..8),
        (proptest::bool::ANY, vec(0u32..64, 0..6), 0u64..1 << 40, 0u32..256),
        (wire_string(), rows(), 0u32..100_000),
        (0u64..1 << 40, 0u64..1 << 40, proptest::bool::ANY),
    )
        .prop_map(
            |(
                variant,
                neighbors,
                (with_info, probed, scanned, nprobe),
                (label, row, local),
                (a, b, with_hit),
            )| {
                match variant {
                    0 => Response::Error(label),
                    1 => Response::Pong { version: a },
                    2 => Response::Knn {
                        neighbors,
                        info: if with_info { Some((probed, scanned, nprobe)) } else { None },
                    },
                    3 => Response::Resolved {
                        hit: if with_hit { Some((local, label, row)) } else { None },
                    },
                    4 => Response::Row { local, label, row },
                    5 => Response::StatsText(label),
                    _ => Response::Reloaded { version: a, nodes: b },
                }
            },
        )
}

proptest! {
    #[test]
    fn requests_round_trip_bit_exactly(req_id in 0u64..u64::MAX, req in request()) {
        let frame = encode_frame(req_id, &req);
        let ((got_id, got), consumed) = decode_frame::<Request>(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, req);
        prop_assert_eq!(consumed, frame.len(), "decode must consume the whole frame");
    }

    #[test]
    fn responses_round_trip_bit_exactly(req_id in 0u64..u64::MAX, resp in response()) {
        let frame = encode_frame(req_id, &resp);
        let ((got_id, got), consumed) = decode_frame::<Response>(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, resp);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn every_strict_truncation_is_rejected(req in request()) {
        let frame = encode_frame(7, &req);
        for cut in 0..frame.len() {
            prop_assert!(
                decode_frame::<Request>(&frame[..cut]).is_err(),
                "a {}-byte prefix of a {}-byte frame decoded", cut, frame.len()
            );
        }
    }

    #[test]
    fn any_single_byte_corruption_is_rejected(
        resp in response(),
        pos_seed in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(42, &resp);
        let pos = pos_seed % frame.len();
        frame[pos] ^= flip; // xor with a nonzero byte guarantees a change
        prop_assert!(
            decode_frame::<Response>(&frame).is_err(),
            "flipping byte {} of {} went unnoticed", pos, frame.len()
        );
    }

    #[test]
    fn back_to_back_frames_stream_in_order(reqs in vec((0u64..1 << 40, request()), 1..8)) {
        let mut wire = Vec::new();
        for (id, req) in &reqs {
            write_msg(&mut wire, *id, req)
                .map_err(|e| TestCaseError::fail(format!("write failed: {e}")))?;
        }
        let mut r = Cursor::new(wire);
        for (id, req) in &reqs {
            let (got_id, got) = read_msg::<_, Request>(&mut r)
                .map_err(|e| TestCaseError::fail(format!("read failed: {e}")))?;
            prop_assert_eq!(got_id, *id);
            prop_assert_eq!(&got, req);
        }
    }

    #[test]
    fn oversized_lengths_are_refused_before_allocation(
        over in 1u32..u32::MAX - MAX_FRAME_LEN,
        junk in vec(0u8..=255, 0..16),
    ) {
        // A hostile length prefix with (far) fewer bytes behind it: the
        // cap check must fire on the prefix alone. If the length were
        // trusted, read_msg would try to allocate up to 4 GiB here.
        let mut frame = (MAX_FRAME_LEN + over).to_le_bytes().to_vec();
        frame.extend_from_slice(&junk);
        match decode_frame::<Request>(&frame) {
            Err(ProtoError::Corrupt(msg)) => {
                prop_assert!(msg.contains("exceeds cap"), "unexpected error: {}", msg)
            }
            other => return Err(TestCaseError::fail(format!("expected cap error, got {other:?}"))),
        }
        let mut r = Cursor::new(frame);
        match read_msg::<_, Request>(&mut r) {
            Err(ProtoError::Corrupt(msg)) => {
                prop_assert!(msg.contains("exceeds cap"), "unexpected error: {}", msg)
            }
            other => return Err(TestCaseError::fail(format!("expected cap error, got {other:?}"))),
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics_the_decoder(bytes in vec(0u8..=255, 0..200)) {
        // Decoding random bytes may fail any way it likes, but must
        // return an error rather than panic or loop.
        let _ = decode_frame::<Request>(&bytes);
        let _ = decode_frame::<Response>(&bytes);
    }
}

/// One shard shared by every case of the live-socket property; it runs
/// until the test process exits.
fn live_shard() -> SocketAddr {
    static SHARD: OnceLock<ShardHandle> = OnceLock::new();
    SHARD
        .get_or_init(|| {
            let data: Vec<f32> = (0..16 * 4).map(|i| (i % 7) as f32).collect();
            let store =
                Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(4, data), None).unwrap());
            let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
            let engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
            let config =
                ShardConfig { frame_deadline: Duration::from_secs(2), ..Default::default() };
            ShardServer::bind("127.0.0.1:0", engine, RequestLimits::default(), None, config)
                .unwrap()
                .spawn()
                .unwrap()
        })
        .addr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_shard_answers_whole_frames_or_closes(
        frames in vec((0u64..1 << 40, request()), 0..3),
        junk in vec(0u8..=255, 0..64),
    ) {
        let addr = live_shard();
        let mut wire = Vec::new();
        write_preamble(&mut wire).unwrap();
        for (id, req) in &frames {
            write_msg(&mut wire, *id, req).unwrap();
        }
        wire.extend_from_slice(&junk);
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A shard that already hung up may refuse the write; that is a
        // close too.
        let _ = conn.write_all(&wire);
        let _ = conn.shutdown(Shutdown::Write);
        let mut got = Vec::new();
        if let Err(e) = conn.read_to_end(&mut got) {
            // A reset is a close (the shard hung up with bytes unread);
            // a timeout means it neither answered nor closed.
            prop_assert!(e.kind() == ErrorKind::ConnectionReset, "shard did not close: {}", e);
        }
        // Everything the shard sent is whole frames answering the valid
        // requests in order.
        let mut at = 0;
        let mut answered = 0;
        while at < got.len() {
            let ((id, _), used) = decode_frame::<Response>(&got[at..])
                .map_err(|e| TestCaseError::fail(format!("undecodable answer bytes: {e}")))?;
            prop_assert!(answered < frames.len(), "more answers than requests");
            prop_assert_eq!(id, frames[answered].0);
            answered += 1;
            at += used;
        }
        // No worker or admission slot was lost: a fresh client is served.
        let client = MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2))
            .map_err(|e| TestCaseError::fail(format!("connect after the case: {e}")))?;
        let pong = client.call(&Request::Ping, Duration::from_secs(5));
        prop_assert!(matches!(pong, Ok(Response::Pong { .. })), "ping after the case: {:?}", pong);
    }
}

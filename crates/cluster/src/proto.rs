//! EHNP v2 — the compact length-prefixed binary protocol for
//! router↔shard traffic.
//!
//! JSON-over-TCP stays as the debug surface (humans, `ehna query`,
//! integration tests), but a router scatter-gathering every query across
//! N shards would pay JSON formatting and parsing N times per request.
//! EHNP frames the same operations in binary, with a request id per
//! frame so one connection multiplexes many in-flight requests.
//!
//! ## Connection preamble
//!
//! A client opens with 8 bytes — `"EHNP"` then `version u32 LE` — so a
//! JSON client that dials the shard port by mistake is rejected with a
//! clear error instead of a hung read.
//!
//! ## Frame format
//!
//! ```text
//! frame:   len u32 LE | payload (len bytes) | fnv1a64(payload) u64 LE
//! payload: req_id u64 LE | kind u8 | body
//! ```
//!
//! A frame is the sealed record of [`ehna_tgraph::ioutil`], the framing
//! the EHNL edge log uses too: the same length prefix, the same trailing
//! digest (the workspace's one [`fnv1a64`](ehna_tgraph::ioutil::fnv1a64)),
//! and the same discipline of checking `len` against [`MAX_FRAME_LEN`]
//! *before* allocating, so a corrupted or hostile length field cannot
//! drive an OOM. All multi-byte integers are little-endian; `f32`/`f64`
//! travel as their LE bit patterns.
//!
//! Responses are self-describing (they carry their own kind byte rather
//! than being keyed off the originating request), which keeps decode
//! stateless and lets a multiplexing client route purely by `req_id`.
//! Clients number requests from 1; a shard past its admission cap sends
//! one `Error("overloaded")` frame with `req_id` 0 and closes.

use ehna_tgraph::ioutil::{self, put_f32s, put_string, Cursor, FormatError};
use std::io::{self, Read, Write};

/// Connection preamble magic.
pub const EHNP_MAGIC: [u8; 4] = *b"EHNP";
/// Protocol version spoken by this build. v2 extended `Pong` with the
/// replica's snapshot version (the router's cache-invalidation signal)
/// and `Knn` probe info with the index's `nprobe`; both ends of a
/// cluster must be upgraded together — the preamble check rejects a
/// version mismatch with a clear error instead of a misparse.
pub const EHNP_VERSION: u32 = 2;
/// Hard cap on one frame's payload, checked *before* allocating.
pub const MAX_FRAME_LEN: u32 = ioutil::MAX_SEALED_LEN;

/// Errors reading or decoding EHNP traffic.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying IO failure (including truncation mid-frame).
    Io(io::Error),
    /// A structurally invalid frame: oversized length, checksum
    /// mismatch, unknown kind, or a body that does not parse.
    Corrupt(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "ehnp io error: {e}"),
            ProtoError::Corrupt(msg) => write!(f, "ehnp frame corrupt: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => e,
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt),
        }
    }
}

impl From<FormatError> for ProtoError {
    fn from(e: FormatError) -> Self {
        ProtoError::Corrupt(e.to_string())
    }
}

/// A router→shard request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check (health probes keep idle connections warm).
    Ping,
    /// Top-`k` scan of this shard's rows for a free query vector.
    Knn {
        /// How many neighbors to return (the router over-fetches by one
        /// when it will exclude the query node afterwards).
        k: u32,
        /// Whether to return probe diagnostics.
        explain: bool,
        /// The query vector.
        vector: Vec<f32>,
    },
    /// Name-map-only key lookup (no decimal fallback: shard rows are
    /// locally indexed, so a global decimal key must never be misread as
    /// a local row number).
    Resolve {
        /// The query key.
        key: String,
    },
    /// Fetch one row by *local* index — the router's numeric-key path,
    /// after it has computed ownership arithmetic itself.
    GetRow {
        /// Local row index on this shard.
        local: u32,
    },
    /// The shard's `stats` document (JSON text, debug surface).
    Stats,
    /// Re-run the shard's reloader and hot-swap the snapshot.
    Reload,
}

/// A shard→router response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; the message says why.
    Error(String),
    /// Ping acknowledged.
    Pong {
        /// The replica's current snapshot version — piggybacked on every
        /// probe so the router's version-keyed response cache learns
        /// about out-of-band reloads within one probe interval.
        version: u64,
    },
    /// Shard-local k-NN results, ascending by `(dist, local)`.
    Knn {
        /// `(local index, distance, global label)` per neighbor.
        neighbors: Vec<(u32, f64, String)>,
        /// Probe diagnostics when the request asked to explain:
        /// `(probed centroids, rows scanned, nprobe)` — `nprobe` is 0
        /// for exact indexes (brute force probes nothing).
        info: Option<(Vec<u32>, u64, u32)>,
    },
    /// Key resolution outcome: the row when this shard owns the key.
    Resolved {
        /// `(local index, global label, row)` when found; `None` when
        /// this shard's name map has no such key.
        hit: Option<(u32, String, Vec<f32>)>,
    },
    /// One row fetched by local index.
    Row {
        /// Local row index.
        local: u32,
        /// Global label of the row.
        label: String,
        /// The row itself.
        row: Vec<f32>,
    },
    /// The shard's `stats` document as JSON text.
    StatsText(String),
    /// Snapshot hot-swap completed.
    Reloaded {
        /// New snapshot version.
        version: u64,
        /// Rows in the new snapshot.
        nodes: u64,
    },
}

/// Encoding/decoding of one message direction. Implemented by
/// [`Request`] and [`Response`]; the frame layer is shared.
pub trait Wire: Sized {
    /// The kind byte identifying the variant on the wire.
    fn kind(&self) -> u8;
    /// Append the body (everything after the kind byte) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);
    /// Decode a body back into the variant named by `kind`.
    ///
    /// # Errors
    /// [`ProtoError::Corrupt`] on unknown kinds or malformed bodies.
    fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError>;
}

impl Wire for Request {
    fn kind(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Knn { .. } => 1,
            Request::Resolve { .. } => 2,
            Request::GetRow { .. } => 3,
            Request::Stats => 4,
            Request::Reload => 5,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping | Request::Stats | Request::Reload => {}
            Request::Knn { k, explain, vector } => {
                out.extend_from_slice(&k.to_le_bytes());
                out.push(u8::from(*explain));
                out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
                put_f32s(out, vector);
            }
            Request::Resolve { key } => put_string(out, key),
            Request::GetRow { local } => out.extend_from_slice(&local.to_le_bytes()),
        }
    }

    fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor::new(body);
        let req = match kind {
            0 => Request::Ping,
            1 => {
                let k = c.u32()?;
                let explain = c.u8()? != 0;
                let dim = c.u32()? as usize;
                Request::Knn { k, explain, vector: c.f32s(dim)? }
            }
            2 => Request::Resolve { key: c.string()? },
            3 => Request::GetRow { local: c.u32()? },
            4 => Request::Stats,
            5 => Request::Reload,
            other => return Err(ProtoError::Corrupt(format!("unknown request kind {other}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Wire for Response {
    fn kind(&self) -> u8 {
        match self {
            Response::Error(_) => 0,
            Response::Pong { .. } => 1,
            Response::Knn { .. } => 2,
            Response::Resolved { .. } => 3,
            Response::Row { .. } => 4,
            Response::StatsText(_) => 5,
            Response::Reloaded { .. } => 6,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong { version } => out.extend_from_slice(&version.to_le_bytes()),
            Response::Error(msg) => put_string(out, msg),
            Response::Knn { neighbors, info } => {
                out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
                for (local, dist, label) in neighbors {
                    out.extend_from_slice(&local.to_le_bytes());
                    out.extend_from_slice(&dist.to_le_bytes());
                    put_string(out, label);
                }
                match info {
                    None => out.push(0),
                    Some((probed, scanned, nprobe)) => {
                        out.push(1);
                        out.extend_from_slice(&(probed.len() as u32).to_le_bytes());
                        for &p in probed {
                            out.extend_from_slice(&p.to_le_bytes());
                        }
                        out.extend_from_slice(&scanned.to_le_bytes());
                        out.extend_from_slice(&nprobe.to_le_bytes());
                    }
                }
            }
            Response::Resolved { hit } => match hit {
                None => out.push(0),
                Some((local, label, row)) => {
                    out.push(1);
                    out.extend_from_slice(&local.to_le_bytes());
                    put_string(out, label);
                    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
                    put_f32s(out, row);
                }
            },
            Response::Row { local, label, row } => {
                out.extend_from_slice(&local.to_le_bytes());
                put_string(out, label);
                out.extend_from_slice(&(row.len() as u32).to_le_bytes());
                put_f32s(out, row);
            }
            Response::StatsText(text) => put_string(out, text),
            Response::Reloaded { version, nodes } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&nodes.to_le_bytes());
            }
        }
    }

    fn decode(kind: u8, body: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor::new(body);
        let resp = match kind {
            0 => Response::Error(c.string()?),
            1 => Response::Pong { version: c.u64()? },
            2 => {
                let count = c.u32()? as usize;
                let mut neighbors = Vec::with_capacity(count.min(body.len() / 12 + 1));
                for _ in 0..count {
                    let local = c.u32()?;
                    let dist = c.f64()?;
                    let label = c.string()?;
                    neighbors.push((local, dist, label));
                }
                let info = match c.u8()? {
                    0 => None,
                    1 => {
                        let n = c.u32()? as usize;
                        let mut probed = Vec::with_capacity(n.min(body.len() / 4 + 1));
                        for _ in 0..n {
                            probed.push(c.u32()?);
                        }
                        let scanned = c.u64()?;
                        let nprobe = c.u32()?;
                        Some((probed, scanned, nprobe))
                    }
                    other => {
                        return Err(ProtoError::Corrupt(format!("bad info flag {other}")));
                    }
                };
                Response::Knn { neighbors, info }
            }
            3 => {
                let hit = match c.u8()? {
                    0 => None,
                    1 => {
                        let local = c.u32()?;
                        let label = c.string()?;
                        let dim = c.u32()? as usize;
                        Some((local, label, c.f32s(dim)?))
                    }
                    other => {
                        return Err(ProtoError::Corrupt(format!("bad hit flag {other}")));
                    }
                };
                Response::Resolved { hit }
            }
            4 => {
                let local = c.u32()?;
                let label = c.string()?;
                let dim = c.u32()? as usize;
                Response::Row { local, label, row: c.f32s(dim)? }
            }
            5 => Response::StatsText(c.string()?),
            6 => Response::Reloaded { version: c.u64()?, nodes: c.u64()? },
            other => return Err(ProtoError::Corrupt(format!("unknown response kind {other}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Encode one message into a complete frame (length prefix, payload,
/// trailing digest) — one buffer, the payload written in place.
pub fn encode_frame<M: Wire>(req_id: u64, msg: &M) -> Vec<u8> {
    let mut frame = Vec::with_capacity(32);
    ioutil::seal(&mut frame, |payload| {
        payload.extend_from_slice(&req_id.to_le_bytes());
        payload.push(msg.kind());
        msg.encode_body(payload);
    });
    frame
}

/// Write one framed message (single `write_all`, no flush).
///
/// # Errors
/// IO failures.
pub fn write_msg<W: Write, M: Wire>(w: &mut W, req_id: u64, msg: &M) -> io::Result<()> {
    w.write_all(&encode_frame(req_id, msg))
}

/// Decode one complete frame from a byte slice, returning the message
/// and the bytes consumed. Used by tests; sockets use [`read_msg`].
///
/// # Errors
/// [`ProtoError::Corrupt`] on truncation, checksum mismatch, oversized
/// length, or a malformed body.
pub fn decode_frame<M: Wire>(buf: &[u8]) -> Result<((u64, M), usize), ProtoError> {
    let (payload, total) = ioutil::open_sealed(buf)?;
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let kind = c.u8()?;
    Ok(((req_id, M::decode(kind, &payload[c.offset()..])?), total))
}

/// Read one framed message from a stream. The length field is validated
/// against [`MAX_FRAME_LEN`] before the payload is allocated.
///
/// # Errors
/// [`ProtoError::Io`] on socket errors (including `UnexpectedEof` when
/// the peer hangs up mid-frame), [`ProtoError::Corrupt`] on invalid
/// frames.
pub fn read_msg<R: Read, M: Wire>(r: &mut R) -> Result<(u64, M), ProtoError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    read_msg_after_len(r, len_buf)
}

/// Finish reading a frame whose 4-byte length prefix was already read —
/// lets servers distinguish "idle at a frame boundary" (keep-alive) from
/// "stalled mid-frame" (drop the connection).
///
/// # Errors
/// Same as [`read_msg`].
pub fn read_msg_after_len<R: Read, M: Wire>(
    r: &mut R,
    len_buf: [u8; 4],
) -> Result<(u64, M), ProtoError> {
    let mut frame = vec![0u8; ioutil::sealed_len(len_buf)?];
    frame[..4].copy_from_slice(&len_buf);
    r.read_exact(&mut frame[4..])?;
    decode_frame(&frame).map(|(msg, _)| msg)
}

/// Send the connection preamble (client side).
///
/// # Errors
/// IO failures.
pub fn write_preamble<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&ioutil::header(EHNP_MAGIC, EHNP_VERSION))
}

/// Validate the connection preamble (server side).
///
/// # Errors
/// [`ProtoError::Corrupt`] when the peer does not speak this EHNP
/// version.
pub fn read_preamble<R: Read>(r: &mut R) -> Result<(), ProtoError> {
    let mut buf = [0u8; ioutil::HEADER_LEN];
    r.read_exact(&mut buf)?;
    ioutil::check_header(&buf, EHNP_MAGIC, EHNP_VERSION..=EHNP_VERSION)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = encode_frame(42, &req);
        let ((id, back), used) = decode_frame::<Request>(&frame).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, req);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Knn { k: 7, explain: true, vector: vec![1.5, -2.0, 0.0] });
        roundtrip_req(Request::Knn { k: 0, explain: false, vector: vec![] });
        roundtrip_req(Request::Resolve { key: "alice".into() });
        roundtrip_req(Request::Resolve { key: String::new() });
        roundtrip_req(Request::GetRow { local: u32::MAX });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Reload);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = encode_frame(7, &resp);
        let ((id, back), used) = decode_frame::<Response>(&frame).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, resp);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong { version: 0 });
        roundtrip_resp(Response::Pong { version: u64::MAX });
        roundtrip_resp(Response::Error("shard on fire".into()));
        roundtrip_resp(Response::Knn {
            neighbors: vec![(0, 0.5, "a".into()), (9, 1.25, "b".into())],
            info: Some((vec![1, 3], 100, 8)),
        });
        roundtrip_resp(Response::Knn {
            neighbors: vec![(2, 0.0, "c".into())],
            info: Some((vec![], 7, 0)),
        });
        roundtrip_resp(Response::Knn { neighbors: vec![], info: None });
        roundtrip_resp(Response::Resolved { hit: Some((3, "bob".into(), vec![0.25, -1.0])) });
        roundtrip_resp(Response::Resolved { hit: None });
        roundtrip_resp(Response::Row { local: 1, label: "5".into(), row: vec![9.0] });
        roundtrip_resp(Response::StatsText("{\"ok\":true}".into()));
        roundtrip_resp(Response::Reloaded { version: 3, nodes: 1000 });
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_frame(1, &Request::Ping);
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame::<Request>(&frame) {
            Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("cap"), "msg: {msg}"),
            other => panic!("oversized frame accepted: {other:?}"),
        }
        // The streaming path must reject it too (before the alloc).
        let mut r = &frame[..];
        assert!(matches!(read_msg::<_, Request>(&mut r), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut frame = encode_frame(1, &Request::Resolve { key: "alice".into() });
        let mid = frame.len() / 2;
        frame[mid] ^= 0xFF;
        assert!(decode_frame::<Request>(&frame).is_err());
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let frame =
            encode_frame(9, &Response::Knn { neighbors: vec![(1, 2.0, "x".into())], info: None });
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<Response>(&frame[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn preamble_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        read_preamble(&mut &buf[..]).unwrap();
        assert!(read_preamble(&mut &b"{\"op\":\"pi"[..]).is_err(), "JSON accepted as EHNP");
        let mut wrong = buf.clone();
        wrong[4] = 99;
        assert!(read_preamble(&mut &wrong[..]).is_err(), "wrong version accepted");
    }

    #[test]
    fn streamed_messages_roundtrip() {
        let mut wire = Vec::new();
        write_msg(&mut wire, 1, &Request::Ping).unwrap();
        write_msg(&mut wire, 2, &Request::GetRow { local: 5 }).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_msg::<_, Request>(&mut r).unwrap(), (1, Request::Ping));
        assert_eq!(read_msg::<_, Request>(&mut r).unwrap(), (2, Request::GetRow { local: 5 }));
        assert!(matches!(read_msg::<_, Request>(&mut r), Err(ProtoError::Io(_))), "EOF is Io");
    }
}

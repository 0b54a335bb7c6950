//! Multiplexing EHNP client — one TCP connection, many in-flight
//! requests.
//!
//! The router keeps a single [`MuxClient`] per replica. Each call gets a
//! fresh request id; a dedicated reader thread routes responses back to
//! their callers by id, so concurrent router workers share the
//! connection without head-of-line blocking on each other's writes.
//!
//! Failure taxonomy mirrors the JSON client's
//! [`ehna_serve::QueryError`]: *dead* (connect refused, peer hung up,
//! write failed — retry another replica immediately) is kept distinct
//! from *slow* (no response within the call timeout — the replica may be
//! overloaded; the connection survives and the late response, if it ever
//! arrives, is discarded by id).

use crate::proto::{read_msg, write_msg, write_preamble, ProtoError, Request, Response};
use ehna_serve::lock;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Why one [`MuxClient::call`] failed.
#[derive(Debug)]
pub enum CallError {
    /// The connection is unusable: the peer hung up, a write failed, or
    /// the reader thread died. The caller should fail over to another
    /// replica and reconnect this one later.
    Dead(String),
    /// No response within the call's timeout. The connection itself is
    /// still up; a late response will be discarded by request id.
    Timeout(Duration),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Dead(msg) => write!(f, "replica connection dead: {msg}"),
            CallError::Timeout(t) => write!(f, "replica did not answer within {t:?}"),
        }
    }
}

impl std::error::Error for CallError {}

struct ClientShared {
    /// In-flight calls awaiting a response, keyed by request id.
    /// Dropping a sender (draining on reader death) disconnects its
    /// receiver, failing that caller fast.
    pending: Mutex<HashMap<u64, SyncSender<Response>>>,
    dead: AtomicBool,
    dead_reason: Mutex<String>,
}

impl ClientShared {
    fn mark_dead(&self, reason: String) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            *lock(self.dead_reason.lock()) = reason;
        }
        lock(self.pending.lock()).clear();
    }
}

/// A response not yet received — the write half of a call already went
/// out via [`MuxClient::begin`]; `wait` collects the read half. Holding
/// several of these and waiting them in turn is how the router pipelines
/// a scatter: every shard's request is on the wire before any reply is
/// read. Dropping one abandons the call (a late response is discarded by
/// request id, exactly like a timeout).
pub struct PendingReply {
    shared: Arc<ClientShared>,
    id: u64,
    rx: Receiver<Response>,
}

impl PendingReply {
    /// Wait up to `timeout` for the response.
    ///
    /// # Errors
    /// [`CallError::Dead`] when the connection failed under the call,
    /// [`CallError::Timeout`] when the replica does not answer in time.
    pub fn wait(self, timeout: Duration) -> Result<Response, CallError> {
        match self.rx.recv_timeout(timeout) {
            Ok(resp) => Ok(resp),
            Err(RecvTimeoutError::Timeout) => Err(CallError::Timeout(timeout)),
            Err(RecvTimeoutError::Disconnected) => {
                Err(CallError::Dead(lock(self.shared.dead_reason.lock()).clone()))
            }
        }
        // Drop removes the pending id: a no-op when the reader already
        // routed the response, the forget-the-call cleanup on timeout.
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        lock(self.shared.pending.lock()).remove(&self.id);
    }
}

/// A multiplexing EHNP connection to one shard replica.
pub struct MuxClient {
    stream: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    shared: Arc<ClientShared>,
    next_id: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MuxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxClient").field("dead", &self.is_dead()).finish_non_exhaustive()
    }
}

impl MuxClient {
    /// Connect to `addr`, send the EHNP preamble, and start the reader
    /// thread. `connect_timeout` bounds the TCP handshake;
    /// `write_timeout` bounds each frame write so a wedged peer cannot
    /// block a router worker forever (reads are unbounded on the reader
    /// thread — per-call patience lives in [`call`](Self::call)).
    ///
    /// # Errors
    /// Connect failures — the caller's cue to try another replica.
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        write_timeout: Duration,
    ) -> std::io::Result<MuxClient> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(write_timeout))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        write_preamble(&mut writer)?;
        writer.flush()?;
        let shared = Arc::new(ClientShared {
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            dead_reason: Mutex::new(String::new()),
        });
        let reader_stream = stream.try_clone()?;
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name(format!("ehnp-reader-{addr}"))
            .spawn(move || reader_loop(reader_stream, &reader_shared))
            .expect("spawn ehnp reader");
        Ok(MuxClient {
            stream,
            writer: Mutex::new(writer),
            shared,
            next_id: AtomicU64::new(1),
            reader: Some(reader),
        })
    }

    /// Whether the connection has failed. A dead client never recovers;
    /// the owner drops it and reconnects.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// Put `req` on the wire and return a handle to its future response
    /// without waiting for it. The scatter path begins every shard's
    /// request first and only then starts waiting, so per-shard work
    /// overlaps instead of serializing.
    ///
    /// # Errors
    /// [`CallError::Dead`] when the connection is unusable (the write
    /// failed or the reader died).
    pub fn begin(&self, req: &Request) -> Result<PendingReply, CallError> {
        if self.is_dead() {
            return Err(CallError::Dead(lock(self.shared.dead_reason.lock()).clone()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        lock(self.shared.pending.lock()).insert(id, tx);
        {
            let mut w = lock(self.writer.lock());
            if let Err(e) = write_msg(&mut *w, id, req).and_then(|()| w.flush()) {
                drop(w);
                lock(self.shared.pending.lock()).remove(&id);
                self.shared.mark_dead(format!("write failed: {e}"));
                return Err(CallError::Dead(e.to_string()));
            }
        }
        // The reader may have died (and drained `pending`) between the
        // liveness check above and our insert, leaving this call's entry
        // orphaned — re-check before handing out a waitable handle.
        if self.is_dead() {
            lock(self.shared.pending.lock()).remove(&id);
            return Err(CallError::Dead(lock(self.shared.dead_reason.lock()).clone()));
        }
        Ok(PendingReply { shared: Arc::clone(&self.shared), id, rx })
    }

    /// Send `req` and wait up to `timeout` for its response.
    ///
    /// # Errors
    /// [`CallError::Dead`] when the connection is unusable,
    /// [`CallError::Timeout`] when the replica does not answer in time.
    pub fn call(&self, req: &Request, timeout: Duration) -> Result<Response, CallError> {
        self.begin(req)?.wait(timeout)
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.shared.mark_dead("client dropped".into());
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop(stream: TcpStream, shared: &ClientShared) {
    let mut r = BufReader::new(stream);
    loop {
        match read_msg::<_, Response>(&mut r) {
            // Id 0 is never a call's id: the shard refused this
            // connection (it is past its admission cap).
            Ok((0, Response::Error(msg))) => {
                shared.mark_dead(format!("shard refused the connection: {msg}"));
                return;
            }
            Ok((id, resp)) => {
                // An absent id means the caller already timed out; the
                // late response is dropped on the floor.
                if let Some(tx) = lock(shared.pending.lock()).remove(&id) {
                    let _ = tx.try_send(resp);
                }
            }
            Err(e) => {
                let reason = match e {
                    ProtoError::Io(e) => format!("connection lost: {e}"),
                    corrupt => format!("protocol error: {corrupt}"),
                };
                shared.mark_dead(reason);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_preamble;
    use std::net::TcpListener;

    /// A toy EHNP server answering Ping with Pong (out of order for
    /// multiplexed ids) and anything else with an Error.
    fn toy_server(answer_delay: Option<Duration>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else { return };
            let mut r = BufReader::new(stream.try_clone().unwrap());
            if read_preamble(&mut r).is_err() {
                return;
            }
            let mut w = BufWriter::new(stream);
            // Collect two requests, answer in reverse order to prove the
            // client routes by id, not arrival order.
            let mut batch = Vec::new();
            while let Ok((id, req)) = read_msg::<_, Request>(&mut r) {
                batch.push((id, req));
                if batch.len() == 2 {
                    if let Some(d) = answer_delay {
                        std::thread::sleep(d);
                    }
                    for (id, req) in batch.drain(..).rev() {
                        let resp = match req {
                            Request::Ping => Response::Pong { version: 1 },
                            other => Response::Error(format!("toy server: {other:?}")),
                        };
                        write_msg(&mut w, id, &resp).unwrap();
                        w.flush().unwrap();
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn multiplexed_calls_route_by_request_id() {
        let (addr, server) = toy_server(None);
        let client = Arc::new(
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap(),
        );
        let c2 = Arc::clone(&client);
        let t =
            std::thread::spawn(move || c2.call(&Request::Stats, Duration::from_secs(5)).unwrap());
        let pong = client.call(&Request::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(pong, Response::Pong { version: 1 });
        match t.join().unwrap() {
            Response::Error(msg) => assert!(msg.contains("Stats"), "msg: {msg}"),
            other => panic!("stats call got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn begin_pipelines_without_extra_threads() {
        // Both requests must be on the wire before either wait starts:
        // the toy server answers nothing until it has read two frames,
        // so a write-wait-write-wait client would deadlock here.
        let (addr, server) = toy_server(None);
        let client =
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap();
        let first = client.begin(&Request::Ping).unwrap();
        let second = client.begin(&Request::Stats).unwrap();
        assert_eq!(first.wait(Duration::from_secs(5)).unwrap(), Response::Pong { version: 1 });
        match second.wait(Duration::from_secs(5)).unwrap() {
            Response::Error(msg) => assert!(msg.contains("Stats"), "msg: {msg}"),
            other => panic!("stats call got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn dropping_a_pending_reply_abandons_the_call() {
        let (addr, server) = toy_server(None);
        let client =
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap();
        // Abandon the first call before the server answers the batch.
        drop(client.begin(&Request::Ping).unwrap());
        let second = client.begin(&Request::Ping).unwrap();
        // The dropped call's late response is discarded by id; the live
        // call still gets its own answer and the connection stays up.
        assert_eq!(second.wait(Duration::from_secs(5)).unwrap(), Response::Pong { version: 1 });
        assert!(!client.is_dead());
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn timeout_leaves_the_connection_usable() {
        let (addr, server) = toy_server(Some(Duration::from_millis(300)));
        let client = Arc::new(
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap(),
        );
        // First call times out: the server waits for a second request
        // before answering anything.
        match client.call(&Request::Ping, Duration::from_millis(50)) {
            Err(CallError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(!client.is_dead(), "a slow reply must not kill the connection");
        // Second call completes the batch; its (patient) wait succeeds
        // even though the first caller is gone.
        let pong = client.call(&Request::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(pong, Response::Pong { version: 1 });
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn hangup_fails_pending_and_future_calls_fast() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Read the preamble then slam the door.
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let _ = read_preamble(&mut r);
            drop(stream);
        });
        let client =
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap();
        server.join().unwrap();
        // The call either observes the hangup on write or via the
        // drained pending map — never a long block.
        let start = std::time::Instant::now();
        let r = client.call(&Request::Ping, Duration::from_secs(30));
        assert!(matches!(r, Err(CallError::Dead(_))), "got {r:?}");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(client.is_dead());
    }

    #[test]
    fn a_refusal_frame_names_the_reason() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_preamble(&mut stream);
            write_msg(&mut stream, 0, &Response::Error("overloaded".into())).unwrap();
        });
        let client =
            MuxClient::connect(addr, Duration::from_secs(2), Duration::from_secs(2)).unwrap();
        server.join().unwrap();
        let start = std::time::Instant::now();
        while !client.is_dead() {
            assert!(start.elapsed() < Duration::from_secs(5), "refusal frame not read");
            std::thread::sleep(Duration::from_millis(10));
        }
        match client.call(&Request::Ping, Duration::from_secs(5)) {
            Err(CallError::Dead(msg)) => assert!(msg.contains("overloaded"), "msg: {msg}"),
            other => panic!("expected a dead connection, got {other:?}"),
        }
    }

    #[test]
    fn connect_refused_is_an_io_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(
            MuxClient::connect(addr, Duration::from_millis(500), Duration::from_secs(1)).is_err()
        );
    }
}

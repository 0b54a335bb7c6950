//! Fault injection against the hardened TCP server: hostile, slow, and
//! bursty clients must degrade into structured errors or timely
//! disconnects — never a hang, a panic, a leaked thread, or unbounded
//! memory.
//!
//! Each test builds a private server on an ephemeral port with limits
//! tightened so misbehavior trips quickly, then checks both the wire
//! behavior and the telemetry (`rejected` / `timeouts` / `overloads`).

use ehna_serve::{
    query_lines, query_lines_timeout, BruteForceIndex, EmbeddingStore, EngineConfig, EngineHandler,
    Json, QueryEngine, RequestLimits, Server, ServerConfig, ServerHandle,
};
use ehna_tgraph::NodeEmbeddings;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small anonymous store: nodes are addressed by decimal id.
fn engine(nodes: usize) -> Arc<QueryEngine> {
    let dim = 4;
    let data: Vec<f32> = (0..nodes * dim).map(|i| (i % 17) as f32 * 0.25).collect();
    let store = Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(dim, data), None).unwrap());
    let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Arc::new(QueryEngine::new(store, index, EngineConfig::default()))
}

fn spawn(engine: &Arc<QueryEngine>, config: ServerConfig) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", Arc::clone(engine), config).unwrap().spawn().unwrap()
}

/// Poll `cond` until it holds or `deadline` elapses.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn slow_loris_client_is_cut_off() {
    let e = engine(16);
    let handle = spawn(
        &e,
        ServerConfig { read_timeout: Duration::from_millis(150), ..ServerConfig::default() },
    );

    // Trickle a request prefix, then stall past the read timeout.
    let mut attacker = TcpStream::connect(handle.addr()).unwrap();
    attacker.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    attacker.write_all(b"{\"op\":").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let _ = attacker.write_all(b"\"pi"); // still no newline
    std::thread::sleep(Duration::from_millis(400)); // > read_timeout

    // The server must have dropped us: the read half sees EOF or a
    // reset, never a 3-second block on a connection it gave up on.
    let mut buf = [0u8; 64];
    match attacker.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server answered a half-request with {n} bytes"),
    }
    assert!(
        eventually(Duration::from_secs(2), || e.stats().timeouts >= 1),
        "slow-loris drop was not counted: {:?}",
        e.stats()
    );

    // A well-behaved client is still served.
    let resp = query_lines(handle.addr(), &[r#"{"op":"ping"}"#.to_string()]).unwrap();
    assert_eq!(Json::parse(&resp[0]).unwrap().get("ok"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn ten_megabyte_line_is_rejected_without_buffering_it() {
    let e = engine(16);
    // Default cap is 1 MiB; the attacker sends 10 MiB with no newline.
    let handle = spawn(&e, ServerConfig::default());

    let mut attacker = TcpStream::connect(handle.addr()).unwrap();
    attacker.set_write_timeout(Some(Duration::from_secs(1))).unwrap();
    attacker.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < 10 * 1024 * 1024 {
        // Once the server trips the cap it stops reading and closes, so
        // later writes legitimately fail; the attack just keeps pushing.
        match attacker.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break,
        }
    }

    // Either the structured over-length error arrives, or the socket is
    // already torn down — both are a bounded-memory refusal.
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match attacker.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
        }
    }
    if !response.is_empty() {
        let line = String::from_utf8_lossy(&response);
        let resp = Json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("exceeds"));
    }
    assert!(
        eventually(Duration::from_secs(2), || e.stats().rejected >= 1),
        "oversized line was not counted as rejected: {:?}",
        e.stats()
    );

    let resp =
        query_lines(handle.addr(), &[r#"{"op":"knn","node":"3","k":2}"#.to_string()]).unwrap();
    assert_eq!(Json::parse(&resp[0]).unwrap().get("ok"), Some(&Json::Bool(true)));
    handle.shutdown();
}

#[test]
fn connection_flood_is_shed_with_structured_overload() {
    let e = engine(16);
    let handle = spawn(
        &e,
        ServerConfig {
            conn_workers: 2,
            max_connections: 4,
            read_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    );

    // 32 idle connections: the first 4 are admitted (and held), every
    // later arrival must be shed with the overload response.
    let flood: Vec<TcpStream> =
        (0..32).map(|_| TcpStream::connect(handle.addr()).unwrap()).collect();
    // Let the accept loop classify all of them.
    assert!(
        eventually(Duration::from_secs(3), || e.stats().overloads >= 28),
        "flood not shed: {:?}",
        e.stats()
    );

    let mut overloaded = 0usize;
    let mut silent = 0usize;
    for conn in &flood {
        conn.set_read_timeout(Some(Duration::from_millis(250))).unwrap();
        let mut line = String::new();
        let mut reader = std::io::BufReader::new(conn);
        match std::io::BufRead::read_line(&mut reader, &mut line) {
            Ok(n) if n > 0 => {
                let resp = Json::parse(line.trim_end()).unwrap();
                assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
                assert_eq!(resp.get("error").and_then(Json::as_str), Some("overloaded"));
                overloaded += 1;
            }
            // Admitted-and-held connections see our read timeout; shed
            // ones may also surface as a bare close.
            _ => silent += 1,
        }
    }
    assert_eq!(overloaded, 28, "expected exactly the beyond-cap arrivals shed ({silent} silent)");
    assert_eq!(e.stats().overloads, 28);

    // Releasing the flood frees capacity; a fresh client gets served.
    drop(flood);
    assert!(
        eventually(Duration::from_secs(3), || {
            query_lines_timeout(
                handle.addr(),
                &[r#"{"op":"ping"}"#.to_string()],
                Duration::from_millis(500),
            )
            .is_ok()
        }),
        "server did not recover after the flood drained"
    );
    handle.shutdown();
}

#[test]
fn mid_request_disconnect_is_harmless() {
    let e = engine(16);
    let handle = spawn(&e, ServerConfig::default());

    for _ in 0..5 {
        let mut quitter = TcpStream::connect(handle.addr()).unwrap();
        quitter.write_all(b"{\"op\":\"knn\",\"node\":").unwrap(); // no newline
        drop(quitter); // vanish mid-request
    }

    // Partial trailing lines are discarded, not parsed: nothing is
    // rejected, and the server keeps answering.
    let resp = query_lines(
        handle.addr(),
        &[r#"{"op":"ping"}"#.to_string(), r#"{"op":"knn","node":"0","k":3}"#.to_string()],
    )
    .unwrap();
    assert_eq!(Json::parse(&resp[1]).unwrap().get("ok"), Some(&Json::Bool(true)));
    assert_eq!(e.stats().rejected, 0);
    handle.shutdown();
}

#[test]
fn shutdown_under_load_respects_drain_deadline() {
    let e = engine(32);
    let handle = spawn(
        &e,
        ServerConfig {
            conn_workers: 4,
            drain_deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let req = format!(r#"{{"op":"knn","node":"{}","k":3}}"#, i % 32);
                while !stop.load(Ordering::Relaxed) {
                    // During shutdown these fail with overload/EOF/timeout;
                    // the load generator only cares that it never blocks.
                    let _ = query_lines_timeout(
                        addr,
                        std::slice::from_ref(&req),
                        Duration::from_millis(500),
                    );
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200)); // let traffic build
    let started = Instant::now();
    handle.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown under load took {elapsed:?}, past the 500ms drain deadline plus slack"
    );

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    assert!(e.stats().requests > 0, "load generator never got through");
}

#[test]
fn sixteen_clients_hammer_and_stats_reconcile() {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 25;
    let e = engine(64);
    let handle =
        spawn(&e, ServerConfig { conn_workers: 8, max_connections: 64, ..ServerConfig::default() });
    let addr = handle.addr();

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let requests: Vec<String> = (0..PER_CLIENT)
                    .map(|i| {
                        if i % 5 == 0 {
                            // Deliberately invalid: k=0 must be rejected.
                            format!(r#"{{"op":"knn","node":"{}","k":0}}"#, (t + i) % 64)
                        } else {
                            format!(
                                r#"{{"op":"knn","node":"{}","k":{}}}"#,
                                (t * 7 + i) % 64,
                                1 + i % 5
                            )
                        }
                    })
                    .collect();
                let responses = query_lines(addr, &requests).unwrap();
                assert_eq!(responses.len(), PER_CLIENT);
                let mut oks = 0usize;
                for (req, line) in requests.iter().zip(&responses) {
                    let resp = Json::parse(line)
                        .unwrap_or_else(|err| panic!("unparseable response to {req}: {err}"));
                    match resp.get("ok") {
                        Some(&Json::Bool(true)) => oks += 1,
                        Some(&Json::Bool(false)) => {
                            assert!(resp.get("error").is_some(), "failure without error: {line}");
                        }
                        other => panic!("response missing 'ok': {other:?}"),
                    }
                }
                oks
            })
        })
        .collect();
    let served: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();

    let invalid = CLIENTS * PER_CLIENT.div_ceil(5);
    assert_eq!(served, CLIENTS * PER_CLIENT - invalid, "an in-limit request failed");
    let snap = e.stats();
    assert_eq!(snap.requests, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.rejected, invalid as u64);
    assert_eq!(
        snap.requests,
        snap.cache_hits + snap.cache_misses + snap.rejected,
        "stats do not reconcile: {snap:?}"
    );
    assert_eq!(snap.timeouts, 0);
    assert_eq!(snap.overloads, 0);

    // The wire-level stats op reports the same reconciled counters.
    let resp = query_lines(addr, &[r#"{"op":"stats"}"#.to_string()]).unwrap();
    let stats = Json::parse(&resp[0]).unwrap();
    let field = |name: &str| stats.get(name).and_then(Json::as_usize).unwrap();
    assert_eq!(field("requests"), field("cache_hits") + field("cache_misses") + field("rejected"));
    handle.shutdown();
}

#[test]
fn reload_under_query_load_never_breaks_a_response() {
    // 16 clients hammer knn/score/stats while the snapshot is hot-swapped
    // three times. Every response must be well-formed line JSON with an
    // "ok" field — never a hang, a connection reset mid-request, or a
    // panic — and the swap telemetry must land exactly.
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 30;
    const SWAPS: u64 = 3;

    fn make_store(gen: u64) -> Arc<EmbeddingStore> {
        let (nodes, dim) = (64, 4);
        let data: Vec<f32> =
            (0..nodes * dim).map(|i| ((i as u64 * 31 + gen * 7) % 23) as f32 * 0.125).collect();
        Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(dim, data), None).unwrap())
    }
    let store = make_store(0);
    let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    let e = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));

    let gen = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let reloader: ehna_serve::Reloader = Arc::new({
        let gen = Arc::clone(&gen);
        move || {
            let g = gen.fetch_add(1, Ordering::SeqCst) + 1;
            let store = make_store(g);
            let index: Box<dyn ehna_serve::KnnIndex> =
                Box::new(BruteForceIndex::new(Arc::clone(&store)));
            Ok((store, index))
        }
    });
    let handler =
        Arc::new(EngineHandler::new(Arc::clone(&e), RequestLimits::default(), Some(reloader)));
    let handle = Server::bind_handler("127.0.0.1:0", handler, ServerConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let node = (c * PER_CLIENT + i) % 64;
                    let lines = [
                        format!(r#"{{"op":"knn","node":"{node}","k":3}}"#),
                        format!(r#"{{"op":"score","pairs":[["{node}","{}"]]}}"#, (node + 1) % 64),
                        r#"{"op":"stats"}"#.to_string(),
                    ];
                    let resps = query_lines(addr, &lines).expect("query round failed");
                    assert_eq!(resps.len(), lines.len());
                    for (req, resp) in lines.iter().zip(&resps) {
                        let json = Json::parse(resp)
                            .unwrap_or_else(|err| panic!("malformed response to {req}: {err}"));
                        assert_eq!(
                            json.get("ok"),
                            Some(&Json::Bool(true)),
                            "request {req} failed: {resp}"
                        );
                    }
                }
            })
        })
        .collect();

    // Interleave the hot swaps with the query storm.
    let swapper = std::thread::spawn(move || {
        for swap in 0..SWAPS {
            std::thread::sleep(Duration::from_millis(40));
            let resp = query_lines(addr, &[r#"{"op":"reload"}"#.to_string()]).unwrap();
            let json = Json::parse(&resp[0]).unwrap();
            assert_eq!(json.get("ok"), Some(&Json::Bool(true)), "reload {swap} failed: {resp:?}");
            assert_eq!(
                json.get("version").and_then(Json::as_usize),
                Some(swap as usize + 2),
                "versions must advance monotonically"
            );
        }
    });
    for c in clients {
        c.join().unwrap();
    }
    swapper.join().unwrap();

    let snap = e.stats();
    assert_eq!(snap.reloads, SWAPS);
    assert_eq!(snap.snapshot_version, SWAPS + 1);
    assert!(snap.last_reload_unix > 0);
    assert_eq!(snap.timeouts, 0);
    assert_eq!(snap.rejected, 0);

    // The wire-level stats op surfaces the swap telemetry too.
    let resp = query_lines(addr, &[r#"{"op":"stats"}"#.to_string()]).unwrap();
    let stats = Json::parse(&resp[0]).unwrap();
    assert_eq!(stats.get("snapshot_version").and_then(Json::as_usize), Some(SWAPS as usize + 1));
    assert_eq!(stats.get("reloads").and_then(Json::as_usize), Some(SWAPS as usize));

    // An unconfigured server answers reload with a structured error.
    let bare = spawn(&engine(8), ServerConfig::default());
    let resp = query_lines(bare.addr(), &[r#"{"op":"reload"}"#.to_string()]).unwrap();
    let json = Json::parse(&resp[0]).unwrap();
    assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
    bare.shutdown();
    handle.shutdown();
}

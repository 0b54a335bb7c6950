//! Fault injection for the cluster tier, over real sockets:
//!
//! * kill one replica of a 2-replica shard while 16 clients hammer the
//!   router — every response stays well-formed JSON, and when the
//!   replica restarts on the same address the health probes take it
//!   back into rotation;
//! * a replica that accepts connections but never answers gets circuit-
//!   broken while queries keep flowing through its healthy peer;
//! * that same tar-pit shape cannot delay a restarted peer's recovery:
//!   probes fan out with their own short timeout, so recovery lands
//!   within a couple of probe intervals;
//! * a rolling reload under load hot-swaps every shard's snapshot
//!   without a malformed response, invalidates the router's
//!   version-keyed answer cache by construction, and post-reload
//!   answers match a standalone oracle over the new table;
//! * EHNP connection timing: a connection idling at a frame boundary
//!   has no time limit, while a peer that stalls inside the preamble,
//!   the length prefix, or a trickled frame is closed once the frame
//!   deadline for the *whole* frame has passed, and is never answered;
//! * an EHNP connection flood is shed with `overloaded` error frames and
//!   spawns no thread per connection.
//!
//! CI runs this suite as the fault gate (scripts/ci.sh).

use ehna_cluster::proto::{encode_frame, read_msg, write_preamble};
use ehna_cluster::shard::MAX_EHNP_CONNECTIONS;
use ehna_cluster::{
    plan_shards_quant, MuxClient, Request, Response, Router, RouterConfig, ShardConfig,
    ShardHandle, ShardServer,
};
use ehna_serve::{
    handle_line, query_lines, query_lines_timeout, BruteForceIndex, EmbeddingStore, EngineConfig,
    Json, KnnIndex, QueryEngine, Reloader, RequestLimits, Server, ServerConfig,
};
use ehna_tgraph::{NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// The flood test counts this process's threads, so it runs alone:
/// it takes this lock for writing, every other test for reading.
static THREADS: RwLock<()> = RwLock::new(());

fn share_threads() -> RwLockReadGuard<'static, ()> {
    THREADS.read().unwrap_or_else(PoisonError::into_inner)
}

fn table(n: usize, dim: usize, salt: u32) -> NodeEmbeddings {
    let data: Vec<f32> = (0..n * dim).map(|i| ((i as u32 * 7 + salt * 13) % 5) as f32).collect();
    NodeEmbeddings::from_vec(dim, data)
}

/// The lossless EHNQ `f32` encoding of `emb`, as `ehna train` writes it.
fn f32(emb: &NodeEmbeddings) -> QuantizedEmbeddings {
    QuantizedEmbeddings::encode(emb, &QuantSpec::new(QuantFormat::F32)).unwrap()
}

fn engine_for(snap: &Path, names: &Path) -> Arc<QueryEngine> {
    let store = Arc::new(
        EmbeddingStore::open(snap.to_str().unwrap(), Some(names.to_str().unwrap())).unwrap(),
    );
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }))
}

/// A reloader that re-opens the same shard files (the `ehna serve`
/// behavior: rewrite on disk, then ask for a hot swap).
fn reloader_for(snap: &Path, names: &Path) -> Reloader {
    let snap = snap.to_str().unwrap().to_string();
    let names = names.to_str().unwrap().to_string();
    Arc::new(move || {
        let store = Arc::new(EmbeddingStore::open(snap.as_str(), Some(names.as_str()))?);
        let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
        Ok((store, index))
    })
}

/// Bind a shard replica, retrying for a while when the address is still
/// settling after a previous listener died there.
fn bind_replica(
    addr: &str,
    engine: Arc<QueryEngine>,
    shard_id: u32,
    with_reloader: Option<Reloader>,
) -> ShardServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ShardServer::bind(
            addr,
            Arc::clone(&engine),
            RequestLimits::default(),
            with_reloader.clone(),
            ShardConfig { shard_id, ..Default::default() },
        ) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("cannot rebind replica on {addr}: {e}"),
        }
    }
}

/// Spawn `clients` threads hammering `addr` with small knn batches until
/// `stop` flips. Returns (total responses, malformed responses, ok:false
/// responses) counters shared with the threads.
struct Load {
    stop: Arc<AtomicBool>,
    total: Arc<AtomicUsize>,
    malformed: Arc<AtomicUsize>,
    not_ok: Arc<AtomicUsize>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

fn start_load(addr: SocketAddr, clients: usize) -> Load {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicUsize::new(0));
    let malformed = Arc::new(AtomicUsize::new(0));
    let not_ok = Arc::new(AtomicUsize::new(0));
    let threads = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            let malformed = Arc::clone(&malformed);
            let not_ok = Arc::clone(&not_ok);
            std::thread::spawn(move || {
                let reqs = vec![
                    format!(r#"{{"op":"knn","node":"{}","k":3}}"#, c % 20),
                    r#"{"op":"ping"}"#.to_string(),
                ];
                while !stop.load(Ordering::Relaxed) {
                    // Connection-level failures (e.g. the router's
                    // admission cap under 16 clients on 1 CPU) are not
                    // responses; only delivered lines are judged.
                    let Ok(lines) = query_lines_timeout(addr, &reqs, Duration::from_secs(10))
                    else {
                        continue;
                    };
                    for line in lines {
                        total.fetch_add(1, Ordering::Relaxed);
                        match Json::parse(&line) {
                            Ok(doc) => match doc.get("ok") {
                                Some(&Json::Bool(true)) => {}
                                Some(&Json::Bool(false)) => {
                                    not_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    malformed.fetch_add(1, Ordering::Relaxed);
                                }
                            },
                            Err(_) => {
                                malformed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    Load { stop, total, malformed, not_ok, threads }
}

impl Load {
    fn finish(self) -> (usize, usize, usize) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().unwrap();
        }
        (
            self.total.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
            self.not_ok.load(Ordering::Relaxed),
        )
    }
}

/// Poll `f` until it returns true or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut f: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn replica_kill_under_load_recovers_on_restart() {
    let _threads = share_threads();
    const N: usize = 40;
    let dir = std::env::temp_dir().join("ehna_cluster_fault_kill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = table(N, 4, 0);
    let manifest = plan_shards_quant(&f32(&emb), None, 2, &dir).unwrap();

    // Shard 0 runs two replicas (A, B); shard 1 runs one.
    let shard0_snap = dir.join(&manifest.shards[0].snapshot);
    let shard0_names = dir.join(&manifest.shards[0].names);
    let replica_a = ShardServer::bind(
        "127.0.0.1:0",
        engine_for(&shard0_snap, &shard0_names),
        RequestLimits::default(),
        None,
        ShardConfig::default(),
    )
    .unwrap();
    let addr_a = replica_a.local_addr().unwrap();
    let handle_a = replica_a.spawn().unwrap();
    let replica_b = ShardServer::bind(
        "127.0.0.1:0",
        engine_for(&shard0_snap, &shard0_names),
        RequestLimits::default(),
        None,
        ShardConfig::default(),
    )
    .unwrap();
    let addr_b = replica_b.local_addr().unwrap();
    let handle_b = replica_b.spawn().unwrap();
    let shard1 = ShardServer::bind(
        "127.0.0.1:0",
        engine_for(&dir.join(&manifest.shards[1].snapshot), &dir.join(&manifest.shards[1].names)),
        RequestLimits::default(),
        None,
        ShardConfig { shard_id: 1, ..Default::default() },
    )
    .unwrap();
    let addr_s1 = shard1.local_addr().unwrap();
    let handle_s1 = shard1.spawn().unwrap();

    let router = Arc::new(
        Router::new(
            manifest,
            vec![vec![addr_a, addr_b], vec![addr_s1]],
            RequestLimits::default(),
            RouterConfig {
                probe_interval: Duration::from_millis(100),
                breaker_threshold: 2,
                shard_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let front =
        Server::bind_handler("127.0.0.1:0", Arc::clone(&router) as _, ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();

    // 16 clients hammer the router; mid-load, replica A dies.
    let load = start_load(front.addr(), 16);
    std::thread::sleep(Duration::from_millis(300));
    handle_a.shutdown();
    std::thread::sleep(Duration::from_millis(700));

    // The router must notice A is gone while B keeps shard 0 alive.
    wait_for("replica A marked unhealthy", Duration::from_secs(20), || {
        !router.replica_status()[0][0].healthy
    });
    assert!(router.replica_status()[0][1].healthy, "replica B must stay healthy");

    let (total, malformed, _not_ok) = load.finish();
    assert!(total > 0, "load generator produced no traffic");
    assert_eq!(malformed, 0, "malformed responses under replica kill: {malformed}/{total}");

    // A deterministic query still works with A down.
    let lines =
        query_lines(front.addr(), &[r#"{"op":"knn","node":"5","k":4}"#.to_string()]).unwrap();
    let doc = Json::parse(&lines[0]).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "query with A down: {}", lines[0]);

    // Restart A on the same address; probes must bring it back.
    let restarted =
        bind_replica(&addr_a.to_string(), engine_for(&shard0_snap, &shard0_names), 0, None);
    let handle_a2 = restarted.spawn().unwrap();
    wait_for("replica A probed back to healthy", Duration::from_secs(30), || {
        let s = &router.replica_status()[0][0];
        s.healthy && !s.breaker_open
    });
    let lines =
        query_lines(front.addr(), &[r#"{"op":"knn","node":"5","k":4}"#.to_string()]).unwrap();
    assert_eq!(
        Json::parse(&lines[0]).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "query after A's recovery: {}",
        lines[0]
    );

    front.shutdown();
    handle_a2.shutdown();
    handle_b.shutdown();
    handle_s1.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_replica_is_circuit_broken_while_peer_serves() {
    let _threads = share_threads();
    const N: usize = 24;
    let dir = std::env::temp_dir().join("ehna_cluster_fault_slow");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = table(N, 4, 1);
    let manifest = plan_shards_quant(&f32(&emb), None, 1, &dir).unwrap();

    // A tarpit: accepts EHNP connections, reads forever, never answers.
    let tarpit = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let tarpit_addr = tarpit.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in tarpit.incoming() {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut conn = conn;
                let mut sink = [0u8; 4096];
                while let Ok(n) = std::io::Read::read(&mut conn, &mut sink) {
                    if n == 0 {
                        return;
                    }
                }
            });
        }
    });

    let snap = dir.join(&manifest.shards[0].snapshot);
    let names = dir.join(&manifest.shards[0].names);
    let healthy = ShardServer::bind(
        "127.0.0.1:0",
        engine_for(&snap, &names),
        RequestLimits::default(),
        None,
        ShardConfig::default(),
    )
    .unwrap();
    let healthy_addr = healthy.local_addr().unwrap();
    let healthy_handle = healthy.spawn().unwrap();

    // The tarpit is listed first, so round-robin visits it early.
    let router = Arc::new(
        Router::new(
            manifest,
            vec![vec![tarpit_addr, healthy_addr]],
            RequestLimits::default(),
            RouterConfig {
                shard_timeout: Duration::from_millis(300),
                probe_interval: Duration::from_millis(100),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(60),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let front =
        Server::bind_handler("127.0.0.1:0", Arc::clone(&router) as _, ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();

    // Queries keep succeeding (failover eats the tarpit's timeout), and
    // the tarpit ends up circuit-broken.
    let load = start_load(front.addr(), 4);
    wait_for("tarpit circuit-broken", Duration::from_secs(30), || {
        let s = &router.replica_status()[0][0];
        !s.healthy && s.breaker_open
    });
    let (total, malformed, _) = load.finish();
    assert!(total > 0);
    assert_eq!(malformed, 0, "malformed responses with a tarpit replica: {malformed}/{total}");
    let status = router.replica_status();
    assert!(status[0][1].healthy, "healthy peer must stay in rotation");

    let lines =
        query_lines(front.addr(), &[r#"{"op":"knn","node":"3","k":5}"#.to_string()]).unwrap();
    assert_eq!(
        Json::parse(&lines[0]).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "query with tarpit broken: {}",
        lines[0]
    );

    front.shutdown();
    healthy_handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tarpit_replica_does_not_delay_peer_recovery() {
    let _threads = share_threads();
    // The probe loop fans out with its own short timeout. A tar-pit
    // replica (accepts, never answers) eats `probe_timeout` per round —
    // but concurrently, so a killed-and-restarted peer on the same
    // shard must be probed back to healthy within a couple of probe
    // intervals, not after the tar-pit's timeout serializes in front of
    // it. With `shard_timeout` at 5s, a probe round that budgeted the
    // shard timeout per replica would blow the bound checked here.
    const N: usize = 20;
    let dir = std::env::temp_dir().join("ehna_cluster_fault_tarpit_recovery");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = table(N, 4, 2);
    let manifest = plan_shards_quant(&f32(&emb), None, 1, &dir).unwrap();

    let tarpit = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let tarpit_addr = tarpit.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in tarpit.incoming() {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut conn = conn;
                let mut sink = [0u8; 4096];
                while let Ok(n) = std::io::Read::read(&mut conn, &mut sink) {
                    if n == 0 {
                        return;
                    }
                }
            });
        }
    });

    let snap = dir.join(&manifest.shards[0].snapshot);
    let names = dir.join(&manifest.shards[0].names);
    let peer = ShardServer::bind(
        "127.0.0.1:0",
        engine_for(&snap, &names),
        RequestLimits::default(),
        None,
        ShardConfig::default(),
    )
    .unwrap();
    let peer_addr = peer.local_addr().unwrap();
    let peer_handle = peer.spawn().unwrap();

    let probe_interval = Duration::from_millis(200);
    let router = Arc::new(
        Router::new(
            manifest,
            vec![vec![tarpit_addr, peer_addr]],
            RequestLimits::default(),
            RouterConfig {
                probe_interval,
                probe_timeout: Duration::from_millis(250),
                shard_timeout: Duration::from_secs(5),
                connect_timeout: Duration::from_millis(500),
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(60),
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // Kill the healthy peer and let the probes notice.
    peer_handle.shutdown();
    wait_for("dead peer marked unhealthy", Duration::from_secs(20), || {
        !router.replica_status()[0][1].healthy
    });

    // Restart it on the same address. Recovery must take ~2 probe
    // intervals, not a tar-pit-serialized eternity. The bound is padded
    // for CI noise but sits far below one 5s serialized probe round.
    let restarted = bind_replica(&peer_addr.to_string(), engine_for(&snap, &names), 0, None);
    let restarted_handle = restarted.spawn().unwrap();
    let began = Instant::now();
    wait_for("restarted peer probed back", Duration::from_secs(20), || {
        router.replica_status()[0][1].healthy
    });
    let took = began.elapsed();
    assert!(
        took < probe_interval * 2 + Duration::from_secs(2),
        "recovery took {took:?}; the tar-pit is serializing the probe loop"
    );
    // The restarted peer's snapshot version rode back on its Pong.
    assert_eq!(router.replica_status()[0][1].snapshot_version, 1);

    restarted_handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rolling_reload_under_load_swaps_every_shard() {
    let _threads = share_threads();
    const N: usize = 30;
    const DIM: usize = 4;
    let dir = std::env::temp_dir().join("ehna_cluster_fault_reload");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let before = table(N, DIM, 0);
    let manifest = plan_shards_quant(&f32(&before), None, 2, &dir).unwrap();

    let mut handles = Vec::new();
    let mut replicas = Vec::new();
    for (i, entry) in manifest.shards.iter().enumerate() {
        let snap = dir.join(&entry.snapshot);
        let names = dir.join(&entry.names);
        let shard = ShardServer::bind(
            "127.0.0.1:0",
            engine_for(&snap, &names),
            RequestLimits::default(),
            Some(reloader_for(&snap, &names)),
            ShardConfig { shard_id: i as u32, ..Default::default() },
        )
        .unwrap();
        replicas.push(vec![shard.local_addr().unwrap()]);
        handles.push(shard.spawn().unwrap());
    }
    let router = Arc::new(
        Router::new(
            manifest,
            replicas,
            RequestLimits::default(),
            RouterConfig { probe_interval: Duration::ZERO, ..Default::default() },
        )
        .unwrap(),
    );
    let front =
        Server::bind_handler("127.0.0.1:0", Arc::clone(&router) as _, ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();

    let load = start_load(front.addr(), 4);
    std::thread::sleep(Duration::from_millis(200));

    // Warm the router's answer cache against the OLD table: a repeat of
    // the same node-keyed query must come back `"cached":true`.
    let probe_req = r#"{"op":"knn","node":"4","k":6}"#.to_string();
    let cold =
        Json::parse(&query_lines(front.addr(), std::slice::from_ref(&probe_req)).unwrap()[0])
            .unwrap();
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "cold: {cold}");
    let warm =
        Json::parse(&query_lines(front.addr(), std::slice::from_ref(&probe_req)).unwrap()[0])
            .unwrap();
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "warm: {warm}");
    assert_eq!(
        warm.get("neighbors").map(Json::to_string),
        cold.get("neighbors").map(Json::to_string),
        "cache changed the answer"
    );

    // Rewrite every shard snapshot (same shape, new values), then roll.
    let after = table(N, DIM, 9);
    plan_shards_quant(&f32(&after), None, 2, &dir).unwrap();
    let lines = query_lines(front.addr(), &[r#"{"op":"reload"}"#.to_string()]).unwrap();
    let doc = Json::parse(&lines[0]).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "rolling reload: {}", lines[0]);
    let rolled = doc.get("rolled").and_then(Json::as_arr).expect("rolled array");
    assert_eq!(rolled.len(), 2, "one entry per shard: {}", lines[0]);
    for shard_entry in rolled {
        let replicas = shard_entry.get("replicas").and_then(Json::as_arr).expect("replicas");
        assert_eq!(replicas.len(), 1, "one replica per shard here: {}", lines[0]);
        for replica in replicas {
            assert_eq!(replica.get("ok"), Some(&Json::Bool(true)), "roll: {}", lines[0]);
            assert_eq!(replica.get("version").and_then(Json::as_f64), Some(2.0));
        }
    }

    let (total, malformed, _) = load.finish();
    assert!(total > 0);
    assert_eq!(malformed, 0, "malformed responses during rolling reload: {malformed}/{total}");

    // Post-reload answers must match a standalone oracle over the NEW
    // table, proving the swap actually landed on every shard.
    let oracle_store = {
        let snap = dir.join("oracle.bin");
        f32(&after).save_path(&snap).unwrap();
        Arc::new(EmbeddingStore::open(snap.to_str().unwrap(), None).unwrap())
    };
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&oracle_store)));
    let oracle =
        QueryEngine::new(oracle_store, index, EngineConfig { workers: 1, cache_capacity: 0 });
    let limits = RequestLimits::default();
    for req in [r#"{"op":"knn","node":"4","k":6}"#, r#"{"op":"knn","node":"29","k":3}"#] {
        let want = handle_line(&oracle, &limits, req).to_string();
        let got = query_lines(front.addr(), &[req.to_string()]).unwrap().remove(0);
        // Byte-identical to a cache-cold oracle: the reload bumped every
        // replica's snapshot version, so the warm pre-reload entry is
        // unreachable by construction — `"cached":false`, new answer.
        assert_eq!(want, got, "post-reload divergence on {req}");
    }
    // And the cache works again under the new version vector.
    let rewarm = Json::parse(&query_lines(front.addr(), &[probe_req]).unwrap()[0]).unwrap();
    assert_eq!(rewarm.get("cached"), Some(&Json::Bool(true)), "re-warm: {rewarm}");

    front.shutdown();
    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frame deadline for the EHNP timing tests.
const FRAME_DEADLINE: Duration = Duration::from_millis(300);

/// How long after its first byte a stalled peer may stay connected.
fn stall_limit() -> Duration {
    FRAME_DEADLINE * 2 + Duration::from_secs(1)
}

/// One in-memory shard on an ephemeral port with `FRAME_DEADLINE`.
fn timing_shard() -> ShardHandle {
    mem_shard(FRAME_DEADLINE).1
}

/// One in-memory shard on an ephemeral port, and its engine.
fn mem_shard(frame_deadline: Duration) -> (Arc<QueryEngine>, ShardHandle) {
    let store = Arc::new(EmbeddingStore::new(table(8, 4, 3), None).unwrap());
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    let engine =
        Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }));
    let config = ShardConfig { frame_deadline, ..Default::default() };
    let handle = ShardServer::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        RequestLimits::default(),
        None,
        config,
    )
    .unwrap()
    .spawn()
    .unwrap();
    (engine, handle)
}

/// Whether a read result means the peer closed the connection (a FIN,
/// or a reset when the shard hung up with our bytes unread).
fn is_close(read: &std::io::Result<usize>) -> bool {
    match read {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted),
    }
}

/// Write `first` to the shard, stall, and return how long after that
/// first byte the shard closed the connection. Panics if it answers or
/// keeps the connection open past `stall_limit()`.
fn close_after_stall(addr: SocketAddr, first: &[u8]) -> Duration {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(stall_limit())).unwrap();
    conn.write_all(first).unwrap();
    let sent = Instant::now();
    let mut buf = [0u8; 64];
    let read = conn.read(&mut buf);
    let took = sent.elapsed();
    assert!(is_close(&read), "shard did not close a stalled peer: {read:?} after {took:?}");
    assert!(took <= stall_limit(), "stalled peer closed after {took:?}");
    took
}

#[test]
fn ehnp_idle_at_a_frame_boundary_has_no_time_limit() {
    let _threads = share_threads();
    let shard = timing_shard();
    let client =
        MuxClient::connect(shard.addr(), Duration::from_secs(2), Duration::from_secs(2)).unwrap();
    let t = Duration::from_secs(5);
    assert!(matches!(client.call(&Request::Ping, t), Ok(Response::Pong { .. })));
    // Idle for more than three frame deadlines between frames.
    std::thread::sleep(Duration::from_secs(1));
    assert!(
        matches!(client.call(&Request::Ping, t), Ok(Response::Pong { .. })),
        "an idle keep-alive connection was dropped"
    );
    drop(client);
    shard.shutdown();
}

#[test]
fn ehnp_peer_stalled_inside_the_preamble_is_closed() {
    let _threads = share_threads();
    let shard = timing_shard();
    let mut preamble = Vec::new();
    write_preamble(&mut preamble).unwrap();
    close_after_stall(shard.addr(), &preamble[..3]);
    shard.shutdown();
}

#[test]
fn ehnp_peer_stalled_inside_the_length_prefix_is_closed() {
    let _threads = share_threads();
    let shard = timing_shard();
    let mut bytes = Vec::new();
    write_preamble(&mut bytes).unwrap();
    bytes.extend_from_slice(&encode_frame(1, &Request::Ping)[..2]);
    close_after_stall(shard.addr(), &bytes);
    shard.shutdown();
}

#[test]
fn ehnp_frame_deadline_covers_the_whole_frame() {
    let _threads = share_threads();
    // A valid Ping trickled one byte per 120 ms: every read makes
    // progress, but the frame as a whole takes ~2.5 s, far past the
    // deadline, so the shard must hang up without answering.
    let shard = timing_shard();
    let mut conn = TcpStream::connect(shard.addr()).unwrap();
    write_preamble(&mut conn).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(120))).unwrap();
    let frame = encode_frame(1, &Request::Ping);
    let first = Instant::now();
    let mut buf = [0u8; 64];
    let mut closed = false;
    for &byte in &frame {
        if conn.write_all(&[byte]).is_err() {
            closed = true; // the shard already hung up
            break;
        }
        let read = conn.read(&mut buf);
        if let Ok(n @ 1..) = read {
            panic!("shard answered a trickled frame ({n} bytes)");
        }
        if is_close(&read) {
            closed = true;
            break;
        }
    }
    let took = first.elapsed();
    assert!(closed, "shard kept a trickling peer for the whole {}-byte frame", frame.len());
    assert!(took <= stall_limit(), "trickling peer closed after {took:?}");
    shard.shutdown();
}

/// Live threads in this test process.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn ehnp_connection_flood_is_shed_with_overloaded_frames() {
    const FLOOD: usize = 1000;
    let _alone = THREADS.write().unwrap_or_else(PoisonError::into_inner);
    let (engine, shard) = mem_shard(Duration::from_secs(10));
    let shed = (FLOOD - MAX_EHNP_CONNECTIONS) as u64;

    // Idle connections that never send the preamble, like the JSON
    // flood test: a shed socket closes with nothing unread, so no reset
    // can eat its error frame. They arrive in batches the accept loop
    // drains before the next, so none waits out a SYN retry on a full
    // listen backlog.
    let before = live_threads();
    let mut flood: Vec<TcpStream> = Vec::with_capacity(FLOOD);
    while flood.len() < FLOOD {
        let batch = (FLOOD - flood.len()).min(64);
        flood.extend((0..batch).map(|_| TcpStream::connect(shard.addr()).unwrap()));
        let threads = live_threads();
        assert!(
            threads <= before + MAX_EHNP_CONNECTIONS + 8,
            "{threads} live threads after {} flood connections, {before} before them",
            flood.len()
        );
        let classified = flood.len().saturating_sub(MAX_EHNP_CONNECTIONS) as u64;
        wait_for("the shard to shed the flood", Duration::from_secs(10), || {
            engine.stats().overloads >= classified
        });
    }

    let mut overloaded = 0u64;
    for conn in &flood {
        conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        match read_msg::<_, Response>(&mut &*conn) {
            Ok((_, Response::Error(msg))) if msg == "overloaded" => overloaded += 1,
            Ok(other) => panic!("a flood connection read {other:?}"),
            // Admitted and held: the shard waits for a preamble.
            Err(_) => {}
        }
    }
    assert_eq!(overloaded, shed, "expected exactly the arrivals past the cap shed");
    assert_eq!(engine.stats().overloads, shed);

    // Releasing the flood frees the admitted slots.
    drop(flood);
    let released = Instant::now();
    wait_for("a ping after the flood", Duration::from_secs(3), || {
        MuxClient::connect(shard.addr(), Duration::from_secs(1), Duration::from_secs(1)).is_ok_and(
            |client| {
                matches!(
                    client.call(&Request::Ping, Duration::from_secs(1)),
                    Ok(Response::Pong { .. })
                )
            },
        )
    });
    assert!(released.elapsed() < Duration::from_secs(3));
    shard.shutdown();
}

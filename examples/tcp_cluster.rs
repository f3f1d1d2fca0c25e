//! Run the protocols over real TCP sockets.
//!
//! Two modes:
//!
//! **Loopback cluster** (default) — one OS thread per process, every
//! message canonically encoded, framed, and carried over handshaked
//! loopback TCP links; adaptive BB first, then one pipelined SMR slot:
//!
//! ```text
//! cargo run --example tcp_cluster [n] [delta_ms]
//! ```
//!
//! **Multi-process** — each invocation is one cluster member in its own
//! OS process, dialing the others' listen addresses; start all `n`
//! within a few seconds of each other (δ defaults to 50 ms to absorb
//! start skew):
//!
//! ```text
//! cargo run --example tcp_cluster -- --me 0 --bind 127.0.0.1:7400 \
//!     --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402
//! ```

use meba::engine::{ProcessFate, ProcessFateFactory};
use meba::prelude::*;
use meba::testkit::{recoverable_decision, WeakBaRecoveryHarness};
use meba::wire::{
    config_digest, drive_mesh, run_tcp_cluster, run_tcp_cluster_with_recovery, Hello, MeshConfig,
    MeshDriveConfig, TcpClusterConfig, TcpMesh, PROTOCOL_VERSION,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

type BbProc = Bb<u64, RecursiveBaFactory>;
type BbM = <BbProc as SubProtocol>::Msg;
type Log = ReplicatedLog<u64, RecursiveBaFactory>;
type LogM = <Log as Actor>::Msg;

fn bb_actors(
    cfg: SystemConfig,
    seed: u64,
    sender: ProcessId,
    value: u64,
) -> Vec<Box<dyn AnyActor<Msg = BbM>>> {
    let (pki, keys) = trusted_setup(cfg.n(), seed);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let bb: BbProc = if id == sender {
                Bb::new_sender(cfg, id, key, pki.clone(), factory, value)
            } else {
                Bb::new(cfg, id, key, pki.clone(), factory, sender)
            };
            Box::new(LockstepAdapter::new(id, bb)) as _
        })
        .collect()
}

fn loopback(n: usize, delta_ms: u64) -> Result<(), Box<dyn std::error::Error>> {
    let delta = Duration::from_millis(delta_ms);
    let tcp_config = || TcpClusterConfig {
        cluster: meba::engine::ClusterConfig {
            delta,
            max_rounds: 5_000,
            ..meba::engine::ClusterConfig::default()
        },
        ..TcpClusterConfig::default()
    };

    // Part 1: adaptive BB, failure-free — O(n) words over real sockets.
    let cfg = SystemConfig::new(n, 0xb0)?;
    println!("Adaptive BB over loopback TCP, n = {n}, δ = {delta_ms} ms");
    let started = Instant::now();
    let tcp = run_tcp_cluster(bb_actors(cfg, 0xb0, ProcessId(0), 42), &cfg, tcp_config())?;
    let report = &tcp.report;
    assert!(report.completed, "BB cluster did not terminate");
    for a in &report.actors {
        let l: &LockstepAdapter<BbProc> = a.as_any().downcast_ref().unwrap();
        assert_eq!(l.inner().output(), Some(Decision::Value(42)));
    }
    let c = &report.metrics.correct;
    println!(
        "  all {n} processes decided 42 in {} rounds ({:.0?})",
        report.rounds,
        started.elapsed()
    );
    println!(
        "  {} correct words = {} codec bytes ({} B/word); {} frames, {} socket bytes, {} reconnects\n",
        c.words,
        c.bytes,
        c.bytes.div_ceil(c.words.max(1)),
        tcp.frames_sent,
        tcp.socket_bytes,
        tcp.reconnects,
    );

    // Part 2: one pipelined SMR slot — the replicated log commits a
    // command through a full BB session multiplexed over the same codec.
    let cfg = SystemConfig::new(n, 0)?;
    let (pki, keys) = trusted_setup(n, 0xce);
    let actors: Vec<Box<dyn AnyActor<Msg = LogM>>> = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let log: Log =
                ReplicatedLog::new(cfg, id, key, pki.clone(), factory, 1, vec![900 + i as u64], 0);
            Box::new(log) as _
        })
        .collect();
    println!("One pipelined SMR slot over loopback TCP");
    let tcp = run_tcp_cluster(actors, &cfg, tcp_config())?;
    assert!(tcp.report.completed, "SMR cluster did not terminate");
    let mut committed = None;
    for a in &tcp.report.actors {
        let l: &Log = a.as_any().downcast_ref().unwrap();
        let entries: Vec<u64> = l.log().iter().filter_map(|e| e.entry.value().copied()).collect();
        match &committed {
            None => committed = Some(entries),
            Some(c) => assert_eq!(c, &entries, "replicas diverged"),
        }
    }
    println!(
        "  slot 0 committed {:?} on every replica in {} rounds; {} frames over the wire",
        committed.unwrap(),
        tcp.report.rounds,
        tcp.frames_sent,
    );

    // Part 3: crash-recovery chaos — weak BA with one process killed mid-run
    // (its TCP links torn down for real) and relaunched from its journal.
    let harness = Arc::new(WeakBaRecoveryHarness::new(&vec![7u64; n]));
    let victim = ProcessId(1);
    let fate: ProcessFateFactory = Arc::new(move |p: ProcessId| {
        if p == victim {
            ProcessFate::CrashRestart { at_round: 2, rejoin_after: 3 }
        } else {
            ProcessFate::Run
        }
    });
    println!("Crash-recovery over loopback TCP: p{} killed at round 2, relaunched", victim.0);
    let tcp = run_tcp_cluster_with_recovery(
        harness.actors(),
        Some(harness.rebuilder()),
        &harness.config(),
        TcpClusterConfig {
            cluster: meba::engine::ClusterConfig {
                delta: delta.max(Duration::from_millis(12)),
                max_rounds: 5_000,
                process_fate: Some(fate),
                ..meba::engine::ClusterConfig::default()
            },
            domain: 0x3a,
            ..TcpClusterConfig::default()
        },
    )?;
    assert!(tcp.report.completed, "recovery cluster did not terminate");
    for a in &tcp.report.actors {
        let d = recoverable_decision(a.as_ref()).expect("every process (incl. recovered) decides");
        assert_eq!(d, Decision::Value(7), "survivors and the recovered process must agree");
    }
    let rec = &tcp.report.metrics.recovery;
    assert_eq!(rec.crash_restarts, 1);
    assert_eq!(rec.refused_equivocations, 0, "honest replay never re-signs a conflicting slot");
    println!(
        "  all {n} processes decided 7 in {} rounds; {} records replayed, {} fsyncs, \
         {} recovery rounds, {} reconnects, refused equivocations = {}",
        tcp.report.rounds,
        rec.replayed_records,
        rec.journal_fsyncs,
        rec.recovery_rounds,
        tcp.reconnects,
        rec.refused_equivocations,
    );
    Ok(())
}

fn multi_process(
    me: u32,
    bind: SocketAddr,
    peers: Vec<SocketAddr>,
    delta_ms: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let n = peers.len();
    let cfg = SystemConfig::new(n, 0xb0)?;
    let id = ProcessId(me);
    assert_eq!(peers[id.index()], bind, "--bind must equal our own --peers entry");

    let listener = TcpListener::bind(bind)?;
    let hello =
        Hello { version: PROTOCOL_VERSION, id, config_digest: config_digest(&cfg), domain: 0xb0 };
    let mut mesh_cfg = MeshConfig::new(id, hello);
    mesh_cfg.dial_timeout = Duration::from_secs(30);
    println!("p{me}: listening on {bind}, establishing mesh with {} peers...", n - 1);
    let mesh: TcpMesh<BbM> = TcpMesh::establish(mesh_cfg, listener, &peers)?;
    println!("p{me}: all {} links handshaked", 2 * (n - 1));

    let mut actors = bb_actors(cfg, 0xb0, ProcessId(0), 42);
    let mut actor = actors.remove(id.index());
    let drive = MeshDriveConfig {
        delta: Duration::from_millis(delta_ms),
        max_rounds: 5_000,
        ..MeshDriveConfig::default()
    };
    let (rounds, metrics) = drive_mesh(&mesh, &mut actor, &drive);
    mesh.shutdown();

    let l: &LockstepAdapter<BbProc> = actor.as_any().downcast_ref().unwrap();
    println!(
        "p{me}: decision {:?} after {rounds} rounds, {} words / {} bytes sent",
        l.inner().output(),
        metrics.correct.words,
        metrics.correct.bytes,
    );
    assert_eq!(l.inner().output(), Some(Decision::Value(42)));
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bind") {
        let mut me = None;
        let mut bind = None;
        let mut peers = Vec::new();
        let mut delta_ms = 50;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--me" => me = Some(it.next().ok_or("--me needs a value")?.parse()?),
                "--bind" => bind = Some(it.next().ok_or("--bind needs a value")?.parse()?),
                "--peers" => {
                    peers = it
                        .next()
                        .ok_or("--peers needs a value")?
                        .split(',')
                        .map(|s| s.trim().parse())
                        .collect::<Result<_, _>>()?;
                }
                "--delta-ms" => delta_ms = it.next().ok_or("--delta-ms needs a value")?.parse()?,
                other => return Err(format!("unknown flag {other}").into()),
            }
        }
        let me = me.ok_or("--me is required with --bind")?;
        let bind = bind.ok_or("--bind is required")?;
        if peers.len() < 3 {
            return Err("--peers needs at least 3 comma-separated addresses".into());
        }
        multi_process(me, bind, peers, delta_ms)
    } else {
        let mut it = args.iter();
        let n: usize = it.next().map(|s| s.parse()).transpose()?.unwrap_or(5);
        let delta_ms: u64 = it.next().map(|s| s.parse()).transpose()?.unwrap_or(5);
        loopback(n, delta_ms)
    }
}

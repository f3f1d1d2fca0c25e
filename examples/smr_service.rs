//! The full client-service stack over real processes and real sockets.
//!
//! Run with no arguments and the binary orchestrates the whole demo by
//! re-executing itself:
//!
//! ```text
//! cargo run --release --example smr_service [-- base_port]
//! ```
//!
//! * three **replica processes**, each running a [`ServiceReplica`]
//!   (replicated log + batcher + WAL + dedup + certified state
//!   transfer) over a handshaked TCP mesh with the quorum-or-timeout
//!   round driver, and a [`ServiceGateway`] thread serving its client
//!   port;
//! * two **client processes** speaking the framed client protocol
//!   through [`ServiceClient`]: hello handshake, paced submits, commit
//!   ack collection, and a read;
//! * one client is **killed mid-stream** (a real SIGKILL) and
//!   relaunched under the same client id. The relaunch blindly
//!   resubmits its whole sequence range: ops the cluster already
//!   committed are re-acked idempotently from the dedup table, ops
//!   still in flight are absorbed silently, and the rest are admitted
//!   fresh — exactly-once either way;
//! * one **replica is killed mid-stream** (a real SIGKILL, taken only
//!   after the first write has demonstrably committed) and relaunched
//!   with its journal **wiped** — a disk-loss restart. The restart
//!   rejoins the mesh, fast-forwards its round clock on observed
//!   quorum traffic, and catches its applied prefix up to the
//!   cluster's committed prefix via certified state transfer — **no
//!   client resubmits anything** for those slots (at n = 3 the commit
//!   quorum is all three replicas, so fresh agreement could never
//!   re-produce them); the restart asserts it applied every slot and
//!   that at least one slot arrived by transfer rather than local
//!   agreement.
//!
//! Every process asserts its own invariants and exits nonzero on
//! violation; the orchestrator asserts every child succeeded.

use meba::engine::RoundDriverConfig;
use meba::prelude::*;
use meba::service::{ReadMode, ReplicaMsg, ServiceMsg, ServiceReply};
use meba::wire::{
    config_digest, drive_mesh, Hello, MeshConfig, MeshDriveConfig, TcpMesh, PROTOCOL_VERSION,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

type ServiceProc = ServiceReplica<RecursiveBaFactory>;
type ServiceM = ReplicaMsg<ServiceMsg<RecursiveBaFactory>>;

const N: usize = 3;
const SEED: u64 = 0x5e8;
const TOTAL_SLOTS: u64 = 12;
const WINDOW: u64 = 2;
const QUEUE_CAPACITY: usize = 64;
/// Ops per client: client 1 submits seqs `0..4`, client 2 seqs `0..6`.
const CLIENT1_OPS: u64 = 4;
const CLIENT2_OPS: u64 = 6;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        total_slots: TOTAL_SLOTS,
        window: WINDOW,
        // A generous age bound keeps a paced client's trickle in one
        // batch instead of fragmenting it across proposer slots; a due
        // proposer slot force-closes the open batch anyway, so this
        // never delays a bind.
        batch: BatchPolicy { max_batch_delay: 12, ..BatchPolicy::default() },
        queue_capacity: QUEUE_CAPACITY,
    }
}

fn mesh_addr(base: u16, i: usize) -> SocketAddr {
    format!("127.0.0.1:{}", base + i as u16).parse().unwrap()
}

fn gateway_addr(base: u16, i: usize) -> SocketAddr {
    format!("127.0.0.1:{}", base + 10 + i as u16).parse().unwrap()
}

// ---------------------------------------------------------------------
// Replica process: mesh member + serving gateway.
// ---------------------------------------------------------------------

/// Binds with retry: a relaunched replica re-binds the port its killed
/// predecessor held, which can transiently fail while the kernel reaps
/// the old socket.
fn bind_with_retry(addr: SocketAddr) -> std::io::Result<TcpListener> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn replica(
    i: usize,
    base: u16,
    journal: PathBuf,
    delta_ms: u64,
    rebuild: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::new(N, SEED)?;
    let (pki, keys) = trusted_setup(N, SEED);
    let id = ProcessId(i as u32);
    let key = keys[i].clone();
    let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());

    let port = ServicePort::new(QUEUE_CAPACITY);
    let wal = meba::journal::Journal::open_file(&journal)?;
    let svc = if rebuild {
        let (svc, replayed) = ServiceReplica::rebuild(
            cfg,
            id,
            key,
            pki,
            factory,
            service_config(),
            port.clone(),
            wal,
        )?;
        println!(
            "replica {i}: rebuilt from journal ({replayed} records, {} slots applied pre-crash), \
             recovering via state transfer",
            svc.applied_slots()
        );
        svc
    } else {
        ServiceReplica::new(cfg, id, key, pki, factory, service_config(), port.clone(), Some(wal))
    };
    let gateway = ServiceGateway::spawn(&gateway_addr(base, i).to_string(), &cfg, id, port)?;
    println!("replica {i}: gateway serving clients on {}", gateway.addr());

    let peers: Vec<SocketAddr> = (0..N).map(|p| mesh_addr(base, p)).collect();
    let listener = bind_with_retry(peers[i])?;
    let hello =
        Hello { version: PROTOCOL_VERSION, id, config_digest: config_digest(&cfg), domain: 0x19 };
    let mut mesh_cfg = MeshConfig::new(id, hello);
    mesh_cfg.dial_timeout = Duration::from_secs(30);
    let mesh: TcpMesh<ServiceM> = TcpMesh::establish(mesh_cfg, listener, &peers)?;
    println!("replica {i}: mesh up, driving {TOTAL_SLOTS} slots (W = {WINDOW})");

    let mut actor: Box<dyn AnyActor<Msg = ServiceM>> = Box::new(svc);
    // Quorum-or-timeout pacing: rounds advance on observed quorum
    // traffic, falling back to the δ timer. This is what lets a
    // relaunched replica *fast-forward* — its buffered backlog of
    // later-round traffic advances its round clock without crawling
    // timer by timer, so it re-synchronizes with the cluster schedule.
    // Generous linger keeps finished replicas around as transfer donors.
    let drive = MeshDriveConfig {
        delta: Duration::from_millis(delta_ms),
        max_rounds: 6_000,
        linger_rounds: if rebuild { 8 } else { 150 },
        driver: RoundDriverConfig::quorum_or_timeout(),
    };
    let (rounds, _) = drive_mesh(&mesh, &mut actor, &drive);
    // Let the gateway flush the final commit acks to client sockets
    // before tearing it down.
    std::thread::sleep(Duration::from_millis(200));
    mesh.shutdown();
    gateway.stop();

    let svc: &ServiceProc = actor.as_any().downcast_ref().unwrap();
    let stats = svc.stats();
    assert_eq!(svc.applied_slots(), TOTAL_SLOTS, "replica {i}: applied every slot");
    assert_eq!(stats.session_collisions, 0, "replica {i}: no session collisions");
    assert_eq!(stats.applied_conflicts, 0, "replica {i}: no certified/local conflicts");
    if rebuild {
        // The whole point of the exercise: the outage's slots arrived by
        // certified transfer, not by clients resubmitting anything.
        assert!(
            stats.slots_transferred > 0,
            "replica {i}: restart should adopt at least one transferred slot"
        );
        assert!(!svc.recovering(), "replica {i}: recovery must complete");
        println!(
            "replica {i}: caught up — {} slots by state transfer \
             ({} certified, {} vouched, {} forged rejected)",
            stats.slots_transferred,
            stats.transfer_certs_verified,
            stats.transfer_vouches_accepted,
            stats.transfer_certs_rejected,
        );
    }
    println!(
        "replica {i}: done in {rounds} rounds — {} ops committed in {} batches, \
         {} deduped, {} slots ⊥, {} keys",
        stats.ops_committed,
        stats.batches_proposed,
        stats.ops_deduped,
        stats.skipped_slots,
        svc.kv().len(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Client process: submit a seq range, collect every commit, read back.
// ---------------------------------------------------------------------

fn connect_with_retry(
    addr: SocketAddr,
    client: u64,
    cfg: &SystemConfig,
) -> std::io::Result<ServiceClient> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match ServiceClient::connect(addr, client, cfg) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn op_for(client: u64, seq: u64) -> Op {
    Op { client, seq, key: client * 100 + seq, value: seq + 1 }
}

/// A read that survives gateway stalls: a confirmed read legitimately
/// blocks past the client's socket timeout while a restarted replica
/// catches the applied prefix up, so a timed-out socket is "ask again"
/// (reads are idempotent), not a failure. Reconnects on each retry —
/// the stale socket may still get the old answer delivered, and a fresh
/// connection keeps request/reply pairing unambiguous.
fn read_with_retry(
    cli: &mut ServiceClient,
    gateway: SocketAddr,
    id: u64,
    cfg: &SystemConfig,
    key: u64,
    mode: ReadMode,
) -> std::io::Result<ServiceReply> {
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        match cli.read(key, mode) {
            Ok(reply) => return Ok(reply),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => *cli = connect_with_retry(gateway, id, cfg)?,
        }
    }
}

fn client(
    id: u64,
    gateway: SocketAddr,
    seqs: u64,
    pace_ms: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::new(N, SEED)?;
    let mut cli = connect_with_retry(gateway, id, &cfg)?;
    println!("client {id}: connected to {gateway}, submitting seqs 0..{seqs}");

    // Short per-attempt ack windows, many attempts: an op bound into a
    // slot that `⊥`-retires during the replica outage is only re-landed
    // by a *resubmission that arrives after the retirement* — a client
    // that waits out one long window can miss the cluster's remaining
    // proposer slots entirely.
    let mut missing: Vec<u64> = (0..seqs).collect();
    for attempt in 0..8 {
        let mut still_pending = Vec::new();
        for &seq in &missing {
            let op = op_for(id, seq);
            match cli.submit(op)? {
                ServiceReply::Accepted { .. } => still_pending.push(seq),
                // A resubmission of an op the cluster already committed
                // is answered straight from the dedup table.
                ServiceReply::Committed { .. } => {}
                ServiceReply::Overloaded { .. } => {
                    std::thread::sleep(Duration::from_millis(100));
                    still_pending.push(seq);
                }
                other => panic!("client {id}: unexpected submit reply {other:?}"),
            }
            if pace_ms > 0 {
                std::thread::sleep(Duration::from_millis(pace_ms));
            }
        }
        let acked = cli.collect_commits(&still_pending, Instant::now() + Duration::from_secs(5));
        missing = still_pending.into_iter().filter(|s| !acked.contains(s)).collect();
        if missing.is_empty() {
            break;
        }
        println!("client {id}: attempt {attempt} left {missing:?} unacked, resubmitting");
    }
    assert!(missing.is_empty(), "client {id}: seqs {missing:?} never committed");
    println!("client {id}: all {seqs} ops committed exactly once");

    // Leader-local fast read of our first write, then a quorum-confirmed
    // one — the confirmed reply waits for the full applied prefix.
    let ServiceReply::ReadResult { value, .. } =
        read_with_retry(&mut cli, gateway, id, &cfg, id * 100, ReadMode::Fast)?
    else {
        panic!("client {id}: fast read rejected");
    };
    assert_eq!(value, Some(1), "client {id}: fast read sees our committed write");
    let ServiceReply::ReadResult { value, applied_slots, .. } =
        read_with_retry(&mut cli, gateway, id, &cfg, id * 100 + seqs - 1, ReadMode::Confirmed)?
    else {
        panic!("client {id}: confirmed read rejected");
    };
    assert_eq!(value, Some(seqs), "client {id}: confirmed read sees our last write");
    println!("client {id}: reads verified (confirmed at {applied_slots} applied slots)");
    Ok(())
}

// ---------------------------------------------------------------------
// Orchestrator: three replicas, two clients; one client AND one replica
// killed and relaunched mid-stream.
// ---------------------------------------------------------------------

fn spawn_self(args: &[String]) -> std::io::Result<Child> {
    Command::new(std::env::current_exe()?).args(args).spawn()
}

fn wait_ok(label: &str, mut child: Child) {
    let status = child.wait().expect("wait on child");
    assert!(status.success(), "{label} exited with {status}");
}

fn replica_args(i: usize, base: u16, dir: &std::path::Path, delta_ms: u64) -> Vec<String> {
    vec![
        "--replica".into(),
        i.to_string(),
        "--base-port".into(),
        base.to_string(),
        "--journal".into(),
        dir.join(format!("replica-{i}.wal")).display().to_string(),
        "--delta-ms".into(),
        delta_ms.to_string(),
    ]
}

fn orchestrate(base: u16, delta_ms: u64) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("smr_service_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    println!("orchestrator: {N} replicas on ports {base}.., journals in {}", dir.display());

    let mut replicas: Vec<Child> = (0..N)
        .map(|i| spawn_self(&replica_args(i, base, &dir, delta_ms)))
        .collect::<Result<_, _>>()?;

    // Gate the clients on every gateway accepting connections.
    for i in 0..N {
        let deadline = Instant::now() + Duration::from_secs(20);
        while TcpStream::connect(gateway_addr(base, i)).is_err() {
            assert!(Instant::now() < deadline, "gateway {i} never came up");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    println!("orchestrator: all gateways accepting, launching clients");

    let client_args = |id: u64, gw: usize, seqs: u64, pace: u64| {
        vec![
            "--client".to_string(),
            id.to_string(),
            "--gateway".into(),
            gateway_addr(base, gw).to_string(),
            "--seqs".into(),
            seqs.to_string(),
            "--pace-ms".into(),
            pace.to_string(),
        ]
    };
    let c1 = spawn_self(&client_args(1, 0, CLIENT1_OPS, 0))?;

    // Client 2 paces its submits, gets killed for real mid-stream, and is
    // relaunched under the same identity to resubmit the whole range.
    let mut doomed = spawn_self(&client_args(2, 1, CLIENT2_OPS, 150))?;
    std::thread::sleep(Duration::from_millis(450));
    let killed = doomed.kill();
    doomed.wait()?;
    killed?;
    println!("orchestrator: client 2 killed mid-stream, relaunching");
    let c2 = spawn_self(&client_args(2, 1, CLIENT2_OPS, 0))?;

    // Replica N-1 gets killed for real mid-stream too (no client talks
    // to its gateway, so nothing is resubmitted on its behalf). The kill
    // waits until at least one write has demonstrably committed, and the
    // relaunch starts from a *wiped* journal — a disk-loss restart — so
    // the pre-crash committed prefix is guaranteed to be a gap the
    // restart can only close via certified state transfer: at n = 3 the
    // commit quorum is all three replicas, so no client resubmission or
    // fresh agreement can ever re-produce those slots for it.
    {
        let cfg = SystemConfig::new(N, SEED)?;
        let mut probe = connect_with_retry(gateway_addr(base, 0), 99, &cfg)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let ServiceReply::ReadResult { value: Some(1), .. } =
                probe.read(op_for(1, 0).key, ReadMode::Fast)?
            {
                break;
            }
            assert!(Instant::now() < deadline, "client 1's first write never committed");
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    let mut doomed_replica = replicas.pop().expect("replica child");
    let killed = doomed_replica.kill();
    doomed_replica.wait()?;
    killed?;
    let wal = dir.join(format!("replica-{}.wal", N - 1));
    std::fs::remove_file(&wal)?;
    println!(
        "orchestrator: replica {} killed after the first commit, journal wiped, relaunching",
        N - 1
    );
    std::thread::sleep(Duration::from_millis(800));
    let mut restart_args = replica_args(N - 1, base, &dir, delta_ms);
    restart_args.push("--rebuild".into());
    let restarted = spawn_self(&restart_args)?;

    wait_ok("client 1", c1);
    wait_ok("client 2 (relaunched)", c2);
    wait_ok(&format!("replica {} (relaunched)", N - 1), restarted);
    for (i, r) in replicas.into_iter().enumerate() {
        wait_ok(&format!("replica {i}"), r);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nSMR service demo complete: {} client ops committed exactly once across \
         {N} replicas; one client and one replica killed and relaunched — the client \
         without a duplicate, the replica catching up by certified state transfer.",
        CLIENT1_OPS + CLIENT2_OPS
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut replica_idx = None;
    let mut client_id = None;
    let mut gateway = None;
    let mut journal = None;
    let mut base_port = 7550u16;
    let mut delta_ms = 50u64;
    let mut seqs = 0u64;
    let mut pace_ms = 0u64;
    let mut rebuild = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--replica" => replica_idx = Some(val()?.parse::<usize>()?),
            "--client" => client_id = Some(val()?.parse::<u64>()?),
            "--gateway" => gateway = Some(val()?.parse::<SocketAddr>()?),
            "--journal" => journal = Some(PathBuf::from(val()?)),
            "--base-port" => base_port = val()?.parse()?,
            "--delta-ms" => delta_ms = val()?.parse()?,
            "--seqs" => seqs = val()?.parse()?,
            "--pace-ms" => pace_ms = val()?.parse()?,
            "--rebuild" => rebuild = true,
            other => {
                // Bare positional: the orchestrator's base port.
                base_port = other.parse().map_err(|_| format!("unknown flag {other}"))?;
            }
        }
    }
    match (replica_idx, client_id) {
        (Some(i), None) => {
            let journal = journal.ok_or("--replica needs --journal")?;
            replica(i, base_port, journal, delta_ms, rebuild)
        }
        (None, Some(id)) => {
            let gateway = gateway.ok_or("--client needs --gateway")?;
            client(id, gateway, seqs, pace_ms)
        }
        (None, None) => orchestrate(base_port, delta_ms),
        _ => Err("--replica and --client are mutually exclusive".into()),
    }
}

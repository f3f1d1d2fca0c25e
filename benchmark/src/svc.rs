//! The `svc_*` workloads: the `smr_service` topology folded into one
//! process — `ServiceReplica`s on the loopback TCP mesh, a `FileStorage`
//! journal per replica in a fresh directory, one `ServiceGateway` per
//! replica — driven by two open-loop generator threads on real gateway
//! sockets.
//!
//! Fixed settings (every `svc_*` workload): lockstep round driver,
//! δ = 2 ms, no injected link delay, `OverrunAction::Count`, W = 2,
//! batches of at most 64 ops, admission queue of 256, journal synced per
//! record batch (`DEFAULT_SYNC_EVERY`), a slot budget the run never
//! reaches. The run ends when the load window (and its drain) does, via
//! the stop flag in [`Tap`].

use crate::gen::{self, client_id, key_of, value_of, Kind, Request};
use crate::spec::SvcSpec;
use crate::wrap::{
    now_ns, truncate_to_synced, Probe, ProbedStorage, ReplicaTrace, RunFlags, ServiceM,
    ServiceProc, StorageProbe, Tap,
};
use meba::crypto::{Encoder, WireCodec};
use meba::engine::{ActorRebuilder, ClusterConfig, OverrunAction, ProcessFate, RebuiltActor};
use meba::journal::Journal;
use meba::prelude::{
    trusted_setup, AnyActor, BatchPolicy, Op, ProcessId, RecursiveBaFactory, ServiceConfig,
    ServiceGateway, ServicePort, ServiceReplica, SystemConfig,
};
use meba::service::protocol::{
    service_config_digest, ClientHello, ClientRequest, ReadMode, ServiceReply, SERVICE_VERSION,
};
use meba::wire::frame::read_frame;
use meba::wire::poller::{poll, PollFd, POLLIN};
use meba::wire::{run_tcp_cluster_with_recovery, TcpClusterConfig, TcpClusterReport, WireError};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub const DELTA: Duration = Duration::from_millis(2);
pub const WINDOW: u64 = 2;
pub const MAX_BATCH_OPS: usize = 64;
pub const QUEUE_CAPACITY: usize = 256;
/// Generator connections (and threads): never more than `nproc` = 2.
pub const CONNECTIONS: usize = 2;
/// Sent, not scored.
pub const WARMUP_NS: u64 = 2_000_000_000;
/// An op with no final reply this long after its due time has failed.
pub const OP_TIMEOUT_NS: u64 = 5_000_000_000;
/// Cluster bring-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

const KEY_SEED: u64 = 0x21e;
const SESSION: u64 = 0xe21;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        total_slots: 10_000_000,
        window: WINDOW,
        batch: BatchPolicy { max_batch_ops: MAX_BATCH_OPS, ..BatchPolicy::default() },
        queue_capacity: QUEUE_CAPACITY,
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No final reply by the end of the run.
    Pending,
    /// `Committed { slot, batch_index }` read.
    Committed { slot: u64, batch_index: u32 },
    /// Typed `Overloaded` back-pressure.
    Refused,
    /// `ReadResult` read.
    ReadOk { value: Option<u64> },
    /// Socket or protocol error.
    Error,
}

/// One request as the generator saw it (all times on [`now_ns`]).
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub conn: usize,
    pub kind: Kind,
    pub seq: u64,
    pub key: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub accepted_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    /// Reads: the key's write had been acked on this connection before
    /// the read was sent, so the read must return `f(key)`.
    pub after_ack: bool,
    pub scored: bool,
}

/// What the rebuilder did when the crashed replica came back.
#[derive(Clone, Copy, Debug, Default)]
pub struct RebuildInfo {
    pub at_ns: u64,
    pub replay_ns: u64,
    pub replayed_records: u64,
    pub unsynced_bytes_discarded: u64,
}

struct Shared {
    cfg: SystemConfig,
    pki: meba::prelude::Pki,
    keys: Vec<meba::prelude::SecretKey>,
    dir: PathBuf,
    ports: Vec<Arc<ServicePort>>,
    storage: Vec<Arc<StorageProbe>>,
    traces: Vec<Arc<Mutex<ReplicaTrace>>>,
    flags: Arc<RunFlags>,
    rebuild: Mutex<Option<RebuildInfo>>,
    traced: bool,
}

impl Shared {
    fn journal_path(&self, i: usize) -> PathBuf {
        self.dir.join(format!("replica-{i}.wal"))
    }

    fn journal(&self, i: usize) -> io::Result<Journal> {
        let storage = ProbedStorage::open(&self.journal_path(i), self.storage[i].clone())?;
        Ok(Journal::new(Box::new(storage), Journal::DEFAULT_SYNC_EVERY))
    }

    fn probe(&self, i: usize) -> Option<Probe<ServiceM>> {
        self.traced.then(|| Probe::Service {
            trace: self.traces[i].clone(),
            journal: self.storage[i].clone(),
            next_applied: 0,
            captured: Vec::new(),
        })
    }

    fn factory(&self, i: usize) -> RecursiveBaFactory {
        RecursiveBaFactory::new(self.cfg, self.keys[i].clone(), self.pki.clone())
    }
}

/// A running cluster plus the handles the benchmark observes it through.
pub struct Cluster {
    shared: Arc<Shared>,
    gateways: Vec<ServiceGateway>,
    handle: JoinHandle<Result<TcpClusterReport<ServiceM>, WireError>>,
}

/// Everything a finished cluster run leaves behind.
pub struct Finished {
    pub report: TcpClusterReport<ServiceM>,
    pub dir: PathBuf,
    pub storage: Vec<Arc<StorageProbe>>,
    pub traces: Vec<Arc<Mutex<ReplicaTrace>>>,
    pub rebuild: Option<RebuildInfo>,
    pub port_counters: Vec<meba::service::PortCounters>,
}

impl Finished {
    /// Replica `i` as the engine handed it back.
    pub fn replica(&self, i: usize) -> &ServiceProc {
        let tap: &Tap<ServiceM> =
            self.report.report.actors[i].as_any().downcast_ref().expect("every actor is a Tap");
        tap.inner().as_any().downcast_ref().expect("every tap wraps a service replica")
    }

    /// Outbound messages replica `i`'s probe sampled (traced runs).
    pub fn captured(&self, i: usize) -> &[ServiceM] {
        let tap: &Tap<ServiceM> =
            self.report.report.actors[i].as_any().downcast_ref().expect("every actor is a Tap");
        match tap.probe() {
            Some(Probe::Service { captured, .. }) => captured,
            _ => &[],
        }
    }
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Opens one generator connection and completes the hello handshake.
fn connect(addr: SocketAddr, client: u64, cfg: &SystemConfig) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let hello =
        ClientHello { version: SERVICE_VERSION, client, config_digest: service_config_digest(cfg) };
    stream.write_all(&framed(&hello.to_wire_bytes()))?;
    let mut reply = Vec::new();
    read_frame(&mut stream, &mut reply).map_err(io_err)?;
    match ServiceReply::from_wire_bytes(&reply) {
        Ok(ServiceReply::HelloOk { .. }) => Ok(stream),
        other => Err(io_err(format!("handshake rejected: {other:?}"))),
    }
}

/// One frame in one buffer, so the generator's sends are single writes.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Brings a cluster up: journals, replicas, gateways, the TCP mesh (on
/// its own thread, inside `run_tcp_cluster_with_recovery`) and the two
/// generator connections. Returns once every replica has executed its
/// first round and both connections are handshaken.
///
/// `crash` is `(at_round, rejoin_after)` for the last replica.
pub fn bring_up(
    spec: &SvcSpec,
    dir: PathBuf,
    traced: bool,
    crash: Option<(u64, u64)>,
) -> io::Result<(Cluster, Vec<TcpStream>)> {
    let n = spec.n;
    std::fs::create_dir_all(&dir)?;
    let cfg = SystemConfig::new(n, SESSION).map_err(io_err)?;
    let (pki, keys) = trusted_setup(n, KEY_SEED);
    let storage: Vec<Arc<StorageProbe>> = (0..n).map(|_| Arc::default()).collect();
    for s in &storage {
        s.timed.store(traced, Ordering::Relaxed);
    }
    let shared = Arc::new(Shared {
        cfg,
        pki,
        keys,
        dir,
        ports: (0..n).map(|_| ServicePort::new(QUEUE_CAPACITY)).collect(),
        storage,
        traces: (0..n).map(|_| Arc::default()).collect(),
        flags: Arc::default(),
        rebuild: Mutex::new(None),
        traced,
    });

    let mut actors: Vec<Box<dyn AnyActor<Msg = ServiceM>>> = Vec::with_capacity(n);
    let mut gateways = Vec::with_capacity(n);
    for i in 0..n {
        let id = ProcessId(i as u32);
        let replica = ServiceReplica::new(
            cfg,
            id,
            shared.keys[i].clone(),
            shared.pki.clone(),
            shared.factory(i),
            service_config(),
            shared.ports[i].clone(),
            Some(shared.journal(i)?),
        );
        actors.push(Box::new(Tap::new(Box::new(replica), shared.flags.clone(), shared.probe(i))));
        gateways.push(ServiceGateway::spawn("127.0.0.1:0", &cfg, id, shared.ports[i].clone())?);
    }

    let rebuilder: ActorRebuilder<ServiceM> = {
        let shared = shared.clone();
        Arc::new(move |me: ProcessId| {
            let i = me.index();
            let at_ns = now_ns();
            let cut = truncate_to_synced(&shared.journal_path(i), &shared.storage[i])
                .expect("crashed replica's journal is truncatable");
            let journal = shared.journal(i).expect("crashed replica's journal reopens");
            let (replica, replayed_records) = ServiceReplica::rebuild(
                shared.cfg,
                me,
                shared.keys[i].clone(),
                shared.pki.clone(),
                shared.factory(i),
                service_config(),
                shared.ports[i].clone(),
                journal,
            )
            .expect("journal replay");
            *shared.rebuild.lock().expect("rebuild info") = Some(RebuildInfo {
                at_ns,
                replay_ns: now_ns() - at_ns,
                replayed_records,
                unsynced_bytes_discarded: cut,
            });
            RebuiltActor {
                actor: Box::new(Tap::rebuilt(
                    Box::new(replica),
                    shared.flags.clone(),
                    shared.probe(i),
                )),
                resume_step: 0,
                replayed_records,
                journal_fsyncs: shared.storage[i].syncs.load(Ordering::Relaxed),
            }
        })
    };

    let crashed = ProcessId(n as u32 - 1);
    let tcp = TcpClusterConfig {
        cluster: ClusterConfig {
            delta: DELTA,
            max_rounds: u64::MAX / 4,
            overrun_action: OverrunAction::Count,
            process_fate: crash.map(|(at_round, rejoin_after)| {
                Arc::new(move |me: ProcessId| {
                    if me == crashed {
                        ProcessFate::CrashRestart { at_round, rejoin_after }
                    } else {
                        ProcessFate::Run
                    }
                }) as meba::engine::ProcessFateFactory
            }),
            reconnect_backoff_cap: Duration::from_millis(50),
            ..ClusterConfig::default()
        },
        domain: SESSION,
        ..TcpClusterConfig::default()
    };
    let handle = std::thread::Builder::new()
        .name("svc-cluster".into())
        .spawn(move || run_tcp_cluster_with_recovery(actors, Some(rebuilder), &cfg, tcp))?;

    let mut conns = Vec::with_capacity(CONNECTIONS);
    for (c, gateway) in gateways.iter().enumerate().take(CONNECTIONS) {
        conns.push(connect(gateway.addr(), client_id(c), &cfg)?);
    }
    let deadline = now_ns() + 20_000_000_000;
    while shared.flags.started.load(Ordering::SeqCst) < n as u64 {
        if handle.is_finished() || now_ns() > deadline {
            return Err(io_err("cluster did not start"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((Cluster { shared, gateways, handle }, conns))
}

impl Cluster {
    /// Raises the stop flag, joins the cluster thread and the gateways.
    pub fn finish(self) -> io::Result<Finished> {
        self.shared.flags.stop.store(true, Ordering::SeqCst);
        let report = self.handle.join().map_err(|_| io_err("cluster thread panicked"))?;
        for g in self.gateways {
            g.stop();
        }
        let report = report.map_err(io_err)?;
        let shared = Arc::try_unwrap(self.shared)
            .map_err(|_| io_err("cluster state still shared after the run"))?;
        Ok(Finished {
            report,
            dir: shared.dir,
            storage: shared.storage,
            traces: shared.traces,
            rebuild: shared.rebuild.into_inner().expect("rebuild info"),
            port_counters: shared.ports.iter().map(|p| p.counters()).collect(),
        })
    }
}

// ---------------------------------------------------------------------
// The open-loop generator: one thread, one pipelined connection.
// ---------------------------------------------------------------------

/// Blocks until `stream` is readable or `wake_ns` passes. `poll(2)`
/// rounds its timeout up to whole milliseconds, so the last stretch
/// before a due time is slept in short steps instead.
fn wait_readable(stream: &TcpStream, wake_ns: u64) -> bool {
    let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
    let wait = wake_ns.saturating_sub(now_ns());
    let timeout =
        if wait >= 2_000_000 { Duration::from_nanos(wait - 1_000_000) } else { Duration::ZERO };
    if poll(&mut fds, timeout).unwrap_or(0) > 0 && fds[0].readable() {
        return true;
    }
    if wait > 0 && wait < 2_000_000 {
        std::thread::sleep(Duration::from_nanos(wait.min(150_000)));
    }
    false
}

/// Drives connection `conn` through its schedule, timing every request
/// from its due time. Returns one record per request.
pub fn drive(
    mut stream: TcpStream,
    conn: usize,
    reqs: &[Request],
    t0_ns: u64,
    warmup_ns: u64,
) -> Vec<OpRec> {
    let client = client_id(conn);
    let mut recs: Vec<OpRec> = reqs
        .iter()
        .map(|r| OpRec {
            conn,
            kind: r.kind,
            seq: r.seq,
            key: key_of(client, r.seq),
            due_ns: t0_ns + r.due_ns,
            sent_ns: 0,
            accepted_ns: 0,
            done_ns: 0,
            outcome: Outcome::Pending,
            after_ack: false,
            scored: r.due_ns >= warmup_ns,
        })
        .collect();
    // Write seq -> record; reads pending per (key, confirmed), FIFO: the
    // replica answers same-mode reads in arrival order.
    let mut write_at: Vec<usize> = vec![usize::MAX; recs.len() + 1];
    let mut reads: HashMap<(u64, bool), VecDeque<usize>> = HashMap::new();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let give_up = recs.last().map_or(t0_ns, |r| r.due_ns) + OP_TIMEOUT_NS;
    let mut enc = Encoder::new();
    let mut rx: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 14];

    'run: loop {
        let now = now_ns();
        while next < recs.len() && recs[next].due_ns <= now {
            let OpRec { kind, seq, key, .. } = recs[next];
            let req = match kind {
                Kind::Write => {
                    ClientRequest::Submit { op: Op { client, seq, key, value: value_of(key) } }
                }
                Kind::ReadFast => ClientRequest::Read { client, key, mode: ReadMode::Fast },
                Kind::ReadConfirmed => {
                    ClientRequest::Read { client, key, mode: ReadMode::Confirmed }
                }
            };
            req.encode_wire_into(&mut enc);
            let frame = framed(enc.as_bytes());
            recs[next].sent_ns = now_ns();
            if stream.write_all(&frame).is_err() {
                recs[next].outcome = Outcome::Error;
                break 'run;
            }
            if kind == Kind::Write {
                write_at[seq as usize] = next;
            } else {
                let written = write_at[seq as usize];
                recs[next].after_ack = matches!(recs[written].outcome, Outcome::Committed { .. });
                reads.entry((key, kind == Kind::ReadConfirmed)).or_default().push_back(next);
            }
            outstanding += 1;
            next += 1;
        }
        if (next == recs.len() && outstanding == 0) || now >= give_up {
            break;
        }
        let wake = if next < recs.len() { recs[next].due_ns } else { give_up };
        if !wait_readable(&stream, wake.min(now + 50_000_000)) {
            continue;
        }
        let got = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(got) => got,
        };
        let at = now_ns();
        rx.extend_from_slice(&chunk[..got]);
        let mut off = 0;
        while rx.len() - off >= 4 {
            let len = u32::from_be_bytes(rx[off..off + 4].try_into().expect("4 bytes")) as usize;
            if rx.len() - off - 4 < len {
                break;
            }
            let reply = ServiceReply::from_wire_bytes(&rx[off + 4..off + 4 + len]);
            off += 4 + len;
            match reply {
                Ok(ServiceReply::Accepted { seq, .. }) => {
                    if let Some(&i) = write_at.get(seq as usize).filter(|&&i| i != usize::MAX) {
                        recs[i].accepted_ns = at;
                    }
                }
                Ok(ServiceReply::Committed { seq, slot, batch_index, .. }) => {
                    if let Some(&i) = write_at.get(seq as usize).filter(|&&i| i != usize::MAX) {
                        if recs[i].outcome == Outcome::Pending {
                            recs[i].outcome = Outcome::Committed { slot, batch_index };
                            recs[i].done_ns = at;
                            outstanding -= 1;
                        }
                    }
                }
                Ok(ServiceReply::Overloaded { seq, .. }) if seq > 0 => {
                    if let Some(&i) = write_at.get(seq as usize).filter(|&&i| i != usize::MAX) {
                        if recs[i].outcome == Outcome::Pending {
                            recs[i].outcome = Outcome::Refused;
                            recs[i].done_ns = at;
                            outstanding -= 1;
                        }
                    }
                }
                Ok(ServiceReply::Overloaded { .. }) => {
                    // A refused read carries no key: charge the oldest
                    // pending read (the read queue is far larger than
                    // any workload's read backlog, so this never fires).
                    let oldest = reads.values_mut().filter_map(|q| q.front().copied()).min();
                    if let Some(i) = oldest {
                        let mode = recs[i].kind == Kind::ReadConfirmed;
                        reads.get_mut(&(recs[i].key, mode)).expect("queue").pop_front();
                        recs[i].outcome = Outcome::Refused;
                        recs[i].done_ns = at;
                        outstanding -= 1;
                    }
                }
                Ok(ServiceReply::ReadResult { key, value, mode, .. }) => {
                    let q = reads.get_mut(&(key, mode == ReadMode::Confirmed));
                    if let Some(i) = q.and_then(VecDeque::pop_front) {
                        recs[i].outcome = Outcome::ReadOk { value };
                        recs[i].done_ns = at;
                        outstanding -= 1;
                    }
                }
                Ok(ServiceReply::HelloOk { .. }) => {}
                Err(_) => {
                    // An undecodable reply poisons the stream: stop and
                    // let the pending ops count as failed.
                    break 'run;
                }
            }
        }
        rx.drain(..off);
    }
    recs
}

/// One complete `svc_*` run: repeated set-up, the load window, the
/// drain, and tear-down.
pub struct SvcRun {
    pub spec: SvcSpec,
    pub seconds: u64,
    pub ops: Vec<OpRec>,
    pub finished: Finished,
    /// Seconds each of the [`SETUPS`] bring-ups took.
    pub setups_s: Vec<f64>,
    /// When the scored window opened / closed, on [`now_ns`].
    pub window_ns: (u64, u64),
    /// When the cluster thread was told to stop.
    pub stopped_ns: u64,
    pub crash_rounds: Option<(u64, u64)>,
}

/// Runs one `svc_*` workload. Journals live under `scratch`.
pub fn run(
    spec: &SvcSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &std::path::Path,
) -> io::Result<SvcRun> {
    let window_ns = seconds * 1_000_000_000;
    let schedules: Vec<Vec<Request>> = (0..CONNECTIONS)
        .map(|c| gen::schedule(seed, c, spec.rate_per_conn, spec.mix, WARMUP_NS, window_ns))
        .collect();
    // The replica crashes 30% into the scored window and is rebuilt 25%
    // of the window later, leaving the rest to catch up under load.
    let delta_ns = DELTA.as_nanos() as u64;
    let crash_rounds =
        spec.crash.then(|| ((WARMUP_NS + window_ns * 3 / 10) / delta_ns, window_ns / 4 / delta_ns));

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let dir = scratch.join(format!("run-{}-{k}", std::process::id()));
        let t0 = now_ns();
        let (cluster, conns) = bring_up(spec, dir, traced, crash_rounds)?;
        setups_s.push((now_ns() - t0) as f64 / 1e9);
        if k + 1 < SETUPS {
            drop(conns);
            let done = cluster.finish()?;
            std::fs::remove_dir_all(&done.dir)?;
        } else {
            live = Some((cluster, conns));
        }
    }
    let (cluster, conns) = live.expect("the last bring-up is kept");

    let t0_ns = now_ns() + 10_000_000;
    let handles: Vec<JoinHandle<Vec<OpRec>>> = conns
        .into_iter()
        .zip(schedules)
        .enumerate()
        .map(|(c, (stream, reqs))| {
            std::thread::Builder::new()
                .name(format!("gen-{c}"))
                .spawn(move || drive(stream, c, &reqs, t0_ns, WARMUP_NS))
        })
        .collect::<io::Result<_>>()?;
    let mut ops = Vec::new();
    for h in handles {
        ops.extend(h.join().map_err(|_| io_err("generator thread panicked"))?);
    }
    let stopped_ns = now_ns();
    let finished = cluster.finish()?;
    Ok(SvcRun {
        spec: *spec,
        seconds,
        ops,
        finished,
        setups_s,
        window_ns: (t0_ns + WARMUP_NS, t0_ns + WARMUP_NS + window_ns),
        stopped_ns,
        crash_rounds,
    })
}

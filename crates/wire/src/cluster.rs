//! A wall-clock cluster runtime over real loopback TCP.
//!
//! [`run_tcp_cluster`] is the socket twin of [`meba_engine::run_cluster`]:
//! the same actor state machines, the same round coordination (thread 0
//! approves rounds, fixed-δ pacing with overrun counting), the same
//! [`ClusterConfig`] / [`ClusterReport`] surface — but every inter-process
//! message is canonically encoded, framed, and carried over a handshaked
//! [`TcpMesh`] link instead of a crossbeam channel. Word/byte accounting
//! is identical to the other runtimes (message-level
//! [`Message::wire_bytes`]), and the socket-level reality (frames, frame
//! bytes, reconnects, decode errors) is reported on top in
//! [`TcpClusterReport`].
//!
//! Both runtimes literally share the loop: this module establishes the
//! mesh, wraps it in a [`MeshTransport`], and hands the cluster to
//! [`meba_engine::run_threaded_cluster`] — the identical coordinator,
//! pacer, overrun counting, and crash-restart machinery that drives
//! the channel runtime, so a scenario's timing and fate behaviour do not
//! change when it moves to sockets.
//!
//! Fault injection is [`ClusterConfig::link_policy`], read exactly as
//! every other backend reads it: the sender's
//! [`meba_sim::faults::LinkPolicy`] judges every outbound frame at the
//! socket edge. This is the one backend with connections, so here a
//! [`LinkFate::Sever`](meba_sim::faults::LinkFate::Sever) loses the
//! frame *and* closes the socket ([`TcpMesh::sever`]); the link re-dials
//! and re-handshakes before carrying further traffic, which is how the
//! reconnect path is exercised under test.

use crate::handshake::{config_digest, Hello, PROTOCOL_VERSION};
use crate::mesh::{Inbound, MeshConfig, MeshStats, TcpMesh};
use crate::WireError;
use meba_core::SystemConfig;
use meba_crypto::{ProcessId, WireCodec};
use meba_engine::{
    ActorRebuilder, ClusterConfig, ClusterReport, DeadlinePacer, Delivery, EngineProcess,
    ResolvedFate, RoundDriver, RoundDriverConfig, Transport,
};
use meba_sim::{AnyActor, Message, Metrics};
use std::borrow::Borrow;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP-specific knobs on top of the shared [`ClusterConfig`].
#[derive(Clone)]
pub struct TcpClusterConfig {
    /// The runtime-agnostic configuration (δ, round cap, corrupt set,
    /// link policy, overrun policy) — the same struct
    /// [`meba_engine::run_cluster`] takes, so scenarios port unchanged.
    pub cluster: ClusterConfig,
    /// Session domain stamped into every handshake. Two clusters with
    /// different domains refuse to link even on the same ports.
    pub domain: u64,
    /// Budget for establishing all `n(n-1)` directed links.
    pub dial_timeout: Duration,
}

impl Default for TcpClusterConfig {
    fn default() -> Self {
        TcpClusterConfig {
            cluster: ClusterConfig::default(),
            domain: 1,
            dial_timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome of a TCP cluster run: the runtime-agnostic report plus the
/// socket-level counters summed over all meshes.
pub struct TcpClusterReport<M: Message> {
    /// The same report [`meba_engine::run_cluster`] produces — metrics
    /// (words, sigs, bytes, per-link, per-session), rounds, actors,
    /// completion and abort diagnostics.
    pub report: ClusterReport<M>,
    /// Data frames that hit a socket (excludes self-delivery).
    pub frames_sent: u64,
    /// Socket bytes for those frames, including the 4-byte length
    /// prefixes — the realized wire cost next to the model-level
    /// [`meba_sim::Metrics`] byte counters.
    pub socket_bytes: u64,
    /// Successful link re-establishments (severed or failed connections).
    pub reconnects: u64,
    /// Inbound frames rejected by the canonical decoder.
    pub decode_errors: u64,
    /// Inbound connections rejected by the handshake.
    pub handshake_rejects: u64,
    /// Protocol frames a mesh gave up on (permanent handshake rejection
    /// or the shutdown flush deadline). Zero in every healthy run; each
    /// drop was also diagnosed on stderr when it happened.
    pub frames_dropped: u64,
}

impl<M: Message> std::fmt::Debug for TcpClusterReport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClusterReport")
            .field("rounds", &self.report.rounds)
            .field("completed", &self.report.completed)
            .field("correct_words", &self.report.metrics.correct.words)
            .field("correct_bytes", &self.report.metrics.correct.bytes)
            .field("frames_sent", &self.frames_sent)
            .field("socket_bytes", &self.socket_bytes)
            .field("reconnects", &self.reconnects)
            .field("decode_errors", &self.decode_errors)
            .field("frames_dropped", &self.frames_dropped)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// The engine transport over a TCP mesh.
// ---------------------------------------------------------------------

/// A [`TcpMesh`] as a [`Transport`]: send encodes and frames
/// onto the link's writer, drain surfaces decoded inbound frames, sever
/// tears a connection down (the reconnect path re-dials lazily), and
/// crash severs every peer link at once — real TCP teardown, so peers
/// observe connection resets and enter their reconnect loops.
///
/// `H` is how the mesh is held: owned (`TcpMesh<M>`, the default — the
/// mesh shuts down when the engine drops the transport on the process's
/// own thread) or borrowed (`&TcpMesh<M>`, for [`drive_mesh`], whose
/// caller keeps ownership and shutdown responsibility).
pub struct MeshTransport<M: Message + WireCodec, H: Borrow<TcpMesh<M>> = TcpMesh<M>> {
    mesh: H,
    scratch: Vec<Inbound<M>>,
}

impl<M: Message + WireCodec, H: Borrow<TcpMesh<M>>> MeshTransport<M, H> {
    /// Wraps an established mesh.
    pub fn new(mesh: H) -> Self {
        MeshTransport { mesh, scratch: Vec::new() }
    }
}

impl<M: Message + WireCodec, H: Borrow<TcpMesh<M>>> Transport<M> for MeshTransport<M, H> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &Arc<M>) {
        self.mesh.borrow().send(to, sent_round, msg);
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        self.mesh.borrow().drain_into(&mut self.scratch);
        out.extend(self.scratch.drain(..).map(|w| Delivery {
            from: w.from,
            sent_round: w.sent_round,
            msg: w.msg,
        }));
    }

    fn sever(&mut self, to: ProcessId) {
        self.mesh.borrow().sever(to);
    }

    fn crash(&mut self) {
        let mesh = self.mesh.borrow();
        let me = mesh.me();
        for p in 0..mesh.n() {
            if p != me.index() {
                mesh.sever(ProcessId(p as u32));
            }
        }
    }

    fn backpressure(&self) -> u64 {
        self.mesh.borrow().stats().backpressure.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// The TCP cluster proper.
// ---------------------------------------------------------------------

/// Runs `actors` as a wall-clock cluster over loopback TCP until every
/// correct actor is done, the round budget is exhausted, or the overrun
/// policy stops the run. Mirrors [`meba_engine::run_cluster`] exactly at
/// the API level; `system` supplies the configuration digest every link
/// handshake must agree on.
///
/// # Errors
///
/// Fails with a [`WireError`] if the mesh cannot be established within
/// [`TcpClusterConfig::dial_timeout`].
///
/// # Panics
///
/// Panics if `actors` is empty, ids are not `p0..p(n-1)` in order, or
/// `actors.len() != system.n()`.
pub fn run_tcp_cluster<M: Message + WireCodec>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    system: &SystemConfig,
    config: TcpClusterConfig,
) -> Result<TcpClusterReport<M>, WireError> {
    run_tcp_cluster_with_recovery(actors, None, system, config)
}

/// [`run_tcp_cluster`] plus crash-recovery: when
/// [`ClusterConfig::process_fate`] marks a process
/// [`meba_engine::ProcessFate::CrashRestart`], that process severs every
/// peer link at the crash round (real TCP teardown — peers observe resets
/// and enter their reconnect loops), discards all in-memory state, and —
/// if a `rebuilder` is supplied — later rejoins with an actor rebuilt
/// from its durable journal, re-handshaking each link on the way back in.
/// Recovery counters land in [`meba_sim::Metrics::recovery`].
///
/// # Errors
///
/// Same as [`run_tcp_cluster`].
///
/// # Panics
///
/// Same as [`run_tcp_cluster`].
pub fn run_tcp_cluster_with_recovery<M: Message + WireCodec>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    rebuilder: Option<ActorRebuilder<M>>,
    system: &SystemConfig,
    config: TcpClusterConfig,
) -> Result<TcpClusterReport<M>, WireError> {
    let n = actors.len();
    assert!(n > 0, "cluster needs at least one actor");
    assert_eq!(n, system.n(), "actor count must match the system configuration");
    for (i, a) in actors.iter().enumerate() {
        assert_eq!(a.id().index(), i, "actor {i} has id {}", a.id());
    }

    // Bind every listener before any mesh dials, so establishment cannot
    // deadlock on ordering.
    let digest = config_digest(system);
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0").map_err(WireError::Io)?;
        addrs.push(l.local_addr().map_err(WireError::Io)?);
        listeners.push(l);
    }

    let mut establishers = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        let hello = Hello {
            version: PROTOCOL_VERSION,
            id: me,
            config_digest: digest,
            domain: config.domain,
        };
        let mut mesh_cfg = MeshConfig::new(me, hello);
        mesh_cfg.dial_timeout = config.dial_timeout;
        mesh_cfg.reconnect_backoff_cap = config.cluster.reconnect_backoff_cap;
        mesh_cfg.reconnect_jitter = config.cluster.reconnect_jitter;
        let addrs = addrs.clone();
        establishers
            .push(std::thread::spawn(move || TcpMesh::<M>::establish(mesh_cfg, listener, &addrs)));
    }
    let mut meshes = Vec::with_capacity(n);
    let mut first_err = None;
    for h in establishers {
        match h.join().expect("mesh establishment thread panicked") {
            Ok(m) => meshes.push(m),
            Err(e) => first_err = Some(first_err.unwrap_or(e)),
        }
    }
    if let Some(e) = first_err {
        for m in meshes {
            m.shutdown();
        }
        return Err(e);
    }
    meshes.sort_by_key(|m| m.me().index());

    // Keep a handle on every mesh's socket counters: the transports are
    // consumed (and shut down) by the engine, but the Arcs survive.
    let mesh_stats: Vec<Arc<MeshStats>> = meshes.iter().map(|m| m.stats().clone()).collect();
    let transports: Vec<MeshTransport<M>> = meshes.into_iter().map(MeshTransport::new).collect();

    let report = meba_engine::run_threaded_cluster(actors, transports, rebuilder, &config.cluster);

    let mut frames_sent = 0;
    let mut socket_bytes = 0;
    let mut reconnects = 0;
    let mut decode_errors = 0;
    let mut handshake_rejects = 0;
    let mut frames_dropped = 0;
    for stats in &mesh_stats {
        let snap = stats.snapshot();
        frames_sent += snap.frames_sent;
        socket_bytes += snap.bytes_sent;
        reconnects += snap.reconnects;
        decode_errors += snap.decode_errors;
        handshake_rejects += snap.handshake_rejects;
        frames_dropped += snap.frames_dropped;
        // Backpressure already flows through the engine's transport
        // accounting into `report.backpressure`.
    }
    Ok(TcpClusterReport {
        report,
        frames_sent,
        socket_bytes,
        reconnects,
        decode_errors,
        handshake_rejects,
        frames_dropped,
    })
}

// ---------------------------------------------------------------------
// Standalone mesh driving (one OS process per peer, no shared control).
// ---------------------------------------------------------------------

/// Pacing for [`drive_mesh`] — the multi-process path, where no shared
/// coordinator exists and each process paces itself from its own epoch.
#[derive(Clone, Copy, Debug)]
pub struct MeshDriveConfig {
    /// Round duration δ. Must dominate cross-process start skew plus
    /// loopback latency for the synchronous abstraction to hold.
    pub delta: Duration,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Extra rounds to keep running after the local actor reports done,
    /// so it can still answer peers' help requests.
    pub linger_rounds: u64,
    /// How the local process advances rounds: the fixed δ schedule from
    /// its own epoch ([`RoundDriverConfig::Lockstep`], default) or
    /// quorum-or-local-timeout ([`RoundDriverConfig::QuorumOrTimeout`]),
    /// which tolerates cross-process epoch skew by re-synchronizing on
    /// observed traffic.
    pub driver: RoundDriverConfig,
}

impl Default for MeshDriveConfig {
    fn default() -> Self {
        MeshDriveConfig {
            delta: Duration::from_millis(20),
            max_rounds: 10_000,
            linger_rounds: 8,
            driver: RoundDriverConfig::Lockstep,
        }
    }
}

/// Drives one actor over an established mesh without a global
/// coordinator: rounds are paced from a local epoch, each one stepped
/// through [`EngineProcess::step`] (fate `Run`, no link policy) like
/// every other backend's, and the run stops
/// [`MeshDriveConfig::linger_rounds`] after the actor reports done (or at
/// `max_rounds`). This is the building block for running a cluster as N
/// separate OS processes — see the `tcp_cluster` example; in-process
/// tests should prefer [`run_tcp_cluster`], whose coordinator gives exact
/// lockstep.
///
/// Returns the rounds executed and the local word/byte metrics.
///
/// # Panics
///
/// Panics if [`MeshDriveConfig::driver`] is invalid for the mesh's `n`.
pub fn drive_mesh<M: Message + WireCodec>(
    mesh: &TcpMesh<M>,
    actor: &mut Box<dyn AnyActor<Msg = M>>,
    cfg: &MeshDriveConfig,
) -> (u64, Metrics) {
    let n = mesh.n();
    cfg.driver.validate(n).expect("invalid round driver configuration");
    let me = actor.id();
    let mut metrics = Metrics::default();
    let mut transport = MeshTransport::new(mesh);
    let mut process = EngineProcess::new(n, true, false, ResolvedFate::Run, None, None);
    let pacer = DeadlinePacer::new(Instant::now(), cfg.delta);
    let mut driver = RoundDriver::wall_clock(&cfg.driver, n);
    let mut linger = cfg.linger_rounds;
    let mut round = 0u64;
    while round < cfg.max_rounds {
        let cause = driver
            .wait_for_round(&pacer, round, || process.ready_senders(me, round, &mut transport));
        let status = process.step(actor, round, cause, &mut transport, &mut metrics);
        driver.observe(status.late_admitted);
        let done = status.done;
        round += 1;
        if done {
            if linger == 0 {
                break;
            }
            linger -= 1;
        } else {
            linger = cfg.linger_rounds;
        }
    }
    process.finish(actor.as_ref(), &mut metrics);
    metrics.rounds = round;
    (round, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_sim::{Actor, RoundCtx};

    meba_core::wire_schema! {
        #[derive(Clone, Debug)]
        struct Num(u64 as Meta): Message in "protocol";
    }

    /// Done from the start, having refused to sign three equivocations.
    struct Refuser;
    impl Actor for Refuser {
        type Msg = Num;
        fn id(&self) -> ProcessId {
            ProcessId(0)
        }
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_, Num>) {}
        fn done(&self) -> bool {
            true
        }
        fn refused_equivocations(&self) -> u64 {
            3
        }
    }

    /// A one-process mesh on a loopback port: p0, alone.
    fn lone_mesh<M: Message + WireCodec>() -> TcpMesh<M> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = [listener.local_addr().unwrap()];
        let cfg = SystemConfig::new(3, 1).unwrap();
        let hello = Hello {
            version: PROTOCOL_VERSION,
            id: ProcessId(0),
            config_digest: config_digest(&cfg),
            domain: 1,
        };
        TcpMesh::establish(MeshConfig::new(ProcessId(0), hello), listener, &addrs).unwrap()
    }

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    meba_core::wire_schema! {
        /// A message whose every deep copy is counted.
        #[derive(Debug)]
        struct Counted(u64 as Meta): Message in "protocol";
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.set(CLONES.get() + 1);
            Counted(self.0)
        }
    }

    #[test]
    fn a_self_send_passes_the_handle_through_the_mesh() {
        let mesh: TcpMesh<Counted> = lone_mesh();
        let mut transport = MeshTransport::new(&mesh);
        let msg = Arc::new(Counted(7));
        let before = CLONES.get();
        for round in 0..3 {
            transport.send(ProcessId(0), round, &msg);
        }
        let mut out = Vec::new();
        transport.drain(&mut out);
        let copies = CLONES.get() - before;
        mesh.shutdown();
        assert_eq!(copies, 0, "a self-send deep-copies nothing");
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| Arc::ptr_eq(&d.msg, &msg)), "every copy is the sent handle");
    }

    #[test]
    fn drive_mesh_counts_the_refusals() {
        let mesh: TcpMesh<Num> = lone_mesh();
        let mut actor: Box<dyn AnyActor<Msg = Num>> = Box::new(Refuser);
        let drive = MeshDriveConfig {
            delta: Duration::from_millis(1),
            linger_rounds: 0,
            ..MeshDriveConfig::default()
        };
        let (rounds, metrics) = drive_mesh(&mesh, &mut actor, &drive);
        mesh.shutdown();
        assert_eq!(rounds, 1);
        assert_eq!(metrics.recovery.refused_equivocations, 3);
    }
}

//! A full mesh of TCP links for one process.
//!
//! [`TcpMesh::establish`] turns a bound listener plus the peer address
//! list into `n - 1` outbound links (dialed, handshaked) and `n - 1`
//! inbound links (accepted, handshaked), all driven by **one reactor
//! thread** ([`crate::reactor`]) multiplexing every socket with
//! [`crate::poller::poll`]. The calling process thread then only ever
//! touches two ends: [`TcpMesh::send`] and [`TcpMesh::drain_into`].
//!
//! Design points, mirroring the threaded `meba-engine` cluster:
//!
//! * **O(n) threads** — the mesh costs one I/O thread regardless of
//!   peer count; an n-process loopback cluster is O(n) OS threads total
//!   where the previous thread-per-link design needed O(n²).
//! * **Bounded outboxes** — each link sits behind a command channel
//!   bounded at [`LINK_CAPACITY`] plus an equal-sized reactor-side
//!   queue; a full channel blocks the sender and counts into
//!   [`MeshStats::backpressure`] instead of buffering without bound.
//! * **Reconnect** — a failed or severed connection is re-dialed with
//!   capped exponential backoff (1 ms doubling to the configured cap),
//!   re-running the full handshake; [`MeshStats::reconnects`] counts
//!   successes, and queued frames *survive* the reconnect.
//! * **No silent drops** — a protocol frame the mesh gives up on
//!   (permanent handshake rejection, shutdown flush deadline) is
//!   counted in [`MeshStats::frames_dropped`] and reported on stderr.
//! * **Pooled frames** — outbound frames are built (length prefix
//!   included) in buffers from a [`crate::pool::BufPool`] shared with
//!   the reactor, which returns each buffer after its socket write;
//!   steady-state sends and link reads allocate nothing.
//! * **Total decoding** — inbound frames decode with the canonical
//!   [`WireCodec`]; a frame that fails to decode is counted
//!   ([`MeshStats::decode_errors`]) and dropped without disturbing
//!   framing.
//! * **Graceful shutdown** — [`TcpMesh::shutdown`] flushes queued
//!   frames (re-dialing if needed) up to [`MeshConfig::flush_timeout`],
//!   then closes every socket and joins the reactor.

use crate::error::WireError;
use crate::handshake::Hello;
use crate::poller::{wake_pair, WakeHandle};
use crate::pool::BufPool;
use crate::reactor::{Cmd, Reactor, ReactorConfig, Shared};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use meba_crypto::{with_scratch_encoder, ProcessId, WireCodec};
use meba_engine::LINK_CAPACITY;
use meba_sim::Message;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket-level counters for one mesh, all monotone.
#[derive(Debug, Default)]
pub struct MeshStats {
    /// Data frames written to sockets (handshake frames excluded).
    pub frames_sent: AtomicU64,
    /// Bytes written to sockets for data frames, *including* the 4-byte
    /// length prefix — the realized cost of a word on a real wire.
    pub bytes_sent: AtomicU64,
    /// Successful re-dials after a connection failed or was severed.
    pub reconnects: AtomicU64,
    /// Inbound frames whose payload failed canonical decoding.
    pub decode_errors: AtomicU64,
    /// Inbound connection attempts rejected by the handshake (including
    /// peers reaped for stalling past the handshake deadline).
    pub handshake_rejects: AtomicU64,
    /// Times [`TcpMesh::send`] blocked on a full outbox.
    pub backpressure: AtomicU64,
    /// Protocol frames the mesh gave up on: queued behind a permanently
    /// rejected link, oversized, or undeliverable when the shutdown
    /// flush deadline expired. Every one is also reported on stderr —
    /// a dropped frame is never silent.
    pub frames_dropped: AtomicU64,
}

/// A plain-number copy of [`MeshStats`] at one instant — named fields,
/// so call sites don't index into a positional tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshSnapshot {
    /// [`MeshStats::frames_sent`].
    pub frames_sent: u64,
    /// [`MeshStats::bytes_sent`].
    pub bytes_sent: u64,
    /// [`MeshStats::reconnects`].
    pub reconnects: u64,
    /// [`MeshStats::decode_errors`].
    pub decode_errors: u64,
    /// [`MeshStats::handshake_rejects`].
    pub handshake_rejects: u64,
    /// [`MeshStats::backpressure`].
    pub backpressure: u64,
    /// [`MeshStats::frames_dropped`].
    pub frames_dropped: u64,
}

impl MeshStats {
    /// Plain-number snapshot of every counter.
    pub fn snapshot(&self) -> MeshSnapshot {
        MeshSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            handshake_rejects: self.handshake_rejects.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
        }
    }
}

/// A decoded inbound message with its authenticated link-level sender
/// (the identity proven by the handshake on the socket it arrived on).
#[derive(Clone, Debug)]
pub struct Inbound<M> {
    /// Handshaked identity of the sending endpoint.
    pub from: ProcessId,
    /// Round the sender stamped into the frame.
    pub sent_round: u64,
    /// Decoded payload, wrapped once: a self-send passes on the sender's
    /// handle, and the reactor wraps each decoded frame.
    pub msg: Arc<M>,
}

/// Mesh construction parameters.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Our identity (must index into the address list).
    pub me: ProcessId,
    /// Our hello (identity, version, config digest, domain).
    pub hello: Hello,
    /// How long [`TcpMesh::establish`] keeps dialing an unreachable peer
    /// and waiting for inbound links before giving up.
    pub dial_timeout: Duration,
    /// Upper bound on the exponential re-dial backoff (doubling from
    /// 1 ms). Crash-restart tests lower it so a restarted process
    /// re-establishes its links within a round or two.
    pub reconnect_backoff_cap: Duration,
    /// Maximum deterministic jitter added to each re-dial delay, derived
    /// from `(peer, attempt)`. Spreads the thundering herd of redials
    /// after a peer restarts; zero disables jitter entirely.
    pub reconnect_jitter: Duration,
    /// Per-connection handshake deadline: a peer that stalls mid-
    /// handshake (slow-loris) is reaped after this long without ever
    /// pinning the I/O thread. Also bounds how long an established
    /// outbound link may sit on unflushed frames before the reactor
    /// forces a reconnect.
    pub handshake_timeout: Duration,
    /// How long [`TcpMesh::shutdown`] keeps delivering (and re-dialing
    /// for) queued frames before giving up and counting the remainder
    /// into [`MeshStats::frames_dropped`].
    pub flush_timeout: Duration,
}

impl MeshConfig {
    /// Defaults tuned for loopback clusters: 10 s establishment budget,
    /// 250 ms backoff cap, no jitter, 5 s handshake deadline, 2 s
    /// shutdown flush.
    pub fn new(me: ProcessId, hello: Hello) -> Self {
        MeshConfig {
            me,
            hello,
            dial_timeout: Duration::from_secs(10),
            reconnect_backoff_cap: Duration::from_millis(250),
            reconnect_jitter: Duration::ZERO,
            handshake_timeout: Duration::from_secs(5),
            flush_timeout: Duration::from_secs(2),
        }
    }
}

/// One process's view of the cluster network.
pub struct TcpMesh<M> {
    me: ProcessId,
    n: usize,
    inbox: Receiver<Inbound<M>>,
    loopback: Sender<Inbound<M>>,
    links: Vec<Option<Sender<Cmd>>>,
    stats: Arc<MeshStats>,
    shared: Arc<Shared>,
    /// Outbound frame buffers, cycled with the reactor: [`TcpMesh::send`]
    /// takes one, the reactor returns it after the socket write.
    pool: Arc<BufPool>,
    wake: WakeHandle,
    reactor: Option<JoinHandle<()>>,
}

impl<M: Message + WireCodec> TcpMesh<M> {
    /// Builds the full mesh: spawns the reactor thread, which accepts
    /// `n - 1` handshaked inbound links on `listener` while dialing
    /// every peer in `addrs` (index = process id; our own slot is
    /// ignored). Returns once all `2(n - 1)` links are up, or fails
    /// after [`MeshConfig::dial_timeout`].
    pub fn establish(
        config: MeshConfig,
        listener: TcpListener,
        addrs: &[SocketAddr],
    ) -> Result<Self, WireError> {
        let n = addrs.len();
        let me = config.me;
        assert!(me.index() < n, "mesh identity {me} out of range for {n} peers");
        let (inbox_tx, inbox_rx) = bounded(LINK_CAPACITY);
        let stats = Arc::new(MeshStats::default());
        let shared = Arc::new(Shared::new(n));
        let pool = Arc::new(BufPool::new());
        let (wake, wake_rx) = wake_pair().map_err(WireError::Io)?;

        let mut links: Vec<Option<Sender<Cmd>>> = (0..n).map(|_| None).collect();
        let mut rxs: Vec<Option<Receiver<Cmd>>> = (0..n).map(|_| None).collect();
        for j in 0..n {
            if j == me.index() {
                continue;
            }
            let (tx, rx) = bounded(LINK_CAPACITY);
            links[j] = Some(tx);
            rxs[j] = Some(rx);
        }

        let reactor = Reactor::<M>::new(
            ReactorConfig {
                me,
                hello: config.hello.clone(),
                addrs: addrs.to_vec(),
                backoff_cap: config.reconnect_backoff_cap.max(Duration::from_millis(1)),
                jitter: config.reconnect_jitter,
                handshake_timeout: config.handshake_timeout,
                flush_timeout: config.flush_timeout,
            },
            listener,
            rxs,
            inbox_tx.clone(),
            stats.clone(),
            shared.clone(),
            wake_rx,
            pool.clone(),
        );
        let reactor_handle = std::thread::Builder::new()
            .name(format!("mesh-reactor-{}", me.0))
            .spawn(move || reactor.run())
            .map_err(WireError::Io)?;

        let mesh = TcpMesh {
            me,
            n,
            inbox: inbox_rx,
            loopback: inbox_tx,
            links,
            stats,
            shared,
            pool,
            wake,
            reactor: Some(reactor_handle),
        };

        // Wait until every outbound link has handshaked *and* every peer
        // has dialed us, so no early round can race an unestablished
        // link.
        let deadline = Instant::now() + config.dial_timeout;
        let failure = loop {
            if let Some(e) = mesh.shared.fatal.lock().take() {
                break Some(e);
            }
            let out = mesh.shared.out_ready.load(Ordering::SeqCst);
            let inbound = mesh.shared.accepted.lock().iter().filter(|&&a| a).count();
            if out >= n - 1 && inbound >= n - 1 {
                break None;
            }
            if Instant::now() > deadline {
                break Some(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "{me}: only {out}/{} outbound and {inbound}/{} inbound links \
                         handshaked within the dial timeout",
                        n - 1,
                        n - 1
                    ),
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        match failure {
            Some(e) => {
                mesh.shutdown();
                Err(e)
            }
            None => Ok(mesh),
        }
    }

    /// Our identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Socket-level counters.
    pub fn stats(&self) -> &Arc<MeshStats> {
        &self.stats
    }

    /// Sends `msg` stamped with `sent_round` to `to`. Self-sends bypass
    /// the sockets (process memory cannot fail) and pass on the handle,
    /// not a copy; remote sends encode one frame and hand it to the
    /// reactor, blocking (and counting backpressure) when the link's
    /// outbox is full.
    ///
    /// The frame (`4-byte BE length ‖ sent_round ‖ message`) is built in
    /// a pooled buffer via the thread-local scratch encoder: steady-state
    /// sends allocate nothing once the pool has warmed up.
    pub fn send(&self, to: ProcessId, sent_round: u64, msg: &Arc<M>) {
        if to == self.me {
            let _ = self.loopback.send(Inbound { from: self.me, sent_round, msg: Arc::clone(msg) });
            return;
        }
        let Some(tx) = self.links.get(to.index()).and_then(|l| l.as_ref()) else {
            return;
        };
        let framed = with_scratch_encoder(|enc| {
            enc.put_u64(sent_round);
            msg.encode_wire(enc);
            let payload = enc.as_bytes();
            let mut framed = self.pool.take();
            let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
            framed.extend_from_slice(&len.to_be_bytes());
            framed.extend_from_slice(payload);
            framed
        });
        match tx.try_send(Cmd::Frame(framed)) {
            Ok(()) => self.wake.wake(),
            Err(TrySendError::Full(cmd)) => {
                self.stats.backpressure.fetch_add(1, Ordering::Relaxed);
                // Wake first so the reactor drains the channel we are
                // about to block on.
                self.wake.wake();
                let _ = tx.send(cmd);
                self.wake.wake();
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Tears down the connection to `to`; the next frame re-dials and
    /// re-handshakes. What a [`meba_sim::faults::LinkFate::Sever`] does
    /// on this backend.
    pub fn sever(&self, to: ProcessId) {
        if let Some(tx) = self.links.get(to.index()).and_then(|l| l.as_ref()) {
            let _ = tx.send(Cmd::Sever);
            self.wake.wake();
        }
    }

    /// Moves every currently queued inbound message into `buf`.
    pub fn drain_into(&self, buf: &mut Vec<Inbound<M>>) {
        let before = buf.len();
        buf.extend(self.inbox.try_iter());
        if buf.len() > before {
            // Space freed: let the reactor re-offer any parked message.
            self.wake.wake();
        }
    }

    /// Flushes queued frames (re-dialing where needed, bounded by
    /// [`MeshConfig::flush_timeout`]), closes every socket, and joins
    /// the reactor. Frames still undeliverable at the deadline are
    /// counted into [`MeshStats::frames_dropped`] and reported — which
    /// is survivable: the run is over for those peers.
    ///
    /// Dropping the mesh does the same; this is the explicit spelling.
    pub fn shutdown(self) {}
}

impl<M> Drop for TcpMesh<M> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Dropping the senders marks the command channels finished once
        // drained.
        for link in &mut self.links {
            *link = None;
        }
        self.wake.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{config_digest, PROTOCOL_VERSION};
    use meba_core::SystemConfig;
    use meba_crypto::{DecodeError, Decoder, Encoder};
    use std::io::Write as _;
    use std::net::TcpStream;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn words(&self) -> u64 {
            1
        }
        fn wire_bytes(&self) -> u64 {
            self.wire_len()
        }
    }
    impl WireCodec for Num {
        fn encode_wire(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }
        fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            Ok(Num(dec.get_u64()?))
        }
    }

    fn meshes_with(
        n: usize,
        domain: u64,
        tune: impl Fn(&mut MeshConfig) + Send + Sync + 'static,
    ) -> Vec<TcpMesh<Num>> {
        // The digest only has to *match* across peers; the mesh size is
        // independent of the configuration it hashes.
        let cfg = SystemConfig::new(n.max(3) | 1, 1).unwrap();
        let digest = config_digest(&cfg);
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let tune = Arc::new(tune);
        let mut handles = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let tune = tune.clone();
            let hello = Hello {
                version: PROTOCOL_VERSION,
                id: ProcessId(i as u32),
                config_digest: digest,
                domain,
            };
            handles.push(std::thread::spawn(move || {
                let mut mc = MeshConfig::new(ProcessId(i as u32), hello);
                tune(&mut mc);
                TcpMesh::establish(mc, listener, &addrs)
            }));
        }
        let mut meshes: Vec<TcpMesh<Num>> =
            handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
        meshes.sort_by_key(|m| m.me().index());
        meshes
    }

    fn meshes(n: usize, domain: u64) -> Vec<TcpMesh<Num>> {
        meshes_with(n, domain, |_| {})
    }

    fn recv_one(mesh: &TcpMesh<Num>, deadline: Duration) -> Vec<Inbound<Num>> {
        let start = Instant::now();
        let mut got = Vec::new();
        while got.is_empty() && start.elapsed() < deadline {
            mesh.drain_into(&mut got);
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn three_process_mesh_delivers_frames() {
        let meshes = meshes(3, 0xaa);
        meshes[0].send(ProcessId(1), 7, &Arc::new(Num(41)));
        meshes[0].send(ProcessId(0), 7, &Arc::new(Num(42))); // self: loopback
        let got = recv_one(&meshes[1], Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].from, ProcessId(0));
        assert_eq!(got[0].sent_round, 7);
        assert_eq!(*got[0].msg, Num(41));
        let mut own = Vec::new();
        meshes[0].drain_into(&mut own);
        assert_eq!(own.len(), 1);
        assert_eq!(*own[0].msg, Num(42));
        let snap = meshes[0].stats().snapshot();
        assert_eq!(snap.frames_sent, 1, "self-delivery must not touch a socket");
        // frame = 4-byte prefix + 9-byte round + 9-byte Num encoding
        assert_eq!(snap.bytes_sent, 22);
        assert_eq!(snap.frames_dropped, 0);
        for m in meshes {
            m.shutdown();
        }
    }

    #[test]
    fn severed_link_reconnects_and_delivers_again() {
        let meshes = meshes(2, 0xbb);
        meshes[0].send(ProcessId(1), 0, &Arc::new(Num(1)));
        assert_eq!(recv_one(&meshes[1], Duration::from_secs(5)).len(), 1);
        meshes[0].sever(ProcessId(1));
        // The next frame must trigger a re-dial + re-handshake.
        meshes[0].send(ProcessId(1), 1, &Arc::new(Num(2)));
        let got = recv_one(&meshes[1], Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0].msg, Num(2));
        assert_eq!(meshes[0].stats().snapshot().reconnects, 1);
        for m in meshes {
            m.shutdown();
        }
    }

    #[test]
    fn shutdown_flushes_frames_queued_behind_a_severed_link() {
        // Regression: a cleanly-stopping process must not drop frames
        // that still need a re-dial to be delivered (e.g. decide
        // certificates queued behind backpressure when the link dropped).
        let mut meshes = meshes(2, 0xcc);
        meshes[0].send(ProcessId(1), 0, &Arc::new(Num(1)));
        assert_eq!(recv_one(&meshes[1], Duration::from_secs(5)).len(), 1);
        // Kill the socket, then queue frames that can only go out after a
        // reconnect, then shut down immediately.
        meshes[0].sever(ProcessId(1));
        for k in 0..5u64 {
            meshes[0].send(ProcessId(1), 1, &Arc::new(Num(100 + k)));
        }
        let receiver = meshes.pop().unwrap();
        let sender = meshes.pop().unwrap();
        sender.shutdown();
        let start = Instant::now();
        let mut got = Vec::new();
        while got.len() < 5 && start.elapsed() < Duration::from_secs(5) {
            receiver.drain_into(&mut got);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.len(), 5, "graceful shutdown must flush queued frames");
        receiver.shutdown();
    }

    #[test]
    fn undeliverable_frames_are_counted_not_silent() {
        // Regression for the old writer path, which dropped a frame
        // *silently* after one failed resend. Point a sender at a peer
        // that has shut down for good, queue frames, and shut down with
        // a short flush budget: every one must land in `frames_dropped`.
        let mut meshes = meshes_with(2, 0xdd, |mc| {
            mc.flush_timeout = Duration::from_millis(200);
            mc.reconnect_backoff_cap = Duration::from_millis(10);
        });
        let receiver = meshes.pop().unwrap();
        let sender = meshes.pop().unwrap();
        // First failure: the peer shuts down entirely (connection dies).
        receiver.shutdown();
        // Queue frames that can never be delivered again.
        for k in 0..3u64 {
            sender.send(ProcessId(1), 2, &Arc::new(Num(k)));
        }
        // Second failure: every re-dial during the flush fails too.
        let stats = sender.stats().clone();
        sender.shutdown();
        let dropped = stats.snapshot().frames_dropped;
        assert!(dropped >= 3, "expected ≥3 dropped frames counted, got {dropped}");
    }

    #[test]
    fn dial_jitter_is_deterministic_and_bounded() {
        use crate::reactor::dial_jitter;
        assert_eq!(dial_jitter(ProcessId(3), 0, Duration::ZERO), Duration::ZERO);
        let jit = Duration::from_millis(10);
        for attempt in 0..50 {
            let a = dial_jitter(ProcessId(3), attempt, jit);
            assert!(a < jit, "jitter {a:?} out of bounds");
            assert_eq!(a, dial_jitter(ProcessId(3), attempt, jit), "jitter must be deterministic");
        }
        // Different attempts spread across the range.
        assert_ne!(dial_jitter(ProcessId(3), 0, jit), dial_jitter(ProcessId(3), 1, jit));
    }

    #[test]
    fn mismatched_domain_cannot_establish() {
        let cfg = SystemConfig::new(3, 1).unwrap();
        let digest = config_digest(&cfg);
        let listeners: Vec<TcpListener> =
            (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut handles = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            let hello = Hello {
                version: PROTOCOL_VERSION,
                id: ProcessId(i as u32),
                config_digest: digest,
                domain: i as u64, // each side in its own domain
            };
            let mut mc = MeshConfig::new(ProcessId(i as u32), hello);
            mc.dial_timeout = Duration::from_millis(500);
            handles
                .push(std::thread::spawn(move || TcpMesh::<Num>::establish(mc, listener, &addrs)));
        }
        for h in handles {
            assert!(h.join().unwrap().is_err());
        }
    }

    #[test]
    fn stalled_dialer_is_reaped_at_the_handshake_deadline() {
        // The slow-loris byte-level case, driven directly: a raw TCP
        // client sends half a handshake frame and stalls; the reactor
        // must reject it at the deadline and keep serving real links.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let loris_target = listener.local_addr().unwrap();
        let other = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![loris_target, other.local_addr().unwrap()];
        let cfg = SystemConfig::new(3, 1).unwrap();
        let digest = config_digest(&cfg);
        let mk_hello = |i: u32| Hello {
            version: PROTOCOL_VERSION,
            id: ProcessId(i),
            config_digest: digest,
            domain: 0xf00d,
        };
        let mut mc0 = MeshConfig::new(ProcessId(0), mk_hello(0));
        mc0.handshake_timeout = Duration::from_millis(250);
        let mut mc1 = MeshConfig::new(ProcessId(1), mk_hello(1));
        mc1.handshake_timeout = Duration::from_millis(250);
        let addrs0 = addrs.clone();
        let h0 = std::thread::spawn(move || TcpMesh::<Num>::establish(mc0, listener, &addrs0));
        let h1 = std::thread::spawn(move || TcpMesh::<Num>::establish(mc1, other, &addrs));
        let m0 = h0.join().unwrap().unwrap();
        let m1 = h1.join().unwrap().unwrap();

        // The loris: half a frame header, then silence.
        let mut loris = TcpStream::connect(loris_target).unwrap();
        loris.write_all(&[0x00, 0x00]).unwrap();

        // Healthy traffic keeps flowing both ways while the loris sits.
        m1.send(ProcessId(0), 1, &Arc::new(Num(5)));
        assert_eq!(recv_one(&m0, Duration::from_secs(5)).len(), 1);
        m0.send(ProcessId(1), 1, &Arc::new(Num(6)));
        assert_eq!(recv_one(&m1, Duration::from_secs(5)).len(), 1);

        // After the deadline the loris is reaped and counted.
        let start = Instant::now();
        loop {
            if m0.stats().snapshot().handshake_rejects >= 1 {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "stalled handshake was never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Mesh still live afterwards.
        m1.send(ProcessId(0), 2, &Arc::new(Num(9)));
        assert_eq!(recv_one(&m0, Duration::from_secs(5)).len(), 1);
        drop(loris);
        m0.shutdown();
        m1.shutdown();
    }
}

//! The readiness-driven I/O core behind [`crate::mesh::TcpMesh`].
//!
//! One reactor thread per mesh owns *every* socket the mesh touches —
//! the listener, all outbound (dialed) links, all inbound (accepted)
//! links, and a wake pipe — and drives them from a single
//! [`crate::poller::poll`] loop over nonblocking descriptors. That
//! replaces the previous thread-per-link design (one writer + one
//! reader OS thread per directed link, plus a busy-waiting acceptor):
//! a cluster of `n` in-process peers now costs `O(n)` threads instead
//! of `O(n²)`.
//!
//! Each link is a small state machine:
//!
//! * outbound: `Idle → (dial) → Handshaking → Established`, falling
//!   back through `Backoff` on transient failure with the same capped
//!   exponential delay + deterministic jitter schedule the writer
//!   threads used ([`reconnect_delay`]); a *semantic* handshake
//!   rejection is `Failed` — permanent, with every queued frame counted
//!   into [`crate::mesh::MeshStats::frames_dropped`] and reported.
//! * inbound: `accepted → Handshaking → Established`, with a per-link
//!   handshake deadline enforced by the poll timeout — a peer stalling
//!   mid-handshake is reaped at the deadline and can never pin the I/O
//!   thread (the old design parked a whole acceptor thread in a
//!   blocking read for up to the socket read timeout).
//!
//! Outbound frames are queued per link and survive reconnects: a frame
//! is only ever dropped on permanent link failure or when the shutdown
//! flush deadline expires, and every drop is counted and diagnosed —
//! never silent.

use crate::error::WireError;
use crate::frame::MAX_FRAME_BYTES;
use crate::handshake::{validate, Hello};
use crate::mesh::{Inbound, MeshStats};
use crate::poller::{self, PollFd, WakeFd, POLLIN, POLLOUT};
use crossbeam::channel::{Receiver, Sender, TryRecvError, TrySendError};
use meba_crypto::{Decoder, ProcessId, WireCodec};
use meba_engine::LINK_CAPACITY;
use meba_sim::Message;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the mesh handle sends down a link's command channel.
pub(crate) enum Cmd {
    /// One fully framed data frame (`4-byte BE length ‖ sent_round ‖
    /// message`), built in a buffer from the mesh's [`crate::pool::BufPool`]
    /// and returned there once written to the socket.
    Frame(Vec<u8>),
    /// Tear the connection down; the next frame re-dials.
    Sever,
}

/// Reactor-side state shared with the [`crate::mesh::TcpMesh`] handle.
pub(crate) struct Shared {
    /// Raised by the handle to request flush-and-exit.
    pub stop: AtomicBool,
    /// Outbound links that have completed their first handshake.
    pub out_ready: AtomicUsize,
    /// Which peers have an accepted, handshaked inbound link.
    pub accepted: Mutex<Vec<bool>>,
    /// First permanent establishment error, if any.
    pub fatal: Mutex<Option<WireError>>,
}

impl Shared {
    pub(crate) fn new(n: usize) -> Self {
        Shared {
            stop: AtomicBool::new(false),
            out_ready: AtomicUsize::new(0),
            accepted: Mutex::new(vec![false; n]),
            fatal: Mutex::new(None),
        }
    }
}

/// Construction parameters handed from the mesh to its reactor thread.
pub(crate) struct ReactorConfig {
    pub me: ProcessId,
    pub hello: Hello,
    pub addrs: Vec<SocketAddr>,
    pub backoff_cap: Duration,
    pub jitter: Duration,
    pub handshake_timeout: Duration,
    pub flush_timeout: Duration,
}

/// Upper bound on one blocking `connect` attempt. Dials are the one
/// blocking call left in the reactor: on the loopback links this crate
/// targets, a connect resolves (or is refused) in microseconds, and
/// bounding it keeps a blackholed peer from stalling the loop for more
/// than a beat.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Poll timeout when no timer is pending — a liveness backstop in case
/// a wake is ever missed, not the normal wake path.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Retry cadence for re-offering a parked inbound message to a full
/// inbox (normally the drain side wakes the reactor first).
const PARK_RETRY: Duration = Duration::from_millis(1);

/// Deterministic per-attempt jitter in `[0, jitter)`: a SplitMix64-style
/// hash of `(peer, attempt)`, so redial schedules are reproducible yet
/// spread out across peers.
pub fn dial_jitter(peer: ProcessId, attempt: u64, jitter: Duration) -> Duration {
    if jitter.is_zero() {
        return Duration::ZERO;
    }
    let mut z = (u64::from(peer.0) << 32) ^ attempt ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let max_ns = jitter.as_nanos().max(1) as u64;
    Duration::from_nanos(z % max_ns)
}

/// The delay before re-dial attempt `attempt` (0-based): capped
/// exponential backoff from 1 ms plus [`dial_jitter`]. Never exceeds
/// `backoff_cap + jitter` (treating a sub-millisecond cap as 1 ms).
pub fn reconnect_delay(
    peer: ProcessId,
    attempt: u64,
    backoff_cap: Duration,
    jitter: Duration,
) -> Duration {
    let cap = backoff_cap.max(Duration::from_millis(1));
    let base = Duration::from_millis(1u64 << attempt.min(20)).min(cap);
    base + dial_jitter(peer, attempt, jitter)
}

// ---------------------------------------------------------------------
// Incremental framing.
// ---------------------------------------------------------------------

/// Incremental reader for one length-prefixed frame over a nonblocking
/// stream: accumulates across `WouldBlock` boundaries and yields at most
/// one complete payload per call. The size cap is enforced before the
/// payload buffer grows, exactly like the blocking
/// [`crate::frame::read_frame`].
///
/// The payload buffer is owned by the accumulator and reused across
/// frames: a yielded payload is borrowed, and its bytes stay valid until
/// the next `poll_frame` call starts the next payload. Steady-state link
/// reads therefore allocate nothing once the buffer has grown to the
/// largest frame seen — the per-link read buffer.
pub(crate) struct FrameAccum {
    header: [u8; 4],
    have: usize,
    /// True while `payload` is being filled for the current frame.
    in_payload: bool,
    payload: Vec<u8>,
    filled: usize,
}

impl FrameAccum {
    pub(crate) fn new() -> Self {
        FrameAccum { header: [0; 4], have: 0, in_payload: false, payload: Vec::new(), filled: 0 }
    }

    /// Pulls bytes until a frame completes (`Ok(Some(payload))`), the
    /// stream would block (`Ok(None)`), or the link is dead.
    pub(crate) fn poll_frame<R: Read>(&mut self, r: &mut R) -> Result<Option<&[u8]>, WireError> {
        if !self.in_payload {
            while self.have < 4 {
                match r.read(&mut self.header[self.have..]) {
                    Ok(0) => return Err(WireError::PeerClosed),
                    Ok(k) => self.have += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            let len = u32::from_be_bytes(self.header) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(WireError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
            }
            self.payload.clear();
            self.payload.resize(len, 0);
            self.filled = 0;
            self.in_payload = true;
        }
        while self.filled < self.payload.len() {
            match r.read(&mut self.payload[self.filled..]) {
                Ok(0) => return Err(WireError::PeerClosed),
                Ok(k) => self.filled += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        self.have = 0;
        self.in_payload = false;
        Ok(Some(&self.payload))
    }
}

/// Per-link outbound queue of fully framed byte strings, with partial
/// write tracking. Frames arrive already framed (the mesh handle builds
/// `prefix ‖ payload` in a pooled buffer), so queueing is a move, not a
/// copy. Frames survive reconnects: on teardown the partial offset
/// resets and the head frame is resent whole (the receiver's half-read
/// copy died with the connection).
struct SendQueue {
    frames: VecDeque<Vec<u8>>,
    head_written: usize,
}

impl SendQueue {
    fn new() -> Self {
        SendQueue { frames: VecDeque::new(), head_written: 0 }
    }

    fn push(&mut self, framed: Vec<u8>) {
        debug_assert!(framed.len() >= 4, "frames arrive with their length prefix");
        self.frames.push_back(framed);
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn reset_partial(&mut self) {
        self.head_written = 0;
    }

    fn clear(&mut self) -> u64 {
        self.head_written = 0;
        let n = self.frames.len() as u64;
        self.frames.clear();
        n
    }

    /// Writes as much as the socket accepts, returning each completed
    /// frame's buffer to `pool`. Returns
    /// `(frames_completed, bytes_of_completed_frames, wrote_anything)`.
    fn pump<W: Write>(
        &mut self,
        w: &mut W,
        pool: &crate::pool::BufPool,
    ) -> io::Result<(u64, u64, bool)> {
        let mut frames = 0u64;
        let mut bytes = 0u64;
        let mut progress = false;
        while let Some(head) = self.frames.front() {
            match w.write(&head[self.head_written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => {
                    progress = true;
                    self.head_written += k;
                    if self.head_written == head.len() {
                        bytes += head.len() as u64;
                        frames += 1;
                        if let Some(done) = self.frames.pop_front() {
                            pool.put(done);
                        }
                        self.head_written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok((frames, bytes, progress))
    }
}

// ---------------------------------------------------------------------
// Link state machines.
// ---------------------------------------------------------------------

enum OutConn {
    /// No connection and no retry pending; dials lazily when frames
    /// queue up (or eagerly during establishment).
    Idle,
    /// Last attempt failed; retry once `until` passes.
    Backoff { until: Instant },
    /// Connected; hello sent/being sent, reply being read.
    Handshaking {
        conn: TcpStream,
        hello_out: Vec<u8>,
        written: usize,
        acc: FrameAccum,
        deadline: Instant,
    },
    /// Link up; frames flow.
    Established { conn: TcpStream },
    /// Semantic handshake rejection: retrying cannot heal this.
    Failed,
}

struct OutLink {
    peer: ProcessId,
    addr: SocketAddr,
    conn: OutConn,
    queue: SendQueue,
    attempt: u64,
    /// Dial even with an empty queue — set during establishment,
    /// cleared on the first successful handshake.
    eager: bool,
    ever_established: bool,
    counted_ready: bool,
    /// Last instant the link made write progress (or went idle);
    /// a non-empty queue stalled past the handshake timeout forces a
    /// reconnect instead of wedging behind a peer that stopped reading.
    last_progress: Instant,
}

/// Outcome of driving an outbound link, applied after the borrow on the
/// link ends.
enum OutAct {
    None,
    /// Transient failure: tear down, schedule a backoff retry.
    Backoff,
    /// Semantic handshake rejection: permanent.
    Fail(WireError),
    /// Handshake reply validated: promote to `Established`.
    Promote,
    /// Connection died (EOF/reset/write error): back to `Idle`, frames
    /// kept, re-dial on demand.
    Disconnect,
}

enum InState<M> {
    Handshaking {
        acc: FrameAccum,
        /// Our reply hello (framed) once the dialer's hello validated,
        /// with the write offset and the authenticated peer.
        reply: Option<(Vec<u8>, usize, ProcessId)>,
        deadline: Instant,
    },
    Established {
        peer: ProcessId,
        acc: FrameAccum,
        parked: Option<Inbound<M>>,
    },
}

struct InLink<M> {
    conn: TcpStream,
    state: InState<M>,
    dead: bool,
}

/// Outcome of driving an inbound handshake, applied after the borrow on
/// the link ends.
enum InStep {
    None,
    Reject,
    Promote(ProcessId),
}

enum Tok {
    Wake,
    Listener,
    In(usize),
    Out(usize),
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(s: &T) -> i32 {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_s: &T) -> i32 {
    0
}

fn is_semantic(e: &WireError) -> bool {
    matches!(
        e,
        WireError::VersionMismatch { .. }
            | WireError::ConfigMismatch { .. }
            | WireError::DomainMismatch { .. }
            | WireError::PeerMismatch { .. }
            | WireError::IdentityInvalid { .. }
    )
}

fn frame_hello(hello: &Hello) -> Vec<u8> {
    let payload = hello.to_wire_bytes();
    let mut framed = Vec::with_capacity(payload.len() + 4);
    framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    framed.extend_from_slice(&payload);
    framed
}

/// Loud (but non-panicking) accounting for every protocol frame the
/// mesh gives up on — the paper's protocols tolerate loss, but a lost
/// frame must never be *silent*.
fn report_dropped(stats: &MeshStats, me: ProcessId, peer: ProcessId, count: u64, why: &str) {
    if count == 0 {
        return;
    }
    stats.frames_dropped.fetch_add(count, Ordering::Relaxed);
    eprintln!("meba-wire[{me}]: dropped {count} protocol frame(s) to {peer}: {why}");
}

// ---------------------------------------------------------------------
// The reactor proper.
// ---------------------------------------------------------------------

pub(crate) struct Reactor<M: Message + WireCodec> {
    cfg: ReactorConfig,
    n: usize,
    listener: TcpListener,
    rxs: Vec<Option<Receiver<Cmd>>>,
    inbox: Sender<Inbound<M>>,
    stats: Arc<MeshStats>,
    shared: Arc<Shared>,
    wake: WakeFd,
    /// Frame buffers cycled back to the mesh handle after socket writes.
    pool: Arc<crate::pool::BufPool>,
    outs: Vec<OutLink>,
    ins: Vec<InLink<M>>,
}

impl<M: Message + WireCodec> Reactor<M> {
    #[allow(clippy::too_many_arguments)] // construction-only plumbing from the mesh
    pub(crate) fn new(
        cfg: ReactorConfig,
        listener: TcpListener,
        rxs: Vec<Option<Receiver<Cmd>>>,
        inbox: Sender<Inbound<M>>,
        stats: Arc<MeshStats>,
        shared: Arc<Shared>,
        wake: WakeFd,
        pool: Arc<crate::pool::BufPool>,
    ) -> Self {
        let now = Instant::now();
        let outs = cfg
            .addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != cfg.me.index())
            .map(|(j, &addr)| OutLink {
                peer: ProcessId(j as u32),
                addr,
                conn: OutConn::Idle,
                queue: SendQueue::new(),
                attempt: 0,
                eager: true,
                ever_established: false,
                counted_ready: false,
                last_progress: now,
            })
            .collect();
        let n = cfg.addrs.len();
        Reactor { cfg, n, listener, rxs, inbox, stats, shared, wake, pool, outs, ins: Vec::new() }
    }

    /// The reactor thread body: loops until stop + flush completes.
    pub(crate) fn run(mut self) {
        if let Err(e) = self.listener.set_nonblocking(true) {
            let mut fatal = self.shared.fatal.lock();
            if fatal.is_none() {
                *fatal = Some(WireError::Io(e));
            }
            return;
        }
        let mut flush_deadline: Option<Instant> = None;
        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            if stopping && flush_deadline.is_none() {
                flush_deadline = Some(Instant::now() + self.cfg.flush_timeout);
            }
            self.pump_commands();
            let now = Instant::now();
            self.expire_timers(now);
            self.start_dials(stopping, now);
            self.unpark_inbound();
            if stopping && self.flush_done(flush_deadline.expect("set at stop")) {
                return;
            }
            let (mut fds, toks) = self.build_poll_set(stopping);
            let timeout = self.poll_timeout(stopping, flush_deadline);
            let _ = poller::poll(&mut fds, timeout);
            let mut accept_ready = false;
            let mut ready_in: Vec<usize> = Vec::new();
            let mut ready_out: Vec<(usize, bool, bool)> = Vec::new();
            for (pfd, tok) in fds.iter().zip(&toks) {
                if !pfd.ready() {
                    continue;
                }
                match tok {
                    Tok::Wake => self.wake.drain(),
                    Tok::Listener => accept_ready = true,
                    Tok::In(i) => ready_in.push(*i),
                    Tok::Out(k) => ready_out.push((*k, pfd.readable(), pfd.writable())),
                }
            }
            if accept_ready {
                self.accept_new(Instant::now());
            }
            for (k, readable, writable) in ready_out {
                self.drive_out(k, readable, writable);
            }
            for i in ready_in {
                self.drive_in(i);
            }
            self.ins.retain(|l| !l.dead);
        }
    }

    /// Moves queued commands from the handle's channels into per-link
    /// send queues, bounded by [`LINK_CAPACITY`] so total buffering per
    /// link stays at most `2 × LINK_CAPACITY` frames.
    fn pump_commands(&mut self) {
        for link in &mut self.outs {
            let Some(rx) = self.rxs[link.peer.index()].as_ref() else { continue };
            let mut disconnected = false;
            while link.queue.len() < LINK_CAPACITY {
                match rx.try_recv() {
                    Ok(Cmd::Frame(framed)) => {
                        // `framed` includes its 4-byte length prefix.
                        if framed.len().saturating_sub(4) > MAX_FRAME_BYTES {
                            report_dropped(
                                &self.stats,
                                self.cfg.me,
                                link.peer,
                                1,
                                "frame exceeds MAX_FRAME_BYTES",
                            );
                            self.pool.put(framed);
                            continue;
                        }
                        if matches!(link.conn, OutConn::Failed) {
                            report_dropped(
                                &self.stats,
                                self.cfg.me,
                                link.peer,
                                1,
                                "link permanently rejected by handshake",
                            );
                            self.pool.put(framed);
                            continue;
                        }
                        if link.queue.is_empty() {
                            link.last_progress = Instant::now();
                        }
                        link.queue.push(framed);
                    }
                    Ok(Cmd::Sever) => {
                        if matches!(
                            link.conn,
                            OutConn::Established { .. } | OutConn::Handshaking { .. }
                        ) {
                            link.conn = OutConn::Idle;
                            link.queue.reset_partial();
                            link.attempt = 0;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            if disconnected {
                self.rxs[link.peer.index()] = None;
            }
        }
    }

    fn expire_timers(&mut self, now: Instant) {
        let stall = self.cfg.handshake_timeout;
        for link in &mut self.outs {
            match &link.conn {
                OutConn::Backoff { until } if now >= *until => link.conn = OutConn::Idle,
                OutConn::Handshaking { deadline, .. } if now >= *deadline => {
                    let attempt = link.attempt;
                    link.attempt += 1;
                    link.conn = OutConn::Backoff {
                        until: now
                            + reconnect_delay(
                                link.peer,
                                attempt,
                                self.cfg.backoff_cap,
                                self.cfg.jitter,
                            ),
                    };
                }
                OutConn::Established { .. }
                    if !link.queue.is_empty() && now.duration_since(link.last_progress) > stall =>
                {
                    // The peer accepted the connection but stopped
                    // reading; a fresh connection re-runs the handshake
                    // and resends the queued frames.
                    link.conn = OutConn::Idle;
                    link.queue.reset_partial();
                    link.attempt = 0;
                    link.last_progress = now;
                }
                _ => {}
            }
        }
        for l in &mut self.ins {
            if let InState::Handshaking { deadline, .. } = &l.state {
                if now >= *deadline {
                    // Slow-loris / stalled dialer: reap at the deadline.
                    self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                    l.dead = true;
                }
            }
        }
        self.ins.retain(|l| !l.dead);
    }

    fn start_dials(&mut self, stopping: bool, now: Instant) {
        for k in 0..self.outs.len() {
            let wants = {
                let link = &self.outs[k];
                matches!(link.conn, OutConn::Idle)
                    && if stopping {
                        !link.queue.is_empty()
                    } else {
                        link.eager || !link.queue.is_empty()
                    }
            };
            if wants {
                self.dial(k, now);
            }
        }
    }

    fn dial(&mut self, k: usize, now: Instant) {
        let link = &mut self.outs[k];
        let conn = TcpStream::connect_timeout(&link.addr, CONNECT_TIMEOUT)
            .and_then(|conn| conn.set_nonblocking(true).map(|()| conn));
        match conn {
            Ok(conn) => {
                let _ = conn.set_nodelay(true);
                link.conn = OutConn::Handshaking {
                    conn,
                    hello_out: frame_hello(&self.cfg.hello),
                    written: 0,
                    acc: FrameAccum::new(),
                    deadline: now + self.cfg.handshake_timeout,
                };
            }
            Err(_) => {
                let attempt = link.attempt;
                link.attempt += 1;
                link.conn = OutConn::Backoff {
                    until: now
                        + reconnect_delay(
                            link.peer,
                            attempt,
                            self.cfg.backoff_cap,
                            self.cfg.jitter,
                        ),
                };
            }
        }
    }

    fn unpark_inbound(&mut self) {
        for l in &mut self.ins {
            if let InState::Established { parked, .. } = &mut l.state {
                if let Some(msg) = parked.take() {
                    if let Err(TrySendError::Full(msg)) = self.inbox.try_send(msg) {
                        *parked = Some(msg);
                    }
                }
            }
        }
    }

    fn flush_done(&mut self, flush_deadline: Instant) -> bool {
        let drained = self.outs.iter().all(|l| l.queue.is_empty())
            && self
                .rxs
                .iter()
                .all(|r| r.as_ref().is_none_or(crossbeam::channel::Receiver::is_empty));
        if drained {
            return true;
        }
        if Instant::now() >= flush_deadline {
            for link in &mut self.outs {
                let mut leftover = link.queue.clear();
                if let Some(rx) = self.rxs[link.peer.index()].take() {
                    leftover += rx.try_iter().filter(|c| matches!(c, Cmd::Frame(_))).count() as u64;
                }
                report_dropped(
                    &self.stats,
                    self.cfg.me,
                    link.peer,
                    leftover,
                    "undeliverable at shutdown flush deadline",
                );
            }
            return true;
        }
        false
    }

    fn build_poll_set(&self, stopping: bool) -> (Vec<PollFd>, Vec<Tok>) {
        let mut fds = Vec::with_capacity(2 + self.ins.len() + self.outs.len());
        let mut toks = Vec::with_capacity(2 + self.ins.len() + self.outs.len());
        fds.push(PollFd::new(self.wake.fd(), POLLIN));
        toks.push(Tok::Wake);
        if !stopping {
            fds.push(PollFd::new(fd_of(&self.listener), POLLIN));
            toks.push(Tok::Listener);
        }
        for (i, l) in self.ins.iter().enumerate() {
            let ev = match &l.state {
                InState::Handshaking { reply: Some(_), .. } => POLLOUT | POLLIN,
                InState::Handshaking { reply: None, .. } => POLLIN,
                InState::Established { parked: Some(_), .. } => 0,
                InState::Established { parked: None, .. } => POLLIN,
            };
            if ev != 0 {
                fds.push(PollFd::new(fd_of(&l.conn), ev));
                toks.push(Tok::In(i));
            }
        }
        for (k, l) in self.outs.iter().enumerate() {
            match &l.conn {
                OutConn::Handshaking { conn, hello_out, written, .. } => {
                    let ev = if *written < hello_out.len() { POLLOUT | POLLIN } else { POLLIN };
                    fds.push(PollFd::new(fd_of(conn), ev));
                    toks.push(Tok::Out(k));
                }
                OutConn::Established { conn } => {
                    let ev = POLLIN | if l.queue.is_empty() { 0 } else { POLLOUT };
                    fds.push(PollFd::new(fd_of(conn), ev));
                    toks.push(Tok::Out(k));
                }
                _ => {}
            }
        }
        (fds, toks)
    }

    fn poll_timeout(&self, stopping: bool, flush_deadline: Option<Instant>) -> Duration {
        let now = Instant::now();
        let mut next: Option<Instant> = if stopping { flush_deadline } else { None };
        let mut consider = |t: Instant| {
            next = Some(match next {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        };
        for l in &self.outs {
            match &l.conn {
                OutConn::Backoff { until } => consider(*until),
                OutConn::Handshaking { deadline, .. } => consider(*deadline),
                OutConn::Established { .. } if !l.queue.is_empty() => {
                    consider(l.last_progress + self.cfg.handshake_timeout);
                }
                _ => {}
            }
        }
        for l in &self.ins {
            match &l.state {
                InState::Handshaking { deadline, .. } => consider(*deadline),
                InState::Established { parked: Some(_), .. } => consider(now + PARK_RETRY),
                _ => {}
            }
        }
        match next {
            Some(t) => t.saturating_duration_since(now).min(IDLE_POLL),
            None => IDLE_POLL,
        }
    }

    fn accept_new(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((conn, _)) => {
                    let _ = conn.set_nodelay(true);
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.ins.push(InLink {
                        conn,
                        state: InState::Handshaking {
                            acc: FrameAccum::new(),
                            reply: None,
                            deadline: now + self.cfg.handshake_timeout,
                        },
                        dead: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn out_backoff(&mut self, k: usize) {
        let link = &mut self.outs[k];
        let attempt = link.attempt;
        link.attempt += 1;
        link.queue.reset_partial();
        link.conn = OutConn::Backoff {
            until: Instant::now()
                + reconnect_delay(link.peer, attempt, self.cfg.backoff_cap, self.cfg.jitter),
        };
    }

    /// Permanent semantic rejection: the link will never carry a frame.
    fn out_failed(&mut self, k: usize, e: WireError) {
        let why = format!("handshake permanently rejected ({e})");
        let link = &mut self.outs[k];
        link.conn = OutConn::Failed;
        let dropped = link.queue.clear();
        let (me, peer) = (self.cfg.me, link.peer);
        report_dropped(&self.stats, me, peer, dropped, &why);
        let mut fatal = self.shared.fatal.lock();
        if fatal.is_none() {
            *fatal = Some(e);
        }
    }

    fn out_disconnect(&mut self, k: usize) {
        let link = &mut self.outs[k];
        link.conn = OutConn::Idle;
        link.queue.reset_partial();
        link.attempt = 0;
    }

    fn out_established(&mut self, k: usize) {
        let link = &mut self.outs[k];
        let OutConn::Handshaking { conn, .. } = std::mem::replace(&mut link.conn, OutConn::Idle)
        else {
            return;
        };
        link.conn = OutConn::Established { conn };
        link.attempt = 0;
        link.eager = false;
        link.queue.reset_partial();
        link.last_progress = Instant::now();
        if link.ever_established {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        link.ever_established = true;
        if !link.counted_ready {
            link.counted_ready = true;
            self.shared.out_ready.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn drive_out(&mut self, k: usize, readable: bool, writable: bool) {
        let act = {
            let link = &mut self.outs[k];
            match &mut link.conn {
                OutConn::Handshaking { conn, hello_out, written, acc, .. } => {
                    let mut act = OutAct::None;
                    if writable && *written < hello_out.len() {
                        loop {
                            match conn.write(&hello_out[*written..]) {
                                Ok(0) => {
                                    act = OutAct::Backoff;
                                    break;
                                }
                                Ok(w) => {
                                    *written += w;
                                    if *written == hello_out.len() {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    act = OutAct::Backoff;
                                    break;
                                }
                            }
                        }
                    }
                    if matches!(act, OutAct::None) && readable {
                        match acc.poll_frame(conn) {
                            Ok(None) => {}
                            Ok(Some(frame)) => match Hello::from_wire_bytes(frame) {
                                Ok(theirs) => {
                                    match validate(
                                        &self.cfg.hello,
                                        &theirs,
                                        Some(link.peer),
                                        self.n,
                                    ) {
                                        Ok(()) => act = OutAct::Promote,
                                        Err(e) if is_semantic(&e) => act = OutAct::Fail(e),
                                        Err(_) => act = OutAct::Backoff,
                                    }
                                }
                                Err(_) => act = OutAct::Backoff,
                            },
                            Err(_) => act = OutAct::Backoff,
                        }
                    }
                    act
                }
                OutConn::Established { conn } => {
                    let mut act = OutAct::None;
                    if readable {
                        // A data link is send-only; the only thing to
                        // read here is EOF/reset from a peer that
                        // severed, crashed, or shut down.
                        let mut buf = [0u8; 4096];
                        loop {
                            match conn.read(&mut buf) {
                                Ok(0) => {
                                    act = OutAct::Disconnect;
                                    break;
                                }
                                Ok(_) => continue, // unexpected data: discard
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    act = OutAct::Disconnect;
                                    break;
                                }
                            }
                        }
                    }
                    if matches!(act, OutAct::None) && writable && !link.queue.is_empty() {
                        match link.queue.pump(conn, &self.pool) {
                            Ok((frames, bytes, progress)) => {
                                if frames > 0 {
                                    self.stats.frames_sent.fetch_add(frames, Ordering::Relaxed);
                                    self.stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
                                }
                                if progress {
                                    link.last_progress = Instant::now();
                                }
                            }
                            Err(_) => act = OutAct::Disconnect,
                        }
                    }
                    act
                }
                _ => OutAct::None,
            }
        };
        match act {
            OutAct::None => {}
            OutAct::Backoff => self.out_backoff(k),
            OutAct::Fail(e) => self.out_failed(k, e),
            OutAct::Promote => self.out_established(k),
            OutAct::Disconnect => self.out_disconnect(k),
        }
    }

    fn drive_in(&mut self, i: usize) {
        let step = {
            let l = &mut self.ins[i];
            match &mut l.state {
                InState::Handshaking { acc, reply, .. } => {
                    let mut step = InStep::None;
                    if reply.is_none() {
                        match acc.poll_frame(&mut l.conn) {
                            Ok(None) => return,
                            Ok(Some(frame)) => {
                                let verdict = Hello::from_wire_bytes(frame)
                                    .map_err(WireError::from)
                                    .and_then(|theirs| {
                                        validate(&self.cfg.hello, &theirs, None, self.n)
                                            .map(|()| theirs.id)
                                    });
                                match verdict {
                                    Ok(peer) => {
                                        *reply = Some((frame_hello(&self.cfg.hello), 0, peer));
                                    }
                                    // A rejected dialer learns nothing but
                                    // a closed connection; the structured
                                    // reject stays on our side.
                                    Err(_) => step = InStep::Reject,
                                }
                            }
                            Err(_) => step = InStep::Reject,
                        }
                    }
                    if matches!(step, InStep::None) {
                        if let Some((buf, written, peer)) = reply {
                            loop {
                                match l.conn.write(&buf[*written..]) {
                                    Ok(0) => {
                                        step = InStep::Reject;
                                        break;
                                    }
                                    Ok(w) => {
                                        *written += w;
                                        if *written == buf.len() {
                                            step = InStep::Promote(*peer);
                                            break;
                                        }
                                    }
                                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                    Err(_) => {
                                        step = InStep::Reject;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    step
                }
                InState::Established { peer, acc, parked } => {
                    if parked.is_some() {
                        return;
                    }
                    loop {
                        match acc.poll_frame(&mut l.conn) {
                            Ok(None) => return,
                            Ok(Some(payload)) => {
                                let mut dec = Decoder::new(payload);
                                let decoded = dec
                                    .get_u64()
                                    .and_then(|sent_round| {
                                        M::decode_wire(&mut dec).map(|msg| (sent_round, msg))
                                    })
                                    .and_then(|ok| dec.finish().map(|()| ok));
                                match decoded {
                                    Ok((sent_round, msg)) => {
                                        let msg = Arc::new(msg);
                                        let inbound = Inbound { from: *peer, sent_round, msg };
                                        match self.inbox.try_send(inbound) {
                                            Ok(()) => {}
                                            Err(TrySendError::Full(m)) => {
                                                *parked = Some(m);
                                                return;
                                            }
                                            Err(TrySendError::Disconnected(_)) => return,
                                        }
                                    }
                                    Err(_) => {
                                        self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                // Peer severed, crashed, or shut down: the
                                // link simply disappears (its peer re-dials
                                // on demand).
                                l.dead = true;
                                return;
                            }
                        }
                    }
                }
            }
        };
        match step {
            InStep::None => {}
            InStep::Reject => {
                self.stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                self.ins[i].dead = true;
            }
            InStep::Promote(peer) => {
                self.ins[i].state =
                    InState::Established { peer, acc: FrameAccum::new(), parked: None };
                self.shared.accepted.lock()[peer.index()] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_accum_handles_split_arrivals() {
        struct Dribble {
            data: Vec<u8>,
            pos: usize,
            chunk: usize,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let k = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
                buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
                self.pos += k;
                Ok(k)
            }
        }
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, b"hello world").unwrap();
        crate::frame::write_frame(&mut wire, b"").unwrap();
        let mut src = Dribble { data: wire, pos: 0, chunk: 3 };
        let mut acc = FrameAccum::new();
        let mut frames = Vec::new();
        loop {
            match acc.poll_frame(&mut src) {
                Ok(Some(f)) => frames.push(f.to_vec()),
                Ok(None) => {
                    if src.pos >= src.data.len() {
                        break;
                    }
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, vec![b"hello world".to_vec(), Vec::new()]);
    }

    #[test]
    fn frame_accum_reuses_its_payload_buffer() {
        // The per-link read buffer: after the first (largest) frame, the
        // accumulator must serve subsequent frames from the same backing
        // allocation.
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, &[7u8; 256]).unwrap();
        for k in 0..16u8 {
            crate::frame::write_frame(&mut wire, &[k; 32]).unwrap();
        }
        let mut src = &wire[..];
        let mut acc = FrameAccum::new();
        let first = acc.poll_frame(&mut src).unwrap().expect("first frame complete");
        assert_eq!(first.len(), 256);
        let ptr = first.as_ptr();
        for k in 0..16u8 {
            let f = acc.poll_frame(&mut src).unwrap().expect("frame complete");
            assert_eq!(f, [k; 32]);
            assert_eq!(f.as_ptr(), ptr, "read buffer was reallocated");
        }
    }

    #[test]
    fn frame_accum_rejects_oversize_before_allocating() {
        let mut wire: &[u8] = &u32::MAX.to_be_bytes();
        let mut acc = FrameAccum::new();
        assert!(matches!(
            acc.poll_frame(&mut wire),
            Err(WireError::FrameTooLarge { len, .. }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn frame_accum_eof_is_peer_closed() {
        let mut wire: &[u8] = &3u32.to_be_bytes();
        let mut acc = FrameAccum::new();
        assert!(matches!(acc.poll_frame(&mut wire), Err(WireError::PeerClosed)));
    }

    #[test]
    fn send_queue_survives_partial_writes() {
        struct Throttle {
            out: Vec<u8>,
            budget: usize,
        }
        impl Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let k = buf.len().min(self.budget).min(2);
                self.budget -= k;
                self.out.extend_from_slice(&buf[..k]);
                Ok(k)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        fn framed(payload: &[u8]) -> Vec<u8> {
            let mut f = Vec::with_capacity(payload.len() + 4);
            f.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            f.extend_from_slice(payload);
            f
        }
        let pool = crate::pool::BufPool::new();
        let mut q = SendQueue::new();
        q.push(framed(b"abcdef"));
        q.push(framed(b"gh"));
        let mut sink = Throttle { out: Vec::new(), budget: 5 };
        let (frames, bytes, progress) = q.pump(&mut sink, &pool).unwrap();
        assert_eq!((frames, bytes), (0, 0));
        assert!(progress);
        assert!(!q.is_empty());
        sink.budget = 1024;
        let (frames, bytes, _) = q.pump(&mut sink, &pool).unwrap();
        assert_eq!(frames, 2);
        assert_eq!(bytes, (4 + 6) + (4 + 2));
        assert!(q.is_empty());
        assert_eq!(pool.pooled(), 2, "completed frame buffers are recycled");
        let mut check = &sink.out[..];
        let mut payload = Vec::new();
        crate::frame::read_frame(&mut check, &mut payload).unwrap();
        assert_eq!(payload, b"abcdef");
        crate::frame::read_frame(&mut check, &mut payload).unwrap();
        assert_eq!(payload, b"gh");
    }

    #[test]
    fn reconnect_delay_is_capped_and_jittered_deterministically() {
        let cap = Duration::from_millis(250);
        let jit = Duration::from_millis(10);
        for attempt in 0..64 {
            let d = reconnect_delay(ProcessId(3), attempt, cap, jit);
            assert!(d <= cap + jit, "attempt {attempt}: {d:?} exceeds cap+jitter");
            assert_eq!(d, reconnect_delay(ProcessId(3), attempt, cap, jit));
        }
        assert_eq!(reconnect_delay(ProcessId(1), 0, cap, Duration::ZERO), Duration::from_millis(1));
        assert_eq!(
            reconnect_delay(ProcessId(1), 40, cap, Duration::ZERO),
            cap,
            "exponent saturates at the cap"
        );
    }
}

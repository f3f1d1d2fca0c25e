//! Pass-through wrappers around the two public seams the benchmark
//! measures through: [`Actor`] (every replica / BB process) and
//! [`Storage`] (every journal file). Nothing inside the program under
//! test is touched and nothing here changes when a round runs or what it
//! sees; untraced runs carry only the stop flag and the synced-length
//! bookkeeping the crash workload needs.

use meba::journal::{FileStorage, Storage};
use meba::prelude::{ProcessId, RecursiveBaFactory};
use meba::service::ServiceReplica;
use meba::sim::{Actor, AnyActor, Dest, Message, Round, RoundCtx};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The service replica every `svc_*` workload runs.
pub type ServiceProc = ServiceReplica<RecursiveBaFactory>;
/// Its wire-message type.
pub type ServiceM = <ServiceProc as Actor>::Msg;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first clock read — one clock for the
/// generator, the wrappers and the trace, so spans subtract exactly.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run-wide flags shared by every [`Tap`] of one cluster.
#[derive(Default)]
pub struct RunFlags {
    /// Set when the load window (and its drain) is over. A tap that
    /// sees it stops stepping its actor and reports `done()`, which is
    /// what ends the cluster run; because every process goes silent at
    /// least one round before the coordinator can stop the cluster, the
    /// mesh shuts down with empty queues (no shutdown-flush drops).
    pub stop: AtomicBool,
    /// Processes that have executed their first live round.
    pub started: AtomicU64,
}

// ---------------------------------------------------------------------
// Storage seam
// ---------------------------------------------------------------------

/// One timed `Storage::sync` call.
#[derive(Clone, Copy, Debug)]
pub struct SyncSpan {
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Counters of one replica's journal file, shared between its
/// [`ProbedStorage`] incarnations (pre- and post-crash) and the trace.
#[derive(Default)]
pub struct StorageProbe {
    /// Bytes appended to the file so far.
    pub len: AtomicU64,
    /// File length covered by the last completed `sync`.
    pub synced_len: AtomicU64,
    pub appends: AtomicU64,
    pub syncs: AtomicU64,
    /// Time inside `append` + `sync` (traced runs only).
    pub busy_ns: AtomicU64,
    /// Time inside `sync` (traced runs only).
    pub sync_ns: AtomicU64,
    pub timed: AtomicBool,
    pub spans: Mutex<Vec<SyncSpan>>,
}

/// [`FileStorage`] behind the [`Storage`] seam, recording how much of
/// the file is durable and (traced) how long the calls take.
pub struct ProbedStorage {
    inner: FileStorage,
    probe: Arc<StorageProbe>,
}

impl ProbedStorage {
    /// Opens `path` for append; `probe.len` must already equal the
    /// file's length (0 for a fresh file).
    pub fn open(path: &Path, probe: Arc<StorageProbe>) -> io::Result<Self> {
        Ok(ProbedStorage { inner: FileStorage::open(path)?, probe })
    }
}

impl Storage for ProbedStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let timed = self.probe.timed.load(Ordering::Relaxed);
        let t0 = if timed { now_ns() } else { 0 };
        self.inner.append(bytes)?;
        self.probe.len.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.probe.appends.fetch_add(1, Ordering::Relaxed);
        if timed {
            self.probe.busy_ns.fetch_add(now_ns() - t0, Ordering::Relaxed);
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let timed = self.probe.timed.load(Ordering::Relaxed);
        let t0 = if timed { now_ns() } else { 0 };
        let len = self.probe.len.load(Ordering::Relaxed);
        self.inner.sync()?;
        self.probe.synced_len.store(len, Ordering::Relaxed);
        self.probe.syncs.fetch_add(1, Ordering::Relaxed);
        if timed {
            let dur_ns = now_ns() - t0;
            self.probe.busy_ns.fetch_add(dur_ns, Ordering::Relaxed);
            self.probe.sync_ns.fetch_add(dur_ns, Ordering::Relaxed);
            self.probe.spans.lock().expect("span sink").push(SyncSpan { start_ns: t0, dur_ns });
        }
        Ok(())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()?;
        self.probe.len.store(0, Ordering::Relaxed);
        self.probe.synced_len.store(0, Ordering::Relaxed);
        Ok(())
    }
}

/// Discards everything written after the last `sync` — what a power cut
/// would have left of the file (killing a thread leaves what the OS
/// holds, so the benchmark cuts the tail itself). Returns the bytes cut.
pub fn truncate_to_synced(path: &Path, probe: &StorageProbe) -> io::Result<u64> {
    let keep = probe.synced_len.load(Ordering::Relaxed);
    let len = probe.len.load(Ordering::Relaxed);
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    file.sync_all()?;
    probe.len.store(keep, Ordering::Relaxed);
    Ok(len - keep)
}

// ---------------------------------------------------------------------
// Actor seam
// ---------------------------------------------------------------------

/// One timed `on_round` of a service replica.
#[derive(Clone, Copy, Debug)]
pub struct RoundSpan {
    pub round: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Part of `dur_ns` spent inside the journal (child spans).
    pub journal_ns: u64,
    pub inbox: u32,
    pub outbox: u32,
}

impl RoundSpan {
    /// Self time: the span minus the part its child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.journal_ns)
    }
}

/// Everything the traced wrapper records about one service replica.
/// Shared (`Arc<Mutex<_>>`) so a replica rebuilt after a crash keeps
/// writing into the record its pre-crash incarnation started.
#[derive(Default)]
pub struct ReplicaTrace {
    pub rounds: Vec<RoundSpan>,
    /// `(slot, round, wall)` at the start of the round that opens `slot`.
    pub slot_open: Vec<(u64, u64, u64)>,
    /// `(slot, round, wall)` when `applied_slots()` first covered `slot`.
    pub applied: Vec<(u64, u64, u64)>,
    /// Wall time `on_rejoin` fired (a rebuilt replica's first live round).
    pub rejoin_ns: Option<u64>,
    /// Wall time `recovering()` first read false after a rejoin.
    pub caught_up_ns: Option<u64>,
}

/// Counters the traced wrapper keeps per wrapped DES process. At
/// n = 2049 a run makes 33 M `on_round` calls of ~150 ns each, and the
/// wrapper's own indirection costs ~25 ns a call, so the DES trace is a
/// sample twice over: only every k-th correct process is wrapped (see
/// `des::build`), and a wrapped process times 1 call in [`DES_SAMPLE`].
#[derive(Clone, Debug, Default)]
pub struct DesCounters {
    pub calls: u64,
    pub deliveries: u64,
    pub sampled_calls: u64,
    pub sampled_ns: u64,
    /// Sampled calls with an empty inbox and an empty outbox.
    pub sampled_empty: u64,
}

impl DesCounters {
    pub fn add(&mut self, other: &DesCounters) {
        self.calls += other.calls;
        self.deliveries += other.deliveries;
        self.sampled_calls += other.sampled_calls;
        self.sampled_ns += other.sampled_ns;
        self.sampled_empty += other.sampled_empty;
    }
}

/// `on_round` is timed when `(round + id) % DES_SAMPLE == 0`: offset by
/// the process id so every round residue is covered across processes.
pub const DES_SAMPLE: u64 = 4;

const CAPTURE_CAP: usize = 512;

/// What a traced [`Tap`] records.
pub enum Probe<M: Message> {
    Service {
        trace: Arc<Mutex<ReplicaTrace>>,
        journal: Arc<StorageProbe>,
        next_applied: u64,
        /// A sample of outbound messages, for the codec round-trip timing.
        captured: Vec<M>,
    },
    Des {
        counters: DesCounters,
        captured: Vec<M>,
        capture_cap: usize,
    },
}

/// The pass-through actor wrapper. Untraced (`probe: None`) it forwards
/// the engine's own context and adds two flag reads per round.
pub struct Tap<M: Message> {
    inner: Box<dyn AnyActor<Msg = M>>,
    flags: Arc<RunFlags>,
    /// False until the first *live* round (a rebuilt tap is born live:
    /// its fast-forward rounds are replay, not service).
    seen_live: bool,
    /// True while the engine fast-forwards a rebuilt actor.
    replaying: bool,
    /// True once this tap has seen the stop flag.
    stopped: bool,
    probe: Option<Probe<M>>,
}

impl<M: Message> Tap<M> {
    pub fn new(
        inner: Box<dyn AnyActor<Msg = M>>,
        flags: Arc<RunFlags>,
        probe: Option<Probe<M>>,
    ) -> Self {
        Tap { inner, flags, seen_live: false, replaying: false, stopped: false, probe }
    }

    /// A tap around an actor the engine is about to fast-forward: rounds
    /// are forwarded unrecorded until `on_rejoin`.
    pub fn rebuilt(
        inner: Box<dyn AnyActor<Msg = M>>,
        flags: Arc<RunFlags>,
        probe: Option<Probe<M>>,
    ) -> Self {
        Tap { seen_live: true, replaying: true, ..Tap::new(inner, flags, probe) }
    }

    pub fn inner(&self) -> &dyn AnyActor<Msg = M> {
        self.inner.as_ref()
    }

    pub fn probe(&self) -> Option<&Probe<M>> {
        self.probe.as_ref()
    }
}

/// The service replica inside `actor` (a Service probe only ever sits on
/// one).
fn as_replica<M: Message>(actor: &dyn AnyActor<Msg = M>) -> Option<&ServiceProc> {
    actor.as_any().downcast_ref()
}

fn forward<M: Message>(ctx: &mut RoundCtx<'_, M>, out: Vec<(Dest, M)>) {
    for (dest, msg) in out {
        match dest {
            Dest::To(p) => ctx.send(p, msg),
            Dest::All => ctx.broadcast(msg),
        }
    }
}

impl<M: Message> Actor for Tap<M> {
    type Msg = M;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
        if self.flags.stop.load(Ordering::SeqCst) {
            self.stopped = true;
            return;
        }
        if !self.seen_live {
            self.seen_live = true;
            self.flags.started.fetch_add(1, Ordering::SeqCst);
        }
        if self.replaying {
            return self.inner.on_round(ctx);
        }
        let round = ctx.round().as_u64();
        match &mut self.probe {
            None => self.inner.on_round(ctx),
            Some(Probe::Des { counters, captured, capture_cap }) => {
                let inbox = ctx.inbox().len() as u64;
                counters.calls += 1;
                counters.deliveries += inbox;
                if (round + u64::from(ctx.me().0)) % DES_SAMPLE != 0 {
                    return self.inner.on_round(ctx);
                }
                // Sampled call: time it and look at its outbox.
                let mut nested = RoundCtx::new(ctx.round(), ctx.me(), ctx.n(), ctx.inbox());
                let t0 = Instant::now();
                self.inner.on_round(&mut nested);
                counters.sampled_ns += t0.elapsed().as_nanos() as u64;
                counters.sampled_calls += 1;
                let out = nested.take_outbox();
                if inbox == 0 && out.is_empty() {
                    counters.sampled_empty += 1;
                }
                for (_, m) in out.iter().take(capture_cap.saturating_sub(captured.len())) {
                    captured.push(m.clone());
                }
                forward(ctx, out);
            }
            Some(Probe::Service { trace, journal, next_applied, captured }) => {
                let start_ns = now_ns();
                let inbox = ctx.inbox().len() as u32;
                let due = as_replica(self.inner.as_ref()).and_then(|r| r.log().due_slot(round));
                let j0 = journal.busy_ns.load(Ordering::Relaxed);
                let mut nested = RoundCtx::new(ctx.round(), ctx.me(), ctx.n(), ctx.inbox());
                let t0 = now_ns();
                self.inner.on_round(&mut nested);
                let t1 = now_ns();
                let out = nested.take_outbox();
                let journal_ns = journal.busy_ns.load(Ordering::Relaxed) - j0;
                let (applied, recovering) = as_replica(self.inner.as_ref())
                    .map_or((*next_applied, false), |r| (r.applied_slots(), r.recovering()));
                let mut t = trace.lock().expect("trace sink");
                if let Some(slot) = due {
                    t.slot_open.push((slot, round, start_ns));
                }
                while *next_applied < applied {
                    t.applied.push((*next_applied, round, t1));
                    *next_applied += 1;
                }
                if t.rejoin_ns.is_some() && t.caught_up_ns.is_none() && !recovering {
                    t.caught_up_ns = Some(t1);
                }
                t.rounds.push(RoundSpan {
                    round,
                    start_ns: t0,
                    dur_ns: t1 - t0,
                    journal_ns,
                    inbox,
                    outbox: out.len() as u32,
                });
                for (_, m) in out.iter().take(CAPTURE_CAP.saturating_sub(captured.len())) {
                    captured.push(m.clone());
                }
                drop(t);
                forward(ctx, out);
            }
        }
    }

    fn done(&self) -> bool {
        self.stopped || self.inner.done()
    }

    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }

    fn on_rejoin(&mut self, round: Round) {
        self.inner.on_rejoin(round);
        self.replaying = false;
        if let Some(Probe::Service { trace, next_applied, .. }) = &mut self.probe {
            if let Some(replica) = as_replica(self.inner.as_ref()) {
                *next_applied = replica.applied_slots();
            }
            trace.lock().expect("trace sink").rejoin_ns = Some(now_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_subtracts_child_spans() {
        let s = RoundSpan {
            round: 3,
            start_ns: 1_000,
            dur_ns: 900,
            journal_ns: 650,
            inbox: 2,
            outbox: 1,
        };
        assert_eq!(s.self_ns(), 250);
        // A child that (by clock granularity) reads longer than its
        // parent never yields negative self time.
        let s = RoundSpan { journal_ns: 1_000, ..s };
        assert_eq!(s.self_ns(), 0);
    }
}

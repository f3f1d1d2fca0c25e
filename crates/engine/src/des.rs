//! Deterministic discrete-event backend: a seeded virtual clock, one
//! event queue of per-instant buckets, and no threads.
//!
//! Every inter-process copy lands on a virtual nanosecond timeline after
//! a seeded per-copy link latency strictly inside `(0, δ)`, so the
//! synchronous delivery rule ("sent in round `r`, processed in round
//! `r + 1`") reproduces exactly — but a round of n = 200 processes costs
//! microseconds of host time instead of a real δ of wall clock per round
//! and two OS threads per process. This is the backend for asymptotic
//! word/round measurements (`O(n(f+1))` vs the `Ω(n²)` fallback
//! crossover) at system sizes the paced runtimes cannot reach.
//!
//! A copy goes into its receiver's mailbox at send, stamped with the
//! instant it lands and its global send sequence; a drain takes what has
//! landed by the event being processed, in send order. The event queue
//! holds round deadlines, and under
//! [`RoundDriverConfig::QuorumOrTimeout`] one payload-free arrival per
//! copy at the instant it lands (arrivals advance rounds there); under
//! the lockstep driver an arrival is no event at all.
//!
//! The backend is *per-process-clocked*: each process owns a round
//! counter and advances it when its [`RoundDriver`] says so — at the
//! global schedule `r · δ` (lockstep, the default), or at
//! quorum-or-local-timeout (partial synchrony). On top of the driver the
//! config models two timing hazards from the paper's synchrony
//! discussion:
//!
//! * **clock skew** ([`DesConfig::max_skew_ns`]) — seeded per-process
//!   start offsets, so "round r" happens at different instants on
//!   different processes;
//! * **GST** ([`DesConfig::gst_ns`]) — before a global stabilization
//!   time, link latency is sampled up to
//!   [`DesConfig::pre_gst_delay_ns`] (typically ≫ δ); after it, strictly
//!   inside `(0, δ)`.
//!
//! Determinism: same actors, same [`DesConfig`] (including `seed`) ⇒
//! byte-identical [`Metrics`]. Time is virtual; simultaneous events
//! resolve arrivals first (in global send order) and then round
//! executions, correct processes before corrupt ones under the lockstep
//! driver, each in process-id order — a global loop ("deliver
//! everything due, then step the correct processes, then the corrupt
//! ones") event for event. Under the lockstep driver with aligned clocks
//! and no GST the latency seed moves arrivals only inside the round
//! window, so it does not change the output at all.
//!
//! # Sparse virtual time
//!
//! Under the lockstep driver a process does not tick every round. After
//! each executed round its next deadline is the earliest of: its actor's
//! [`meba_sim::Actor::next_wakeup`] hint, the next round if its buffer
//! kept early deliveries, its first pending delayed-send release, its
//! crash or rejoin round ([`EngineProcess::next_wakeup`]), and
//! `max_rounds − 1`, and its earliest copy still in flight. A copy sent
//! to a process that sleeps past the copy's *visibility round* — the
//! receiver's first deadline at or after the instant the copy lands —
//! pulls the receiver's deadline forward to that round when the sender's
//! step returns, and a copy visible only in a dead round of its
//! receiver is dropped at send. A run therefore costs `O(messages +
//! wake-ups)`, not `O(n · rounds)` — the adaptive protocols' silent
//! phases are free, as they are in the paper. Skipped rounds are
//! invisible in the output: round numbers are the schedule's, not a
//! count of executions ([`ClusterReport::rounds`] credits a sleeping
//! process with every deadline up to the completing instant), and the
//! advance-cause tallies are bumped in bulk for the live rounds jumped
//! over, so [`Metrics`] stay byte-identical to a schedule that ticks
//! every round. That schedule is not selectable here — there is no
//! dense mode; tests obtain it from outside by wrapping actors so they
//! do not forward the hint (`EveryRound` in `meba-testkit`'s
//! `tests/cross_runtime.rs`). DESIGN.md §18
//! has the contract and the argument.
//!
//! Under [`RoundDriverConfig::QuorumOrTimeout`] every round still runs:
//! the per-process timer grid is stateful per tick (each deadline is
//! anchored on the previous one and on that round's backoff), so the
//! hints are not consulted there.
//!
//! Each process's round is [`EngineProcess::step`], the body every
//! backend runs; only the clock and the transport differ.
//!
//! # Rushing
//!
//! Under the lockstep driver corrupt processes are the *rushing*
//! adversary, always — it is the model's adversary, not an option. They
//! run on a rushing [`EngineProcess`]'s admission cut
//! (`sent_round ≤ round`), after every correct process at
//! the same instant, and a correct process's copy to one of them, sent
//! in the round it is executing, lands at the send instant: a corrupt
//! process hears correct round-`r` traffic in round `r`. A fault-delayed
//! copy released later keeps its old `sent_round` and its sampled
//! latency, so it does not rush. Every lockstep run is this loop, run to
//! completion. Under [`RoundDriverConfig::QuorumOrTimeout`] nobody
//! rushes: there is no common instant for a round to rush within.

use crate::config::{ClusterReport, LinkPolicyFactory};
use crate::driver::AdvanceCause::{self, QuorumReached};
use crate::driver::{DriverConfigError, RoundDriver, RoundDriverConfig};
use crate::fate::{resolve_fates, ActorRebuilder, ProcessFateFactory, ResolvedFate};
use crate::process::{Delivery, EngineProcess, Transport};
use meba_crypto::ProcessId;
use meba_sim::{AnyActor, Message, Metrics};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of a [`run_des_cluster`] invocation.
#[derive(Clone)]
pub struct DesConfig {
    /// Virtual round duration δ in nanoseconds (≥ 2; the default is
    /// 1 ms of virtual time). Purely nominal — host wall clock never
    /// enters the schedule. This is the network's *true* δ: post-GST
    /// latency is strictly below it. The δ-*estimate* processes pace by
    /// lives in [`DesConfig::driver`].
    pub delta_ns: u64,
    /// Seed for the per-message link-latency sampling (and the skew
    /// offsets).
    pub seed: u64,
    /// Hard cap on rounds (per process).
    pub max_rounds: u64,
    /// Byzantine identities (excluded from correct-word accounting and
    /// from the done-check).
    pub corrupt: Vec<ProcessId>,
    /// Link-fault injection, same factory type as the paced backends.
    pub link_policy: Option<LinkPolicyFactory>,
    /// Process-level fault injection (crash-restart), resolved once up
    /// front like every backend.
    pub process_fate: Option<ProcessFateFactory>,
    /// How rounds advance: [`RoundDriverConfig::Lockstep`] (default)
    /// or quorum-or-timeout partial synchrony.
    pub driver: RoundDriverConfig,
    /// Maximum per-process clock skew in nanoseconds: process `i`
    /// starts its round 0 at a seeded offset in `[0, max_skew_ns]`.
    /// Under the lockstep driver the whole schedule shifts by the
    /// offset (`skew_i + r · δ`). 0 (default) = perfectly aligned
    /// clocks.
    pub max_skew_ns: u64,
    /// Global stabilization time on the virtual timeline. Messages
    /// *sent* before this instant sample latency in
    /// `(0, pre_gst_delay_ns]` instead of `(0, δ)`. 0 (default) =
    /// synchronous from the start.
    pub gst_ns: u64,
    /// Latency cap for pre-GST sends (only meaningful with
    /// `gst_ns > 0`; 0 falls back to δ, i.e. GST changes nothing).
    pub pre_gst_delay_ns: u64,
    /// True network-delay cap for post-GST sends, in nanoseconds:
    /// latency is sampled strictly inside `(0, min(cap, δ))` instead
    /// of `(0, δ)`. `None` (default) keeps the classic sampler (cap
    /// at δ) and is byte-identical to the pre-knob behavior. Timing
    /// scenarios use it to honor the paper's synchrony precondition
    /// (delay + skew < round length) for δ-estimates *below* δ: a
    /// 0.5 δ timer can only work if real delays actually fit in it.
    pub link_cap_ns: Option<u64>,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            delta_ns: 1_000_000,
            seed: 0xd15c,
            max_rounds: 10_000,
            corrupt: Vec::new(),
            link_policy: None,
            process_fate: None,
            driver: RoundDriverConfig::Lockstep,
            max_skew_ns: 0,
            gst_ns: 0,
            pre_gst_delay_ns: 0,
            link_cap_ns: None,
        }
    }
}

/// A [`DesConfig`] the backend cannot honor. Returned by
/// [`run_des_cluster`] before any actor steps, so a bad configuration
/// fails loudly and typed instead of panicking mid-run.
#[derive(Clone, Debug, PartialEq)]
pub enum DesConfigError {
    /// `delta_ns < 2`: link latency is sampled *strictly inside*
    /// `(0, δ)`, and on an integer nanosecond timeline that open
    /// interval is empty for δ ≤ 1 — there is no latency that both
    /// leaves the sender's round and arrives before the next one.
    DeltaTooSmall {
        /// The rejected value.
        delta_ns: u64,
    },
    /// `link_cap_ns < 2`: the open latency interval `(0, cap)` holds no
    /// integer nanosecond, same degeneracy as [`Self::DeltaTooSmall`].
    LinkCapTooSmall {
        /// The rejected value.
        link_cap_ns: u64,
    },
    /// The [`RoundDriverConfig`] itself is invalid (e.g. a non-positive
    /// timeout factor).
    Driver(DriverConfigError),
}

impl std::fmt::Display for DesConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesConfigError::DeltaTooSmall { delta_ns } => write!(
                f,
                "delta_ns = {delta_ns} is too small: the DES backend samples link \
                 latency strictly inside (0, \u{3b4}), which needs \u{3b4} \u{2265} 2 ns"
            ),
            DesConfigError::LinkCapTooSmall { link_cap_ns } => write!(
                f,
                "link_cap_ns = {link_cap_ns} is too small: post-GST latency is sampled \
                 strictly inside (0, cap), which needs cap \u{2265} 2 ns"
            ),
            DesConfigError::Driver(e) => write!(f, "invalid round driver: {e}"),
        }
    }
}

impl std::error::Error for DesConfigError {}

impl From<DriverConfigError> for DesConfigError {
    fn from(e: DriverConfigError) -> Self {
        DesConfigError::Driver(e)
    }
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A copy in its receiver's mailbox: the instant it lands, its global
/// send sequence, and the delivery. Send order is `seq` order, so a
/// mailbox is sorted by `seq`.
type Mail<M> = (u128, u64, Delivery<M>);

/// A scheduled event. At one instant the derived order pops arrivals
/// first, in send order, then deadlines, correct processes before
/// rushing ones, each in process-id order: under the lockstep driver,
/// where a deadline drains every copy landed by its instant, exactly a
/// global loop ("deliver everything due ≤ t, then step every awake
/// correct process in id order at t, then every awake corrupt one").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// `QuorumOrTimeout` only: the copy with send sequence `seq` lands
    /// at process `to`. No payload, which waits in the mailbox; `seq` is
    /// unique, so the order is total.
    Arrival { seq: u64, to: usize },
    /// Process `process`'s deadline for `round`.
    Deadline { rushing: bool, process: usize, round: u64 },
}

/// The run's one event queue: a bucket per virtual instant. The earliest
/// bucket is held out of the map, sorted descending once, so a pop is a
/// `Vec::pop` and a push at that instant a sorted insert. Every push is
/// at or after the instant last popped (latencies and timeouts are ≥ 1;
/// only a rushed copy re-arms its receiver at the current instant), so a
/// bucket is sorted once. DESIGN.md §17 "The event queue" has the numbers.
#[derive(Default)]
struct EventQueue {
    // The instant last popped, and its events not popped yet, sorted
    // descending.
    now: u128,
    front: Vec<Event>,
    later: BTreeMap<u128, Vec<Event>>,
}

impl EventQueue {
    fn push(&mut self, at: u128, event: Event) {
        if at == self.now && !self.front.is_empty() {
            let pos = self.front.partition_point(|e| *e > event);
            self.front.insert(pos, event);
        } else {
            self.later.entry(at).or_default().push(event);
        }
    }

    fn pop(&mut self) -> Option<(u128, Event)> {
        if self.front.is_empty() {
            let (at, mut bucket) = self.later.pop_first()?;
            bucket.sort_unstable_by(|a, b| b.cmp(a));
            self.now = at;
            self.front = bucket;
        }
        self.front.pop().map(|e| (self.now, e))
    }
}

/// The shared virtual network: clock, the event queue, and per-process
/// mailboxes of the copies sent to each process (landed or in flight, in
/// send order — the per-round FIFO every other backend produces).
struct DesNet<M: Message> {
    // The event being processed: its instant, and the `seq` of the copy
    // landing there (`u64::MAX` at a deadline). A drain takes the copies
    // at or before it.
    cursor: (u128, u64),
    seq: u64,
    seed: u64,
    gst_ns: u64,
    pre_gst_delay_ns: u64,
    link_cap_ns: u64,
    // The rushing processes: the corrupt ones, under the lockstep driver.
    rushing: Vec<bool>,
    events: EventQueue,
    mailboxes: Vec<Vec<Mail<M>>>,
    // Lockstep: `(to, visibility round)` of the copies the running step
    // sent to a process that sleeps past that round.
    rearm: Vec<(usize, u64)>,
}

impl<M: Message> DesNet<M> {
    fn new(config: &DesConfig, rushing: Vec<bool>) -> Self {
        DesNet {
            cursor: (0, u64::MAX),
            seq: 0,
            seed: config.seed,
            gst_ns: config.gst_ns,
            pre_gst_delay_ns: if config.pre_gst_delay_ns == 0 {
                config.delta_ns
            } else {
                config.pre_gst_delay_ns
            },
            link_cap_ns: config.link_cap_ns.unwrap_or(config.delta_ns).min(config.delta_ns),
            mailboxes: (0..rushing.len()).map(|_| Vec::with_capacity(16)).collect(),
            rushing,
            events: EventQueue::default(),
            rearm: Vec::new(),
        }
    }

    /// Seeded link latency. Post-GST (the default regime): strictly
    /// inside `(0, cap)` with `cap ≤ δ`, so arrival lands in the sending
    /// round's window and the `sent_round < round` delivery rule behaves
    /// exactly as on the paced backends. Pre-GST: anywhere in
    /// `(0, pre_gst_delay_ns]` — the adversary controls delivery up to
    /// that bound and synchrony does not hold yet.
    fn latency_ns(&self, from: ProcessId, to: ProcessId, seq: u64) -> u64 {
        let x = splitmix(
            self.seed
                ^ splitmix(u64::from(from.0))
                ^ splitmix(u64::from(to.0)).rotate_left(17)
                ^ splitmix(seq).rotate_left(34),
        );
        if self.cursor.0 < u128::from(self.gst_ns) {
            return 1 + x % self.pre_gst_delay_ns.max(1);
        }
        // `DesRun::new` rejects a cap below 2, so the modulus is ≥ 1.
        1 + x % (self.link_cap_ns - 1)
    }

    /// Takes the next send sequence number for a copy from `from` to `to`
    /// and returns it with the instant the copy lands. A `rushed` copy
    /// lands at the send instant instead of after a sampled latency.
    fn stamp(&mut self, from: ProcessId, to: ProcessId, rushed: bool) -> (u128, u64) {
        let seq = self.seq;
        self.seq += 1;
        let latency = if rushed { 0 } else { self.latency_ns(from, to, seq) };
        (self.cursor.0 + u128::from(latency), seq)
    }
}

/// One process's handle on the shared virtual network while it executes
/// `round`.
struct DesTransport<'a, M: Message> {
    me: ProcessId,
    round: u64,
    net: &'a mut DesNet<M>,
    sched: &'a Schedule,
    // Each process's next scheduled round.
    wake: &'a [u64],
}

impl<M: Message> Transport<M> for DesTransport<'_, M> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &Arc<M>) {
        // A rushing process executes after every correct one at its
        // deadline, so a correct process's copy of the round it is
        // executing reaches it in time. A fault-delayed copy released
        // later keeps its old `sent_round` and does not rush.
        let net = &mut *self.net;
        let j = to.index();
        let rushed = sent_round == self.round && net.rushing[j] && !net.rushing[self.me.index()];
        let (at, seq) = net.stamp(self.me, to, rushed);
        if self.sched.lockstep {
            let visible = self.sched.first_round_at_or_after(j, at);
            if self.sched.fates[j].dead_in(visible) {
                return; // the dead round would discard it
            }
            if visible < self.wake[j] {
                net.rearm.push((j, visible));
            }
        } else {
            net.events.push(at, Event::Arrival { seq, to: j });
        }
        let delivery = Delivery { from: self.me, sent_round, msg: Arc::clone(msg) };
        net.mailboxes[j].push((at, seq, delivery));
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        // Send (`seq`) order, not arrival order: the per-round FIFO
        // order every other backend produces, so inbox order (and thus
        // any order-sensitive tie-break in an actor) is
        // backend-independent. The mailbox is already in that order.
        // Copies usually land in send order, so the landed ones are a
        // prefix, moved in one step; a later copy that overtook an
        // earlier one is picked out of the rest.
        let cursor = self.net.cursor;
        let landed = |m: &Mail<M>| (m.0, m.1) <= cursor;
        let mailbox = &mut self.net.mailboxes[self.me.index()];
        let prefix = mailbox.iter().position(|m| !landed(m)).unwrap_or(mailbox.len());
        out.extend(mailbox.drain(..prefix).map(|(.., d)| d));
        if mailbox.iter().any(landed) {
            out.extend(mailbox.extract_if(.., |m| landed(m)).map(|(.., d)| d));
        }
    }

    fn crash(&mut self) {
        // A crashed process loses what has landed; what is still in
        // flight lands after the crash, in a dead round that discards it
        // or at the rejoin.
        let cursor = self.net.cursor;
        self.net.mailboxes[self.me.index()].retain(|m| (m.0, m.1) > cursor);
    }
}

/// The per-run scheduling constants resolved from a [`DesConfig`].
struct Schedule {
    lockstep: bool,
    delta_ns: u64,
    max_rounds: u64,
    skews: Vec<u64>,
    fates: Vec<ResolvedFate>,
}

impl Schedule {
    /// The schedule of `config` for processes with `fates`: process `i`'s
    /// clock starts at a seeded offset in `[0, max_skew_ns]`.
    fn new(config: &DesConfig, fates: Vec<ResolvedFate>) -> Self {
        let skews = (0..fates.len())
            .map(|i| {
                if config.max_skew_ns == 0 {
                    0
                } else {
                    splitmix(config.seed ^ 0x5ce3_ab1e ^ splitmix(i as u64))
                        % (config.max_skew_ns + 1)
                }
            })
            .collect();
        Schedule {
            lockstep: config.driver.is_lockstep(),
            delta_ns: config.delta_ns,
            max_rounds: config.max_rounds,
            skews,
            fates,
        }
    }

    /// Virtual deadline of round `round` for process `i`, asked at
    /// instant `now`. Lockstep: the global schedule (shifted by the
    /// process's skew), with no per-process driver state touched. Event
    /// mode: the driver's local grid.
    fn deadline(&self, i: usize, round: u64, driver: &mut RoundDriver, now: u128) -> u128 {
        if self.lockstep {
            u128::from(self.skews[i]) + u128::from(round) * u128::from(self.delta_ns)
        } else {
            driver.next_deadline(now, self.delta_ns)
        }
    }

    /// Lockstep only: how many of process `i`'s round deadlines fall at
    /// or before instant `at` — the round count a process that ticked
    /// every round would have reached by then.
    fn rounds_due_by(&self, i: usize, at: u128) -> u64 {
        match at.checked_sub(u128::from(self.skews[i])) {
            None => 0,
            Some(since) => {
                let due = since / u128::from(self.delta_ns) + 1;
                u64::try_from(due).unwrap_or(u64::MAX).min(self.max_rounds)
            }
        }
    }

    /// Lockstep only: the first round of process `i` whose deadline is
    /// at or after instant `at` — the visibility round of a copy landing
    /// at `at`, which admits (or buffers) it.
    fn first_round_at_or_after(&self, i: usize, at: u128) -> u64 {
        let since = at.saturating_sub(u128::from(self.skews[i]));
        u64::try_from(since.div_ceil(u128::from(self.delta_ns))).unwrap_or(u64::MAX)
    }
}

/// A discrete-event run: everything mutable the event loop threads
/// through it. [`run_des_cluster`] runs it until every awaited process is
/// done or the budget is spent.
struct DesRun<M: Message> {
    sched: Schedule,
    net: DesNet<M>,
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    procs: Vec<EngineProcess<M>>,
    // The run's one ledger: the loop is single-threaded, so every
    // process bills straight into it.
    metrics: Metrics,
    // Rounds each process has been through: executed, or jumped over
    // and accounted as if executed.
    next_round: Vec<u64>,
    // The round each process is scheduled to execute next (`max_rounds`
    // once it has none left). Event mode: always `next_round`. Lockstep:
    // possibly later — the process sleeps through the rounds between.
    wake: Vec<u64>,
    done: Vec<bool>,
    // The processes the run waits for: correct, and not fated to crash
    // for good.
    awaited: Vec<bool>,
    // Count of awaited processes whose `done` flag is false — the O(1)
    // replacement for scanning all n flags at every instant boundary.
    // `done` is only ever toggled inside `execute`, which keeps this
    // counter in sync (including done → not-done reversals).
    pending: usize,
    // Each process's quorum, backoff shift, and local grid anchor (the
    // anchor mirrors its live deadline in the event queue).
    drivers: Vec<RoundDriver>,
    // The instant of the last event that ran.
    last_instant: u128,
}

impl<M: Message> DesRun<M> {
    /// Validates `config` and schedules every process's round 0.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty or ids are not `p0..p(n-1)` in order.
    fn new(
        actors: Vec<Box<dyn AnyActor<Msg = M>>>,
        rebuilder: Option<ActorRebuilder<M>>,
        config: DesConfig,
    ) -> Result<Self, DesConfigError> {
        if config.delta_ns < 2 {
            return Err(DesConfigError::DeltaTooSmall { delta_ns: config.delta_ns });
        }
        if let Some(cap) = config.link_cap_ns {
            if cap < 2 {
                return Err(DesConfigError::LinkCapTooSmall { link_cap_ns: cap });
            }
        }
        let n = actors.len();
        config.driver.validate(n)?;
        assert!(n > 0, "cluster needs at least one actor");
        for (i, a) in actors.iter().enumerate() {
            assert_eq!(a.id().index(), i, "actor {i} has id {}", a.id());
        }
        let fates = resolve_fates(n, config.process_fate.as_ref(), rebuilder.is_some());
        let corrupt: Vec<bool> =
            (0..n).map(|i| config.corrupt.iter().any(|c| c.index() == i)).collect();
        let lockstep = config.driver.is_lockstep();
        let rushing: Vec<bool> = corrupt.iter().map(|&c| c && lockstep).collect();
        let awaited: Vec<bool> = (0..n).map(|i| !corrupt[i] && fates[i].awaited()).collect();

        let sched = Schedule::new(&config, fates.clone());
        let procs = (0..n)
            .map(|i| {
                let policy = config.link_policy.as_ref().map(|f| f(ProcessId(i as u32)));
                EngineProcess::new(n, !corrupt[i], rushing[i], fates[i], rebuilder.clone(), policy)
            })
            .collect();
        let drivers = (0..n)
            .map(|i| RoundDriver::virtual_time(&config.driver, n, u128::from(sched.skews[i])))
            .collect();
        let mut net = DesNet::new(&config, rushing);
        for (i, &skew) in sched.skews.iter().enumerate() {
            let rushing = net.rushing[i];
            net.events.push(u128::from(skew), Event::Deadline { rushing, process: i, round: 0 });
        }
        let done: Vec<bool> = actors.iter().map(|a| a.done()).collect();
        Ok(DesRun {
            net,
            actors,
            procs,
            metrics: Metrics::default(),
            next_round: vec![0; n],
            wake: vec![0; n],
            pending: (0..n).filter(|&i| awaited[i] && !done[i]).count(),
            done,
            awaited,
            drivers,
            last_instant: 0,
            sched,
        })
    }

    /// Runs events in time order until an instant boundary at which every
    /// awaited process is done, which it returns true for, or until none
    /// is left. The verdict is taken at instant boundaries, so every
    /// process (corrupt ones included) executing at the completing
    /// instant still runs — as in the global loop, which stepped all n
    /// processes before checking.
    fn run(&mut self) -> bool {
        let quorum_mode = !self.sched.lockstep;
        while let Some((at, event)) = self.net.events.pop() {
            if at > self.last_instant {
                if self.pending == 0 {
                    return true;
                }
                self.last_instant = at;
            }
            match event {
                Event::Arrival { seq, to } => {
                    self.net.cursor = (at, seq);
                    self.quorum_advance(to, at);
                }
                // A stale deadline (the process quorum-advanced past that
                // round, or was re-armed to another) is popped in its turn
                // like any event and then ignored.
                Event::Deadline { process: i, round, .. } => {
                    self.net.cursor = (at, u64::MAX);
                    if self.wake[i] != round {
                        continue;
                    }
                    let cause = self.ready_cause(i, round);
                    self.execute(i, round, at, cause);
                    if quorum_mode {
                        self.quorum_advance(i, at);
                    }
                }
            }
        }
        self.pending == 0
    }

    /// Executes `round` for process `i` at virtual instant `now`, which it
    /// advanced into for `cause` — accounting first for the rounds it
    /// slept through since its last one — applies late-delivery backoff,
    /// wakes the receivers its copies must reach, and schedules its next
    /// deadline.
    fn execute(&mut self, i: usize, round: u64, now: u128, cause: AdvanceCause) {
        self.account_skipped(i, round);
        let mut transport = DesTransport {
            me: ProcessId(i as u32),
            round,
            net: &mut self.net,
            sched: &self.sched,
            wake: &self.wake,
        };
        let status = self.procs[i].step(
            &mut self.actors[i],
            round,
            cause,
            &mut transport,
            &mut self.metrics,
        );
        self.rearm_receivers(now);
        if !self.sched.lockstep {
            self.drivers[i].observe(status.late_admitted);
        }
        if self.done[i] != status.done && self.awaited[i] {
            if status.done {
                self.pending -= 1;
            } else {
                self.pending += 1;
            }
        }
        self.done[i] = status.done;
        self.next_round[i] = round + 1;
        self.wake[i] = self.sched.max_rounds;
        if round + 1 < self.sched.max_rounds {
            // Lockstep honours the wake hints; the last budgeted round
            // always runs, so a run that never completes still ends at
            // `max_rounds`. Event mode ticks every round: its timer grid
            // is stateful per tick.
            let next = if self.sched.lockstep {
                let hint = self.procs[i].next_wakeup(self.actors[i].as_ref(), round);
                // Every copy still in flight is visible after `round`.
                let in_flight = if hint > round + 1 { self.first_visible(i) } else { u64::MAX };
                hint.min(in_flight).min(self.sched.max_rounds - 1)
            } else {
                round + 1
            };
            self.schedule(i, next, now);
        }
    }

    /// Makes `round` the next one process `i` executes. A deadline
    /// already queued for another round goes stale.
    fn schedule(&mut self, i: usize, round: u64, now: u128) {
        let at = self.sched.deadline(i, round, &mut self.drivers[i], now);
        self.wake[i] = round;
        let rushing = self.net.rushing[i];
        self.net.events.push(at, Event::Deadline { rushing, process: i, round });
    }

    /// Brings process `i`'s round count up to `round`, tallying the live
    /// rounds in between as the advances they would have been: nothing
    /// was delivered to a sleeping process, so each saw only itself
    /// ready. Dead rounds record nothing, slept through or not, and a
    /// process is never asleep across its own crash or rejoin.
    fn account_skipped(&mut self, i: usize, round: u64) {
        let skipped = round - self.next_round[i];
        if skipped > 0 && !self.procs[i].is_down() {
            // Round 0 is never slept through: every process starts there.
            self.drivers[i].cause(1, || 1).record_many(&mut self.metrics.advance, skipped);
        }
        self.next_round[i] = round;
    }

    /// Lockstep only: a receiver of the step just run that sleeps past a
    /// copy's visibility round is pulled forward to that round. A
    /// receiver that runs later at this instant is not sleeping yet; its
    /// own [`Self::execute`] finds the copy in flight.
    fn rearm_receivers(&mut self, now: u128) {
        let mut rearm = std::mem::take(&mut self.net.rearm);
        for &(to, round) in &rearm {
            if round < self.wake[to] {
                self.schedule(to, round, now);
            }
        }
        rearm.clear();
        self.net.rearm = rearm;
    }

    /// Lockstep only: the visibility round of the earliest copy in flight
    /// to process `i`, which has just run and drained every copy landed
    /// so far (`u64::MAX` when none is in flight).
    fn first_visible(&self, i: usize) -> u64 {
        (self.net.mailboxes[i].iter().map(|m| m.0).min())
            .map_or(u64::MAX, |at| self.sched.first_round_at_or_after(i, at))
    }

    /// Quorum catch-up: while process `i` already holds a quorum of
    /// prior-round senders for its next round, advance immediately.
    /// Terminates because every advance raises `next_round`, which both
    /// tightens the `sent_round + 1 ≥ round` test and is capped by
    /// `max_rounds` — given a quorum no process meets alone, which
    /// [`RoundDriverConfig::validate`] guarantees.
    fn quorum_advance(&mut self, i: usize, now: u128) {
        while self.next_round[i] < self.sched.max_rounds {
            let round = self.next_round[i];
            if self.ready_cause(i, round) != QuorumReached {
                break;
            }
            self.execute(i, round, now, QuorumReached);
        }
    }

    /// Whether process `i` holds a quorum for `round` right now.
    fn ready_cause(&mut self, i: usize, round: u64) -> AdvanceCause {
        let me = ProcessId(i as u32);
        let (proc, net, sched, wake) = (&mut self.procs[i], &mut self.net, &self.sched, &self.wake);
        let mut transport = DesTransport { me, round, net, sched, wake };
        self.drivers[i].cause(round, || proc.ready_senders(me, round, &mut transport))
    }

    /// Ends the run: under the lockstep driver a process that ticked
    /// every round would have gone through every deadline up to the last
    /// instant that ran, so each sleeper is credited with those rounds.
    fn finish(mut self, completed: bool) -> ClusterReport<M> {
        if self.sched.lockstep {
            for i in 0..self.actors.len() {
                let due = self.sched.rounds_due_by(i, self.last_instant);
                if due > self.next_round[i] {
                    self.account_skipped(i, due);
                }
            }
        }
        let rounds = self.next_round.iter().copied().max().unwrap_or(0);
        let mut metrics = self.metrics;
        for (proc, actor) in self.procs.into_iter().zip(&self.actors) {
            proc.finish(actor.as_ref(), &mut metrics);
        }
        metrics.rounds = rounds;
        ClusterReport {
            metrics,
            rounds,
            actors: self.actors,
            completed,
            overruns: 0,
            backpressure: 0,
            aborted: None,
        }
    }
}

/// Runs `actors` on the discrete-event backend until every correct actor
/// is done or the round budget is exhausted. Single-threaded and fully
/// deterministic; returns the same [`ClusterReport`] shape as the paced
/// backends (overruns and backpressure are structurally zero, and a DES
/// run never aborts).
///
/// # Errors
///
/// Rejects a [`DesConfig`] with `delta_ns < 2` ([`DesConfigError`]): the
/// latency interval `(0, δ)` holds no integer nanosecond at those sizes,
/// so no schedule can satisfy the synchronous delivery rule. Also
/// rejects an invalid [`RoundDriverConfig`] (non-positive or non-finite
/// `timeout_factor`, or an explicit quorum outside `2..=n`).
///
/// # Panics
///
/// Panics if `actors` is empty or ids are not `p0..p(n-1)` in order.
pub fn run_des_cluster<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    rebuilder: Option<ActorRebuilder<M>>,
    config: DesConfig,
) -> Result<ClusterReport<M>, DesConfigError> {
    let mut run = DesRun::new(actors, rebuilder, config)?;
    let completed = run.run();
    Ok(run.finish(completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_sim::{Actor, AnyActor, RoundCtx};

    #[derive(Clone, Debug)]
    struct Tick;
    impl Message for Tick {
        fn words(&self) -> u64 {
            1
        }
    }

    struct Echo(ProcessId, bool);
    impl Actor for Echo {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            if ctx.round() == meba_sim::Round(0) {
                ctx.broadcast(Tick);
            }
            self.1 = !ctx.inbox().is_empty();
        }
        fn done(&self) -> bool {
            self.1
        }
    }

    fn echoes(n: usize) -> Vec<Box<dyn AnyActor<Msg = Tick>>> {
        (0..n).map(|i| Box::new(Echo(ProcessId(i as u32), false)) as _).collect()
    }

    #[test]
    fn zero_and_one_nanosecond_deltas_are_rejected_typed() {
        // δ = 0: the open interval (0, 0) is empty — previously this
        // underflowed `delta_ns - 1` in the latency sampler. δ = 1 has
        // the same problem one step later: (0, 1) holds no integer.
        for bad in [0u64, 1] {
            let err =
                run_des_cluster(echoes(3), None, DesConfig { delta_ns: bad, ..Default::default() })
                    .unwrap_err();
            assert_eq!(err, DesConfigError::DeltaTooSmall { delta_ns: bad });
            let rendered = err.to_string();
            assert!(rendered.contains(&bad.to_string()), "message names the value: {rendered}");
        }
    }

    #[test]
    fn two_nanoseconds_is_the_smallest_accepted_delta() {
        // δ = 2 admits exactly one latency (1 ns) — degenerate but legal,
        // and the config check must not over-reject it.
        let report =
            run_des_cluster(echoes(3), None, DesConfig { delta_ns: 2, ..Default::default() })
                .expect("delta_ns = 2 is accepted");
        assert!(report.completed);
    }

    #[test]
    fn invalid_driver_configs_are_rejected_typed() {
        // Quorums 0 and 1 would let every process sprint through all its
        // rounds at one virtual instant; n + 1 could never fire.
        let bad = [
            (None, 0.0, DriverConfigError::TimeoutFactorInvalid { timeout_factor: 0.0 }),
            (Some(0), 1.0, DriverConfigError::QuorumOutOfRange { quorum: 0, n: 3 }),
            (Some(1), 1.0, DriverConfigError::QuorumOutOfRange { quorum: 1, n: 3 }),
            (Some(4), 1.0, DriverConfigError::QuorumOutOfRange { quorum: 4, n: 3 }),
        ];
        for (quorum, timeout_factor, want) in bad {
            let cfg = DesConfig {
                driver: RoundDriverConfig::QuorumOrTimeout { quorum, timeout_factor },
                ..Default::default()
            };
            let err = run_des_cluster(echoes(3), None, cfg).unwrap_err();
            assert_eq!(err, DesConfigError::Driver(want));
        }
    }

    #[test]
    fn failure_free_chatty_lockstep_advances_all_quorum() {
        // Satellite: a failure-free run whose every advance has quorum
        // evidence available must record zero timeout advances. The echo
        // actors all broadcast in round 0, so every process enters round
        // 1 holding n > quorum distinct round-0 senders.
        let n = 5;
        let report = run_des_cluster(echoes(n), None, DesConfig::default()).unwrap();
        assert!(report.completed);
        assert_eq!(report.metrics.advance.timeout, 0, "no advance lacked quorum");
        assert_eq!(report.metrics.advance.quorum, n as u64, "one recorded advance per process");
    }

    #[test]
    fn quorum_driver_matches_lockstep_on_chatty_traffic() {
        let lockstep = run_des_cluster(echoes(7), None, DesConfig::default()).unwrap();
        let quorum = run_des_cluster(
            echoes(7),
            None,
            DesConfig { driver: RoundDriverConfig::quorum_or_timeout(), ..Default::default() },
        )
        .unwrap();
        assert!(quorum.completed);
        assert_eq!(quorum.rounds, lockstep.rounds);
        assert_eq!(quorum.metrics.correct.words, lockstep.metrics.correct.words);
        assert!(quorum.metrics.advance.quorum > 0, "early advancement actually fired");
    }

    #[test]
    fn skewed_clocks_still_complete() {
        for driver in [RoundDriverConfig::Lockstep, RoundDriverConfig::quorum_or_timeout()] {
            let report = run_des_cluster(
                echoes(5),
                None,
                DesConfig {
                    driver,
                    max_skew_ns: 500_000, // δ/2
                    max_rounds: 64,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(report.completed, "skew ≤ δ/2 must not prevent termination");
        }
    }

    /// Broadcasts once, counts deliveries monotonically: `done` latches,
    /// unlike [`Echo`], so it tolerates deliveries spread across rounds.
    struct Latch {
        id: ProcessId,
        heard: usize,
        target: usize,
    }
    impl Actor for Latch {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            if ctx.round() == meba_sim::Round(0) {
                ctx.broadcast(Tick);
            }
            self.heard += ctx.inbox().len();
        }
        fn done(&self) -> bool {
            self.heard >= self.target
        }
    }

    fn latches(n: usize) -> Vec<Box<dyn AnyActor<Msg = Tick>>> {
        (0..n)
            .map(|i| Box::new(Latch { id: ProcessId(i as u32), heard: 0, target: n }) as _)
            .collect()
    }

    /// Records every delivery it admits as `(round, sender)`.
    struct Ear {
        id: ProcessId,
        heard: Vec<(u64, ProcessId)>,
    }
    impl Actor for Ear {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            let round = ctx.round().as_u64();
            self.heard.extend(ctx.inbox().iter().map(|e| (round, e.from)));
        }
    }

    /// Correct p0 broadcasts in round 0; corrupt p1 listens.
    fn beacon_and_ear() -> Vec<Box<dyn AnyActor<Msg = Tick>>> {
        vec![
            Box::new(Latch { id: ProcessId(0), heard: 0, target: 2 }),
            Box::new(Ear { id: ProcessId(1), heard: Vec::new() }),
        ]
    }

    fn ear(report: &ClusterReport<Tick>) -> &[(u64, ProcessId)] {
        &report.actors[1].as_any().downcast_ref::<Ear>().expect("p1 is the ear").heard
    }

    #[test]
    fn a_corrupt_process_hears_correct_traffic_in_the_round_it_is_sent() {
        let config = DesConfig { corrupt: vec![ProcessId(1)], max_rounds: 3, ..Default::default() };
        let report = run_des_cluster(beacon_and_ear(), None, config).unwrap();
        assert_eq!(ear(&report), [(0, ProcessId(0))], "rushed: round-0 traffic in round 0");
        // Correct, p1 would have heard it in round 1 like everyone else.
        let report = run_des_cluster(
            beacon_and_ear(),
            None,
            DesConfig { max_rounds: 3, ..Default::default() },
        )
        .unwrap();
        assert_eq!(ear(&report), [(1, ProcessId(0))]);
    }

    #[test]
    fn a_fault_delayed_copy_to_a_corrupt_process_does_not_rush() {
        // p0's round-0 copy to p1 is released at p0's round-1 turn. It
        // keeps `sent_round` 0, so it is not the round p0 is executing:
        // it takes a sampled latency and lands in the round after.
        let delay: LinkPolicyFactory = Arc::new(|_| {
            Box::new(|l: meba_sim::faults::Link, r: u64| {
                if l.to == ProcessId(1) && r == 0 {
                    meba_sim::faults::LinkFate::DelayRounds(1)
                } else {
                    meba_sim::faults::LinkFate::Deliver
                }
            })
        });
        let config = DesConfig {
            corrupt: vec![ProcessId(1)],
            link_policy: Some(delay),
            max_rounds: 4,
            ..Default::default()
        };
        let report = run_des_cluster(beacon_and_ear(), None, config).unwrap();
        assert_eq!(ear(&report), [(2, ProcessId(0))]);
        assert_eq!(report.metrics.link(ProcessId(0), ProcessId(1)).delayed, 1);
    }

    #[test]
    fn a_crash_victim_leaves_the_done_check_and_keeps_its_correct_words() {
        // p2 broadcasts in round 0 as a correct process, then is down for
        // good from round 1: it never hears the other two, and the run
        // completes without it.
        let crash: ProcessFateFactory = Arc::new(|p: ProcessId| {
            if p == ProcessId(2) {
                crate::ProcessFate::Crash { at_round: 1 }
            } else {
                crate::ProcessFate::Run
            }
        });
        let config = DesConfig { process_fate: Some(crash), ..Default::default() };
        let report = run_des_cluster(latches(3), None, config).unwrap();
        assert!(report.completed, "the victim is not awaited");
        assert_eq!(report.rounds, 2);
        let p2 = report.actors[2].as_any().downcast_ref::<Latch>().unwrap();
        assert_eq!(p2.heard, 0, "down from round 1: nothing admitted");
        assert_eq!(
            report.metrics.correct.words, 6,
            "3 broadcasts × 2 remote copies, p2's included"
        );
        assert_eq!(report.metrics.byzantine.words, 0);
        assert_eq!(report.metrics.recovery.crash_restarts, 0, "a crash is not a restart");
        assert_eq!(report.metrics.link(ProcessId(0), ProcessId(2)).delivered, 0);
    }

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl Message for Num {
        fn words(&self) -> u64 {
            1
        }
    }

    /// Signs `(slot = round, value = running sum of its inbox)` and
    /// broadcasts 7. The shared log stands in for the signing oracle:
    /// every binding is logged when it is signed, whether or not the send
    /// survives.
    struct SumSigner {
        id: ProcessId,
        sum: u64,
        log: Arc<std::sync::Mutex<Vec<(ProcessId, u64, u64)>>>,
    }
    impl Actor for SumSigner {
        type Msg = Num;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Num>) {
            self.sum += ctx.inbox().iter().map(|e| e.msg.0).sum::<u64>();
            self.log.lock().unwrap().push((self.id, ctx.round().as_u64(), self.sum));
            ctx.broadcast(Num(7));
        }
    }

    #[test]
    fn amnesiac_restart_double_binds_a_slot() {
        // p0 crashes at round 2 and is back at once, rebuilt factory-fresh:
        // no journal, no memory of what it signed. Its fast-forward over
        // empty inboxes re-signs slot 1 with 0, where the first
        // incarnation had heard 3 × 7 — an equivocation manufactured by a
        // crash, which is why a journal-less restart counts toward f.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let signer = {
            let log = log.clone();
            move |id: ProcessId| SumSigner { id, sum: 0, log: log.clone() }
        };
        let actors = (0..3).map(|i| Box::new(signer(ProcessId(i))) as _).collect();
        let rebuilder: ActorRebuilder<Num> = Arc::new(move |p| crate::RebuiltActor {
            actor: Box::new(signer(p)),
            resume_step: 0,
            replayed_records: 0,
            journal_fsyncs: 0,
        });
        let fate: ProcessFateFactory = Arc::new(|p: ProcessId| {
            if p == ProcessId(0) {
                crate::ProcessFate::CrashRestart { at_round: 2, rejoin_after: 0 }
            } else {
                crate::ProcessFate::Run
            }
        });
        let config = DesConfig { process_fate: Some(fate), max_rounds: 4, ..Default::default() };
        let report = run_des_cluster(actors, Some(rebuilder), config).unwrap();
        assert_eq!(report.metrics.recovery.crash_restarts, 1);
        // Fold p0's signatures the way a double-sign detector would.
        let log = log.lock().unwrap();
        let mut bound = std::collections::BTreeMap::new();
        let rebound: Vec<u64> = (log.iter().filter(|(p, ..)| *p == ProcessId(0)))
            .filter(|&&(_, slot, value)| *bound.entry(slot).or_insert(value) != value)
            .map(|&(_, slot, _)| slot)
            .collect();
        assert_eq!(rebound, [1], "the unjournaled restart re-binds slot 1: {log:?}");
    }

    /// Sends `Num(round)` to `to` in each round of `sends`; hints the
    /// next round of `wakes` after the one that ran (or never, past the
    /// last; every round when `wakes` is `None`), and logs each delivery
    /// it admits as `(round, value)` into a log a rebuilt incarnation
    /// shares.
    struct Script {
        id: ProcessId,
        sends: Vec<(u64, ProcessId)>,
        wakes: Option<Vec<u64>>,
        heard: Arc<std::sync::Mutex<Vec<(u64, u64)>>>,
    }
    impl Actor for Script {
        type Msg = Num;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Num>) {
            let round = ctx.round().as_u64();
            self.heard.lock().unwrap().extend(ctx.inbox().iter().map(|e| (round, e.msg.0)));
            for &(_, to) in self.sends.iter().filter(|(r, _)| *r == round) {
                ctx.send(to, Num(round));
            }
        }
        fn next_wakeup(&self, after: meba_sim::Round) -> meba_sim::Round {
            match &self.wakes {
                None => meba_sim::Round(after.as_u64() + 1),
                Some(wakes) => wakes
                    .iter()
                    .find(|&&w| w > after.as_u64())
                    .map_or(meba_sim::Round::NEVER, |&w| meba_sim::Round(w)),
            }
        }
    }

    /// A [`Script`] with nothing to send, never woken by its own hint.
    fn silent(id: u32, heard: &Arc<std::sync::Mutex<Vec<(u64, u64)>>>) -> Script {
        Script {
            id: ProcessId(id),
            sends: Vec::new(),
            wakes: Some(Vec::new()),
            heard: heard.clone(),
        }
    }

    #[test]
    fn a_receiver_that_ran_after_the_sender_at_that_instant_still_wakes_for_the_copy() {
        // p0 sends to p2 in round 2; p2 also runs round 2, at the same
        // instant and after p0, and then hints nothing at all. The copy
        // is in flight when p2 runs, so p2 must run round 3 for it.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let p2_heard = Arc::new(std::sync::Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn AnyActor<Msg = Num>>> = vec![
            Box::new(Script {
                id: ProcessId(0),
                sends: vec![(2, ProcessId(2))],
                wakes: Some(vec![2]),
                heard: log.clone(),
            }),
            Box::new(silent(1, &log)),
            Box::new(Script {
                id: ProcessId(2),
                sends: Vec::new(),
                wakes: Some(vec![2]),
                heard: p2_heard.clone(),
            }),
        ];
        let report =
            run_des_cluster(actors, None, DesConfig { max_rounds: 8, ..Default::default() })
                .unwrap();
        assert_eq!(*p2_heard.lock().unwrap(), [(3, 2)], "round 3 admits the round-2 copy");
        assert_eq!(report.metrics.link(ProcessId(0), ProcessId(2)).delivered, 1);
    }

    /// The lockstep schedule of `config` for `n` processes that all run,
    /// and a driver to ask it through (lockstep leaves it untouched).
    fn lockstep_schedule(config: &DesConfig, n: usize) -> (Schedule, RoundDriver) {
        let driver = RoundDriver::virtual_time(&RoundDriverConfig::Lockstep, n, 0);
        (Schedule::new(config, vec![ResolvedFate::Run; n]), driver)
    }

    /// What p1 admits, as `(round, sent round)`, when p0 sends it one copy
    /// in each of rounds 0..=6, each landing exactly 1 ns after its send,
    /// and p1 is down from round 3 until it rejoins in `rejoin_at`; p1
    /// ticks every round, or only when something wakes it.
    fn heard_across_a_restart(
        max_skew_ns: u64,
        seed: u64,
        rejoin_at: u64,
        sleeping: bool,
    ) -> Vec<(u64, u64)> {
        let heard = Arc::new(std::sync::Mutex::new(Vec::new()));
        let receiver = {
            let heard = heard.clone();
            move || Script {
                id: ProcessId(1),
                sends: Vec::new(),
                wakes: sleeping.then(Vec::new),
                heard: heard.clone(),
            }
        };
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let actors: Vec<Box<dyn AnyActor<Msg = Num>>> = vec![
            Box::new(Script {
                id: ProcessId(0),
                sends: (0..=6).map(|r| (r, ProcessId(1))).collect(),
                wakes: Some((0..=6).collect()),
                heard: log.clone(),
            }),
            Box::new(receiver()),
            Box::new(silent(2, &log)),
        ];
        let rebuilder: ActorRebuilder<Num> = Arc::new(move |_| crate::RebuiltActor {
            actor: Box::new(receiver()),
            resume_step: 0,
            replayed_records: 0,
            journal_fsyncs: 0,
        });
        let fate: ProcessFateFactory = Arc::new(move |p: ProcessId| {
            if p == ProcessId(1) {
                crate::ProcessFate::CrashRestart { at_round: 3, rejoin_after: rejoin_at - 3 }
            } else {
                crate::ProcessFate::Run
            }
        });
        let config = DesConfig {
            seed,
            max_skew_ns,
            link_cap_ns: Some(2),
            process_fate: Some(fate),
            max_rounds: 12,
            ..Default::default()
        };
        run_des_cluster(actors, Some(rebuilder), config).unwrap();
        let mut got = heard.lock().unwrap().clone();
        got.sort_unstable();
        got
    }

    #[test]
    fn a_copy_visible_in_a_dead_round_is_never_admitted_and_one_visible_at_the_rejoin_is() {
        let delta = DesConfig::default().delta_ns;
        // Under seeds 0, 4, 1 and 6 p0's clock starts 0.64δ after p1's,
        // 0.77δ and 1.21δ before it, and 1.41δ after it: round r's copy is
        // visible to p1 in round r + 1, r, r − 1 and r + 2.
        let clocks = [(0, 0), (3 * delta, 0), (3 * delta, 4), (3 * delta, 1), (3 * delta, 6)];
        // Rejoining in round 4, p1 crashes while p0's round-3 copy, sent
        // at the same instant, is in flight: the crash must keep it.
        for rejoin_at in [5, 4] {
            let dead = |round: u64| (3..rejoin_at).contains(&round);
            for (max_skew_ns, seed) in clocks {
                let config = DesConfig { seed, max_skew_ns, ..Default::default() };
                let (sched, mut driver) = lockstep_schedule(&config, 3);
                // Round r's copy is visible in V and admitted in the first
                // round after r, unless a dead round from V on discards it.
                let mut want: Vec<(u64, u64)> = (0..=6u64)
                    .filter_map(|r| {
                        let at = sched.deadline(0, r, &mut driver, 0) + 1;
                        let visible = sched.first_round_at_or_after(1, at);
                        let admitted = visible.max(r + 1);
                        (!(visible..=admitted).any(dead)).then_some((admitted, r))
                    })
                    .collect();
                want.sort_unstable();
                if max_skew_ns == 0 {
                    let aligned: &[(u64, u64)] = if rejoin_at == 5 {
                        &[(1, 0), (2, 1), (5, 4), (6, 5), (7, 6)]
                    } else {
                        &[(1, 0), (2, 1), (4, 3), (5, 4), (6, 5), (7, 6)]
                    };
                    assert_eq!(want, aligned);
                }
                for sleeping in [false, true] {
                    assert_eq!(
                        heard_across_a_restart(max_skew_ns, seed, rejoin_at, sleeping),
                        want,
                        "rejoin {rejoin_at}, skew {max_skew_ns}, seed {seed}, sleeping {sleeping}"
                    );
                }
            }
        }
    }

    /// Broadcasts every round; logs the senders of each round's inbox.
    struct Roll(ProcessId, Vec<(u64, Vec<u32>)>);
    impl Actor for Roll {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            self.1.push((ctx.round().as_u64(), ctx.inbox().iter().map(|e| e.from.0).collect()));
            ctx.broadcast(Tick);
        }
    }

    #[test]
    fn a_quorum_met_part_way_through_an_instant_runs_on_the_senders_so_far() {
        // Every process broadcasts at instant 0 in id order, and every
        // copy lands at instant 1, in send order. With a quorum of 3 a
        // process counts itself and advances at the second remote sender
        // it hears — p0 hears itself first, so it waits for a third copy.
        let actors = (0..4).map(|i| Box::new(Roll(ProcessId(i), Vec::new())) as _).collect();
        let config = DesConfig {
            driver: RoundDriverConfig::QuorumOrTimeout { quorum: Some(3), timeout_factor: 1.0 },
            link_cap_ns: Some(2),
            max_rounds: 2,
            ..Default::default()
        };
        let report = run_des_cluster(actors, None, config).unwrap();
        let first: Vec<&[u32]> = (report.actors.iter())
            .map(|a| &a.as_any().downcast_ref::<Roll>().unwrap().1[1].1[..])
            .collect();
        assert_eq!(first, [&[0, 1, 2][..], &[0, 1, 2], &[0, 1], &[0, 1]]);
        assert_eq!(report.metrics.advance.quorum, 4, "every round 1 advanced on its quorum");
    }

    /// Refuses [`REFUSED`] equivocations; done from round `last` on, and
    /// from then asleep (`Round::NEVER`) if `sleeps`.
    struct Refuser {
        id: ProcessId,
        last: u64,
        ran: u64,
        sleeps: bool,
    }
    const REFUSED: u64 = 3;
    impl Actor for Refuser {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            self.ran = ctx.round().as_u64();
        }
        fn done(&self) -> bool {
            self.ran >= self.last
        }
        fn refused_equivocations(&self) -> u64 {
            REFUSED
        }
        fn next_wakeup(&self, after: meba_sim::Round) -> meba_sim::Round {
            if self.sleeps && self.done() {
                meba_sim::Round::NEVER
            } else {
                after.next()
            }
        }
    }

    #[test]
    fn the_lockstep_run_counts_refusals_and_credits_its_sleepers() {
        // p1 and p2 are done after round 1 and sleep; p0 runs on to 6.
        let run = |sleeps: bool| {
            let actors = (0..3)
                .map(|i| {
                    let last = if i == 0 { 6 } else { 1 };
                    let refuser =
                        Refuser { id: ProcessId(i), last, ran: 0, sleeps: sleeps && i > 0 };
                    Box::new(refuser) as Box<dyn AnyActor<Msg = Tick>>
                })
                .collect();
            let config = DesConfig { max_rounds: 16, ..Default::default() };
            run_des_cluster(actors, None, config).unwrap().metrics
        };
        let (sparse, dense) = (run(true), run(false));
        assert_eq!(sparse.recovery.refused_equivocations, 3 * REFUSED);
        assert_eq!(sparse.advance, dense.advance, "sleepers are credited their rounds");
    }

    /// Two words and one signature, billed to the `ping` component.
    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {
        fn words(&self) -> u64 {
            2
        }
        fn constituent_sigs(&self) -> u64 {
            1
        }
        fn component(&self) -> &'static str {
            "ping"
        }
    }

    /// Broadcasts once in round 0, then records whom it hears; done once
    /// it has heard three.
    struct Chatter {
        id: ProcessId,
        heard: Vec<ProcessId>,
    }
    impl Actor for Chatter {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            if ctx.round() == meba_sim::Round(0) {
                ctx.broadcast(Ping);
            }
            self.heard.extend(ctx.inbox().iter().map(|e| e.from));
        }
        fn done(&self) -> bool {
            self.heard.len() >= 3
        }
    }

    fn chatters(n: usize) -> Vec<Box<dyn AnyActor<Msg = Ping>>> {
        (0..n).map(|i| Box::new(Chatter { id: ProcessId(i as u32), heard: vec![] }) as _).collect()
    }

    fn heard(report: &ClusterReport<Ping>, i: usize) -> &[ProcessId] {
        &report.actors[i].as_any().downcast_ref::<Chatter>().expect("a chatter").heard
    }

    /// A factory handing every sender its own copy of `policy`.
    fn each(
        policy: impl meba_sim::faults::LinkPolicy + Clone + Sync + 'static,
    ) -> LinkPolicyFactory {
        Arc::new(move |_| Box::new(policy.clone()))
    }

    /// `rounds` lockstep rounds of `actors` behind `policy`, or fewer if
    /// every correct one is done first.
    fn chat(
        actors: Vec<Box<dyn AnyActor<Msg = Ping>>>,
        rounds: u64,
        policy: Option<LinkPolicyFactory>,
    ) -> ClusterReport<Ping> {
        let config = DesConfig { max_rounds: rounds, link_policy: policy, ..Default::default() };
        run_des_cluster(actors, None, config).unwrap()
    }

    #[test]
    fn words_exclude_self_delivery() {
        let m = chat(chatters(3), 1, None).metrics;
        // 3 broadcasts × 2 remote recipients × 2 words, one signature each.
        assert_eq!((m.correct.words, m.correct.messages, m.correct.constituent_sigs), (12, 6, 6));
        assert_eq!(m.by_component["ping"].words, 12);
        let l01 = m.link(ProcessId(0), ProcessId(1));
        assert_eq!((l01.sent, l01.bytes), (1, 0), "links are accounted without a policy");
        assert_eq!(m.per_link.len(), 6, "no self-links");
    }

    #[test]
    fn rushed_messages_not_redelivered() {
        let config = DesConfig { corrupt: vec![ProcessId(1)], max_rounds: 3, ..Default::default() };
        let report = run_des_cluster(chatters(2), None, config).unwrap();
        // p1 hears p0's broadcast once (rushed, round 0) and its own once
        // (self-delivery, round 1) — no duplicates.
        assert_eq!(heard(&report, 1), [ProcessId(0), ProcessId(1)]);
    }

    #[test]
    fn a_released_copy_lands_in_send_order() {
        use meba_sim::faults::{Link, LinkFate};
        // p0 → p2 is delayed one round: sent in r0, released by p0 at the
        // start of its r1 turn — after nothing, before p1's r1 send.
        let policy = |l: Link, r: u64| {
            if l.from == ProcessId(0) && r == 0 {
                LinkFate::DelayRounds(1)
            } else {
                LinkFate::Deliver
            }
        };
        struct Every(ProcessId, Vec<(u64, ProcessId)>);
        impl Actor for Every {
            type Msg = Ping;
            fn id(&self) -> ProcessId {
                self.0
            }
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
                if ctx.round() < meba_sim::Round(2) && self.0 != ProcessId(2) {
                    ctx.send(ProcessId(2), Ping);
                }
                let r = ctx.round().as_u64();
                self.1.extend(ctx.inbox().iter().map(|e| (r, e.from)));
            }
        }
        let actors = (0..3).map(|i| Box::new(Every(ProcessId(i), vec![])) as _).collect();
        let report = chat(actors, 3, Some(each(policy)));
        let p2 = &report.actors[2].as_any().downcast_ref::<Every>().unwrap().1;
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        assert_eq!(p2[..], [(1, p1), (2, p0), (2, p0), (2, p1)]);
    }

    #[test]
    fn delivered_is_billed_where_a_round_consumes_the_inbox() {
        // No policy installed: links are accounted all the same. p2 is
        // down from round 1 on, so it drains nothing.
        let run = |max_rounds| {
            let crash: ProcessFateFactory = Arc::new(|p| match p {
                ProcessId(2) => crate::ProcessFate::Crash { at_round: 1 },
                _ => crate::ProcessFate::Run,
            });
            let config = DesConfig { max_rounds, process_fate: Some(crash), ..Default::default() };
            run_des_cluster(chatters(3), None, config).unwrap().metrics
        };
        let m = run(1);
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).sent, 1);
        assert_eq!(m.per_link.values().map(|l| l.delivered).sum::<u64>(), 0, "sent, not drained");
        let m = run(2);
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).delivered, 1);
        assert_eq!(m.link(ProcessId(2), ProcessId(0)).delivered, 1);
        assert_eq!(m.link(ProcessId(0), ProcessId(2)).delivered, 0);
    }

    #[test]
    fn link_policy_sever_is_a_counted_drop() {
        use meba_sim::faults::{Link, SeverAt};
        let link = Link { from: ProcessId(0), to: ProcessId(1) };
        let report = chat(chatters(2), 2, Some(each(SeverAt::new(link, 0))));
        assert_eq!(heard(&report, 1), [ProcessId(1)], "the severed message never arrives");
        let stats = report.metrics.link(link.from, link.to);
        assert_eq!((stats.sent, stats.dropped, stats.delivered), (1, 1, 0));
    }

    #[test]
    fn link_policy_delay_saturates_instead_of_overflowing() {
        use meba_sim::faults::{Link, LinkFate};
        let policy = |_l: Link, _r: u64| LinkFate::DelayRounds(u64::MAX);
        let report = chat(chatters(2), 3, Some(each(policy)));
        assert_eq!(heard(&report, 1), [ProcessId(1)], "the delayed copy never lands");
        let stats = report.metrics.link(ProcessId(0), ProcessId(1));
        assert_eq!((stats.delayed, stats.delivered), (1, 0), "billed as delayed");
    }

    #[test]
    fn seeded_policy_runs_reproduce_exactly() {
        let run = || {
            let m = chat(chatters(3), 3, Some(each(meba_sim::faults::BernoulliDrop::new(99, 0.5))))
                .metrics;
            (m.per_link, m.correct.words)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "actor 0 has id")]
    fn build_validates_ids() {
        let _ = chat(vec![Box::new(Chatter { id: ProcessId(5), heard: vec![] })], 1, None);
    }

    #[test]
    fn pre_gst_delays_defer_but_do_not_prevent_completion() {
        // Messages sent before GST can take up to 6δ; the broadcast wave
        // of round 0 arrives rounds late, yet every delivery eventually
        // lands and the run completes within the budget.
        let report = run_des_cluster(
            latches(5),
            None,
            DesConfig {
                gst_ns: 3_000_000,           // GST at 3δ
                pre_gst_delay_ns: 6_000_000, // pre-GST latency up to 6δ
                max_rounds: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.completed);
        assert!(report.rounds > 2, "late delivery must cost extra rounds, got {}", report.rounds);
    }
    /// A seeded xorshift stream.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn the_lockstep_schedule_maps_rounds_and_instants_consistently() {
        let mut next = xorshift(0x5ced_u64);
        for _ in 0..64 {
            let delta_ns = 2 + next() % 5_000;
            let max_skew_ns = [0, next() % (4 * delta_ns)][(next() % 2) as usize];
            let max_rounds = 1 + next() % 40;
            let seed = next();
            let config =
                DesConfig { delta_ns, max_skew_ns, max_rounds, seed, ..Default::default() };
            let case = (delta_ns, max_skew_ns, max_rounds, seed);
            let n = 5;
            let (sched, mut driver) = lockstep_schedule(&config, n);
            for i in 0..n {
                let mut deadline = |r| sched.deadline(i, r, &mut driver, 0);
                let mut before = 0;
                for r in 0..max_rounds + 2 {
                    let at = deadline(r);
                    assert_eq!(sched.first_round_at_or_after(i, at), r, "{case:?}");
                    assert_eq!(sched.rounds_due_by(i, at), (r + 1).min(max_rounds), "{case:?}");
                    // Every instant in (deadline(r − 1), deadline(r)] maps to
                    // r; round 0 takes every instant up to its deadline.
                    let first = if r == 0 { 0 } else { before + 1 };
                    for t in [first, first + u128::from(next()) % (at - first + 1), at] {
                        assert_eq!(sched.first_round_at_or_after(i, t), r, "{case:?} at {t}");
                    }
                    before = at;
                }
            }
        }
    }

    #[test]
    fn the_event_queue_pops_like_a_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Each case picks a push's instant from the last popped one: many
        // events per instant (the lockstep grid), about one per instant
        // (skew, quorum-mode arrivals), and pushes at the instant whose
        // bucket is being popped (the rushed re-arm).
        type Instant = fn(u128, u64) -> u128;
        let cases: [(&str, Instant); 3] = [
            ("grid", |now, r| (now / 1000 + u128::from(r % 4)) * 1000),
            ("sparse", |now, r| now + 1 + u128::from(r % (1 << 40))),
            (
                "same instant",
                |now, r| if r.is_multiple_of(3) { now } else { now + u128::from(r % 5) },
            ),
        ];
        for (case, instant) in cases {
            let mut next = xorshift(0x5eed_cafe);
            let (mut queue, mut model) = (EventQueue::default(), BinaryHeap::new());
            let (mut now, mut seq) = (0u128, 0u64);
            for _ in 0..6_000 {
                if !next().is_multiple_of(3) || model.is_empty() {
                    let at = instant(now, next());
                    let r = next();
                    let event = if r.is_multiple_of(2) {
                        seq += 1;
                        Event::Arrival { seq, to: (r >> 8) as usize % 9 }
                    } else {
                        let (process, round) = ((r >> 8) as usize % 9, (r >> 16) % 5);
                        Event::Deadline { rushing: r & 2 != 0, process, round }
                    };
                    queue.push(at, event);
                    model.push(Reverse((at, event)));
                } else {
                    let got = queue.pop();
                    assert_eq!(got, model.pop().map(|Reverse(e)| e), "{case}");
                    now = got.map_or(now, |(at, _)| at);
                }
            }
            let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
            let want: Vec<_> = std::iter::from_fn(|| model.pop().map(|Reverse(e)| e)).collect();
            assert_eq!(rest, want, "{case}");
        }
    }
}

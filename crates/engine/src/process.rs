//! One process as the engine drives it, and the [`Transport`] every
//! backend plugs under it. [`EngineProcess::step`] is the round body of
//! every backend — fate, release pending → drain → partition by
//! `sent_round` → step → dispatch and bill the outbox — so inbox
//! partitioning, word/byte/link accounting, send-edge fault application,
//! crash-restart fates and the advance-cause tally exist in exactly one
//! place. The backends (discrete-event, threads, TCP) differ only in the
//! transport they plug in and in *when* they call it.

use crate::driver::AdvanceCause;
use crate::fate::{ActorRebuilder, ResolvedFate};
use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate, LinkPolicy};
use meba_sim::metrics::{targets, MessageCost};
use meba_sim::{AnyActor, Envelope, Message, Metrics, Outbox, Round, RoundCtx};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A message in flight, tagged with its authenticated sender and the
/// round it was sent in. The round tag is what makes the synchronous
/// abstraction portable: every backend delivers a message to the round
/// *after* its `sent_round`, however the bytes actually moved.
pub struct Delivery<M> {
    /// Link-level sender.
    pub from: ProcessId,
    /// Round the message was sent in.
    pub sent_round: u64,
    /// The payload: a handle shared by every copy of one outbox entry.
    pub msg: Arc<M>,
}

/// One process's view of the network: the round body is generic over
/// this trait, and each backend (discrete-event queue, crossbeam
/// channels, TCP mesh) supplies its own implementation.
///
/// Implementations carry bytes; *all* word/byte accounting, link-fault
/// application, and round bookkeeping happen in [`EngineProcess::step`],
/// once, above this trait.
///
/// Ownership: the round body wraps each outbox entry in one [`Arc`] and
/// hands every copy of it — remote, self, fault-delayed — to
/// [`Transport::send`] as that same handle. An in-memory transport
/// clones the handle, never the message; a socket transport encodes
/// from it. The receiving round body moves the handle into its inbox
/// ([`Envelope::msg`]) and lends it to the actor, so one send is one
/// payload however many processes read it.
pub trait Transport<M: Message> {
    /// Sends `msg` to `to`, tagged with `sent_round`. Self-sends
    /// (`to == me`) must loop back like any other delivery. May block
    /// under backpressure; may silently drop if the peer is gone (the run
    /// is over for that peer).
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &Arc<M>);

    /// Moves every delivery that has arrived so far into `out`,
    /// preserving arrival order.
    fn drain(&mut self, out: &mut Vec<Delivery<M>>);

    /// Tears down the directed link to `to` — what the round body calls
    /// for a [`LinkFate::Sever`] (TCP: closes the socket so the reconnect
    /// path runs). In-memory backends have nothing to tear down, which
    /// makes a sever a plain drop there.
    fn sever(&mut self, _to: ProcessId) {}

    /// Full local teardown at a crash: the process lost its volatile
    /// state; a socket backend severs every peer link so peers observe
    /// resets. The engine separately discards buffered deliveries.
    fn crash(&mut self) {}

    /// Times a send blocked on a full link so far (folded into the
    /// paced backends' `ClusterReport::backpressure` at the end of the
    /// run).
    fn backpressure(&self) -> u64 {
        0
    }
}

/// What one engine round did for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepStatus {
    /// Whether the actor actually ran this round (`false` while the
    /// process is crashed — dead rounds discard inbound traffic and
    /// nothing else).
    pub executed: bool,
    /// `actor.done()` after the round (`false` while dead).
    pub done: bool,
    /// Remote deliveries admitted this round that had already missed
    /// their intended round (`sent_round + 1 < round`) — the local
    /// evidence of a δ-estimate outpacing the network that the
    /// event-driven backends feed into timeout backoff
    /// (`RoundDriver::observe`). 0 while dead.
    pub late_admitted: u64,
}

/// One process as the engine drives it: its outbound link policy, its
/// resolved fate, and the round state that persists across rounds —
/// deliveries received early (for a later round) and fault-delayed
/// outbound messages keyed by their release round. The actor itself
/// stays with the backend, which lends it to every call — so a run keeps
/// its actors in one slice, in process order, for post-run inspection.
/// Backends own the pacing and the stop decision; this type owns
/// everything that happens *inside* a round.
pub struct EngineProcess<M: Message> {
    n: usize,
    sender_correct: bool,
    // A rushing process (a corrupt one on a lockstep discrete-event run)
    // admits this round's traffic too: `sent_round ≤ round` instead of
    // `<`.
    rushing: bool,
    fate: ResolvedFate,
    rebuilder: Option<ActorRebuilder<M>>,
    policy: Option<Box<dyn LinkPolicy>>,
    dead: bool,
    rejoin_round: Option<u64>,
    buffer: Vec<Delivery<M>>,
    pending: BTreeMap<u64, Vec<(ProcessId, u64, Arc<M>)>>,
    // Scratch storage reused across rounds so the steady-state round
    // body allocates nothing: this round's inbox, the kept-for-later
    // deliveries, and the sender list `ready_senders` sorts to count
    // distinct senders.
    inbox_scratch: Vec<Envelope<M>>,
    keep_scratch: Vec<Delivery<M>>,
    senders_scratch: Vec<ProcessId>,
}

impl<M: Message> EngineProcess<M> {
    /// Engine state for one process. `fate` must already be resolved
    /// (see [`crate::resolve_fates`]) — the driver never consults the
    /// rebuilder's presence mid-run. A `rushing` process admits the
    /// round being executed as well as earlier ones — the rushing
    /// adversary's view of correct traffic, which a lockstep
    /// discrete-event run hands its corrupt processes after every correct
    /// one has sent.
    pub fn new(
        n: usize,
        sender_correct: bool,
        rushing: bool,
        fate: ResolvedFate,
        rebuilder: Option<ActorRebuilder<M>>,
        policy: Option<Box<dyn LinkPolicy>>,
    ) -> Self {
        debug_assert!(
            !matches!(fate, ResolvedFate::CrashRestart { rejoin_at: Some(_), .. })
                || rebuilder.is_some(),
            "a fate resolved to rejoin requires a rebuilder"
        );
        EngineProcess {
            n,
            sender_correct,
            rushing,
            fate,
            rebuilder,
            policy,
            dead: false,
            rejoin_round: None,
            buffer: Vec::new(),
            pending: BTreeMap::new(),
            inbox_scratch: Vec::new(),
            keep_scratch: Vec::new(),
            senders_scratch: Vec::new(),
        }
    }

    /// Whether the process is currently crashed (dead rounds discard
    /// traffic and execute nothing).
    pub fn is_down(&self) -> bool {
        self.dead
    }

    /// How many distinct senders (including `me` itself) have already
    /// produced the information that makes `round` ready: deliveries
    /// buffered with `sent_round + 1 ≥ round`, i.e. traffic from the
    /// immediately preceding round or later. `me` always counts — a
    /// process trivially holds its own prior-round state, whether or not
    /// a self-delivery happens to sit in the buffer. 0 while crashed: a
    /// dead process holds no evidence and never advances early.
    ///
    /// This is the quorum test of the event-driven `QuorumOrTimeout`
    /// round driver — reaching its quorum here means the process holds
    /// everything quorum logic can use from round `round - 1`, so it may
    /// advance early. Because `sent_round ≥ round` traffic also counts,
    /// the same test doubles as *catch-up*: a process that fell behind
    /// (timeout backoff, a long GC pause on a paced backend) and holds a
    /// quorum's worth of later-round traffic fast-forwards instead of
    /// crawling timer by timer.
    ///
    /// Drains the transport into the persistent buffer as a side effect;
    /// nothing is admitted or discarded (admission stays inside
    /// [`Self::step`], so calling this never changes what a later round
    /// execution observes — only *when* it runs).
    pub fn ready_senders(
        &mut self,
        me: ProcessId,
        round: u64,
        transport: &mut dyn Transport<M>,
    ) -> usize {
        if self.dead {
            return 0;
        }
        transport.drain(&mut self.buffer);
        if self.buffer.is_empty() {
            return 1; // `me` always counts
        }
        // Memory stays O(buffered deliveries): a table indexed by process
        // id would cost O(n) per process, O(n²) across a cluster.
        // In lockstep the buffer arrives in id order, so the sort is
        // usually skipped.
        let senders = &mut self.senders_scratch;
        senders.clear();
        senders.extend(self.buffer.iter().filter(|d| d.sent_round + 1 >= round).map(|d| d.from));
        if !senders.is_sorted() {
            senders.sort_unstable();
        }
        senders.dedup();
        senders.len() + usize::from(senders.binary_search(&me).is_err())
    }

    /// The earliest round after `after` (the round that just ran) this
    /// process must execute if nothing is delivered to it before then —
    /// the minimum over every wake source that is not an arrival:
    ///
    /// * `actor`'s own [`meba_sim::Actor::next_wakeup`] hint;
    /// * the next round if the buffer kept early deliveries (they are
    ///   admitted there);
    /// * the first pending fault-delayed send's release round;
    /// * its crash round, which only fires when executed exactly;
    /// * while down, its rejoin round (the backend discards what
    ///   arrives for the dead rounds before it).
    ///
    /// `u64::MAX` when none applies. Rounds strictly between are no-ops
    /// for everything this type owns; see DESIGN.md §18.
    pub fn next_wakeup(&self, actor: &dyn AnyActor<Msg = M>, after: u64) -> u64 {
        let next = after + 1;
        if !self.buffer.is_empty() {
            return next;
        }
        let mut wake = actor.next_wakeup(Round(after)).as_u64();
        if let Some((&release, _)) = self.pending.range(next..).next() {
            wake = wake.min(release);
        }
        let (at_round, rejoin_at) = self.fate.down_at();
        if self.dead {
            wake = wake.min(rejoin_at.unwrap_or(u64::MAX));
        } else if let Some(at_round) = at_round.filter(|&r| r > after) {
            wake = wake.min(at_round);
        }
        wake.max(next)
    }

    /// Executes one engine round of `actor`, which the backend advanced
    /// into for `cause`:
    ///
    /// 1. the fate: crash, dead-round discard, or journal-replay rejoin
    ///    (which replaces the actor);
    /// 2. transmit fault-delayed messages whose release round arrived
    ///    (they keep their original `sent_round`, so the recipient sees
    ///    them past the synchrony bound);
    /// 3. drain the transport and partition deliveries by
    ///    `sent_round < round` (`≤` for a rushing process) into this
    ///    round's inbox, recording per-link deliveries;
    /// 4. step the actor;
    /// 5. dispatch its outbox: self-delivery is process memory (no
    ///    policy, no per-link stats, no word accounting); every remote
    ///    copy is judged by the link policy and put on its link
    ///    ([`Metrics::carry`]: `sent`, `bytes`, and `dropped` or `delayed`
    ///    with its fate), and each entry is then billed once for all its
    ///    remote copies ([`Metrics::bill`]), whether or not they are
    ///    ultimately transmitted.
    ///
    /// An executed round ≥ 1 records `cause` in `metrics.advance`.
    /// `metrics` is the caller's own ledger — the whole run's on the
    /// single-threaded DES, this process's shard on a paced thread.
    pub fn step<T: Transport<M>>(
        &mut self,
        actor: &mut Box<dyn AnyActor<Msg = M>>,
        round: u64,
        cause: AdvanceCause,
        transport: &mut T,
        metrics: &mut Metrics,
    ) -> StepStatus {
        if let (Some(at_round), rejoin_at) = self.fate.down_at() {
            if !self.dead && self.rejoin_round.is_none() && round == at_round {
                // Crash: in-memory state, buffered inbox, and pending
                // delayed sends are all lost; the transport tears down
                // whatever it physically holds (sockets sever).
                self.dead = true;
                transport.crash();
                self.buffer.clear();
                self.pending.clear();
                // A corrupt process's crash is its fault, already
                // counted, and so is a `Crash` victim's; the ledger
                // counts the restarts of correct ones.
                if self.sender_correct && self.fate.awaited() {
                    metrics.recovery.crash_restarts += 1;
                }
            }
            if self.dead && rejoin_at.is_some_and(|rj| round >= rj) {
                self.rejoin(actor, round, metrics);
            }
        }
        if self.dead {
            // Down: discard all inbound traffic, send nothing. The
            // backend keeps pacing rounds so live peers advance.
            transport.drain(&mut self.buffer);
            self.buffer.clear();
            return StepStatus { executed: false, done: false, late_admitted: 0 };
        }
        if round >= 1 {
            cause.record(&mut metrics.advance);
        }

        let me = actor.id();
        if let Some(due) = self.pending.remove(&round) {
            for (to, sent_round, msg) in due {
                transport.send(to, sent_round, &msg);
            }
        }

        transport.drain(&mut self.buffer);
        let admit_before = round + u64::from(self.rushing);
        let mut inbox = std::mem::take(&mut self.inbox_scratch);
        let mut keep = std::mem::take(&mut self.keep_scratch);
        let mut late_admitted = 0u64;
        for d in self.buffer.drain(..) {
            if d.sent_round < admit_before {
                if d.from != me {
                    metrics.admit(Link { from: d.from, to: me });
                    // A round-`r` message belongs in round `r + 1`;
                    // admission later than that means the local round
                    // counter outpaced this link (mis-estimated δ,
                    // schedule drift, a pre-GST delay, or a fault-
                    // delayed send — indistinguishable locally).
                    if d.sent_round + 1 < round {
                        late_admitted += 1;
                    }
                }
                inbox.push(Envelope { from: d.from, msg: d.msg });
            } else {
                keep.push(d);
            }
        }
        // Keep both allocations alive: the drained buffer becomes the next
        // round's keep scratch and vice versa.
        std::mem::swap(&mut self.buffer, &mut keep);
        self.keep_scratch = keep;

        let mut ctx = RoundCtx::new(Round(round), me, self.n, &inbox);
        actor.on_round(&mut ctx);
        self.dispatch(me, round, ctx.into_outbox(), transport, metrics);
        // Return the inbox's allocation for the next round (its envelopes
        // were only borrowed by the actor through `RoundCtx`).
        inbox.clear();
        self.inbox_scratch = inbox;

        let done = actor.done();
        if done {
            // Recovery latency: rounds from rejoin until this process is
            // done.
            if let Some(rj) = self.rejoin_round.take() {
                metrics.recovery.recovery_rounds += round - rj;
            }
        }
        StepStatus { executed: true, done, late_admitted }
    }

    /// Restart: rebuild the actor from the durable journal, then
    /// fast-forward to the cluster's current round with empty inboxes.
    /// Steps below the resume point are no-ops inside the recovery
    /// wrapper; the missed live rounds degrade to omissions, which the
    /// help machinery compensates for.
    fn rejoin(
        &mut self,
        actor: &mut Box<dyn AnyActor<Msg = M>>,
        round: u64,
        metrics: &mut Metrics,
    ) {
        let rebuild = self.rebuilder.as_ref().expect("rejoin_at is only resolved with a rebuilder");
        let rb = rebuild(actor.id());
        *actor = rb.actor;
        metrics.recovery.replayed_records += rb.replayed_records;
        metrics.recovery.journal_fsyncs += rb.journal_fsyncs;
        let empty: Vec<Envelope<M>> = Vec::new();
        for r in 0..round {
            actor.on_round(&mut RoundCtx::new(Round(r), actor.id(), self.n, &empty));
        }
        actor.on_rejoin(Round(round));
        self.dead = false;
        self.rejoin_round = Some(round);
    }

    /// Transmits and bills one round's outbox; each entry — one payload,
    /// however many processes it names — becomes one [`Arc`] shared by
    /// all its copies, and is billed once, after its copy loop.
    fn dispatch(
        &mut self,
        me: ProcessId,
        round: u64,
        outbox: Outbox<M>,
        transport: &mut dyn Transport<M>,
        metrics: &mut Metrics,
    ) {
        for (recipients, msg) in outbox {
            let cost = MessageCost::of(&msg);
            let msg = Arc::new(msg);
            let mut copies = 0;
            for to in targets(recipients, self.n) {
                if to == me {
                    // Self-delivery: process memory, not a link — no policy,
                    // no per-link stats, no word accounting.
                    transport.send(me, round, &msg);
                    continue;
                }
                let link = Link { from: me, to };
                let fate = self.policy.as_mut().map_or(LinkFate::Deliver, |p| p.fate(link, round));
                metrics.carry(link, &cost, fate);
                copies += 1;
                match fate {
                    LinkFate::Deliver => transport.send(to, round, &msg),
                    LinkFate::Drop => {}
                    LinkFate::DelayRounds(k) => {
                        // A delay past the end of time is never released.
                        let release = round.saturating_add(k);
                        self.pending.entry(release).or_default().push((
                            to,
                            round,
                            Arc::clone(&msg),
                        ));
                    }
                    // Lost, and the connection with it — where there is one.
                    LinkFate::Sever => transport.sever(to),
                }
            }
            metrics.bill(me, self.sender_correct, round, &cost, copies);
        }
    }

    /// Ends the process's run: adds the equivocations `actor` refused to
    /// sign to the ledger.
    pub fn finish(self, actor: &dyn AnyActor<Msg = M>, metrics: &mut Metrics) {
        metrics.recovery.refused_equivocations += actor.refused_equivocations();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::AdvanceCause::QuorumReached;
    use meba_sim::{Actor, Recipients, Sink};

    #[derive(Clone, Debug)]
    struct Tick;
    impl Message for Tick {
        fn words(&self) -> u64 {
            1
        }
    }

    /// Broadcasts once, in round 0, and never needs waking again.
    struct Once(ProcessId);
    impl Actor for Once {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            if ctx.round() == Round(0) {
                ctx.broadcast(Tick);
            }
        }
        fn next_wakeup(&self, _after: Round) -> Round {
            Round::NEVER
        }
    }

    /// Records every handle it is given, as `(executing round, to,
    /// handle)`; delivers nothing.
    #[derive(Default)]
    struct Recorder {
        round: u64,
        sent: Vec<(u64, ProcessId, Arc<Tick>)>,
    }
    impl Transport<Tick> for Recorder {
        fn send(&mut self, to: ProcessId, _sent_round: u64, msg: &Arc<Tick>) {
            self.sent.push((self.round, to, Arc::clone(msg)));
        }
        fn drain(&mut self, _out: &mut Vec<Delivery<Tick>>) {}
    }

    /// Steps p0's [`Once`] through rounds `0..rounds` under `fate` over a
    /// [`Recorder`], its copies to `slow` delayed by `k` rounds.
    fn run_once(
        n: usize,
        fate: ResolvedFate,
        (slow, k): (ProcessId, u64),
        rounds: u64,
    ) -> (EngineProcess<Tick>, Box<dyn AnyActor<Msg = Tick>>, Recorder, Metrics) {
        let delay = move |l: Link, _round: u64| {
            if l.to == slow {
                LinkFate::DelayRounds(k)
            } else {
                LinkFate::Deliver
            }
        };
        let mut proc = EngineProcess::new(n, true, false, fate, None, Some(Box::new(delay)));
        let mut actor: Box<dyn AnyActor<Msg = Tick>> = Box::new(Once(ProcessId(0)));
        let (mut transport, mut metrics) = (Recorder::default(), Metrics::default());
        for round in 0..rounds {
            transport.round = round;
            proc.step(&mut actor, round, QuorumReached, &mut transport, &mut metrics);
        }
        (proc, actor, transport, metrics)
    }

    #[test]
    fn every_copy_of_one_outbox_entry_is_one_handle() {
        let n = 8;
        let (_, _, transport, metrics) = run_once(n, ResolvedFate::Run, (ProcessId(3), 2), 3);
        let sent = &transport.sent;
        let to: Vec<u32> = sent.iter().map(|(_, to, _)| to.0).collect();
        assert_eq!(to, [0, 1, 2, 4, 5, 6, 7, 3], "self first, the delayed copy last");
        assert_eq!(sent[7].0, 2, "released two rounds later");
        let first = &sent[0].2;
        assert!(sent.iter().all(|(_, _, msg)| Arc::ptr_eq(msg, first)), "one payload");
        assert_eq!(Arc::strong_count(first), n, "the recorder holds the only handles");
        assert_eq!(metrics.advance.quorum, 2, "rounds 1 and 2 record their cause");
    }

    /// Multicasts to p2..p5 in round 0.
    struct Span(ProcessId);
    impl Actor for Span {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            if ctx.round() == Round(0) {
                ctx.outbox().put(Recipients::Span { lo: 2, hi: 6 }, Tick);
            }
        }
    }

    #[test]
    fn a_multicast_is_one_handle_and_one_bill_for_its_members() {
        let mut proc = EngineProcess::new(8, true, false, ResolvedFate::Run, None, None);
        let mut actor: Box<dyn AnyActor<Msg = Tick>> = Box::new(Span(ProcessId(0)));
        let (mut transport, mut metrics) = (Recorder::default(), Metrics::default());
        proc.step(&mut actor, 0, QuorumReached, &mut transport, &mut metrics);
        let to: Vec<u32> = transport.sent.iter().map(|(_, to, _)| to.0).collect();
        assert_eq!(to, [2, 3, 4, 5], "the members, in id order");
        let first = &transport.sent[0].2;
        assert!(transport.sent.iter().all(|(_, _, msg)| Arc::ptr_eq(msg, first)), "one payload");
        assert_eq!((metrics.correct.messages, metrics.correct.words), (4, 4), "a copy each");
        assert_eq!(metrics.link(ProcessId(0), ProcessId(5)).sent, 1);
    }

    /// Keeps every handle its inbox lends it; p0 broadcasts in round 0.
    struct Keep(ProcessId, Vec<Arc<Tick>>);
    impl Actor for Keep {
        type Msg = Tick;
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Tick>) {
            if self.0 == ProcessId(0) && ctx.round() == Round(0) {
                ctx.broadcast(Tick);
            }
            self.1.extend(ctx.inbox().iter().map(|e| Arc::clone(&e.msg)));
        }
        fn done(&self) -> bool {
            !self.1.is_empty()
        }
    }

    #[test]
    fn every_inbox_holds_the_dispatched_handle() {
        let n = 5;
        let actors = (0..n).map(|i| Box::new(Keep(ProcessId(i as u32), Vec::new())) as _).collect();
        let report = crate::run_des_cluster(actors, None, crate::DesConfig::default()).unwrap();
        let held: Vec<&Arc<Tick>> = report
            .actors
            .iter()
            .map(|a| match &a.as_any().downcast_ref::<Keep>().unwrap().1[..] {
                [handle] => handle,
                other => panic!("one delivery each, got {}", other.len()),
            })
            .collect();
        assert!(held.iter().all(|h| Arc::ptr_eq(h, held[0])), "one payload in every inbox");
        assert_eq!(Arc::strong_count(held[0]), n, "and nothing else holds it");
    }

    #[test]
    fn a_crash_drops_the_delayed_copies_it_had_not_released() {
        // p0's round-0 copy to p1 is due in round 3; p0 is down from
        // round 2, for good.
        let slow = ProcessId(1);
        let crash = ResolvedFate::Crash { at_round: 2 };
        let (proc, actor, ..) = run_once(3, crash, (slow, 3), 3);
        // Kept, the copy would still wake the dead process in round 3.
        assert_eq!(proc.next_wakeup(actor.as_ref(), 2), u64::MAX, "nothing left to release");
        let (_, _, transport, metrics) = run_once(3, crash, (slow, 3), 6);
        let link = metrics.link(ProcessId(0), slow);
        assert_eq!((link.delayed, link.delivered), (1, 0), "billed delayed, never delivered");
        assert!(transport.sent.iter().all(|(_, to, _)| *to != slow), "never transmitted");
        assert_eq!(metrics.advance.quorum, 1, "dead rounds record no cause");
    }
}

//! The round body every backend runs: one process's round is
//! [`run_live_round`] over a [`Transport`] — release pending → drain →
//! partition by `sent_round` → step → bill and dispatch the outbox. The
//! three `meba-engine` backends (discrete-event — whose lockstep
//! configuration is the `Simulation` — threads, TCP) differ only in the
//! transport they plug in and in *when* they call it, so inbox
//! partitioning, word/byte/link accounting and send-edge fault
//! application exist in exactly one place.

use crate::faults::{Link, LinkFate, LinkPolicy};
use crate::metrics::{targets, MessageCost};
use crate::{AnyActor, Envelope, Message, Metrics, Round, RoundCtx};
use meba_crypto::ProcessId;
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
/// application, and round bookkeeping happen in [`run_live_round`],
/// once, above this trait.
///
/// Ownership: [`run_live_round`] wraps each outbox entry in one [`Arc`]
/// and hands every copy of it — remote, self, fault-delayed — to
/// [`Transport::send`] as that same handle. An in-memory transport
/// clones the handle, never the message; a socket transport encodes
/// from it. The receiving round body unwraps the handle into its inbox,
/// so the last holder moves the message and the others clone it.
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

/// Per-process round-loop state that persists across rounds: deliveries
/// received early (for a later round) and fault-delayed outbound
/// messages keyed by their transmit round.
pub struct RoundState<M: Message> {
    buffer: Vec<Delivery<M>>,
    pending: BTreeMap<u64, Vec<(ProcessId, u64, Arc<M>)>>,
    // A rushing process (a corrupt one on a lockstep discrete-event run)
    // admits this round's traffic too: `sent_round ≤ round` instead of
    // `<`.
    rushing: bool,
    // Scratch storage reused across rounds so the steady-state round
    // body allocates nothing: this round's inbox, the kept-for-later
    // deliveries, and the sender list `ready_senders` sorts to count
    // distinct senders.
    inbox_scratch: Vec<Envelope<M>>,
    keep_scratch: Vec<Delivery<M>>,
    senders_scratch: Vec<ProcessId>,
}

impl<M: Message> RoundState<M> {
    /// Empty state, as at process start (and after a crash).
    pub fn new() -> Self {
        RoundState {
            buffer: Vec::new(),
            pending: BTreeMap::new(),
            rushing: false,
            inbox_scratch: Vec::new(),
            keep_scratch: Vec::new(),
            senders_scratch: Vec::new(),
        }
    }

    /// Empty state for a *rushing* process: [`run_live_round`] admits
    /// deliveries sent in the round being executed as well as earlier
    /// ones — the rushing adversary's view of correct traffic, which a
    /// lockstep discrete-event run hands its corrupt processes after
    /// every correct one has sent.
    pub fn rushing() -> Self {
        RoundState { rushing: true, ..Self::new() }
    }

    /// Loses everything buffered and pending, as a crash does.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.pending.clear();
        self.inbox_scratch.clear();
        self.keep_scratch.clear();
    }

    /// Whether deliveries kept for a later round are buffered.
    pub fn has_buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// The first round at or after `from` in which a fault-delayed send
    /// is released.
    pub fn next_release(&self, from: u64) -> Option<u64> {
        self.pending.range(from..).next().map(|(&release, _)| release)
    }

    /// A dead round: drains the transport and discards everything that
    /// arrived, admitting nothing.
    pub fn discard(&mut self, transport: &mut dyn Transport<M>) {
        transport.drain(&mut self.buffer);
        self.buffer.clear();
    }

    /// How many distinct senders (including `me` itself) have already
    /// produced the information that makes `round` ready: deliveries
    /// buffered with `sent_round + 1 ≥ round`, i.e. traffic from the
    /// immediately preceding round or later. `me` always counts — a
    /// process trivially holds its own prior-round state, whether or not
    /// a self-delivery happens to sit in the buffer. This is the quorum
    /// test of the engine's event-driven `QuorumOrTimeout` round driver —
    /// reaching its quorum here means the process holds everything
    /// quorum logic can use from round `round - 1`, so it may advance
    /// early. Because `sent_round ≥ round` traffic also counts, the same
    /// test doubles as *catch-up*: a process that fell behind (timeout
    /// backoff, a long GC pause on a paced backend) and holds a quorum's
    /// worth of later-round traffic fast-forwards instead of crawling
    /// timer by timer.
    ///
    /// Drains the transport into the persistent buffer as a side effect;
    /// nothing is admitted or discarded (admission stays inside
    /// [`run_live_round`], so calling this never changes what a later
    /// round execution observes — only *when* it runs).
    pub fn ready_senders(
        &mut self,
        me: ProcessId,
        round: u64,
        transport: &mut dyn Transport<M>,
    ) -> usize {
        transport.drain(&mut self.buffer);
        if self.buffer.is_empty() {
            return 1; // `me` always counts
        }
        // Memory stays O(buffered deliveries): a table indexed by process
        // id would cost O(n) per process, O(n²) across a cluster.
        let senders = &mut self.senders_scratch;
        senders.clear();
        senders.push(me);
        senders.extend(self.buffer.iter().filter(|d| d.sent_round + 1 >= round).map(|d| d.from));
        senders.sort_unstable();
        senders.dedup();
        senders.len()
    }
}

impl<M: Message> Default for RoundState<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Executes one *live* round for `actor` over `transport`:
///
/// 1. transmit fault-delayed messages whose release round arrived (they
///    keep their original `sent_round`, so the recipient sees them past
///    the synchrony bound);
/// 2. drain the transport and partition deliveries by
///    `sent_round < round` (`≤` for a [`RoundState::rushing`] process)
///    into this round's inbox, recording per-link deliveries;
/// 3. step the actor;
/// 4. dispatch its outbox: self-delivery is process memory (no policy, no
///    per-link stats, no word accounting); every remote copy is judged by
///    `policy` and billed ([`Metrics::bill`]) whether or not it is
///    ultimately transmitted.
///
/// Returns the round's [`LiveRoundOutcome`]: `actor.done()` after the
/// step plus how many admitted deliveries had already missed their
/// intended round. This function is the one implementation of the round
/// body for every backend; `metrics` is the caller's own ledger — the
/// whole run's on the single-threaded DES, this process's shard on a
/// paced thread.
#[allow(clippy::too_many_arguments)]
pub fn run_live_round<M: Message>(
    actor: &mut dyn AnyActor<Msg = M>,
    transport: &mut dyn Transport<M>,
    state: &mut RoundState<M>,
    policy: &mut Option<Box<dyn LinkPolicy>>,
    round: u64,
    n: usize,
    sender_correct: bool,
    metrics: &mut Metrics,
) -> LiveRoundOutcome {
    let me = actor.id();

    if !state.pending.is_empty() {
        if let Some(due) = state.pending.remove(&round) {
            for (to, sent_round, msg) in due {
                transport.send(to, sent_round, &msg);
            }
        }
    }

    transport.drain(&mut state.buffer);
    let admit_before = round + u64::from(state.rushing);
    let mut inbox = std::mem::take(&mut state.inbox_scratch);
    let mut keep = std::mem::take(&mut state.keep_scratch);
    inbox.clear();
    keep.clear();
    let mut late_admitted = 0u64;
    for d in state.buffer.drain(..) {
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
            inbox.push(Envelope { from: d.from, msg: Arc::unwrap_or_clone(d.msg) });
        } else {
            keep.push(d);
        }
    }
    // Keep both allocations alive: the drained buffer becomes the next
    // round's keep scratch and vice versa.
    std::mem::swap(&mut state.buffer, &mut keep);
    state.keep_scratch = keep;

    let mut ctx = RoundCtx::new(Round(round), me, n, &inbox);
    actor.on_round(&mut ctx);
    let outbox = ctx.take_outbox();
    for (dest, msg) in outbox {
        let cost = MessageCost::of(&msg);
        let msg = Arc::new(msg);
        for to in targets(dest, n) {
            if to == me {
                // Self-delivery: process memory, not a link — no policy,
                // no per-link stats, no word accounting.
                transport.send(me, round, &msg);
                continue;
            }
            let link = Link { from: me, to };
            let fate = policy.as_mut().map_or(LinkFate::Deliver, |p| p.fate(link, round));
            metrics.bill(link, sender_correct, round, &cost, fate);
            match fate {
                LinkFate::Deliver => transport.send(to, round, &msg),
                LinkFate::Drop => {}
                LinkFate::DelayRounds(k) => {
                    // A delay past the end of time is never released.
                    let release = round.saturating_add(k);
                    state.pending.entry(release).or_default().push((to, round, Arc::clone(&msg)));
                }
                // Lost, and the connection with it — where there is one.
                LinkFate::Sever => transport.sever(to),
            }
        }
    }
    // Return the inbox's allocation for the next round (its envelopes
    // were only borrowed by the actor through `RoundCtx`).
    inbox.clear();
    state.inbox_scratch = inbox;
    LiveRoundOutcome { done: actor.done(), late_admitted }
}

/// What one [`run_live_round`] execution observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveRoundOutcome {
    /// `actor.done()` after the step.
    pub done: bool,
    /// Remote deliveries admitted this round that had already missed
    /// their intended round (`sent_round + 1 < round`) — the local
    /// evidence of a δ-estimate outpacing the network that the engine's
    /// event-driven backends feed into timeout backoff
    /// (`RoundDriver::observe`).
    pub late_admitted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Actor;

    #[derive(Clone, Debug)]
    struct Tick;
    impl Message for Tick {
        fn words(&self) -> u64 {
            1
        }
    }

    /// Broadcasts once, in round 0.
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

    #[test]
    fn every_copy_of_one_outbox_entry_is_one_handle() {
        let n = 8;
        let me = ProcessId(0);
        let slow = ProcessId(3);
        let delay = move |l: Link, _round: u64| {
            if l.to == slow {
                LinkFate::DelayRounds(2)
            } else {
                LinkFate::Deliver
            }
        };
        let mut policy: Option<Box<dyn LinkPolicy>> = Some(Box::new(delay));
        let (mut actor, mut transport) = (Once(me), Recorder::default());
        let (mut state, mut metrics) = (RoundState::new(), Metrics::default());
        for round in 0..3 {
            transport.round = round;
            run_live_round(
                &mut actor,
                &mut transport,
                &mut state,
                &mut policy,
                round,
                n,
                true,
                &mut metrics,
            );
        }
        let sent = &transport.sent;
        let to: Vec<u32> = sent.iter().map(|(_, to, _)| to.0).collect();
        assert_eq!(to, [0, 1, 2, 4, 5, 6, 7, 3], "self first, the delayed copy last");
        assert_eq!(sent[7].0, 2, "released two rounds later");
        let first = &sent[0].2;
        assert!(sent.iter().all(|(_, _, msg)| Arc::ptr_eq(msg, first)), "one payload");
        assert_eq!(Arc::strong_count(first), n, "the recorder holds the only handles");
    }
}

//! The single per-process round driver: every backend executes protocol
//! rounds through this module, so inbox partitioning, word/byte/link
//! accounting, send-edge fault application, crash-restart fates, and
//! journal-replay rejoin exist in exactly one place.

use crate::fate::{ActorRebuilder, ResolvedFate};
use crate::transport::{Delivery, Transport};
use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate, LinkPolicy};
use meba_sim::metrics::{targets, MessageCost};
use meba_sim::{AnyActor, Envelope, Message, Metrics, Round, RoundCtx};
use std::collections::BTreeMap;

/// Per-process round-loop state that persists across rounds: deliveries
/// received early (for a later round) and fault-delayed outbound
/// messages keyed by their transmit round.
pub struct RoundState<M: Message> {
    buffer: Vec<Delivery<M>>,
    pending: BTreeMap<u64, Vec<(ProcessId, u64, M)>>,
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
            inbox_scratch: Vec::new(),
            keep_scratch: Vec::new(),
            senders_scratch: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.buffer.clear();
        self.pending.clear();
        self.inbox_scratch.clear();
        self.keep_scratch.clear();
    }

    /// How many distinct senders (including `me` itself) have already
    /// produced the information that makes `round` ready: deliveries
    /// buffered with `sent_round + 1 ≥ round`, i.e. traffic from the
    /// immediately preceding round or later. `me` always counts — a
    /// process trivially holds its own prior-round state, whether or not
    /// a self-delivery happens to sit in the buffer. This is the quorum
    /// test of the event-driven
    /// [`crate::RoundDriverConfig::QuorumOrTimeout`] driver — reaching
    /// [`crate::default_quorum`] here means the process holds everything
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
///    `sent_round < round` into this round's inbox, recording per-link
///    deliveries;
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
    let mut inbox = std::mem::take(&mut state.inbox_scratch);
    let mut keep = std::mem::take(&mut state.keep_scratch);
    inbox.clear();
    keep.clear();
    let mut late_admitted = 0u64;
    for d in state.buffer.drain(..) {
        if d.sent_round < round {
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
    std::mem::swap(&mut state.buffer, &mut keep);
    state.keep_scratch = keep;

    let mut ctx = RoundCtx::new(Round(round), me, n, &inbox);
    actor.on_round(&mut ctx);
    let outbox = ctx.take_outbox();
    for (dest, msg) in outbox {
        let cost = MessageCost::of(&msg);
        for to in targets(dest, n) {
            if to == me {
                // Self-delivery: process memory, not a link — no policy,
                // no per-link stats, no word accounting.
                transport.send(me, round, &msg);
                continue;
            }
            let link = Link { from: me, to };
            let fate = policy.as_mut().map_or(LinkFate::Deliver, |p| p.fate(link, round));
            metrics.bill(link, sender_correct, round, &cost, Some(fate));
            match fate {
                LinkFate::Deliver => transport.send(to, round, &msg),
                LinkFate::Drop => {}
                LinkFate::DelayRounds(k) => {
                    // A delay past the end of time is never released.
                    let release = round.saturating_add(k);
                    state.pending.entry(release).or_default().push((to, round, msg.clone()));
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
    /// evidence of a δ-estimate outpacing the network that the
    /// event-driven backends feed into timeout backoff
    /// ([`crate::RoundDriver::observe`]).
    pub late_admitted: u64,
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
    /// [`LiveRoundOutcome::late_admitted`] of the executed round (0
    /// while dead).
    pub late_admitted: u64,
}

/// One process as the engine drives it: the actor, its persistent round
/// state, its outbound link policy, and its resolved crash-restart fate.
/// Backends own the pacing and the stop decision; this type owns
/// everything that happens *inside* a round, including the fate
/// execution and journal-replay rejoin that PR 4 previously duplicated
/// per runtime.
pub struct EngineProcess<M: Message> {
    actor: Box<dyn AnyActor<Msg = M>>,
    n: usize,
    sender_correct: bool,
    fate: ResolvedFate,
    rebuilder: Option<ActorRebuilder<M>>,
    policy: Option<Box<dyn LinkPolicy>>,
    state: RoundState<M>,
    dead: bool,
    rejoin_round: Option<u64>,
}

impl<M: Message> EngineProcess<M> {
    /// Wraps one actor for engine driving. `fate` must already be
    /// resolved (see [`crate::resolve_fates`]) — the driver never
    /// consults the rebuilder's presence mid-run.
    pub fn new(
        actor: Box<dyn AnyActor<Msg = M>>,
        n: usize,
        sender_correct: bool,
        fate: ResolvedFate,
        rebuilder: Option<ActorRebuilder<M>>,
        policy: Option<Box<dyn LinkPolicy>>,
    ) -> Self {
        debug_assert!(
            !matches!(fate, ResolvedFate::Crash { rejoin_at: Some(_), .. }) || rebuilder.is_some(),
            "a fate resolved to rejoin requires a rebuilder"
        );
        EngineProcess {
            actor,
            n,
            sender_correct,
            fate,
            rebuilder,
            policy,
            state: RoundState::new(),
            dead: false,
            rejoin_round: None,
        }
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.actor.id()
    }

    /// Whether the process is currently crashed (dead rounds discard
    /// traffic and execute nothing).
    pub fn is_down(&self) -> bool {
        self.dead
    }

    /// [`RoundState::ready_senders`] for this process — 0 while crashed
    /// (a dead process holds no evidence and never advances early).
    pub fn ready_senders(&mut self, round: u64, transport: &mut dyn Transport<M>) -> usize {
        if self.dead {
            return 0;
        }
        self.state.ready_senders(self.actor.id(), round, transport)
    }

    /// The earliest round after `after` (the round that just ran) this
    /// process must execute if nothing is delivered to it before then —
    /// the minimum over every wake source that is not an arrival:
    ///
    /// * the actor's own [`meba_sim::Actor::next_wakeup`] hint;
    /// * the next round if the buffer kept early deliveries (they are
    ///   admitted there);
    /// * the first pending fault-delayed send's release round;
    /// * its crash round, which only fires when executed exactly;
    /// * while down, its rejoin round (the backend discards what
    ///   arrives for the dead rounds before it).
    ///
    /// `u64::MAX` when none applies. Rounds strictly between are no-ops
    /// for everything this type owns; see DESIGN.md §18.
    pub fn next_wakeup(&self, after: u64) -> u64 {
        let next = after + 1;
        if !self.state.buffer.is_empty() {
            return next;
        }
        let mut wake = self.actor.next_wakeup(Round(after)).as_u64();
        if let Some((&release, _)) = self.state.pending.range(next..).next() {
            wake = wake.min(release);
        }
        if let ResolvedFate::Crash { at_round, rejoin_at } = self.fate {
            if self.dead {
                wake = wake.min(rejoin_at.unwrap_or(u64::MAX));
            } else if at_round > after {
                wake = wake.min(at_round);
            }
        }
        wake.max(next)
    }

    /// Executes one engine round: fate handling (crash, dead-round
    /// discard, journal-replay rejoin) around [`run_live_round`].
    pub fn step<T: Transport<M>>(
        &mut self,
        round: u64,
        transport: &mut T,
        metrics: &mut Metrics,
    ) -> StepStatus {
        if let ResolvedFate::Crash { at_round, rejoin_at } = self.fate {
            if !self.dead && self.rejoin_round.is_none() && round == at_round {
                // Crash: in-memory state, buffered inbox, and pending
                // delayed sends are all lost; the transport tears down
                // whatever it physically holds (sockets sever).
                self.dead = true;
                transport.crash();
                self.state.clear();
                metrics.recovery.crash_restarts += 1;
            }
            if self.dead && rejoin_at.is_some_and(|rj| round >= rj) {
                // Restart: rebuild from the durable journal, then
                // fast-forward to the cluster's current round with empty
                // inboxes. Steps below the resume point are no-ops inside
                // the recovery wrapper; the missed live rounds degrade to
                // omissions, which the help machinery compensates for.
                let rebuild =
                    self.rebuilder.as_ref().expect("rejoin_at is only resolved with a rebuilder");
                let rb = rebuild(self.actor.id());
                self.actor = rb.actor;
                metrics.recovery.replayed_records += rb.replayed_records;
                metrics.recovery.journal_fsyncs += rb.journal_fsyncs;
                let empty: Vec<Envelope<M>> = Vec::new();
                for r in 0..round {
                    let mut ctx = RoundCtx::new(Round(r), self.actor.id(), self.n, &empty);
                    self.actor.on_round(&mut ctx);
                    drop(ctx.take_outbox());
                }
                self.actor.on_rejoin(Round(round));
                self.dead = false;
                self.rejoin_round = Some(round);
            }
        }
        if self.dead {
            // Down: discard all inbound traffic, send nothing. The
            // backend keeps pacing rounds so live peers advance.
            transport.drain(&mut self.state.buffer);
            self.state.buffer.clear();
            return StepStatus { executed: false, done: false, late_admitted: 0 };
        }

        let outcome = run_live_round(
            self.actor.as_mut(),
            transport,
            &mut self.state,
            &mut self.policy,
            round,
            self.n,
            self.sender_correct,
            metrics,
        );
        if outcome.done {
            // Recovery latency: rounds from rejoin until this process is
            // done.
            if let Some(rj) = self.rejoin_round.take() {
                metrics.recovery.recovery_rounds += round - rj;
            }
        }
        StepStatus { executed: true, done: outcome.done, late_admitted: outcome.late_admitted }
    }

    /// Ends the run for this process: harvests its equivocation-refusal
    /// counter into `metrics` and returns the actor for inspection.
    pub fn finish(self, metrics: &mut Metrics) -> Box<dyn AnyActor<Msg = M>> {
        metrics.recovery.refused_equivocations += self.actor.refused_equivocations();
        self.actor
    }
}

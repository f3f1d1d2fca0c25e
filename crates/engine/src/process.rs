//! The engine's per-process driver: crash-restart fates and
//! journal-replay rejoin around the round body every backend shares
//! ([`meba_sim::body::run_live_round`] — inbox partitioning, word/byte/
//! link accounting and send-edge fault application live there, once).

use crate::fate::{ActorRebuilder, ResolvedFate};
use meba_crypto::ProcessId;
use meba_sim::body::{run_live_round, RoundState, Transport};
use meba_sim::faults::LinkPolicy;
use meba_sim::{AnyActor, Envelope, Message, Metrics, Round, RoundCtx};

/// What one engine round did for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepStatus {
    /// Whether the actor actually ran this round (`false` while the
    /// process is crashed — dead rounds discard inbound traffic and
    /// nothing else).
    pub executed: bool,
    /// `actor.done()` after the round (`false` while dead).
    pub done: bool,
    /// [`LiveRoundOutcome::late_admitted`](meba_sim::body::LiveRoundOutcome::late_admitted)
    /// of the executed round (0 while dead).
    pub late_admitted: u64,
}

/// One process as the engine drives it: its persistent round state, its
/// outbound link policy, and its resolved fate. The actor itself stays
/// with the backend, which lends it to every call — so a run keeps its
/// actors in one slice, in process order, for post-run inspection.
/// Backends own the pacing and the stop decision; this type owns
/// everything that happens *inside* a round, including the fate
/// execution and journal-replay rejoin.
pub struct EngineProcess<M: Message> {
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
    /// Engine state for one process. `fate` must already be resolved
    /// (see [`crate::resolve_fates`]) — the driver never consults the
    /// rebuilder's presence mid-run. A `rushing` process admits the
    /// round being executed as well as earlier ones
    /// ([`RoundState::rushing`]).
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
            fate,
            rebuilder,
            policy,
            state: if rushing { RoundState::rushing() } else { RoundState::new() },
            dead: false,
            rejoin_round: None,
        }
    }

    /// Whether the process is currently crashed (dead rounds discard
    /// traffic and execute nothing).
    pub fn is_down(&self) -> bool {
        self.dead
    }

    /// [`RoundState::ready_senders`] for process `me` — 0 while crashed
    /// (a dead process holds no evidence and never advances early).
    pub fn ready_senders(
        &mut self,
        me: ProcessId,
        round: u64,
        transport: &mut dyn Transport<M>,
    ) -> usize {
        if self.dead {
            return 0;
        }
        self.state.ready_senders(me, round, transport)
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
        if self.state.has_buffered() {
            return next;
        }
        let mut wake = actor.next_wakeup(Round(after)).as_u64();
        if let Some(release) = self.state.next_release(next) {
            wake = wake.min(release);
        }
        let (at_round, rejoin_at) = self.down_at();
        if self.dead {
            wake = wake.min(rejoin_at.unwrap_or(u64::MAX));
        } else if let Some(at_round) = at_round.filter(|&r| r > after) {
            wake = wake.min(at_round);
        }
        wake.max(next)
    }

    /// The round the fate takes the process down in, and the round it
    /// rejoins in, where there is one.
    fn down_at(&self) -> (Option<u64>, Option<u64>) {
        match self.fate {
            ResolvedFate::Run => (None, None),
            ResolvedFate::Crash { at_round } => (Some(at_round), None),
            ResolvedFate::CrashRestart { at_round, rejoin_at } => (Some(at_round), rejoin_at),
        }
    }

    /// Executes one engine round of `actor`: fate handling (crash,
    /// dead-round discard, journal-replay rejoin, which replaces the
    /// actor) around [`run_live_round`].
    pub fn step<T: Transport<M>>(
        &mut self,
        actor: &mut Box<dyn AnyActor<Msg = M>>,
        round: u64,
        transport: &mut T,
        metrics: &mut Metrics,
    ) -> StepStatus {
        if let (Some(at_round), rejoin_at) = self.down_at() {
            if !self.dead && self.rejoin_round.is_none() && round == at_round {
                // Crash: in-memory state, buffered inbox, and pending
                // delayed sends are all lost; the transport tears down
                // whatever it physically holds (sockets sever).
                self.dead = true;
                transport.crash();
                self.state.clear();
                // A corrupt process's crash is its fault, already
                // counted, and so is a `Crash` victim's; the ledger
                // counts the restarts of correct ones.
                if self.sender_correct && self.fate.awaited() {
                    metrics.recovery.crash_restarts += 1;
                }
            }
            if self.dead && rejoin_at.is_some_and(|rj| round >= rj) {
                // Restart: rebuild from the durable journal, then
                // fast-forward to the cluster's current round with empty
                // inboxes. Steps below the resume point are no-ops inside
                // the recovery wrapper; the missed live rounds degrade to
                // omissions, which the help machinery compensates for.
                let rebuild =
                    self.rebuilder.as_ref().expect("rejoin_at is only resolved with a rebuilder");
                let rb = rebuild(actor.id());
                *actor = rb.actor;
                metrics.recovery.replayed_records += rb.replayed_records;
                metrics.recovery.journal_fsyncs += rb.journal_fsyncs;
                let empty: Vec<Envelope<M>> = Vec::new();
                for r in 0..round {
                    let mut ctx = RoundCtx::new(Round(r), actor.id(), self.n, &empty);
                    actor.on_round(&mut ctx);
                    drop(ctx.take_outbox());
                }
                actor.on_rejoin(Round(round));
                self.dead = false;
                self.rejoin_round = Some(round);
            }
        }
        if self.dead {
            // Down: discard all inbound traffic, send nothing. The
            // backend keeps pacing rounds so live peers advance.
            self.state.discard(transport);
            return StepStatus { executed: false, done: false, late_admitted: 0 };
        }

        let outcome = run_live_round(
            actor.as_mut(),
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
}

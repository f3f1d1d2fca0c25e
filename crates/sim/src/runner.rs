//! The lockstep simulation loop.
//!
//! One [`Simulation`] drives `n` actors through synchronous rounds:
//! messages sent in round `r` are delivered to correct processes in round
//! `r + 1` (`δ = 1` round). Every process executes its round through the
//! body all four backends share, [`run_live_round`], over an in-memory
//! transport of per-process lanes; what stays here is the clock — one
//! global round, correct processes stepped before corrupt ones — and the
//! network-level crash.
//!
//! Byzantine actors are the *rushing* adversary: scheduled after every
//! correct actor within a round, they admit correct processes' round-`r`
//! messages already in round `r`. That is an admission cut of their
//! [`RoundState`] ([`RoundState::rushing`]), not a second round body.
//!
//! Determinism: actors are stepped in identity order within each wave, and
//! nothing in the loop consults ambient randomness, so a run is a pure
//! function of the actors' initial states.

use crate::actor::Actor;
use crate::body::{run_live_round, Delivery, RoundState, Transport};
use crate::faults::LinkPolicy;
use crate::metrics::Metrics;
use crate::round::Round;
use meba_crypto::ProcessId;
use std::any::Any;
use std::error::Error;
use std::fmt;

/// Error returned when a run does not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The round budget was exhausted before every correct actor reported
    /// [`Actor::done`].
    ExceededMaxRounds {
        /// Budget that was exceeded.
        max_rounds: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ExceededMaxRounds { max_rounds } => {
                write!(f, "correct actors not done within {max_rounds} rounds")
            }
        }
    }
}

impl Error for RunError {}

/// A boxed actor with runtime downcasting support.
pub trait AnyActor: Actor {
    /// Upcasts to [`Any`] for post-run inspection.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Actor + Any> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Builder for a [`Simulation`].
pub struct SimBuilder<M: crate::actor::Message> {
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    corrupt: Vec<bool>,
    crash_at: Vec<Option<u64>>,
    link_policy: Option<Box<dyn LinkPolicy>>,
}

impl<M: crate::actor::Message> fmt::Debug for SimBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder").field("n", &self.actors.len()).finish_non_exhaustive()
    }
}

impl<M: crate::actor::Message> SimBuilder<M> {
    /// Starts a builder for a system of the given actors.
    ///
    /// Actors must be supplied in identity order `p0, p1, …` (validated by
    /// [`SimBuilder::build`]).
    pub fn new(actors: Vec<Box<dyn AnyActor<Msg = M>>>) -> Self {
        let n = actors.len();
        SimBuilder { actors, corrupt: vec![false; n], crash_at: vec![None; n], link_policy: None }
    }

    /// Marks `id` as Byzantine: its traffic is excluded from protocol
    /// complexity and it is scheduled, rushing, after every correct
    /// process.
    pub fn corrupt(mut self, id: ProcessId) -> Self {
        self.corrupt[id.index()] = true;
        self
    }

    /// Injects link faults: every non-self point-to-point delivery asks
    /// `policy` for its [`LinkFate`](crate::faults::LinkFate) — dropped
    /// and severed messages vanish (the simulator has no connections to
    /// tear down), delayed messages arrive `k` rounds past the synchrony
    /// bound. Off by default (reliable links). One instance judges every
    /// link; the stock policies decide per `(seed, link, round, nth
    /// message)`, so they hand out the same fates as the per-sender
    /// instances of the engine backends.
    ///
    /// Word accounting is unaffected: the paper counts words *sent* by
    /// correct processes, and a dropped message was still sent.
    pub fn link_policy(mut self, policy: Box<dyn LinkPolicy>) -> Self {
        self.link_policy = Some(policy);
        self
    }

    /// Crashes `id` at the start of `round`: the actor runs the honest
    /// protocol **with honest scheduling** until then, and is silenced by
    /// the network from `round` on — it neither sends nor drains, and
    /// fault-delayed copies it had not yet released die with it. This
    /// models the adaptive adversary corrupting a process mid-run by
    /// crashing it — unlike wrapping a Byzantine actor, the pre-crash
    /// behaviour is exactly a correct process's (it is not rushed).
    ///
    /// Words the process sends before its crash round count toward
    /// correct-process complexity (it *was* correct when it sent them);
    /// the process is excluded from termination detection.
    pub fn crash_at(mut self, id: ProcessId, round: u64) -> Self {
        self.crash_at[id.index()] = Some(round);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the actors' ids are not exactly `p0..p(n-1)` in order —
    /// that is a harness bug, not a runtime condition.
    pub fn build(self) -> Simulation<M> {
        let n = self.actors.len();
        assert!(n > 0, "simulation needs at least one actor");
        for (i, a) in self.actors.iter().enumerate() {
            assert_eq!(a.id().index(), i, "actor {i} has id {}", a.id());
        }
        let lanes = || (0..n).map(|_| Vec::new()).collect();
        Simulation {
            states: (self.corrupt.iter())
                .map(|&c| if c { RoundState::rushing() } else { RoundState::new() })
                .collect(),
            lanes: Lanes { current: lanes(), next: lanes(), rushed: lanes() },
            actors: self.actors,
            corrupt: self.corrupt,
            crash_at: self.crash_at,
            round: Round(0),
            metrics: Metrics::default(),
            link_policy: self.link_policy,
        }
    }
}

/// A deterministic lockstep simulation of `n` processes.
pub struct Simulation<M: crate::actor::Message> {
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    corrupt: Vec<bool>,
    crash_at: Vec<Option<u64>>,
    states: Vec<RoundState<M>>,
    lanes: Lanes<M>,
    round: Round,
    metrics: Metrics,
    link_policy: Option<Box<dyn LinkPolicy>>,
}

/// The lockstep network, one lane per process each: what the round being
/// executed admits (`current`), what was sent for the next one (`next`),
/// and correct processes' copies of this round to a corrupt process
/// (`rushed`), which it drains after its `current` lane.
struct Lanes<M> {
    current: Vec<Vec<Delivery<M>>>,
    next: Vec<Vec<Delivery<M>>>,
    rushed: Vec<Vec<Delivery<M>>>,
}

/// One process's handle on the [`Lanes`] during its turn in `round`.
struct LaneTransport<'a, M> {
    me: ProcessId,
    round: u64,
    corrupt: &'a [bool],
    lanes: &'a mut Lanes<M>,
}

impl<M: crate::actor::Message> Transport<M> for LaneTransport<'_, M> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &M) {
        // Corrupt processes run after every correct one, so a correct
        // process's copy of this round reaches a corrupt one in time.
        let rushed =
            sent_round == self.round && !self.corrupt[self.me.index()] && self.corrupt[to.index()];
        let lane = if rushed { &mut self.lanes.rushed } else { &mut self.lanes.next };
        lane[to.index()].push(Delivery { from: self.me, sent_round, msg: msg.clone() });
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        let me = self.me.index();
        out.append(&mut self.lanes.current[me]);
        out.append(&mut self.lanes.rushed[me]);
    }
}

impl<M: crate::actor::Message> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.actors.len())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<M: crate::actor::Message> Simulation<M> {
    /// System size.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// The round about to be executed.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether `id` was marked Byzantine.
    pub fn is_corrupt(&self, id: ProcessId) -> bool {
        self.corrupt[id.index()]
    }

    /// Immutable view of an actor, for post-run inspection.
    ///
    /// # Examples
    ///
    /// Downcast to the concrete protocol type:
    ///
    /// ```ignore
    /// let bb: &BbProcess<u64> = sim.actor(ProcessId(0)).as_any().downcast_ref().unwrap();
    /// ```
    pub fn actor(&self, id: ProcessId) -> &dyn AnyActor<Msg = M> {
        self.actors[id.index()].as_ref()
    }

    /// All actors in process order — the same shape as a cluster
    /// report's `actors`, so one read-back serves every backend.
    pub fn actors(&self) -> &[Box<dyn AnyActor<Msg = M>>] {
        &self.actors
    }

    /// Executes a single synchronous round: every process not yet
    /// crashed runs [`run_live_round`], correct ones first.
    pub fn step(&mut self) {
        let n = self.actors.len();
        let round = self.round.as_u64();
        // Last round's sends are this round's to admit; whatever a
        // silenced process left undrained is discarded.
        std::mem::swap(&mut self.lanes.current, &mut self.lanes.next);
        for lane in self.lanes.next.iter_mut().chain(&mut self.lanes.rushed) {
            lane.clear();
        }
        let correct = (0..n).filter(|&i| !self.corrupt[i]);
        for i in correct.chain((0..n).filter(|&i| self.corrupt[i])) {
            if self.crash_at[i].is_some_and(|r| round >= r) {
                continue; // network-level crash: silent from its crash round
            }
            let mut transport = LaneTransport {
                me: ProcessId(i as u32),
                round,
                corrupt: &self.corrupt,
                lanes: &mut self.lanes,
            };
            run_live_round(
                self.actors[i].as_mut(),
                &mut transport,
                &mut self.states[i],
                &mut self.link_policy,
                round,
                n,
                !self.corrupt[i],
                &mut self.metrics,
            );
        }
        self.round = self.round.next();
        self.metrics.rounds = self.round.as_u64();
    }

    /// Runs until every **correct** actor reports done, or the budget runs
    /// out.
    ///
    /// # Errors
    ///
    /// [`RunError::ExceededMaxRounds`] if correct actors are not all done
    /// within `max_rounds` — in a correct protocol under a valid adversary
    /// this indicates a termination bug.
    pub fn run_until_done(&mut self, max_rounds: u64) -> Result<(), RunError> {
        for _ in 0..max_rounds {
            if self.correct_done() {
                return Ok(());
            }
            self.step();
        }
        if self.correct_done() {
            Ok(())
        } else {
            Err(RunError::ExceededMaxRounds { max_rounds })
        }
    }

    /// Runs exactly `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Whether all correct actors report done (crash-scheduled actors are
    /// excluded: they count as faulty).
    pub fn correct_done(&self) -> bool {
        self.actors
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.corrupt[*i] && self.crash_at[*i].is_none())
            .all(|(_, a)| a.done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Message, RoundCtx};

    #[derive(Clone, Debug)]
    enum Ping {
        Hello(u64),
    }
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

    /// Broadcasts once in round 0, then records everything it hears.
    struct Chatter {
        id: ProcessId,
        heard: Vec<(ProcessId, u64)>,
        rounds_seen: u64,
    }

    impl Actor for Chatter {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            self.rounds_seen += 1;
            if ctx.round() == Round(0) {
                ctx.broadcast(Ping::Hello(self.id.0 as u64));
            }
            for e in ctx.inbox() {
                let Ping::Hello(v) = e.msg;
                self.heard.push((e.from, v));
            }
        }
        fn done(&self) -> bool {
            self.heard.len() >= 3
        }
    }

    fn chatters(n: usize) -> Vec<Box<dyn AnyActor<Msg = Ping>>> {
        (0..n)
            .map(|i| {
                Box::new(Chatter { id: ProcessId(i as u32), heard: vec![], rounds_seen: 0 })
                    as Box<dyn AnyActor<Msg = Ping>>
            })
            .collect()
    }

    #[test]
    fn broadcast_delivers_next_round_to_everyone() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.step();
        sim.step();
        for i in 0..3u32 {
            let c: &Chatter = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert_eq!(c.heard.len(), 3, "p{i} should hear all 3 broadcasts (incl. self)");
        }
    }

    #[test]
    fn words_exclude_self_delivery() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.step();
        // 3 broadcasts × 2 remote recipients × 2 words.
        assert_eq!(sim.metrics().correct.words, 12);
        assert_eq!(sim.metrics().correct.messages, 6);
        assert_eq!(sim.metrics().correct.constituent_sigs, 6);
        assert_eq!(sim.metrics().by_component["ping"].words, 12);
        let l01 = sim.metrics().link(ProcessId(0), ProcessId(1));
        assert_eq!((l01.sent, l01.bytes), (1, 0), "links are accounted without a policy");
        assert_eq!(sim.metrics().per_link.len(), 6, "no self-links");
    }

    #[test]
    fn corrupt_words_counted_separately() {
        let mut sim = SimBuilder::new(chatters(3)).corrupt(ProcessId(1)).build();
        sim.step();
        assert_eq!(sim.metrics().correct.words, 8); // 2 correct broadcasters × 2 × 2
        assert_eq!(sim.metrics().byzantine.words, 4);
    }

    #[test]
    fn run_until_done_stops_early() {
        let mut sim = SimBuilder::new(chatters(3)).build();
        sim.run_until_done(100).unwrap();
        assert_eq!(sim.round(), Round(2));
    }

    #[test]
    fn run_until_done_errors_on_stall() {
        // One actor can never hear 3 messages in a 1-process system.
        let mut sim = SimBuilder::new(chatters(1)).build();
        let err = sim.run_until_done(5).unwrap_err();
        assert_eq!(err, RunError::ExceededMaxRounds { max_rounds: 5 });
    }

    /// A Byzantine echoer that, under rushing, can echo a correct
    /// process's round-r message already in round r.
    struct RushEcho {
        id: ProcessId,
        echoed_at: Option<u64>,
    }
    impl Actor for RushEcho {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            if self.echoed_at.is_none() && !ctx.inbox().is_empty() {
                self.echoed_at = Some(ctx.round().as_u64());
            }
        }
    }

    #[test]
    fn rushing_delivers_in_round() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Chatter { id: ProcessId(0), heard: vec![], rounds_seen: 0 }),
            Box::new(RushEcho { id: ProcessId(1), echoed_at: None }),
        ];
        let mut sim = SimBuilder::new(actors).corrupt(ProcessId(1)).build();
        sim.step();
        let e: &RushEcho = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(e.echoed_at, Some(0), "rushing adversary sees round-0 traffic in round 0");
    }

    #[test]
    fn rushed_messages_not_redelivered() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Chatter { id: ProcessId(0), heard: vec![], rounds_seen: 0 }),
            Box::new(Chatter { id: ProcessId(1), heard: vec![], rounds_seen: 0 }),
        ];
        let mut sim = SimBuilder::new(actors).corrupt(ProcessId(1)).build();
        sim.step();
        sim.step();
        sim.step();
        let byz: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        // p1 hears p0's broadcast once (rushed, round 0) and its own once
        // (self-delivery, round 1) — no duplicates.
        assert_eq!(byz.heard.len(), 2);
    }

    #[test]
    fn a_released_copy_lands_in_send_order() {
        use crate::faults::{Link, LinkFate};
        // p0 → p2 is delayed one round: sent in r0, released by p0 at the
        // start of its r1 turn — after nothing, before p1's r1 send.
        let policy = |l: Link, r: u64| {
            if l.from == ProcessId(0) && r == 0 {
                LinkFate::DelayRounds(1)
            } else {
                LinkFate::Deliver
            }
        };
        struct Every {
            id: ProcessId,
            heard: Vec<(u64, ProcessId)>,
        }
        impl Actor for Every {
            type Msg = Ping;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
                if ctx.round() < Round(2) && self.id != ProcessId(2) {
                    ctx.send(ProcessId(2), Ping::Hello(ctx.round().as_u64()));
                }
                let r = ctx.round().as_u64();
                self.heard.extend(ctx.inbox().iter().map(|e| (r, e.from)));
            }
        }
        let actors = (0..3)
            .map(|i| {
                Box::new(Every { id: ProcessId(i), heard: vec![] }) as Box<dyn AnyActor<Msg = Ping>>
            })
            .collect();
        let mut sim = SimBuilder::new(actors).link_policy(Box::new(policy)).build();
        sim.run_rounds(3);
        let p2: &Every = sim.actor(ProcessId(2)).as_any().downcast_ref().unwrap();
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        assert_eq!(p2.heard, [(1, p1), (2, p0), (2, p0), (2, p1)]);
    }

    #[test]
    #[should_panic(expected = "actor 0 has id")]
    fn build_validates_ids() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> =
            vec![Box::new(RushEcho { id: ProcessId(5), echoed_at: None })];
        let _ = SimBuilder::new(actors).build();
    }

    #[test]
    fn link_policy_drops_are_counted_and_not_delivered() {
        use crate::faults::{Link, LinkFate};
        // Mute p1's outbound links; everything else is reliable.
        let policy = |l: Link, _r: u64| {
            if l.from == ProcessId(1) {
                LinkFate::Drop
            } else {
                LinkFate::Deliver
            }
        };
        let mut sim = SimBuilder::new(chatters(3)).link_policy(Box::new(policy)).build();
        sim.step();
        sim.step();
        for i in [0u32, 2] {
            let c: &Chatter = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            // Hears itself and the other unmuted chatter, not p1.
            assert_eq!(c.heard.len(), 2, "p{i} must not hear muted p1");
        }
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 3, "inbound links to p1 are intact");
        let m = sim.metrics();
        assert_eq!(m.link(ProcessId(1), ProcessId(0)).dropped, 1);
        assert_eq!(m.link(ProcessId(1), ProcessId(0)).delivered, 0);
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).delivered, 1);
        // Words still count the sends: drops do not reduce the paper's
        // sent-word complexity.
        assert_eq!(m.correct.words, 12);
    }

    #[test]
    fn delivered_is_billed_where_a_round_consumes_the_inbox() {
        // No policy installed: links are accounted all the same.
        let mut sim = SimBuilder::new(chatters(3)).crash_at(ProcessId(2), 1).build();
        sim.step();
        let m = sim.metrics();
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).sent, 1);
        assert_eq!(m.per_link.values().map(|l| l.delivered).sum::<u64>(), 0, "sent, not drained");
        sim.step();
        let m = sim.metrics();
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).delivered, 1);
        assert_eq!(m.link(ProcessId(2), ProcessId(0)).delivered, 1);
        // p2 is silenced from round 1 on: it drains nothing.
        assert_eq!(m.link(ProcessId(0), ProcessId(2)).delivered, 0);
    }

    #[test]
    fn link_policy_delay_arrives_late() {
        use crate::faults::{Link, LinkFate};
        let policy = |l: Link, _r: u64| {
            if l.from == ProcessId(0) && l.to == ProcessId(1) {
                LinkFate::DelayRounds(2)
            } else {
                LinkFate::Deliver
            }
        };
        let mut sim = SimBuilder::new(chatters(2)).link_policy(Box::new(policy)).build();
        sim.run_rounds(2);
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 1, "only self-delivery after 2 rounds");
        sim.run_rounds(2); // delayed message sent in r0 surfaces in r3
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 2);
        assert_eq!(sim.metrics().link(ProcessId(0), ProcessId(1)).delayed, 1);
        assert_eq!(sim.metrics().link(ProcessId(0), ProcessId(1)).delivered, 1);
    }

    #[test]
    fn link_policy_sever_is_a_counted_drop() {
        use crate::faults::{Link, SeverAt};
        let link = Link { from: ProcessId(0), to: ProcessId(1) };
        let mut sim =
            SimBuilder::new(chatters(2)).link_policy(Box::new(SeverAt::new(link, 0))).build();
        sim.run_rounds(2);
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 1, "the severed message never arrives");
        let stats = sim.metrics().link(link.from, link.to);
        assert_eq!((stats.sent, stats.dropped, stats.delivered), (1, 1, 0));
    }

    #[test]
    fn link_policy_delay_saturates_instead_of_overflowing() {
        use crate::faults::{Link, LinkFate};
        let policy = |_l: Link, _r: u64| LinkFate::DelayRounds(u64::MAX);
        let mut sim = SimBuilder::new(chatters(2)).link_policy(Box::new(policy)).build();
        sim.run_rounds(3);
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 1, "a delay past the end of the run is a drop");
        let stats = sim.metrics().link(ProcessId(0), ProcessId(1));
        assert_eq!((stats.delayed, stats.delivered), (1, 0), "billed as delayed");
    }

    #[test]
    fn seeded_policy_runs_reproduce_exactly() {
        let run = || {
            let mut sim = SimBuilder::new(chatters(3))
                .link_policy(Box::new(crate::faults::BernoulliDrop::new(99, 0.5)))
                .build();
            sim.run_rounds(3);
            (sim.metrics().per_link.clone(), sim.metrics().correct.words)
        };
        assert_eq!(run(), run());
    }
}

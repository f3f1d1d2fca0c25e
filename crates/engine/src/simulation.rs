//! The lockstep simulation: a discrete-event run under the lockstep
//! driver, stepped one round at a time.
//!
//! One [`Simulation`] drives `n` actors through synchronous rounds:
//! messages sent in round `r` are delivered to correct processes in round
//! `r + 1` (`δ = 1` round). It is a thin façade over the event loop of
//! [`run_des_cluster`](crate::run_des_cluster) — one virtual clock for
//! both — with aligned clocks, reliable links unless a policy is
//! installed, and no round budget: [`Simulation::step`] runs every event
//! before the next round's deadline. Correct processes run before corrupt
//! ones at each deadline.
//!
//! Byzantine actors are the *rushing* adversary, as they are on every
//! lockstep discrete-event run: a correct process's round-`r` copy to a
//! corrupt process lands at its send instant, and the corrupt process
//! admits it already in round `r` (a rushing [`EngineProcess`]'s
//! admission cut).
//!
//! Determinism: nothing in the loop consults ambient randomness, so a run
//! is a pure function of the actors' initial states.
//!
//! [`EngineProcess`]: crate::EngineProcess

use crate::des::{DesConfig, DesRun};
use crate::fate::ProcessFateFactory;
use crate::LinkPolicyFactory;
use meba_crypto::ProcessId;
use meba_sim::{AnyActor, Message, Metrics, Round};
use std::error::Error;
use std::fmt;

/// Error returned when a run does not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The round budget was exhausted before every correct actor reported
    /// [`meba_sim::Actor::done`].
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

/// Builder for a [`Simulation`].
pub struct SimBuilder<M: Message> {
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    corrupt: Vec<ProcessId>,
    process_fate: Option<ProcessFateFactory>,
    link_policy: Option<LinkPolicyFactory>,
}

impl<M: Message> fmt::Debug for SimBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder").field("n", &self.actors.len()).finish_non_exhaustive()
    }
}

impl<M: Message> SimBuilder<M> {
    /// Starts a builder for a system of the given actors.
    ///
    /// Actors must be supplied in identity order `p0, p1, …` (validated by
    /// [`SimBuilder::build`]).
    pub fn new(actors: Vec<Box<dyn AnyActor<Msg = M>>>) -> Self {
        SimBuilder { actors, corrupt: Vec::new(), process_fate: None, link_policy: None }
    }

    /// Marks `id` as Byzantine: its traffic is excluded from protocol
    /// complexity and it is scheduled, rushing, after every correct
    /// process.
    pub fn corrupt(mut self, id: ProcessId) -> Self {
        self.corrupt.push(id);
        self
    }

    /// Injects link faults: `policy` is invoked once per sender, as on
    /// every other backend, and every non-self point-to-point delivery
    /// asks that sender's instance for its
    /// [`LinkFate`](meba_sim::faults::LinkFate) — dropped and severed
    /// messages vanish (the simulation has no connections to tear down),
    /// delayed messages arrive `k` rounds past the synchrony bound. Off by
    /// default (reliable links).
    ///
    /// Word accounting is unaffected: the paper counts words *sent*, and
    /// a dropped message was still sent.
    pub fn link_policy(mut self, policy: LinkPolicyFactory) -> Self {
        self.link_policy = Some(policy);
        self
    }

    /// Injects process faults: `fate` is invoked once per process, as on
    /// every other backend ([`crate::resolve_fates`]). A
    /// [`Crash`](crate::ProcessFate::Crash) victim runs the honest
    /// protocol **with honest scheduling** until its crash round, and from
    /// then on it neither sends nor drains, and fault-delayed copies it
    /// had not yet released die with it. This models the adaptive
    /// adversary corrupting a process mid-run by crashing it — unlike
    /// wrapping a Byzantine actor, the pre-crash behaviour is exactly a
    /// correct process's (it is not rushed). Words it sends before its
    /// crash round count toward correct-process complexity (it *was*
    /// correct when it sent them); the process is excluded from
    /// termination detection. The simulation has no rebuilder, so a
    /// [`CrashRestart`](crate::ProcessFate::CrashRestart) is a permanent
    /// crash that is still awaited. Off by default (every process runs).
    pub fn process_fate(mut self, fate: ProcessFateFactory) -> Self {
        self.process_fate = Some(fate);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if there are no actors or their ids are not exactly
    /// `p0..p(n-1)` in order — that is a harness bug, not a runtime
    /// condition.
    pub fn build(self) -> Simulation<M> {
        let config = DesConfig {
            max_rounds: u64::MAX,
            corrupt: self.corrupt,
            link_policy: self.link_policy,
            process_fate: self.process_fate,
            ..DesConfig::default()
        };
        let run = DesRun::new(self.actors, None, config).expect("the lockstep defaults are valid");
        Simulation { run, round: Round(0) }
    }
}

/// A deterministic lockstep simulation of `n` processes.
pub struct Simulation<M: Message> {
    run: DesRun<M>,
    round: Round,
}

impl<M: Message> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.n())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<M: Message> Simulation<M> {
    /// System size.
    pub fn n(&self) -> usize {
        self.run.actors.len()
    }

    /// The round about to be executed.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.run.metrics
    }

    /// Whether `id` was marked Byzantine.
    pub fn is_corrupt(&self, id: ProcessId) -> bool {
        self.run.corrupt[id.index()]
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
        self.run.actors[id.index()].as_ref()
    }

    /// All actors in process order — the same shape as a cluster
    /// report's `actors`, so one read-back serves every backend.
    pub fn actors(&self) -> &[Box<dyn AnyActor<Msg = M>>] {
        &self.run.actors
    }

    /// Executes a single synchronous round: every event before the next
    /// round's deadline runs — this round's deadlines, correct processes
    /// first — and what they sent lands before it.
    pub fn step(&mut self) {
        self.round = self.round.next();
        let until = u128::from(self.round.as_u64()) * u128::from(self.run.delta_ns());
        self.run.run_until(until, false);
        self.run.metrics.rounds = self.round.as_u64();
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
        self.run.all_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessFate;
    use meba_sim::faults::LinkPolicy;
    use meba_sim::{Actor, Message, RoundCtx};
    use std::sync::Arc;

    /// A factory handing every sender its own copy of `policy`.
    fn each(policy: impl LinkPolicy + Clone + Sync + 'static) -> LinkPolicyFactory {
        Arc::new(move |_| Box::new(policy.clone()))
    }

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
                let Ping::Hello(v) = *e.msg;
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
        let mut sim = SimBuilder::new(actors).link_policy(each(policy)).build();
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
        use meba_sim::faults::{Link, LinkFate};
        // Mute p1's outbound links; everything else is reliable.
        let policy = |l: Link, _r: u64| {
            if l.from == ProcessId(1) {
                LinkFate::Drop
            } else {
                LinkFate::Deliver
            }
        };
        let mut sim = SimBuilder::new(chatters(3)).link_policy(each(policy)).build();
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
        let crash: ProcessFateFactory = Arc::new(|p| match p {
            ProcessId(2) => ProcessFate::Crash { at_round: 1 },
            _ => ProcessFate::Run,
        });
        let mut sim = SimBuilder::new(chatters(3)).process_fate(crash).build();
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
        use meba_sim::faults::{Link, LinkFate};
        let policy = |l: Link, _r: u64| {
            if l.from == ProcessId(0) && l.to == ProcessId(1) {
                LinkFate::DelayRounds(2)
            } else {
                LinkFate::Deliver
            }
        };
        let mut sim = SimBuilder::new(chatters(2)).link_policy(each(policy)).build();
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
        use meba_sim::faults::{Link, SeverAt};
        let link = Link { from: ProcessId(0), to: ProcessId(1) };
        let mut sim = SimBuilder::new(chatters(2)).link_policy(each(SeverAt::new(link, 0))).build();
        sim.run_rounds(2);
        let p1: &Chatter = sim.actor(ProcessId(1)).as_any().downcast_ref().unwrap();
        assert_eq!(p1.heard.len(), 1, "the severed message never arrives");
        let stats = sim.metrics().link(link.from, link.to);
        assert_eq!((stats.sent, stats.dropped, stats.delivered), (1, 1, 0));
    }

    #[test]
    fn link_policy_delay_saturates_instead_of_overflowing() {
        use meba_sim::faults::{Link, LinkFate};
        let policy = |_l: Link, _r: u64| LinkFate::DelayRounds(u64::MAX);
        let mut sim = SimBuilder::new(chatters(2)).link_policy(each(policy)).build();
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
                .link_policy(each(meba_sim::faults::BernoulliDrop::new(99, 0.5)))
                .build();
            sim.run_rounds(3);
            (sim.metrics().per_link.clone(), sim.metrics().correct.words)
        };
        assert_eq!(run(), run());
    }
}

//! Lossy-link process wrapper: a correct state machine behind faulty
//! outbound links.
//!
//! [`LossyLinkActor`] runs its inner actor honestly each round, then
//! filters the outbox through a [`LinkPolicy`] (the same trait the
//! threaded cluster injects at the transport layer, see
//! `meba_engine::ClusterConfig::link_policy`): per-target messages may be
//! dropped or delayed by whole rounds (a `Sever` is a drop — the wrapper
//! holds no connection to tear down). This models the adversary's power
//! over the *network* of one process — a process that computes correctly
//! but whose words may not arrive — inside the lockstep simulator, where
//! it composes with rushing and the other Byzantine wrappers.
//!
//! Unlike the cluster's transport-layer injection (which counts dropped
//! messages as sent words), a drop here suppresses the send itself: the
//! wrapper models a sender-side fault, so the words are never spent.

use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate, LinkPolicy};
use meba_sim::metrics::targets;
use meba_sim::{Actor, RoundCtx};
use std::collections::BTreeMap;

/// Wraps a correct actor with a [`LinkPolicy`] on its outbound links.
///
/// # Examples
///
/// ```ignore
/// let lossy = LossyLinkActor::new(correct_actor, Box::new(BernoulliDrop::new(7, 0.5)));
/// ```
pub struct LossyLinkActor<A: Actor> {
    inner: A,
    policy: Box<dyn LinkPolicy>,
    /// Delayed messages keyed by the round in which they are re-sent; a
    /// message delayed by `k` at round `r` is sent in round `r + k` and
    /// therefore delivered in round `r + k + 1`.
    pending: BTreeMap<u64, Vec<(ProcessId, A::Msg)>>,
    /// Messages dropped so far (for post-run assertions).
    dropped: u64,
    /// Messages delayed so far.
    delayed: u64,
}

impl<A: Actor> LossyLinkActor<A> {
    /// Wraps `inner`; `policy` governs every outbound link.
    pub fn new(inner: A, policy: Box<dyn LinkPolicy>) -> Self {
        LossyLinkActor { inner, policy, pending: BTreeMap::new(), dropped: 0, delayed: 0 }
    }

    /// The wrapped actor, for post-run inspection.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Messages the policy dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages the policy delayed.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }
}

impl<A: Actor> Actor for LossyLinkActor<A> {
    type Msg = A::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, A::Msg>) {
        let round = ctx.round().as_u64();
        let me = ctx.me();
        let n = ctx.n();

        // Re-send messages whose delay elapsed this round.
        if let Some(due) = self.pending.remove(&round) {
            for (target, msg) in due {
                ctx.send(target, msg);
            }
        }

        // Run the honest logic against a shadow context, then filter its
        // outbox per target link.
        let inbox: Vec<_> = ctx.inbox().to_vec();
        let mut shadow = RoundCtx::new(ctx.round(), me, n, &inbox);
        self.inner.on_round(&mut shadow);
        for (dest, msg) in shadow.take_outbox() {
            for target in targets(dest, n) {
                if target == me {
                    // Self-delivery is process memory; never faulted.
                    ctx.send(target, msg.clone());
                    continue;
                }
                match self.policy.fate(Link { from: me, to: target }, round) {
                    LinkFate::Deliver => ctx.send(target, msg.clone()),
                    LinkFate::Drop | LinkFate::Sever => self.dropped += 1,
                    LinkFate::DelayRounds(k) => {
                        self.delayed += 1;
                        // A delay past the end of time is never re-sent.
                        let due = round.saturating_add(k);
                        self.pending.entry(due).or_default().push((target, msg.clone()));
                    }
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_engine::SimBuilder;
    use meba_sim::faults::BernoulliDrop;
    use meba_sim::{AnyActor, Dest, Message, Round};

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {
        fn words(&self) -> u64 {
            1
        }
    }

    struct Talker {
        id: ProcessId,
        heard: usize,
    }
    impl Actor for Talker {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            if ctx.round() == Round(0) {
                ctx.broadcast(Ping);
            }
            self.heard += ctx.inbox().len();
        }
        fn done(&self) -> bool {
            self.heard >= 2
        }
    }

    #[test]
    fn drop_everything_silences_outbound_but_keeps_inner_running() {
        let inner = Talker { id: ProcessId(0), heard: 0 };
        let mut lossy = LossyLinkActor::new(inner, Box::new(BernoulliDrop::new(0, 1.0)));
        let inbox = vec![];
        let mut ctx = RoundCtx::new(Round(0), ProcessId(0), 3, &inbox);
        lossy.on_round(&mut ctx);
        let out = ctx.take_outbox();
        // Only the self-delivery survives (broadcast expands to 3 sends).
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].0, Dest::To(ProcessId(0))));
        assert_eq!(lossy.dropped(), 2);
    }

    #[test]
    fn delays_resend_in_a_later_round() {
        let inner = Talker { id: ProcessId(0), heard: 0 };
        let policy = |l: Link, _r: u64| {
            if l.to == ProcessId(1) {
                LinkFate::DelayRounds(2)
            } else {
                LinkFate::Deliver
            }
        };
        let mut lossy = LossyLinkActor::new(inner, Box::new(policy));
        let inbox = vec![];
        let mut ctx = RoundCtx::new(Round(0), ProcessId(0), 3, &inbox);
        lossy.on_round(&mut ctx);
        let out = ctx.take_outbox();
        // p1's copy held back; self + p2 go out now.
        assert_eq!(out.len(), 2);
        assert_eq!(lossy.delayed(), 1);

        let mut ctx = RoundCtx::new(Round(1), ProcessId(0), 3, &inbox);
        lossy.on_round(&mut ctx);
        assert!(ctx.take_outbox().is_empty(), "not due yet");

        let mut ctx = RoundCtx::new(Round(2), ProcessId(0), 3, &inbox);
        lossy.on_round(&mut ctx);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 1, "delayed copy released");
        assert!(matches!(out[0].0, Dest::To(ProcessId(1))));
    }

    #[test]
    fn sever_is_a_drop_and_a_huge_delay_saturates() {
        /// Broadcasts every round, so a send happens at a round where
        /// `round + u64::MAX` would overflow.
        struct Beacon(ProcessId);
        impl Actor for Beacon {
            type Msg = Ping;
            fn id(&self) -> ProcessId {
                self.0
            }
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
                ctx.broadcast(Ping);
            }
            fn done(&self) -> bool {
                false
            }
        }
        let policy = |l: Link, _r: u64| {
            if l.to == ProcessId(1) {
                LinkFate::Sever
            } else {
                LinkFate::DelayRounds(u64::MAX)
            }
        };
        let mut lossy = LossyLinkActor::new(Beacon(ProcessId(0)), Box::new(policy));
        let inbox = vec![];
        for round in 0..3 {
            let mut ctx = RoundCtx::new(Round(round), ProcessId(0), 3, &inbox);
            lossy.on_round(&mut ctx);
            assert_eq!(ctx.take_outbox().len(), 1, "only the self-delivery goes out");
        }
        // p1's copies severed (no connection here: dropped), p2's delayed
        // past the end of time: never re-sent, still billed as delayed.
        assert_eq!((lossy.dropped(), lossy.delayed()), (3, 3));
    }

    #[test]
    fn lossy_process_in_a_simulation() {
        // p0 behind fully lossy links: p1/p2 never hear it, p0 still
        // terminates (done() delegates to the inner actor).
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(LossyLinkActor::new(
                Talker { id: ProcessId(0), heard: 0 },
                Box::new(BernoulliDrop::new(0, 1.0)),
            )),
            Box::new(Talker { id: ProcessId(1), heard: 0 }),
            Box::new(Talker { id: ProcessId(2), heard: 0 }),
        ];
        let mut sim = SimBuilder::new(actors).build();
        sim.run_rounds(3);
        for i in [1u32, 2] {
            let t: &Talker = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert_eq!(t.heard, 2, "p{i} hears itself and the other talker only");
        }
        let lossy: &LossyLinkActor<Talker> =
            sim.actor(ProcessId(0)).as_any().downcast_ref().unwrap();
        assert_eq!(lossy.dropped(), 2);
        assert_eq!(lossy.inner().heard, 3, "inbound links to p0 are intact");
    }
}

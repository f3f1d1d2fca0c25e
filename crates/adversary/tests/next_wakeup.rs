//! Sparse-time hints and the adversary corpus. A runtime that honours
//! [`Actor::next_wakeup`] (the discrete-event backend) stops ticking an
//! actor that says it has nothing to do, so a Byzantine strategy must
//! never say so by accident: only the wrapper whose silence is
//! structural forwards a hint, and everything else in this crate keeps
//! the default `after + 1` — even around an inner actor that would have
//! slept forever.

use meba_adversary::{
    AmnesiacActor, ChaosActor, CrashActor, DsEquivocatingSender, EquivocatingSender,
    EquivocatingStrongLeader, GaSplitEchoer, LateHelperLeader, LossyLinkActor, LyingDonor,
    MuxHelpRequester, SessionReplayer, SplitVoteLeader, WastefulBbLeader, WastefulWeakLeader,
};
use meba_core::fallback::EchoMsg;
use meba_core::SystemConfig;
use meba_crypto::{trusted_setup, ProcessId};
use meba_fallback::instance::{InstanceId, Scope};
use meba_fallback::messages::RecBaMsg;
use meba_service::ReplicaMsg;
use meba_sim::faults::ReliableLinks;
use meba_sim::{Actor, IdleActor, Round, RoundCtx, SessionId};

type Fm = EchoMsg<u64>;

/// An honest actor with the default hint.
struct Ticker(ProcessId);

impl Actor for Ticker {
    type Msg = Fm;
    fn id(&self) -> ProcessId {
        self.0
    }
    fn on_round(&mut self, _ctx: &mut RoundCtx<'_, Fm>) {}
}

/// The default hint at a few rounds, early and late.
fn assert_ticks_every_round<A: Actor>(actor: &A, name: &str) {
    for after in [0u64, 1, 7, 1_000] {
        assert_eq!(
            actor.next_wakeup(Round(after)),
            Round(after + 1),
            "{name} must keep the default hint (asked after round {after})"
        );
    }
}

#[test]
fn crash_actor_forwards_the_inner_hint_until_the_crash() {
    let me = ProcessId(1);
    let crash = CrashActor::new(IdleActor::<Fm>::new(me), Round(5));
    assert_eq!(crash.next_wakeup(Round(2)), Round(5), "inner hint, capped at the crash round");
    assert_eq!(crash.next_wakeup(Round(5)), Round::NEVER, "nothing after the crash");
    assert_eq!(crash.next_wakeup(Round(9)), Round::NEVER);
    let crash = CrashActor::new(Ticker(me), Round(5));
    assert_eq!(crash.next_wakeup(Round(2)), Round(3), "an inner actor that ticks keeps ticking");
    assert_eq!(crash.next_wakeup(Round(4)), Round(5));
}

#[test]
fn every_other_adversary_keeps_the_default_hint() {
    let n = 5;
    let cfg = SystemConfig::new(n, 1).unwrap();
    let (pki, keys) = trusted_setup(n, 1);
    let me = ProcessId(1);
    let key = || keys[1].clone();
    let (left, right) = (vec![ProcessId(0), ProcessId(2)], vec![ProcessId(3), ProcessId(4)]);
    // An inner actor that would sleep forever: a wrapper that forwarded
    // its hint would be caught answering `Round::NEVER`.
    let sleeper = move || IdleActor::<Fm>::new(me);
    assert_eq!(sleeper().next_wakeup(Round(3)), Round::NEVER);

    assert_ticks_every_round(&AmnesiacActor::new(sleeper(), Round(3), sleeper), "AmnesiacActor");
    assert_ticks_every_round(
        &LossyLinkActor::new(sleeper(), Box::new(ReliableLinks)),
        "LossyLinkActor",
    );
    assert_ticks_every_round(&ChaosActor::<Fm>::new(me, 7, 4), "ChaosActor");
    assert_ticks_every_round(
        &WastefulWeakLeader::<u64, Fm>::new(cfg, me, 1, 9),
        "WastefulWeakLeader",
    );
    assert_ticks_every_round(&WastefulBbLeader::<u64, Fm>::new(cfg, me, 1), "WastefulBbLeader");
    assert_ticks_every_round(
        &EquivocatingStrongLeader::<Fm>::new(
            cfg,
            ProcessId(0),
            pki.clone(),
            vec![keys[0].clone()],
            left.clone(),
            right.clone(),
        ),
        "EquivocatingStrongLeader",
    );
    assert_ticks_every_round(
        &LyingDonor::<Fm>::new(Box::new(IdleActor::<ReplicaMsg<Fm>>::new(me)), n, 4),
        "LyingDonor",
    );
    assert_ticks_every_round(
        &SessionReplayer::<Fm>::new(me, SessionId(0), SessionId(1), 2),
        "SessionReplayer",
    );
    assert_ticks_every_round(
        &MuxHelpRequester::<u64, Fm>::new(me, key(), SessionId(0), 0, 3),
        "MuxHelpRequester",
    );
    assert_ticks_every_round(
        &EquivocatingSender::<u64, Fm>::new(cfg, key(), 1, 2, left.clone(), right.clone()),
        "EquivocatingSender",
    );
    assert_ticks_every_round(
        &DsEquivocatingSender::new(cfg, key(), pki.clone(), 1u64, 2, left.clone(), right.clone()),
        "DsEquivocatingSender",
    );
    assert_ticks_every_round(
        &GaSplitEchoer::<u64, RecBaMsg<u64>>::new(
            cfg,
            me,
            pki.clone(),
            vec![key()],
            InstanceId::new(Scope::full(n), 0),
            1,
            2,
            left.clone(),
            right.clone(),
        ),
        "GaSplitEchoer",
    );
    assert_ticks_every_round(
        &SplitVoteLeader::<u64, Fm>::new(cfg, me, pki.clone(), vec![key()], 1, 1, 2, left, right),
        "SplitVoteLeader",
    );
    assert_ticks_every_round(
        &LateHelperLeader::<u64, Fm>::new(cfg, me, pki, vec![key()], 1, 9, ProcessId(3)),
        "LateHelperLeader",
    );
}

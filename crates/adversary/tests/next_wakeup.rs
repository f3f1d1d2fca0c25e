//! Sparse-time hints and the adversary corpus. A runtime that honours
//! [`Actor::next_wakeup`] (the discrete-event backend) stops ticking an
//! actor that says it has nothing to do, so a Byzantine strategy must
//! never say so by accident: everything in this crate keeps the default
//! `after + 1` — even around an inner actor that would have slept
//! forever. (A crash is an engine fate, whose silence the engine hints
//! itself.)

use meba_adversary::{
    ChaosActor, DsEquivocatingSender, EquivocatingSender, EquivocatingStrongLeader, GaSplitEchoer,
    LateHelperLeader, LyingDonor, MuxHelpRequester, SessionReplayer, SplitVoteLeader,
    WastefulBbLeader, WastefulWeakLeader,
};
use meba_core::fallback::EchoMsg;
use meba_core::SystemConfig;
use meba_crypto::{trusted_setup, ProcessId};
use meba_fallback::instance::{InstanceId, Scope};
use meba_fallback::messages::RecBaMsg;
use meba_service::ReplicaMsg;
use meba_sim::{Actor, IdleActor, Round, SessionId};

type Fm = EchoMsg<u64>;

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
fn every_adversary_keeps_the_default_hint() {
    let n = 5;
    let cfg = SystemConfig::new(n, 1).unwrap();
    let (pki, keys) = trusted_setup(n, 1);
    let me = ProcessId(1);
    let key = || keys[1].clone();
    let (left, right) = (vec![ProcessId(0), ProcessId(2)], vec![ProcessId(3), ProcessId(4)]);
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
    // An inner actor that would sleep forever: a wrapper that forwarded
    // its hint would be caught answering `Round::NEVER`.
    let sleeper = IdleActor::<ReplicaMsg<Fm>>::new(me);
    assert_eq!(sleeper.next_wakeup(Round(3)), Round::NEVER);
    assert_ticks_every_round(&LyingDonor::<Fm>::new(Box::new(sleeper), n, 4), "LyingDonor");
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

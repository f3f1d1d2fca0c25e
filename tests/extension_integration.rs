//! Integration tests for the extension components: the rotating-leader
//! strong BA with the real fallback (incl. on real threads), the
//! replicated log under a Byzantine proposer, and weak BA with a
//! restrictive external predicate.

mod common;

use common::{
    checked, corrupt_ids, oracle, overrun_free, strong_ba_actors, with_faults, Fault, LogProc,
    SbaProc,
};
use meba::adversary::EquivocatingSender;
use meba::core::validity::FnValidity;
use meba::engine::{run_cluster, ClusterConfig, ClusterReport};
use meba::prelude::*;
use std::time::Duration;

/// `crashed` silent from the start, everyone else correct.
fn idle(n: usize, crashed: &[usize]) -> Vec<Fault> {
    (0..n).map(|i| if crashed.contains(&i) { Fault::Idle } else { Fault::None }).collect()
}

#[test]
fn rotating_with_real_fallback_beyond_bound() {
    // f = t crashes: the rotation cannot finish; the *real* recursive
    // fallback must deliver unanimity.
    let faults = idle(9, &[0, 2, 4, 6]);
    let run =
        checked::<SbaProc>(strong_ba_actors(StrongBa::rotating, &[true; 9], &faults), &faults);
    run.assert_in_model();
    assert_eq!(run.fell_back, 5, "every correct process falls back");
}

#[test]
fn rotating_on_threads() {
    let faults = idle(7, &[0]);
    let decided = |r: &ClusterReport<_>| oracle::decided::<SbaProc>(&r.actors, &r.metrics, &faults);
    let report = overrun_free("rotating strong BA on threads", Duration::from_millis(2), |delta| {
        let corrupt = corrupt_ids(&faults);
        let config =
            ClusterConfig { delta, max_rounds: 3_000, corrupt, ..ClusterConfig::default() };
        let report = run_cluster(strong_ba_actors(StrongBa::rotating, &[true; 7], &faults), config);
        decided(&report).assert_safe();
        report
    })
    .report;
    let run = decided(&report);
    run.assert_in_model();
    assert_eq!(run.fell_back, 0, "leader rotation avoids the fallback on threads too");
}

#[test]
fn replicated_log_with_equivocating_proposer_slot() {
    // Slot 1's proposer (p1) equivocates inside its BB instance; all
    // correct replicas must still hold identical logs.
    type Log = ReplicatedLog<u64, RecursiveBaFactory>;
    type Msg = <Log as Actor>::Msg;
    let n = 5usize;
    let slots = 3u64;
    let cfg = SystemConfig::new(n, 9).unwrap();
    let (pki, keys) = trusted_setup(n, 77);
    let factory0 = RecursiveBaFactory::new(cfg, keys[0].clone(), pki.clone());
    let slot_rounds = Log::slot_rounds(&cfg, &factory0);

    /// Byzantine replica: honest silence except an equivocating
    /// `SenderValue` burst at the start of its own slot.
    struct EquivocatingReplica {
        me: ProcessId,
        slot: u64,
        slot_rounds: u64,
        inner: EquivocatingSender<u64, <RecursiveBa<BbBaValue<u64>> as SubProtocol>::Msg>,
    }
    impl Actor for EquivocatingReplica {
        type Msg = Msg;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
            let r = ctx.round().as_u64();
            if r / self.slot_rounds != self.slot {
                return;
            }
            let step = r % self.slot_rounds;
            // Drive the inner equivocator with the slot-local round.
            let inbox = vec![];
            let mut shadow = RoundCtx::new(Round(step), self.me, ctx.n(), &inbox);
            self.inner.on_round(&mut shadow);
            for (dest, inner) in shadow.take_outbox() {
                ctx.push(dest, SessionEnvelope { session: SessionId(self.slot), msg: inner });
            }
        }
        fn done(&self) -> bool {
            true
        }
    }
    use meba_sim::RoundCtx;

    let byz = ProcessId(1);
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if id == byz {
            // Recompute the per-slot session the honest replicas use.
            let domain = meba::smr::slot_config(&cfg, 1);
            actors.push(Box::new(EquivocatingReplica {
                me: id,
                slot: 1,
                slot_rounds,
                inner: EquivocatingSender::new(
                    domain,
                    key,
                    111,
                    222,
                    vec![ProcessId(0), ProcessId(2)],
                    vec![ProcessId(3), ProcessId(4)],
                ),
            }));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let log: Log = ReplicatedLog::new(
                cfg,
                id,
                key,
                pki.clone(),
                factory,
                slots,
                vec![10 * (i as u64 + 1)],
                0,
            );
            actors.push(Box::new(log));
        }
    }
    let faults = idle(n, &[byz.index()]);
    let config = DesConfig { max_rounds: slot_rounds * slots + 10, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
    assert!(run.completed);
    let log = oracle::decided::<LogProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    // Slots 0 and 2 (honest proposers) committed their commands.
    assert_eq!(log[0].entry, Decision::Value(10));
    assert_eq!(log[2].entry, Decision::Value(30));
    // Slot 1: the equivocator — any agreed entry (111, 222, or ⊥) is fine.
    assert!(matches!(log[1].entry, Decision::Value(111) | Decision::Value(222) | Decision::Bot));
}

#[test]
fn cross_instance_replay_is_rejected_by_domain_separation() {
    // The session-layer replay attack: a Byzantine replica re-sends every
    // slot-0 message (certificates included) into slot 1's session,
    // re-tagged and timed to land at the same instance step. Per-slot
    // signature domain separation makes every replayed signature verify
    // under the wrong session, so slot 1 must still commit its honest
    // proposer's command.
    use meba::adversary::SessionReplayer;
    type Log = ReplicatedLog<u64, RecursiveBaFactory>;
    type Msg = <Log as Actor>::Msg;
    let n = 5usize;
    let slots = 3u64;
    let window = 2u64;
    let cfg = SystemConfig::new(n, 9).unwrap();
    let (pki, keys) = trusted_setup(n, 77);
    let factory0 = RecursiveBaFactory::new(cfg, keys[0].clone(), pki.clone());
    let stride = Log::slot_rounds(&cfg, &factory0).div_ceil(window);
    // Original slot-0 traffic sent at round r is seen by the replayer at
    // r + 1 and re-broadcast at r + 1 + delay, landing in inboxes at
    // r + 2 + delay; with delay = stride - 2 that is instance step r of
    // slot 1 — the exact step the original had in slot 0.
    let delay = stride - 2;
    let byz = ProcessId(4); // proposes none of slots 0..3
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if id == byz {
            actors.push(Box::new(SessionReplayer::new(id, SessionId(0), SessionId(1), delay)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let log: Log = ReplicatedLog::new(
                cfg,
                id,
                key,
                pki.clone(),
                factory,
                slots,
                vec![100 + i as u64],
                0,
            )
            .with_window(window);
            actors.push(Box::new(log));
        }
    }
    let faults = idle(n, &[byz.index()]);
    let config = DesConfig { max_rounds: 20_000, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
    assert!(run.completed);
    assert!(run.metrics.byzantine.words > 0, "the replay attack must actually fire");
    let log = oracle::decided::<LogProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert_eq!(log[0].entry, Decision::Value(100));
    assert_eq!(log[1].entry, Decision::Value(101), "replayed slot-0 certificates rejected");
    assert_eq!(log[2].entry, Decision::Value(102));
}

#[test]
fn decided_but_not_done_instance_answers_help_req_through_mux() {
    // A decided BB instance keeps answering help requests until its
    // schedule ends; the log must keep it live (not retire it at the
    // decision point) and route the request to it. The Byzantine replica
    // injects a *validly signed* help_req for slot 0's signature domain
    // at exactly the step where deciders answer.
    use meba::adversary::MuxHelpRequester;
    use meba::core::bb::Bb;
    use meba::core::weak_ba::PHASE_ROUNDS;
    type Log = ReplicatedLog<u64, RecursiveBaFactory>;
    type Msg = <Log as Actor>::Msg;
    let n = 5usize;
    let cfg = SystemConfig::new(n, 9).unwrap();
    let (pki, keys) = trusted_setup(n, 77);
    let byz = ProcessId(4);
    // Undecided processes broadcast help_req at weak-BA step n·5; sent at
    // that host round, the forged request is processed one round later —
    // the deciders' answer step.
    let help_round = Bb::<u64, RecursiveBaFactory>::ba_start(&cfg) + cfg.n() as u64 * PHASE_ROUNDS;
    let faults = idle(n, &[byz.index()]);
    let crypto_session = meba::smr::slot_config(&cfg, 0).session();
    let build = |with_attack: bool| {
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.iter().cloned().enumerate() {
            let id = ProcessId(i as u32);
            if id == byz && with_attack {
                actors.push(Box::new(MuxHelpRequester::new(
                    id,
                    key,
                    SessionId(0),
                    crypto_session,
                    help_round,
                )));
            } else if id == byz {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
                let log: Log = ReplicatedLog::new(
                    cfg,
                    id,
                    key,
                    pki.clone(),
                    factory,
                    1,
                    vec![100 + i as u64],
                    0,
                );
                actors.push(Box::new(log));
            }
        }
        let config = DesConfig { max_rounds: 20_000, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
        assert!(run.completed);
        run
    };
    // Baseline: failure-free, nobody asks for help, so the help component
    // stays silent (that silence is the adaptivity argument).
    let baseline = build(false);
    oracle::decided::<LogProc>(&baseline.actors, &baseline.metrics, &faults).assert_in_model();
    let base_help = baseline.metrics.by_component.get("weak-ba/help").map(|c| c.words).unwrap_or(0);
    assert_eq!(base_help, 0, "no help traffic in the failure-free baseline");
    // Attack run: each decided-but-not-done replica must answer the
    // request with a Help certificate, through the log.
    let run = build(true);
    let help_words = run.metrics.by_component.get("weak-ba/help").map(|c| c.words).unwrap_or(0);
    assert!(help_words > 0, "decided instances must answer the routed help_req");
    let log = oracle::decided::<LogProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert_eq!(log[0].entry, Decision::Value(100));
}

#[test]
fn weak_ba_restrictive_predicate_rejects_byzantine_proposals() {
    // Predicate: only even values are valid. A Byzantine leader proposing
    // an odd value gets no votes; the next correct leader's even value
    // wins. (All correct inputs are even, per the validity precondition.)
    use meba::adversary::WastefulWeakLeader;
    type Wba = WeakBa<u64, FnValidity<fn(&u64) -> bool>, RecursiveBaFactory>;
    type Msg = <Wba as SubProtocol>::Msg;
    fn is_even(v: &u64) -> bool {
        v.is_multiple_of(2)
    }
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0x77).unwrap();
    let (pki, keys) = trusted_setup(n, 0x77);
    let byz = ProcessId(1); // phase-1 leader proposes 99 (odd, invalid)
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if id == byz {
            actors.push(Box::new(WastefulWeakLeader::new(cfg, id, 1, 99u64)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let wba: Wba = WeakBa::new(
                cfg,
                id,
                key,
                pki.clone(),
                FnValidity::new(is_even as fn(&u64) -> bool),
                factory,
                8u64,
            );
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let d = checked::<Wba>(actors, &idle(n, &[byz.index()])).assert_in_model();
    assert_eq!(
        d,
        Decision::Value(8),
        "the invalid proposal must be ignored and the correct value decided"
    );
}

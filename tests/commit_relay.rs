//! Tests of the weak BA commit/relay machinery (Alg 4 lines 35–47): a
//! Byzantine leader plants a commit certificate in phase 1; later correct
//! leaders must *relay* it (not form fresh commits), the commit level must
//! stay at the original phase, and no decision may ever contradict the
//! planted value.

mod common;

use common::*;
use meba::adversary::LateHelperLeader;
use meba::prelude::*;

/// n = 7, Byzantine {p1 (leader of phase 1), p3, p5}. p1 drives a full
/// commit round for value 20 (everyone commits), then never finalizes.
/// Returns the finished run, checked by the oracle, and its faults.
fn planted_commit_run() -> (ClusterReport<WbaM>, Vec<Fault>) {
    let byz = [1, 3, 5];
    let faults: Vec<Fault> =
        (0..7).map(|i| if byz.contains(&i) { Fault::Idle } else { Fault::None }).collect();
    let actors = cluster(
        SystemConfig::new(7, 0xcc).unwrap(),
        0xcc,
        &faults,
        |p| {
            let factory = p.factory();
            let wba = WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, 10u64);
            LockstepAdapter::new(p.id, wba)
        },
        |p, keys| {
            let cohort = byz.iter().map(|&i| keys[i].clone()).collect();
            // Target p0 with the help answer so the run decides 20.
            let (pki, helped) = (p.pki.clone(), ProcessId(0));
            let leader = || LateHelperLeader::new(p.cfg, p.id, pki, cohort, 1, 20u64, helped);
            (p.id.0 == 1).then(|| Box::new(leader()) as Box<dyn AnyActor<Msg = WbaM>>)
        },
    );
    let config = DesConfig { max_rounds: 4_000, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
    assert!(run.completed);
    // Agreement holds, and since a finalize certificate for 20 exists in
    // the system (the attacker used it to help p0), Lemma 15 says no
    // other finalize certificate can ever exist — the decision is 20.
    let d = oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(20));
    (run, faults)
}

#[test]
fn planted_commit_is_relayed_and_level_preserved() {
    let (run, faults) = planted_commit_run();
    for a in correct::<LockstepAdapter<WbaProc>, _>(&run.actors, &faults) {
        // Every correct process committed to the planted value...
        assert_eq!(a.inner().committed_value(), Some(&20), "{}", a.id());
        // ...and relays preserve the ORIGINAL level (phase 1), because a
        // relayed certificate carries its own level (Alg 4 line 39).
        assert_eq!(a.inner().commit_level(), 1, "{}: relayed commit keeps level 1", a.id());
    }
}

#[test]
fn decisions_never_contradict_a_planted_commit() {
    planted_commit_run();
}

#[test]
fn trace_shows_relay_traffic_in_later_phases() {
    let (run, _) = planted_commit_run();
    // The per-round word series is the trace: read phase 2 off it.
    let m = &run.metrics;
    // Phase 2 occupies rounds 5..10: correct processes answer p2's
    // propose with CommitReply and p2 relays — so phase-2 rounds carry
    // correct words even though the phase-1 leader was the proposer of
    // the only fresh certificate.
    let phase2_words: u64 = m.words_per_round[5..10.min(m.words_per_round.len())].iter().sum();
    assert!(phase2_words > 0, "phase 2 must show relay traffic");
}

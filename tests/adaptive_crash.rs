//! Adaptive-corruption crash tests: processes run the honest protocol
//! with honest scheduling and are crashed by the network mid-run (the
//! simulator's `crash_at`), which is the closest realization of the
//! paper's adaptive adversary choosing *when* to corrupt.

mod common;

use common::{round_budget, weak_ba_actors, Fault, WbaM, WbaProc};
use meba::prelude::*;

fn weak_ba_with_crashes(n: usize, inputs: &[u64], crashes: &[(u32, u64)]) -> Simulation<WbaM> {
    let actors = weak_ba_actors(inputs, &vec![Fault::None; n]);
    let mut b = SimBuilder::new(actors);
    for &(id, round) in crashes {
        b = b.crash_at(ProcessId(id), round);
    }
    b.build()
}

/// Agreement among *survivors* must hold no matter when crashes land.
/// Sweep the crash round of the phase-1 leader across the whole phase.
#[test]
fn leader_crash_at_every_phase_round_is_safe() {
    let n = 7usize;
    for crash_round in 0..12u64 {
        let mut sim = weak_ba_with_crashes(n, &[3; 7], &[(1, crash_round)]);
        sim.run_until_done(round_budget(n)).unwrap();
        let mut decisions = Vec::new();
        for i in (0..n as u32).filter(|&i| i != 1) {
            let a: &LockstepAdapter<WbaProc> =
                sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            decisions.push(a.inner().output().expect("survivor decided"));
        }
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "crash at round {crash_round}: {decisions:?}"
        );
        assert_eq!(decisions[0], Decision::Value(3), "unanimity, crash at {crash_round}");
    }
}

/// A leader crashing *between* sending its commit certificate and its
/// finalize certificate leaves everyone committed but undecided — the
/// classic partial-progress window. Later phases must relay the commit
/// and still decide the committed value.
#[test]
fn leader_crash_between_commit_and_finalize() {
    let n = 7usize;
    // Phase 1 occupies rounds 0..5; the leader sends CommitCert in round
    // 2 and FinalizeCert in round 4. Crash it at round 4 (cert formed but
    // never sent... actually: crash before its round-4 send).
    let mut sim = weak_ba_with_crashes(n, &[9; 7], &[(1, 4)]);
    sim.run_until_done(round_budget(n)).unwrap();
    let mut decisions = Vec::new();
    for i in (0..n as u32).filter(|&i| i != 1) {
        let a: &LockstepAdapter<WbaProc> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
        // Everyone committed in phase 1 (the commit cert went out in
        // round 2) with level 1 preserved through relays.
        assert_eq!(a.inner().committed_value(), Some(&9), "p{i}");
        assert_eq!(a.inner().commit_level(), 1, "p{i}");
        decisions.push(a.inner().output().expect("decided"));
    }
    assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(decisions[0], Decision::Value(9), "the committed value must win");
}

/// Staggered crashes across several phases: survivors always agree, and
/// pre-crash traffic counts toward correct-word complexity (so the run is
/// costlier than silent-from-start crashes but still bounded).
#[test]
fn staggered_crashes_across_phases() {
    let n = 9usize;
    let crashes = [(1u32, 3u64), (2, 8), (3, 13), (4, 20)];
    let mut sim = weak_ba_with_crashes(n, &[4; 9], &crashes);
    sim.run_until_done(round_budget(n)).unwrap();
    let mut decisions = Vec::new();
    for i in (0..n as u32).filter(|&i| !crashes.iter().any(|(c, _)| *c == i)) {
        let a: &LockstepAdapter<WbaProc> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
        decisions.push(a.inner().output().expect("decided"));
    }
    assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
    assert_eq!(decisions[0], Decision::Value(4));
}

/// Exhaustive mini-sweep: one crash, every victim, every round in the
/// first two phases. Nothing may ever break agreement or unanimity.
#[test]
fn exhaustive_single_crash_sweep() {
    let n = 5usize;
    for victim in 0..n as u32 {
        for crash_round in 0..10u64 {
            let mut sim = weak_ba_with_crashes(n, &[6; 5], &[(victim, crash_round)]);
            sim.run_until_done(round_budget(n)).unwrap();
            let mut decisions = Vec::new();
            for i in (0..n as u32).filter(|&i| i != victim) {
                let a: &LockstepAdapter<WbaProc> =
                    sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
                decisions.push(a.inner().output().expect("decided"));
            }
            assert!(
                decisions.iter().all(|d| *d == Decision::Value(6)),
                "victim p{victim} at round {crash_round}: {decisions:?}"
            );
        }
    }
}

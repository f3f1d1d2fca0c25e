//! Adaptive-corruption crash tests: processes run the honest protocol
//! with honest scheduling and are crashed by the network mid-run (the
//! simulator's `crash_at`), which is the closest realization of the
//! paper's adaptive adversary choosing *when* to corrupt.

mod common;

use common::{oracle, run_with_crashes, weak_ba_actors, Fault, WbaM, WbaProc};
use meba::prelude::*;

/// Weak BA over `inputs` with the simulator crashing each `(id, round)`
/// of `crashes`, run to the end.
fn weak_ba_with_crashes(
    inputs: &[u64],
    crashes: &[(u32, u64)],
) -> (ClusterReport<WbaM>, Vec<Fault>) {
    run_with_crashes(weak_ba_actors(inputs, &vec![Fault::None; inputs.len()]), crashes)
}

/// The survivors' common decision, with every check of the oracle.
fn survivors_decide(inputs: &[u64], crashes: &[(u32, u64)]) -> Decision<u64> {
    let (run, faults) = weak_ba_with_crashes(inputs, crashes);
    oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults).assert_in_model()
}

/// Agreement among *survivors* must hold no matter when crashes land.
/// Sweep the crash round of the phase-1 leader across the whole phase.
#[test]
fn leader_crash_at_every_phase_round_is_safe() {
    for crash_round in 0..12u64 {
        let d = survivors_decide(&[3; 7], &[(1, crash_round)]);
        assert_eq!(d, Decision::Value(3), "unanimity, crash at {crash_round}");
    }
}

/// A leader crashing *between* sending its commit certificate and its
/// finalize certificate leaves everyone committed but undecided — the
/// classic partial-progress window. Later phases must relay the commit
/// and still decide the committed value.
#[test]
fn leader_crash_between_commit_and_finalize() {
    // Phase 1 occupies rounds 0..5; the leader sends CommitCert in round
    // 2 and FinalizeCert in round 4. Crash it at round 4 (cert formed but
    // never sent... actually: crash before its round-4 send).
    let (run, faults) = weak_ba_with_crashes(&[9; 7], &[(1, 4)]);
    let d = oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(9), "the committed value must win");
    for a in common::correct::<LockstepAdapter<WbaProc>, _>(&run.actors, &faults) {
        // Everyone committed in phase 1 (the commit cert went out in
        // round 2) with level 1 preserved through relays.
        assert_eq!(a.inner().committed_value(), Some(&9), "{}", a.id());
        assert_eq!(a.inner().commit_level(), 1, "{}", a.id());
    }
}

/// Staggered crashes across several phases: survivors always agree, and
/// pre-crash traffic counts toward correct-word complexity (so the run is
/// costlier than silent-from-start crashes but still bounded).
#[test]
fn staggered_crashes_across_phases() {
    let crashes = [(1u32, 3u64), (2, 8), (3, 13), (4, 20)];
    assert_eq!(survivors_decide(&[4; 9], &crashes), Decision::Value(4));
}

/// Exhaustive mini-sweep: one crash, every victim, every round in the
/// first two phases. Nothing may ever break agreement or unanimity.
#[test]
fn exhaustive_single_crash_sweep() {
    for victim in 0..5u32 {
        for crash_round in 0..10u64 {
            let d = survivors_decide(&[6; 5], &[(victim, crash_round)]);
            assert_eq!(d, Decision::Value(6), "victim p{victim} at round {crash_round}");
        }
    }
}

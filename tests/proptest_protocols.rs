//! Property-based tests: agreement, validity and termination must hold
//! for *every* randomly generated corruption pattern, crash schedule,
//! chaos seed and input assignment.

mod common;

use common::*;
use meba::prelude::*;
use proptest::prelude::*;

/// Generates a fault vector for `n` processes with at most `t` Byzantine.
fn faults_strategy(n: usize) -> impl Strategy<Value = Vec<Fault>> {
    let t = (n - 1) / 2;
    let one = prop_oneof![
        3 => Just(Fault::None),
        1 => Just(Fault::Idle),
        1 => (0u64..40).prop_map(Fault::CrashAt),
        1 => (0u64..u64::MAX).prop_map(Fault::Chaos),
    ];
    proptest::collection::vec(one, n).prop_map(move |mut v| {
        // Enforce the resilience bound: demote excess faults to correct.
        let mut seen = 0;
        for f in v.iter_mut() {
            if f.is_byzantine() {
                seen += 1;
                if seen > t {
                    *f = Fault::None;
                }
            }
        }
        v
    })
}

/// The checked-in proptest shrink (`proptest_protocols.proptest-regressions`)
/// replayed as a plain deterministic test, so the historical failure stays
/// pinned even if the regression file is pruned: p4 crashes at round 23 —
/// mid-protocol, after signing but before relaying — and BB with a correct
/// silent-value sender must still reach agreement on the sender's input.
#[test]
fn bb_regression_crash_at_23_mid_relay() {
    let faults = [
        Fault::None,
        Fault::None,
        Fault::None,
        Fault::None,
        Fault::CrashAt(23),
        Fault::None,
        Fault::None,
    ];
    checked::<BbProc>(bb_actors(0, 0, &faults), &faults).assert_in_model();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn weak_ba_agreement_any_faults(
        faults in faults_strategy(7),
        inputs in proptest::collection::vec(0u64..5, 7),
    ) {
        let d = checked::<WbaProc>(weak_ba_actors(&inputs, &faults), &faults).assert_in_model();
        // Unique validity under AlwaysValid: a concrete decision must be
        // *some* existing value (any u64 is "valid", but the protocol only
        // ever moves proposed values around) — sanity-check it is one of
        // the inputs when not ⊥.
        if let Decision::Value(v) = d {
            prop_assert!(inputs.contains(&v), "decision {v} not among inputs {inputs:?}");
        }
    }

    #[test]
    fn weak_ba_unanimity_under_crashes(
        crash_rounds in proptest::collection::vec(0u64..60, 3),
        victims in proptest::sample::subsequence(vec![0usize,1,2,3,4,5,6,7,8], 3),
    ) {
        let mut faults = vec![Fault::None; 9];
        for (v, r) in victims.iter().zip(crash_rounds.iter()) {
            faults[*v] = Fault::CrashAt(*r);
        }
        let d = checked::<WbaProc>(weak_ba_actors(&[6u64; 9], &faults), &faults).assert_in_model();
        // All correct processes propose 6 and the only values in the
        // system are 6 (crash faults cannot invent values), so unique
        // validity forces the decision to 6.
        prop_assert_eq!(d, Decision::Value(6));
    }

    #[test]
    fn bb_agreement_and_validity_any_faults(
        faults in faults_strategy(7),
        sender in 0u32..7,
        input in 0u64..100,
    ) {
        // Correct sender validity is the oracle's BB rule.
        checked::<BbProc>(bb_actors(sender, input, &faults), &faults).assert_in_model();
    }

    #[test]
    fn strong_ba_agreement_and_unanimity(
        faults in faults_strategy(7),
        inputs in proptest::collection::vec(any::<bool>(), 7),
    ) {
        // Strong unanimity is the oracle's strong BA rule.
        checked::<SbaProc>(strong_ba_actors(StrongBa::new, &inputs, &faults), &faults)
            .assert_in_model();
    }

    #[test]
    fn simulation_is_deterministic(
        faults in faults_strategy(5),
        inputs in proptest::collection::vec(0u64..9, 5),
    ) {
        let run = || {
            let run = des(weak_ba_actors(&inputs, &faults), &faults, 0, &Timing::lockstep());
            assert!(run.completed);
            (oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults), run.rounds)
        };
        let a = run();
        let b = run();
        a.0.assert_in_model();
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Each case runs two full multi-slot logs; keep the case count low.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // The pipelined log is an *optimization*, not a different protocol:
    // under the same fault schedule it must commit exactly the entry
    // sequence the sequential log commits. Faults are restricted to
    // `Idle` (silent from round 0) because they are stride-independent;
    // `CrashAt`/`Chaos` are round-indexed, so the same fault legitimately
    // lands at different instance steps under different strides.
    #[test]
    fn pipelined_log_commits_same_entries_as_sequential(
        idle in proptest::sample::subsequence(vec![0usize, 1, 2, 3, 4], 2),
        keep in 0usize..=2,
        window in 2u64..=4,
    ) {
        let slots = 3;
        let mut faults = vec![Fault::None; 5];
        for &i in &idle[..keep] {
            faults[i] = Fault::Idle;
        }
        let logs_at = |w: u64| {
            let config = DesConfig { max_rounds: log_round_budget(5, slots), ..DesConfig::default() };
            let run = run_des_cluster(log_actors(slots, w, &faults), None, with_faults(&faults, config)).unwrap();
            assert!(run.completed);
            oracle::decided::<LogProc>(&run.actors, &run.metrics, &faults).assert_in_model()
        };
        let sequential = logs_at(1);
        let pipelined = logs_at(window);
        prop_assert_eq!(&pipelined, &sequential,
            "window {} diverged from sequential under {:?}", window, faults);
    }
}

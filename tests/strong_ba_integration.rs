//! Integration tests: binary strong BA (Algorithm 5) with the real
//! recursive fallback.

mod common;

use common::*;
use meba::adversary::EquivocatingStrongLeader;
use meba::prelude::*;
use oracle::Decided;

/// Algorithm 5 with process `i` proposing `inputs[i]` under `faults`, run
/// and checked.
fn strong_ba(inputs: &[bool], faults: &[Fault]) -> Decided<bool> {
    checked::<SbaProc>(strong_ba_actors(StrongBa::new, inputs, faults), faults)
}

#[test]
fn strong_unanimity_failure_free() {
    for n in [3usize, 5, 9, 17] {
        for v in [true, false] {
            strong_ba(&vec![v; n], &vec![Fault::None; n]).assert_in_model();
        }
    }
}

#[test]
fn failure_free_is_linear_words() {
    let mut series = Vec::new();
    for n in [9usize, 17, 33, 65] {
        let run = strong_ba(&vec![true; n], &vec![Fault::None; n]);
        run.assert_in_model();
        series.push((n, run.words));
    }
    // Doubling n roughly doubles the words — linear, not quadratic.
    for w in series.windows(2) {
        let ratio = w[1].1 as f64 / w[0].1 as f64;
        assert!(ratio < 3.0, "super-linear growth: {series:?}");
    }
}

#[test]
fn strong_unanimity_with_crashed_followers() {
    // One crashed follower breaks the (n, n) certificate and forces the
    // quadratic fallback — strong unanimity must still hold.
    let mut faults = vec![Fault::None; 9];
    faults[5] = Fault::Idle;
    let run = strong_ba(&[false; 9], &faults);
    run.assert_in_model();
    assert_eq!(run.fell_back, 8, "every correct process falls back");
}

#[test]
fn crashed_leader_still_agrees() {
    let mut faults = vec![Fault::None; 7];
    faults[0] = Fault::Idle;
    strong_ba(&[true; 7], &faults).assert_in_model();
}

#[test]
fn max_crashes_agree() {
    // n = 9: t = 4 crashes including the leader.
    let mut faults = vec![Fault::None; 9];
    for i in [0usize, 2, 4, 6] {
        faults[i] = Fault::Idle;
    }
    strong_ba(&[true; 9], &faults).assert_in_model();
}

#[test]
fn mixed_inputs_agree_under_crash() {
    let inputs = [true, false, true, false, true, false, true];
    let mut faults = vec![Fault::None; 7];
    faults[3] = Fault::CrashAt(2);
    strong_ba(&inputs, &faults).assert_in_model();
}

#[test]
fn equivocating_leader_cannot_split_decisions() {
    let n = 7usize;
    // Inputs split 3 true / 3 false among correct; the Byzantine leader
    // certifies both values using its own signature as top-up.
    let inputs = [true, true, true, false, false, false];
    let mut faults = vec![Fault::None; n];
    faults[0] = Fault::Idle;
    let actors = cluster(
        Family::STRONG_BA.config(n),
        Family::STRONG_BA.key_seed,
        &faults,
        |p| {
            let (factory, input) = (p.factory(), inputs[p.id.index() - 1]);
            LockstepAdapter::new(p.id, StrongBa::new(p.cfg, p.id, p.key, p.pki, factory, input))
        },
        |p, _| {
            let leader = EquivocatingStrongLeader::new(
                p.cfg,
                p.id,
                p.pki.clone(),
                vec![p.key.clone()],
                vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                vec![ProcessId(4), ProcessId(5), ProcessId(6)],
            );
            Some(Box::new(leader) as Box<dyn AnyActor<Msg = SbaM>>)
        },
    );
    checked::<SbaProc>(actors, &faults).assert_in_model();
}

#[test]
fn chaos_does_not_break_strong_ba() {
    for seed in [7u64, 13, 21] {
        let mut faults = vec![Fault::None; 7];
        faults[4] = Fault::Chaos(seed);
        strong_ba(&[true; 7], &faults).assert_in_model();
    }
}

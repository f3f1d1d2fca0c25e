//! Ablation tests for the paper's two key design choices (experiments E8
//! and E9):
//!
//! * **E8 — quorum threshold `⌈(n+t+1)/2⌉` (§6).** Against the naive
//!   `t + 1` threshold, a vote-splitting Byzantine leader finalizes two
//!   different values and breaks agreement. Against the paper's
//!   threshold the same attack yields no certificate at all and agreement
//!   survives via the fallback.
//! * **E9 — the `2δ` safety window before `A_fallback` (§6, Lemma 19).**
//!   A Byzantine leader that completes a finalize certificate secretly and
//!   answers a single help request creates a lone decider; without the
//!   window the fallback contradicts it, with the window the decision
//!   propagates and everyone agrees.

mod common;

use common::*;
use meba::adversary::{LateHelperLeader, SplitVoteLeader};
use meba::prelude::*;
use oracle::{Decided, Violation};
use proptest::prelude::*;

/// n = 7 with {p1, p3, p5} Byzantine: p1 runs `leader` (lent the whole
/// cohort's keys), p3 and p5 stay silent, and the correct processes run
/// `honest` weak BA. Returns the checked run.
fn cohort_run(
    cfg: SystemConfig,
    key_seed: u64,
    honest: impl Fn(Party) -> WbaProc,
    leader: impl Fn(&Party, Vec<SecretKey>) -> Box<dyn AnyActor<Msg = WbaM>>,
) -> Decided<Decision<u64>> {
    let faults: Vec<Fault> =
        (0..7).map(|i| if i % 2 == 1 { Fault::Idle } else { Fault::None }).collect();
    let actors = cluster(
        cfg,
        key_seed,
        &faults,
        |p| LockstepAdapter::new(p.id, honest(p)),
        |p, keys| {
            (p.id.0 == 1)
                .then(|| leader(p, vec![keys[1].clone(), keys[3].clone(), keys[5].clone()]))
        },
    );
    checked::<WbaProc>(actors, &faults)
}

/// Builds the E8 scenario: n = 7, Byzantine {p1, p3, p5}, correct
/// processes proposing `inputs`; p1 leads phase 1, proposes 100 to
/// `group_a` and 200 to `group_b`, and tops each group's votes up with
/// its cohort's.
fn split_vote_run(
    cfg: SystemConfig,
    inputs: &[u64],
    group_a: Vec<ProcessId>,
    group_b: Vec<ProcessId>,
) -> Decided<Decision<u64>> {
    cohort_run(
        cfg,
        0xe8,
        |p| {
            let (factory, input) = (p.factory(), inputs[p.id.index()]);
            WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, input)
        },
        |p, cohort| {
            let (a, b, pki) = (group_a.clone(), group_b.clone(), p.pki.clone());
            Box::new(SplitVoteLeader::new(p.cfg, p.id, pki, cohort, 1, 100u64, 200u64, a, b))
        },
    )
}

/// E8's split: {p0, p2} / {p4, p6}, every correct input 7.
fn e8_run(cfg: SystemConfig) -> Decided<Decision<u64>> {
    split_vote_run(cfg, &[7; 7], [0, 2].map(ProcessId).to_vec(), [4, 6].map(ProcessId).to_vec())
}

#[test]
fn e8_naive_threshold_breaks_agreement() {
    // Quorum t+1 = 4: the split attack finalizes both values.
    let cfg = SystemConfig::new(7, 0x8).unwrap().unsafe_with_quorum(4);
    let run = e8_run(cfg);
    assert_eq!(run.decisions[0], Some(Decision::Value(100)), "group A decided the first value");
    assert_eq!(run.decisions[4], Some(Decision::Value(200)), "group B decided the second value");
    let split = Violation::Disagreement(ProcessId(0), ProcessId(4));
    assert_eq!(run.violations, [split], "the naive threshold's one violation is agreement");
}

#[test]
fn e8_paper_threshold_resists_the_same_attack() {
    e8_run(SystemConfig::new(7, 0x8).unwrap()).assert_in_model();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Quorum intersection (§6) leaves at most one value certified, so
    // every split of the correct processes, under any inputs, is safe.
    // Under a `t + 1` quorum the same leader finalizes both values (E8),
    // and the oracle says so.
    #[test]
    fn weak_ba_agreement_under_a_vote_splitting_leader(
        to_a in proptest::collection::vec(any::<bool>(), 4),
        inputs in proptest::collection::vec(0u64..5, 7),
    ) {
        let (a, b): (Vec<_>, Vec<_>) = [0, 2, 4, 6].into_iter().zip(&to_a).partition(|(_, a)| **a);
        let group = |g: Vec<(u32, &bool)>| g.into_iter().map(|(p, _)| ProcessId(p)).collect();
        split_vote_run(SystemConfig::new(7, 0x8).unwrap(), &inputs, group(a), group(b))
            .assert_in_model();
    }
}

/// Builds the E9 scenario: n = 7, Byzantine {p1, p3, p5}; p1 secretly
/// finalizes value 20 in phase 1 and help-answers only p0.
fn late_help_run(disable_window: bool) -> Decided<Decision<u64>> {
    cohort_run(
        SystemConfig::new(7, 0xe9).unwrap(),
        0xe9,
        |p| {
            let factory = p.factory();
            let mut wba = WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, 10u64);
            if disable_window {
                wba.disable_safety_window();
            }
            wba
        },
        |p, cohort| {
            let (pki, helped) = (p.pki.clone(), ProcessId(0));
            Box::new(LateHelperLeader::new(p.cfg, p.id, pki, cohort, 1, 20u64, helped))
        },
    )
}

#[test]
fn e9_without_safety_window_agreement_breaks() {
    let run = late_help_run(true);
    // p0 decided the secretly-finalized 20 via the late help answer; the
    // rest never learn it and the fallback (3 × input 10 vs 1 × 20)
    // settles on 10.
    assert_eq!(run.decisions[0], Some(Decision::Value(20)));
    assert_eq!(run.decisions[2], Some(Decision::Value(10)));
    let split = Violation::Disagreement(ProcessId(0), ProcessId(2));
    assert_eq!(run.violations, [split], "the disabled window's one violation is agreement");
}

#[test]
fn e9_with_safety_window_agreement_holds() {
    let d = late_help_run(false).assert_in_model();
    assert_eq!(d, Decision::Value(20), "the certified decision must win");
}

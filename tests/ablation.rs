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

/// n = 7 with {p1, p3, p5} Byzantine: p1 runs `leader` (lent the whole
/// cohort's keys), p3 and p5 stay silent, and the correct processes run
/// `honest` weak BA. Returns the decisions of p0, p2, p4, p6.
fn cohort_run(
    cfg: SystemConfig,
    key_seed: u64,
    honest: impl Fn(Party) -> WbaProc,
    leader: impl Fn(&Party, Vec<SecretKey>) -> Box<dyn AnyActor<Msg = WbaM>>,
) -> Vec<Decision<u64>> {
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
    let mut sim = sim(actors, &faults);
    sim.run_until_done(round_budget(7)).unwrap();
    outputs::<WbaProc>(sim.actors(), &faults)
}

/// Builds the E8 scenario: n = 7, Byzantine {p1, p3, p5}, p1 leads phase 1
/// and splits correct processes {p0, p2} / {p4, p6}.
fn split_vote_run(cfg: SystemConfig) -> Vec<Decision<u64>> {
    cohort_run(
        cfg,
        0xe8,
        |p| {
            let factory = p.factory();
            WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, 7u64)
        },
        |p, cohort| {
            Box::new(SplitVoteLeader::new(
                p.cfg,
                p.id,
                p.pki.clone(),
                cohort,
                1,
                100u64,
                200u64,
                vec![ProcessId(0), ProcessId(2)],
                vec![ProcessId(4), ProcessId(6)],
            ))
        },
    )
}

#[test]
fn e8_naive_threshold_breaks_agreement() {
    // Quorum t+1 = 4: the split attack finalizes both values.
    let cfg = SystemConfig::new(7, 0x8).unwrap().unsafe_with_quorum(4);
    let ds = split_vote_run(cfg);
    assert_eq!(ds[0], Decision::Value(100), "group A decided the first value");
    assert_eq!(ds[2], Decision::Value(200), "group B decided the second value");
    assert_ne!(ds[0], ds[2], "naive threshold must exhibit the violation");
}

#[test]
fn e8_paper_threshold_resists_the_same_attack() {
    let cfg = SystemConfig::new(7, 0x8).unwrap();
    let ds = split_vote_run(cfg);
    assert_agreement(&ds);
}

/// Builds the E9 scenario: n = 7, Byzantine {p1, p3, p5}; p1 secretly
/// finalizes value 20 in phase 1 and help-answers only p0.
fn late_help_run(disable_window: bool) -> Vec<Decision<u64>> {
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
    let ds = late_help_run(true);
    // p0 decided the secretly-finalized 20 via the late help answer; the
    // rest never learn it and the fallback (3 × input 10 vs 1 × 20)
    // settles on 10.
    assert_eq!(ds[0], Decision::Value(20));
    assert_eq!(ds[1], Decision::Value(10));
    assert_ne!(ds[0], ds[1], "disabled window must exhibit the violation");
}

#[test]
fn e9_with_safety_window_agreement_holds() {
    let ds = late_help_run(false);
    let d = assert_agreement(&ds);
    assert_eq!(d, Decision::Value(20), "the certified decision must win");
}

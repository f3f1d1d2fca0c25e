//! Integration tests: adaptive Byzantine Broadcast (Algorithms 1–2) with
//! the real recursive fallback, under crash and Byzantine adversaries.

mod common;

use common::*;
use meba::adversary::EquivocatingSender;
use meba::prelude::*;
use oracle::Decided;

/// BB with sender p0 broadcasting `input` under `faults`, run and checked.
fn bb(input: u64, faults: &[Fault]) -> Decided<Decision<u64>> {
    checked::<BbProc>(bb_actors(0, input, faults), faults)
}

#[test]
fn validity_failure_free() {
    for n in [3usize, 5, 7, 9] {
        bb(7, &vec![Fault::None; n]).assert_in_model();
    }
}

#[test]
fn validity_with_every_nonsender_crash_position() {
    // n = 7: crash each single non-sender in turn; f=1 < adaptive bound
    // fails for n=7 (bound is 1), so the fallback may run — validity must
    // hold either way.
    for victim in 1..7 {
        let mut faults = vec![Fault::None; 7];
        faults[victim] = Fault::Idle;
        bb(31, &faults).assert_in_model();
    }
}

#[test]
fn validity_max_crashes() {
    // n = 9, t = 4 crashed non-senders: the worst tolerated crash load.
    let mut faults = vec![Fault::None; 9];
    for i in [2usize, 4, 6, 8] {
        faults[i] = Fault::Idle;
    }
    bb(99, &faults).assert_in_model();
}

#[test]
fn agreement_with_silent_sender() {
    for n in [5usize, 9] {
        let mut faults = vec![Fault::None; n];
        faults[0] = Fault::Idle;
        let d = bb(1, &faults).assert_in_model();
        assert!(d.is_bot(), "silent sender must yield ⊥, got {d:?}");
    }
}

/// n = 7 BB whose sender p0 is Byzantine: it signs `a` for the processes
/// in `to_a` and `b` for those in `to_b`, then goes silent. Returns the
/// checked run.
fn byzantine_sender_run(
    (a, to_a): (u64, Vec<ProcessId>),
    (b, to_b): (u64, Vec<ProcessId>),
) -> Decided<Decision<u64>> {
    let (n, sender) = (7usize, ProcessId(0));
    let mut faults = vec![Fault::None; n];
    faults[0] = Fault::Idle;
    let actors = cluster(
        Family::BB.config(n),
        Family::BB.key_seed,
        &faults,
        |p| {
            let factory = p.factory();
            LockstepAdapter::new(p.id, Bb::new(p.cfg, p.id, p.key, p.pki, factory, sender))
        },
        |p, _| {
            let (to_a, to_b) = (to_a.clone(), to_b.clone());
            let sender = EquivocatingSender::new(p.cfg, p.key.clone(), a, b, to_a, to_b);
            Some(Box::new(sender) as Box<dyn AnyActor<Msg = BbM>>)
        },
    );
    checked::<BbProc>(actors, &faults)
}

#[test]
fn agreement_with_equivocating_sender() {
    let group = |ids: [u32; 3]| ids.map(ProcessId).to_vec();
    let d =
        byzantine_sender_run((111, group([1, 2, 3])), (222, group([4, 5, 6]))).assert_in_model();
    // A Byzantine sender permits any common decision: one of its two
    // values, or ⊥.
    assert!(
        matches!(d, Decision::Value(111) | Decision::Value(222) | Decision::Bot),
        "unexpected decision {d:?}"
    );
}

#[test]
fn agreement_with_sender_crashing_mid_dissemination() {
    // Sender crashes right after round 0: its value is out but it answers
    // nothing afterwards.
    let mut faults = vec![Fault::None; 7];
    faults[0] = Fault::CrashAt(1);
    // The signed value reached everyone, so BB_valid admits only it.
    assert_eq!(bb(64, &faults).assert_in_model(), Decision::Value(64));
}

#[test]
fn agreement_under_chaos_adversary() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut faults = vec![Fault::None; 7];
        faults[3] = Fault::Chaos(seed);
        faults[5] = Fault::Chaos(seed.wrapping_mul(7919));
        bb(5, &faults).assert_in_model();
    }
}

#[test]
fn adaptive_complexity_failure_free_linear() {
    // E1's failure-free row: BB's word bound at f = 0 is linear in n.
    for n in [5usize, 9, 17, 33] {
        bb(1, &vec![Fault::None; n]).assert_in_model();
    }
}

#[test]
fn crashed_followers_below_bound_cost_nothing_extra() {
    // A crashed *follower* below the adaptive bound leaves phases silent —
    // silence is free, so the cost stays within the failure-free envelope.
    // (The O(n·f) growth of Table 1 is realized by *active* Byzantine
    // leaders; see the wasteful-leader benches.)
    let n = 17usize;
    let free = bb(1, &vec![Fault::None; n]);
    free.assert_in_model();
    let mut faults = vec![Fault::None; n];
    faults[4] = Fault::Idle;
    let crashed = bb(1, &faults);
    crashed.assert_in_model();

    let (w0, w1) = (free.words, crashed.words);
    let lo = w0.saturating_sub(w0 / 4);
    let hi = w0 + w0 / 4;
    assert!(
        (lo..=hi).contains(&w1),
        "crash-follower run should cost about the same ({w0} vs {w1})"
    );
}

#[test]
fn decide_once_under_faults() {
    // Termination implies each correct process finished with exactly one
    // decision, reached at a step inside the run.
    let mut faults = vec![Fault::None; 7];
    faults[2] = Fault::Idle;
    let run = checked::<BbProc>(bb_actors(1, 12, &faults), &faults);
    run.assert_in_model();
    assert_eq!(run.decisions.iter().flatten().count(), 6, "p2 is the only faulty process");
    assert!(0 < run.first && run.first <= run.last, "{run:?}");
}

#[test]
fn selective_sender_value_is_recovered_by_vetting() {
    // A Byzantine sender delivers its (validly signed) value to exactly
    // one correct process and goes silent. The first vetting phase's
    // leader has no value, asks for help, and the lone holder forwards
    // the sender-signed value — which the leader re-broadcasts, making it
    // everyone's BA input. The decision is the sender's value, not ⊥.
    // Same value to a single recipient: a "selective" sender.
    let lucky = ProcessId(3);
    let d = byzantine_sender_run((77, vec![lucky]), (77, vec![])).assert_in_model();
    assert_eq!(d, Decision::Value(77), "the vetting relay must spread the lone signed value");
}

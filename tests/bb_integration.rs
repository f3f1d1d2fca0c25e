//! Integration tests: adaptive Byzantine Broadcast (Algorithms 1–2) with
//! the real recursive fallback, under crash and Byzantine adversaries.

mod common;

use common::*;
use meba::adversary::EquivocatingSender;
use meba::prelude::*;

#[test]
fn validity_failure_free() {
    for n in [3usize, 5, 7, 9] {
        let faults = vec![Fault::None; n];
        let mut sim = sim(bb_actors(0, 7, &faults), &faults);
        sim.run_until_done(round_budget(n)).unwrap();
        let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
        assert_eq!(d, Decision::Value(7), "n={n}");
    }
}

#[test]
fn validity_with_every_nonsender_crash_position() {
    // n = 7: crash each single non-sender in turn; f=1 < adaptive bound
    // fails for n=7 (bound is 1), so the fallback may run — validity must
    // hold either way.
    for victim in 1..7u32 {
        let mut faults = vec![Fault::None; 7];
        faults[victim as usize] = Fault::Idle;
        let mut sim = sim(bb_actors(0, 31, &faults), &faults);
        sim.run_until_done(round_budget(7)).unwrap();
        let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
        assert_eq!(d, Decision::Value(31), "victim p{victim}");
    }
}

#[test]
fn validity_max_crashes() {
    // n = 9, t = 4 crashed non-senders: the worst tolerated crash load.
    let mut faults = vec![Fault::None; 9];
    for i in [2usize, 4, 6, 8] {
        faults[i] = Fault::Idle;
    }
    let mut sim = sim(bb_actors(0, 99, &faults), &faults);
    sim.run_until_done(round_budget(9)).unwrap();
    let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
    assert_eq!(d, Decision::Value(99));
}

#[test]
fn agreement_with_silent_sender() {
    for n in [5usize, 9] {
        let mut faults = vec![Fault::None; n];
        faults[0] = Fault::Idle;
        let mut sim = sim(bb_actors(0, 1, &faults), &faults);
        sim.run_until_done(round_budget(n)).unwrap();
        let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
        assert!(d.is_bot(), "silent sender must yield ⊥, got {d:?}");
    }
}

/// n = 7 BB whose sender p0 is Byzantine: it signs `a` for the processes
/// in `to_a` and `b` for those in `to_b`, then goes silent. Returns the
/// correct processes' decisions.
fn byzantine_sender_run(
    (a, to_a): (u64, Vec<ProcessId>),
    (b, to_b): (u64, Vec<ProcessId>),
) -> Vec<Decision<u64>> {
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
    let mut sim = sim(actors, &faults);
    sim.run_until_done(round_budget(n)).unwrap();
    outputs::<BbProc>(sim.actors(), &faults)
}

#[test]
fn agreement_with_equivocating_sender() {
    let group = |ids: [u32; 3]| ids.map(ProcessId).to_vec();
    let ds = byzantine_sender_run((111, group([1, 2, 3])), (222, group([4, 5, 6])));
    let d = assert_agreement(&ds);
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
    let n = 7usize;
    let mut faults = vec![Fault::None; n];
    faults[0] = Fault::CrashAt(1);
    let mut sim = sim(bb_actors(0, 64, &faults), &faults);
    sim.run_until_done(round_budget(n)).unwrap();
    let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
    // The signed value reached everyone, so BB_valid admits only it.
    assert_eq!(d, Decision::Value(64));
}

#[test]
fn agreement_under_chaos_adversary() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut faults = vec![Fault::None; 7];
        faults[3] = Fault::Chaos(seed);
        faults[5] = Fault::Chaos(seed.wrapping_mul(7919));
        let mut sim = sim(bb_actors(0, 5, &faults), &faults);
        sim.run_until_done(round_budget(7)).unwrap();
        let d = assert_agreement(&outputs::<BbProc>(sim.actors(), &faults));
        assert_eq!(d, Decision::Value(5), "chaos replay must not break validity (seed {seed})");
    }
}

#[test]
fn adaptive_complexity_failure_free_linear() {
    // E1 envelope: failure-free BB costs O(n) words.
    for n in [5usize, 9, 17, 33] {
        let faults = vec![Fault::None; n];
        let mut sim = sim(bb_actors(0, 1, &faults), &faults);
        sim.run_until_done(round_budget(n)).unwrap();
        let words = sim.metrics().correct_words();
        assert!(words <= BB_FAILURE_FREE_WORDS_PER_N * n as u64, "n={n}: {words} words (O(n))");
    }
}

#[test]
fn crashed_followers_below_bound_cost_nothing_extra() {
    // A crashed *follower* below the adaptive bound leaves phases silent —
    // silence is free, so the cost stays within the failure-free envelope.
    // (The O(n·f) growth of Table 1 is realized by *active* Byzantine
    // leaders; see the wasteful-leader benches.)
    let n = 17usize;
    let faults0 = vec![Fault::None; n];
    let mut sim0 = sim(bb_actors(0, 1, &faults0), &faults0);
    sim0.run_until_done(round_budget(n)).unwrap();
    let w0 = sim0.metrics().correct_words();

    let mut faults1 = vec![Fault::None; n];
    faults1[4] = Fault::Idle;
    let mut sim1 = sim(bb_actors(0, 1, &faults1), &faults1);
    sim1.run_until_done(round_budget(n)).unwrap();
    let w1 = sim1.metrics().correct_words();

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
    // decision (output() is None until finished; decided_at is stable).
    let mut faults = vec![Fault::None; 7];
    faults[2] = Fault::Idle;
    let mut sim = sim(bb_actors(1, 12, &faults), &faults);
    sim.run_until_done(round_budget(7)).unwrap();
    for i in (0..7).filter(|&i| i != 2) {
        let a: &LockstepAdapter<BbProc> =
            sim.actor(ProcessId(i as u32)).as_any().downcast_ref().unwrap();
        assert!(a.inner().decided_at().is_some());
        assert!(a.inner().output().is_some());
    }
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
    let d = assert_agreement(&byzantine_sender_run((77, vec![lucky]), (77, vec![])));
    assert_eq!(d, Decision::Value(77), "the vetting relay must spread the lone signed value");
}

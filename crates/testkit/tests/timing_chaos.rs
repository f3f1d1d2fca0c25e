//! Timing-hazard regression matrix for the event-driven round engine.
//!
//! The paper's protocols are specified in the synchronous model: a known
//! round length δ, aligned clocks, every round-`r` message delivered
//! before round `r + 1`. The event-driven refactor lets the DES backend
//! break each of those assumptions independently — per-process clock
//! skew, a mis-estimated δ (local timers at 0.5×–2× the true network
//! bound), and a pre-GST asynchronous period with arbitrarily late
//! messages. This suite pins down the two properties the refactor
//! promises:
//!
//! * **Safety is timing-free.** Agreement never breaks, no matter how
//!   wrong the timing assumptions are: the `sent_round` admission rule
//!   buffers early arrivals and admits late ones, so quorum
//!   intersection arguments survive (docs/CORRECTNESS.md §12).
//! * **Performance degrades, boundedly.** Within the acceptance
//!   envelope — δ-estimate within 0.5×–2× and real delay + skew inside
//!   the paper's precondition for that estimate (Lemma 18's
//!   delay + skew < round length) — runs still decide the expected
//!   value and pay at most 2× the lockstep baseline's correct words.
//!   Outside it (E17 sweeps 0.25×–4×), words grow but agreement still
//!   holds.

use meba_core::Decision;
use meba_engine::ClusterReport;
use meba_testkit::{bb_actors, des, oracle, weak_ba_actors, BbM, BbProc, Fault, Timing, WbaProc};

const DELTA: u64 = Timing::DELTA_NS;

/// A finished BB run, checked by the oracle.
fn decided(report: &ClusterReport<BbM>, faults: &[Fault]) -> oracle::Decided<Decision<u64>> {
    oracle::decided::<BbProc>(&report.actors, &report.metrics, faults)
}

/// The acceptance criteria scenario: a mis-estimated δ on both sides
/// (local timers at 0.5×–2× the nominal δ) combined with per-process
/// clock skew at the paper's bound *for that timer* — Lemma 18 requires
/// delay + skew < round length, so each cell caps real link delay at
/// half the timer and skew at a quarter of it. Every run must decide
/// the sender's value with correct words within 2× of the lockstep
/// baseline. The driver advances on a full inbox (quorum = n) or the
/// local timer, whichever first: with the precondition honored, quorum
/// advancement never strands straggler traffic and the word bill
/// matches lockstep exactly (the 2× budget is slack, not need).
#[test]
fn skewed_misestimated_delta_decides_within_twice_the_lockstep_words() {
    let n = 5;
    let faults = vec![Fault::None; n];
    let (sender, input, seed) = (0u32, 42u64, 0x7157_u64);

    let baseline = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
    assert!(baseline.completed);
    let budget = 2 * baseline.metrics.correct.words;

    for timeout_factor in [0.5, 1.0, 2.0] {
        let timer = (timeout_factor * DELTA as f64) as u64;
        let timing = Timing::quorum_or_timeout(timeout_factor)
            .with_quorum(n)
            .with_link_cap(timer / 2)
            .with_skew(timer / 4);
        let report = des(bb_actors(sender, input, &faults), &faults, seed, &timing);
        assert!(report.completed, "timeout_factor = {timeout_factor}: run must decide");
        // Inside the precondition: every check, validity included.
        decided(&report, &faults).assert_in_model();
        assert!(
            report.metrics.correct.words <= budget,
            "timeout_factor = {timeout_factor}: {} words exceeds 2x the lockstep \
             baseline of {} words",
            report.metrics.correct.words,
            baseline.metrics.correct.words,
        );
    }
}

/// Clock skew alone (no quorum advancement, lockstep schedules shifted
/// per process by up to δ/2). The DES samples link delay saturating
/// (0, δ), so δ/2 of skew leaves *no* margin — some deliveries
/// legitimately miss their round (Lemma 18's bound is delay + skew <
/// round length, and delay alone already reaches it). The protocol must
/// still decide the sender's value — the misses degrade to omissions
/// the help machinery absorbs for extra words (safety is timing-free;
/// the word bill is not, once the precondition breaks).
#[test]
fn lockstep_with_skewed_clocks_stays_safe() {
    let n = 7;
    let mut faults = vec![Fault::None; n];
    faults[4] = Fault::Idle;
    let (sender, input, seed) = (1u32, 9001u64, 0xca1f_u64);

    let aligned = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
    let skewed = des(
        bb_actors(sender, input, &faults),
        &faults,
        seed,
        &Timing::lockstep().with_skew(DELTA / 2),
    );
    assert!(aligned.completed && skewed.completed);
    decided(&aligned, &faults).assert_in_model();
    // δ/2 of skew leaves no margin — outside Lemma 18, so the word bill is
    // unbounded and only safety is the oracle's; the value is this test's.
    assert_eq!(decided(&skewed, &faults).assert_safe(), Decision::Value(input));

    // Skew *within* the margin left by a capped-delay network is free:
    // delay (< δ/2) + skew (≤ δ/2) stays under the round length.
    let capped = Timing::lockstep().with_link_cap(DELTA / 2).with_skew(DELTA / 2);
    let in_bound = des(bb_actors(sender, input, &faults), &faults, seed, &capped);
    assert!(in_bound.completed);
    decided(&in_bound, &faults).assert_in_model();
    assert_eq!(
        in_bound.metrics.correct.words, aligned.metrics.correct.words,
        "in-bound skew must not change what the protocol pays"
    );
    assert_eq!(in_bound.rounds, aligned.rounds);
}

/// GST regression: messages sent before the global stabilization time
/// may be arbitrarily late (here up to 12δ), violating the synchrony
/// assumption outright for the protocol's opening rounds. Agreement
/// must survive — the late traffic degrades to omissions, which the
/// help machinery and fallback absorb. The decided *value* is not
/// asserted: with the sender's round-0 broadcast delayed past its
/// receivers' round 1, deciding ⊥ is a legitimate outcome.
#[test]
fn pre_gst_late_messages_never_break_agreement() {
    let n = 5;
    let faults = vec![Fault::None; n];

    for (gst_rounds, seed) in [(2u64, 0x6571_u64), (5, 0x6572), (10, 0x6573)] {
        let timing = Timing::lockstep().with_gst(gst_rounds * DELTA, 12 * DELTA);
        let report = des(bb_actors(0, 31, &faults), &faults, seed, &timing);
        assert!(report.completed, "GST at {gst_rounds} rounds: run must terminate");
        // Pre-GST messages may miss their round: outside the model, safety.
        let decision = decided(&report, &faults).assert_safe();
        assert!(
            matches!(decision, Decision::Value(31) | Decision::Bot),
            "GST at {gst_rounds} rounds: unexpected decision {decision:?}"
        );
    }
}

/// The full hazard stack at once — quorum-or-timeout driver, skewed
/// clocks, *and* an asynchronous prefix — on weak BA with a silent
/// process. Agreement and termination must hold through the
/// combination.
#[test]
fn combined_hazards_still_reach_weak_ba_agreement() {
    let n = 5;
    let mut faults = vec![Fault::None; n];
    faults[2] = Fault::Idle;
    let inputs = vec![17u64; n];

    let timing = Timing::quorum_or_timeout(1.5)
        .with_quorum(n)
        .with_skew(DELTA / 2)
        .with_gst(3 * DELTA, 8 * DELTA);
    let report = des(weak_ba_actors(&inputs, &faults), &faults, 0xbeef, &timing);
    assert!(report.completed, "combined hazards: run must terminate");
    // Skew δ/2 and a pre-GST period break Lemma 18: safety only.
    let d = oracle::decided::<WbaProc>(&report.actors, &report.metrics, &faults).assert_safe();
    assert!(
        matches!(d, Decision::Value(17) | Decision::Bot),
        "combined hazards: unexpected decision {d:?}"
    );
}

/// A mis-estimate far outside the acceptance envelope (timers at 4× δ)
/// only slows the run down — quorum advancement keeps chatty rounds
/// fast, silent rounds wait out the long timer, and the decision is
/// unchanged. This is the far end of the E17 sweep.
#[test]
fn gross_overestimate_is_slow_but_safe() {
    let n = 5;
    let faults = vec![Fault::None; n];
    let report = des(bb_actors(0, 8, &faults), &faults, 0xfade, &Timing::quorum_or_timeout(4.0));
    assert!(report.completed);
    // The n − t quorum advances past straggler traffic, which leaves the
    // model (this run pays 752 words, 150·n): safety, and the value.
    assert_eq!(decided(&report, &faults).assert_safe(), Decision::Value(8));
}

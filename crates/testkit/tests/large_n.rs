//! Large-n protocol runs on the discrete-event backend.
//!
//! These system sizes (n = 65 … 16,385) are far beyond what the paced
//! runtimes can reach in a test suite — two OS threads per process and a
//! real δ of wall clock per round — but the DES backend runs them in
//! milliseconds to seconds of host time, which is the point of having
//! it: the `O(n(f+1))` adaptive claim gets checked where the
//! asymptotics actually show. The failure-free and f = 1 rows ride on
//! sparse virtual time (DESIGN.md §18): a silent round costs nothing, so
//! their cost is the ~16·n words that actually move. The n = 65, f = t
//! row is the dense-traffic guard — fallback traffic wakes every correct
//! process nearly every round, so it exercises the engine with the
//! hints buying next to nothing.

use meba_core::Decision;
// `BB_FAILURE_FREE_WORDS_PER_N` is the envelope `tests/bb_integration.rs`
// asserts at small n — the engine must reproduce it at large n.
use meba_testkit::{
    assert_agreement, bb_actors, des, outputs, BbProc, Fault, Timing, BB_FAILURE_FREE_WORDS_PER_N,
};

#[test]
fn des_bb_n65_failure_free_is_linear() {
    let n = 65;
    let faults = vec![Fault::None; n];
    let report = des(bb_actors(0, 7, &faults), &faults, 0x41, &Timing::lockstep());
    assert!(report.completed, "n={n} failure-free BB must decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    let words = report.metrics.correct.words;
    assert!(
        words <= BB_FAILURE_FREE_WORDS_PER_N * n as u64,
        "failure-free words must stay linear: {words} > 25·{n}"
    );
}

#[test]
fn des_bb_n65_tolerates_f_equals_t() {
    let n = 65; // t = 32
    let t = (n - 1) / 2;
    let mut faults = vec![Fault::None; n];
    // Silence the t processes after the sender: every silent leader costs
    // a phase, the hardest crash placement for the staircase.
    for f in faults.iter_mut().skip(1).take(t) {
        *f = Fault::Idle;
    }
    let report = des(bb_actors(0, 7, &faults), &faults, 0x42, &Timing::lockstep());
    assert!(report.completed, "n={n} f=t BB must still decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    // O(n(f+1)): the budget scales with the realized failure count. The
    // constant is larger than the failure-free 25 — every silent leader
    // costs a help phase where live processes respond — but the shape is
    // still n·(f+1), not the unconditional n² of the non-adaptive
    // fallback run at every f.
    let words = report.metrics.correct.words;
    let budget = 60 * (n as u64) * (t as u64 + 1);
    assert!(words <= budget, "f=t words {words} exceed O(n(f+1)) budget {budget}");
}

/// The acceptance run: n = 129 (t = 64) failure-free BB to decision.
/// Ignored in the default (debug) suite; CI runs it in release, where it
/// must finish well under 5 s.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n129_failure_free_is_linear_and_fast() {
    let n = 129;
    let faults = vec![Fault::None; n];
    let started = std::time::Instant::now();
    let report = des(bb_actors(0, 7, &faults), &faults, 0x43, &Timing::lockstep());
    let elapsed = started.elapsed();
    assert!(report.completed, "n={n} failure-free BB must decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    let words = report.metrics.correct.words;
    assert!(
        words <= BB_FAILURE_FREE_WORDS_PER_N * n as u64,
        "failure-free words must stay linear: {words} > 25·{n}"
    );
    assert!(elapsed.as_secs() < 5, "n={n} DES run took {elapsed:?}, budget is 5s");
}

/// The sparse-time acceptance run (ROADMAP item 4's target): n = 4097
/// (t = 2048) failure-free BB to decision — 32,785 rounds, of which a
/// process runs about seven — in under 2 s of release wall clock,
/// trusted set-up included, with the word total still linear in n.
/// Ignored in the default (debug) suite; CI runs it in release.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n4097_failure_free_is_linear_and_fast() {
    let n = 4097;
    let faults = vec![Fault::None; n];
    let started = std::time::Instant::now();
    let report = des(bb_actors(0, 7, &faults), &faults, 0x44, &Timing::lockstep());
    let elapsed = started.elapsed();
    assert!(report.completed, "n={n} failure-free BB must decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    let words = report.metrics.correct.words;
    assert!(
        words <= BB_FAILURE_FREE_WORDS_PER_N * n as u64,
        "failure-free words must stay linear: {words} > 25·{n}"
    );
    assert!(elapsed.as_secs() < 2, "n={n} DES run took {elapsed:?}, budget is 2s");
}

/// One silent leader at n = 4097: the run pays for the fault it has,
/// not for the 2048 it tolerates — the `c·n·(f+1)` envelope with the
/// same constant the n = 65, f = t row uses.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n4097_one_fault_stays_in_the_adaptive_envelope() {
    let n = 4097;
    let f = 1;
    let mut faults = vec![Fault::None; n];
    faults[1] = Fault::Idle;
    let report = des(bb_actors(0, 7, &faults), &faults, 0x45, &Timing::lockstep());
    assert!(report.completed, "n={n} f={f} BB must decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    let words = report.metrics.correct.words;
    let budget = 60 * n as u64 * (f + 1);
    assert!(words <= budget, "f={f} words {words} exceed O(n(f+1)) budget {budget}");
    assert!(!report.metrics.by_component.contains_key("fallback"), "f = 1 must not fall back");
}

/// n = 16,385 (t = 8192) failure-free: 131,089 rounds × 16,385 processes
/// would be 2.1 G ticks on a dense schedule; sparse time makes it a
/// second or so. Words stay at the failure-free constant.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n16385_failure_free_is_linear() {
    let n = 16_385;
    let faults = vec![Fault::None; n];
    let report = des(bb_actors(0, 7, &faults), &faults, 0x46, &Timing::lockstep());
    assert!(report.completed, "n={n} failure-free BB must decide");
    assert_eq!(assert_agreement(&outputs::<BbProc>(&report.actors, &faults)), Decision::Value(7));
    let words = report.metrics.correct.words;
    assert!(
        words <= BB_FAILURE_FREE_WORDS_PER_N * n as u64,
        "failure-free words must stay linear: {words} > 25·{n}"
    );
}

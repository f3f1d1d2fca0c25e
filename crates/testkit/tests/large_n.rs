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
//! row is the dense-traffic guard — quadratic fallback traffic, where a
//! process sleeps only through the segments of scopes it is not in. The
//! n = 1025 wasteful-leader row runs
//! the rushing attacker corpus at a size a simulation that stepped every
//! process every round never reached.

use meba_adversary::WastefulBbLeader;
use meba_core::{Bb, LockstepAdapter};
use meba_crypto::ProcessId;
use meba_sim::AnyActor;
use meba_testkit::{bb_actors, cluster, des, oracle, BbM, BbProc, Family, Fault, Timing};

/// BB with sender p0 broadcasting 7 under `faults` on the DES, checked by
/// the oracle — agreement, the sender's value, and BB's word bound for
/// the run's `n` and `f` — with the run's ledger handed back.
fn checked_bb(faults: &[Fault], seed: u64) -> meba_sim::Metrics {
    let report = des(bb_actors(0, 7, faults), faults, seed, &Timing::lockstep());
    assert!(report.completed, "n={} BB must decide", faults.len());
    oracle::decided::<BbProc>(&report.actors, &report.metrics, faults).assert_in_model();
    report.metrics
}

#[test]
fn des_bb_n65_failure_free_is_linear() {
    checked_bb(&[Fault::None; 65], 0x41);
}

#[test]
fn des_bb_n65_tolerates_f_equals_t() {
    let n = 65; // t = 32
    let t = (n - 1) / 2;
    let mut faults = vec![Fault::None; n];
    // Silence the t processes after the sender: every silent leader costs
    // a phase, the hardest crash placement for the staircase. The bound
    // scales with the realized failure count — n·(f+1), not the
    // unconditional n² of the non-adaptive fallback run at every f.
    for f in faults.iter_mut().skip(1).take(t) {
        *f = Fault::Idle;
    }
    checked_bb(&faults, 0x42);
}

/// The acceptance run: n = 129 (t = 64) failure-free BB to decision.
/// Ignored in the default (debug) suite; CI runs it in release, where it
/// must finish well under 5 s.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n129_failure_free_is_linear_and_fast() {
    let started = std::time::Instant::now();
    checked_bb(&[Fault::None; 129], 0x43);
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 5, "n=129 DES run took {elapsed:?}, budget is 5s");
}

/// The sparse-time acceptance run (DESIGN.md §18): n = 4097
/// (t = 2048) failure-free BB to decision — 32,785 rounds, of which a
/// process runs about seven — in under 2 s of release wall clock,
/// trusted set-up included, with the word total still linear in n.
/// Ignored in the default (debug) suite; CI runs it in release.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n4097_failure_free_is_linear_and_fast() {
    let started = std::time::Instant::now();
    checked_bb(&vec![Fault::None; 4097], 0x44);
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 2, "n=4097 DES run took {elapsed:?}, budget is 2s");
}

/// One silent leader at n = 4097: the run pays for the fault it has,
/// not for the 2048 it tolerates — BB's bound with at most `f + 1`
/// non-silent phases (docs/CORRECTNESS.md §16).
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n4097_one_fault_stays_in_the_adaptive_envelope() {
    let mut faults = vec![Fault::None; 4097];
    faults[1] = Fault::Idle;
    let metrics = checked_bb(&faults, 0x45);
    assert!(!metrics.by_component.contains_key("fallback"), "f = 1 must not fall back");
}

/// n = 16,385 (t = 8192) failure-free: 131,089 rounds × 16,385 processes
/// would be 2.1 G ticks on a dense schedule; sparse time makes it a
/// second or so. Words stay inside the failure-free bound.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n16385_failure_free_is_linear() {
    checked_bb(&vec![Fault::None; 16_385], 0x46);
}

/// Rushing attackers at scale: p1..p8 are `WastefulBbLeader`s at n = 1025
/// — each hears the sender's round-0 value in round 0, then wastes its
/// vetting phase and its weak BA phase. The run stays inside BB's word
/// bound; the realized words per `n(f+1)` are printed.
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn des_bb_n1025_wasteful_leaders_stay_in_the_adaptive_envelope() {
    let (n, f) = (1025, 8);
    let mut faults = vec![Fault::None; n];
    for fault in faults.iter_mut().skip(1).take(f) {
        *fault = Fault::Idle;
    }
    let actors = cluster(
        Family::BB.config(n),
        Family::BB.key_seed,
        &faults,
        |p| {
            let factory = p.factory();
            let bb = if p.id == ProcessId(0) {
                Bb::new_sender(p.cfg, p.id, p.key, p.pki, factory, 7)
            } else {
                Bb::new(p.cfg, p.id, p.key, p.pki, factory, ProcessId(0))
            };
            LockstepAdapter::new(p.id, bb)
        },
        |p, _| {
            let leader = WastefulBbLeader::<u64, _>::new(p.cfg, p.id, p.id.0);
            Some(Box::new(leader) as Box<dyn AnyActor<Msg = BbM>>)
        },
    );
    let report = des(actors, &faults, 0x1025, &Timing::lockstep());
    assert!(report.completed, "n={n} BB must decide");
    oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    let words = report.metrics.correct_words();
    let per = words as f64 / (n * (f + 1)) as f64;
    println!("n = {n}, f = {f} wasteful leaders: {words} words = {per:.2} · n(f+1)");
}

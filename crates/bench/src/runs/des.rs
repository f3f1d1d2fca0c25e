//! E15 and E17: adaptive BB on the discrete-event backend — asymptotics
//! at system sizes the paced runtimes cannot reach, and the δ-estimate
//! sweep of the quorum-or-timeout round driver.

use super::idle_at;
use meba_testkit::oracle::{self, Violation};
use meba_testkit::{bb_actors, des, BbProc, Fault, Timing};
use std::collections::BTreeMap;

/// Outcome of one large-n run on the discrete-event backend (experiment
/// E15: asymptotics at system sizes the paced runtimes cannot reach).
#[derive(Clone, Debug)]
pub struct DesRunStats {
    /// System size.
    pub n: usize,
    /// Crashed (silent) leaders injected.
    pub f: usize,
    /// Words sent by correct processes.
    pub words: u64,
    /// Point-to-point messages sent by correct processes.
    pub messages: u64,
    /// `words` split by message component tag (`Metrics::by_component`,
    /// E5's breakdown): which part of the protocol pays them.
    pub by_component: BTreeMap<String, u64>,
    /// Virtual rounds to global termination.
    pub rounds: u64,
    /// Whether all correct decisions were equal.
    pub agreement: bool,
    /// Whether correct words stayed within BB's word bound, the sum of
    /// its components' bounds (docs/CORRECTNESS.md §16).
    pub within_bound: bool,
}

impl DesRunStats {
    /// Average correct words per virtual round.
    pub fn words_per_round(&self) -> f64 {
        self.words as f64 / self.rounds.max(1) as f64
    }
}

/// Runs adaptive BB (sender `p0`, value 7) on the discrete-event backend
/// with `f` crashed leaders (`p1..pf` silent from round 0 — each costs a
/// help phase, realizing the `O(n(f+1))` staircase without the per-round
/// wall-clock δ of the paced runtimes).
///
/// # Panics
///
/// Panics if the run does not terminate within the standard round budget
/// or the oracle finds a violation other than the word bound, which is
/// read into [`DesRunStats::within_bound`]: the run is inside the model.
pub fn run_des_bb(n: usize, f: usize, seed: u64) -> DesRunStats {
    let faults = idle_at(n, 1..=f);
    let report = des(bb_actors(0, 7, &faults), &faults, seed, &Timing::lockstep());
    assert!(report.completed, "E15 n={n} f={f}: DES run must terminate");
    let decided = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
    let (over, other): (Vec<_>, Vec<_>) =
        decided.violations.iter().partition(|v| matches!(v, Violation::Words { .. }));
    assert!(other.is_empty(), "E15 n={n} f={f} seed {seed:#x}: {other:?}");
    DesRunStats {
        n,
        f,
        words: report.metrics.correct.words,
        messages: report.metrics.correct.messages,
        by_component: (report.metrics.by_component.iter())
            .map(|(tag, counters)| (tag.clone(), counters.words))
            .collect(),
        rounds: report.rounds,
        agreement: true,
        within_bound: over.is_empty(),
    }
}

/// Outcome of one δ-estimate cell of the timing sweep (experiment E17:
/// how the quorum-or-timeout round driver degrades as the δ-estimate
/// drifts away from the network's true bound).
#[derive(Clone, Debug)]
pub struct TimingSweepStats {
    /// Local timer as a multiple of the nominal δ.
    pub timeout_factor: f64,
    /// `true` = advance early only on a complete inbox (quorum = n);
    /// `false` = the protocol quorum `n − t`, which can strand straggler
    /// traffic.
    pub full_inbox_quorum: bool,
    /// Whether every correct process decided within the round budget.
    pub completed: bool,
    /// Whether the correct processes that decided all decided the
    /// *same* value. Safety: must never be false, no matter how wrong the
    /// δ-estimate is.
    pub agreement: bool,
    /// Whether every correct process decided the sender's input.
    /// Validity holds whenever the synchrony precondition does; under a
    /// broken precondition ⊥ is a legitimate outcome.
    pub decided_input: bool,
    /// Rounds executed (the budget itself for incomplete runs).
    pub rounds: u64,
    /// Words sent by correct processes.
    pub words: u64,
    /// Words of the lockstep baseline with the same seed.
    pub baseline_words: u64,
    /// Round advances fired by quorum readiness.
    pub quorum_advances: u64,
    /// Round advances fired by the local timer.
    pub timeout_advances: u64,
}

/// Runs one E17 cell: failure-free BB (n = 5, sender `p0`, value 7) on
/// the DES backend under the quorum-or-timeout driver with a local timer
/// of `timeout_factor · δ`, against a *fixed* network truth — real link
/// delay capped at δ/2, per-process clock skew up to δ/8. The paper's
/// synchrony precondition (delay + skew < round length, Lemma 18) holds
/// for every timer above 0.625 δ and breaks below it, so sweeping the
/// factor from 0.25 to 4 traces the degradation curve of a mis-estimated
/// δ while the lockstep baseline pins the reference word bill.
pub fn run_timing_sweep(
    timeout_factor: f64,
    full_inbox_quorum: bool,
    seed: u64,
) -> TimingSweepStats {
    let n = 5;
    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 7u64);
    let delta = Timing::DELTA_NS;

    let baseline = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
    assert!(baseline.completed, "E17: lockstep baseline must terminate");
    oracle::decided::<BbProc>(&baseline.actors, &baseline.metrics, &faults).assert_in_model();

    let mut timing =
        Timing::quorum_or_timeout(timeout_factor).with_link_cap(delta / 2).with_skew(delta / 8);
    if full_inbox_quorum {
        timing = timing.with_quorum(n);
    }
    let report = des(bb_actors(sender, input, &faults), &faults, seed, &timing);
    // Below 0.625 δ the cell is outside Lemma 18's precondition, and the
    // n − t quorum strands stragglers at any timer: the cells are read
    // kind by kind, not asserted.
    let decided = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
    let found = |kind: fn(&Violation) -> bool| decided.violations.iter().any(kind);
    let completed = !found(|v| matches!(v, Violation::Undecided(_)));
    TimingSweepStats {
        timeout_factor,
        full_inbox_quorum,
        completed,
        agreement: !found(|v| matches!(v, Violation::Disagreement(..))),
        decided_input: completed && !found(|v| *v == Violation::Validity),
        rounds: report.rounds,
        words: report.metrics.correct.words,
        baseline_words: baseline.metrics.correct.words,
        quorum_advances: report.metrics.advance.quorum,
        timeout_advances: report.metrics.advance.timeout,
    }
}

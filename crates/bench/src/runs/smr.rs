//! E12: the session-multiplexed, pipelined replicated log on the
//! lockstep discrete-event backend.

use super::idle_at;
use meba_engine::{run_des_cluster, DesConfig};
use meba_testkit::{log_actors, log_round_budget, oracle, with_faults, LogProc};

/// Outcome of one replicated-log run (experiment E12).
#[derive(Clone, Debug)]
pub struct SmrRunStats {
    /// System size.
    pub n: usize,
    /// Crashed followers.
    pub f: usize,
    /// Pipeline window `W` (`1` = sequential).
    pub window: u64,
    /// Slots attempted.
    pub slots: u64,
    /// Slots that committed a value (`≠ ⊥`).
    pub committed: u64,
    /// Total rounds until every replica finished the log.
    pub rounds: u64,
    /// Words sent by correct processes across all sessions.
    pub words: u64,
    /// Rounds per *committed* slot — the pipelining win.
    pub rounds_per_slot: f64,
    /// Correct words per committed slot — must stay adaptive.
    pub words_per_slot: f64,
    /// Per-session correct words, in slot order (from
    /// [`meba_sim::Metrics::per_session`]).
    pub session_words: Vec<u64>,
    /// Whether all correct replicas hold identical, complete logs.
    pub agreement: bool,
    /// The run's whole ledger.
    pub metrics: meba_sim::Metrics,
}

/// Runs the session-multiplexed replicated log: `slots` BB instances,
/// pipeline window `window`, and `f` crashed followers (`p1..pf` — their
/// proposer slots commit `⊥`). Replica `i` proposes `100·(i+1) + k`.
pub fn run_smr(n: usize, slots: u64, window: u64, f: usize) -> SmrRunStats {
    assert!(f <= (n - 1) / 2);
    let faults = idle_at(n, 1..=f);
    let config = DesConfig { max_rounds: log_round_budget(n, slots), ..DesConfig::default() };
    let report =
        run_des_cluster(log_actors(slots, window, &faults), None, with_faults(&faults, config))
            .expect("valid config");
    assert!(report.completed, "smr run terminated");

    let m = &report.metrics;
    let log = oracle::decided::<LogProc>(&report.actors, m, &faults).assert_in_model();
    let committed = log.iter().filter(|e| e.entry.value().is_some()).count() as u64;
    SmrRunStats {
        n,
        f,
        window,
        slots,
        committed,
        rounds: m.rounds,
        words: m.correct.words,
        rounds_per_slot: m.rounds as f64 / committed.max(1) as f64,
        words_per_slot: m.correct.words as f64 / committed.max(1) as f64,
        session_words: m.per_session.values().map(|s| s.counters.words).collect(),
        agreement: true,
        metrics: m.clone(),
    }
}

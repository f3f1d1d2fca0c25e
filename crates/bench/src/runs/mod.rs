//! Single-configuration experiment runs, one module per experiment
//! group. Every cluster here is built, run and read back through
//! `meba-testkit`'s one generic path (`cluster` / the `*_actors`
//! families → `sim` / `des` / a wall-clock backend → `outputs` /
//! `correct` / `DecisionStats`); a runner only names its scenario.
//!
//! | module | experiments |
//! |---|---|
//! | [`protocols`] | E1–E11: BB, weak BA, strong BA, baselines, ablation attacks (lockstep) |
//! | [`smr`] | E12: pipelined replicated log (lockstep) |
//! | [`wire`] | E13, E16: loopback TCP byte cost and reactor-mesh scale |
//! | [`recovery`] | E14, E19: crash-restart and certified state transfer (threads) |
//! | [`des`] | E15, E17: large-n asymptotics and the δ-estimate sweep (DES) |
//! | [`service`] | E18: client-service throughput (lockstep) |

pub mod des;
pub mod protocols;
pub mod recovery;
pub mod service;
pub mod smr;
pub mod wire;

pub use des::*;
pub use protocols::*;
pub use recovery::*;
pub use service::*;
pub use smr::*;
pub use wire::*;

use meba_testkit::Fault;

/// An `n`-process fault vector with the processes in `byz` silent from
/// the start and everyone else correct.
fn idle_at(n: usize, byz: impl IntoIterator<Item = usize>) -> Vec<Fault> {
    let mut faults = vec![Fault::None; n];
    for i in byz {
        faults[i] = Fault::Idle;
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_testkit::BB_FAILURE_FREE_WORDS_PER_N;

    #[test]
    fn bb_failure_free_linear() {
        let s = run_bb(9, BbAdversary::FailureFree);
        assert!(s.agreement);
        assert!(!s.fallback_used);
        assert!(s.words <= BB_FAILURE_FREE_WORDS_PER_N * 9);
    }

    #[test]
    fn wasteful_leaders_stay_adaptive_below_bound() {
        // n = 17, bound = 4: f = 2 wasteful leaders must not trigger the
        // fallback.
        let s = run_weak_ba(17, WbaAdversary::WastefulLeaders(2));
        assert!(s.agreement);
        assert!(!s.fallback_used, "f below the bound must stay adaptive");
    }

    #[test]
    fn dolev_strong_flat_in_f() {
        let a = run_dolev_strong(9, 0);
        let b = run_dolev_strong(9, 2);
        assert!(b.words <= a.words, "crashes cannot increase DS cost");
        assert!(a.words >= (9 * 9) as u64 / 4, "DS is quadratic-order even at f=0");
    }

    #[test]
    fn attack_runners_reproduce_ablations() {
        assert!(!run_split_vote_attack(true).0.agreement);
        assert!(run_split_vote_attack(false).0.agreement);
        assert!(!run_late_help_attack(false).0.agreement);
        assert!(run_late_help_attack(true).0.agreement);
    }

    #[test]
    fn des_run_matches_the_lockstep_failure_free_envelope() {
        let s = run_des_bb(33, 0, 0xe15);
        assert!(s.agreement);
        let envelope = BB_FAILURE_FREE_WORDS_PER_N * 33;
        assert!(s.words <= envelope, "failure-free DES words stay linear: {}", s.words);
        // Same scenario, same accounting: the lockstep runner's words.
        assert_eq!(s.words, run_bb(33, BbAdversary::FailureFree).words);
    }

    #[test]
    fn recovery_run_recovers_and_stays_adaptive() {
        let delta = std::time::Duration::from_millis(2);
        let base = run_recovery_weak_ba(5, 0, delta);
        let s = run_recovery_weak_ba(5, 1, delta);
        assert!(base.agreement && s.agreement);
        assert_eq!(s.refused_equivocations, 0);
        assert!(s.replayed_records > 0, "the crashed process had journaled state");
        // One crash-restart is one fault: the overhead stays within the
        // f = 1 envelope relative to the failure-free run.
        assert!(s.words <= base.words * 3, "{} vs baseline {}", s.words, base.words);
    }
}

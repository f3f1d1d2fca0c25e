//! Single-configuration experiment runs, one module per experiment
//! group. Every cluster here is built, run and checked through
//! `meba-testkit`'s one generic path (`cluster` / the `*_actors`
//! families → `sim` / `des` / a wall-clock backend → `oracle::decided`,
//! or `oracle::service` for the client service); a runner only names
//! its scenario. A run inside the synchrony model passes every check of
//! the oracle — termination, agreement, the family's validity rule and
//! its Table 1 word bound — or the runner panics; the E8/E9 ablations
//! and the E17 timing cells outside Lemma 18 read the oracle's
//! violations instead, and E15 reads its word bound into
//! `within_bound` (docs/CORRECTNESS.md §16).
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
    use meba_fallback::Scope;
    use meba_testkit::oracle;

    #[test]
    fn bb_failure_free_linear() {
        // The runner asserts BB's failure-free word bound.
        let s = run_bb(9, BbAdversary::FailureFree);
        assert!(s.agreement);
        assert!(!s.fallback_used);
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
        // Both runners check BB's failure-free word bound; same scenario,
        // same accounting: the lockstep runner's words.
        let s = run_des_bb(33, 0, 0xe15);
        assert!(s.agreement && s.within_bound);
        assert_eq!(s.words, run_bb(33, BbAdversary::FailureFree).words);
    }

    /// E15's f = t row at n = 129, which exceeded the fitted
    /// `60·n·(f+1)` (60.35), is inside BB's bound built from its
    /// components (docs/CORRECTNESS.md §16).
    #[test]
    #[ignore = "n = 129 at f = t on the DES: seconds in debug"]
    fn e15_f_equals_t_at_n129_is_within_the_bb_bound() {
        let s = run_des_bb(129, 64, 0xe15);
        assert_eq!((s.words, s.within_bound), (506_018, true));
    }

    /// The same two doublings further: 62.59 words per `n(f+1)` at
    /// n = 513 and 63.01 at n = 1025.
    #[test]
    #[ignore = "n = 513 at f = t on the DES: seconds in release"]
    fn e15_f_equals_t_at_n513_is_within_the_bb_bound() {
        let s = run_des_bb(513, 256, 0xe15);
        assert_eq!((s.words, s.within_bound), (8_251_618, true));
    }

    #[test]
    #[ignore = "n = 1025 at f = t on the DES: ~10 s and ~0.85 GB in release"]
    fn e15_f_equals_t_at_n1025_is_within_the_bb_bound() {
        let s = run_des_bb(1025, 512, 0xe15);
        assert_eq!((s.words, s.within_bound), (33_134_562, true));
    }

    /// The fallback's words at every E15 f = t row are the recursion of
    /// its plan with `p1..pt` silent, exactly.
    #[test]
    fn e15_fallback_column_is_the_plan_recursion_with_p1_to_pt_silent() {
        for row in E15_WORDS_BY_COMPONENT.lines() {
            let (n, tags) = row.split_once(": ").unwrap();
            let n: u64 = n.parse().unwrap();
            let measured: u64 = (tags.split(' '))
                .find_map(|tag| tag.strip_prefix("fallback="))
                .map(|w| w.parse().unwrap())
                .unwrap();
            let t = (n - 1) / 2;
            let sends =
                |s: &Scope| s.members().filter(|p| !(1..=t).contains(&u64::from(p.0))).count();
            assert_eq!(oracle::bb_fallback_words(n, sends), measured, "n = {n}");
        }
    }

    /// The words of E15's f = t rows split by component tag, at every n
    /// they have been measured at (seed `0xe15`), one line
    /// `n: tag=words …` per row; EXPERIMENTS.md E15 has them per
    /// `n(f+1)`.
    #[test]
    #[ignore = "n = 17 … 1025 at f = t on the DES: ~40 s and ~0.85 GB in release"]
    fn e15_f_equals_t_words_by_component() {
        let rows: String = [17, 33, 65, 129, 257, 513, 1025]
            .into_iter()
            .map(|n| {
                let s = run_des_bb(n, (n - 1) / 2, 0xe15);
                assert_eq!(s.by_component.values().sum::<u64>(), s.words, "n = {n}");
                let tags: Vec<_> =
                    s.by_component.iter().map(|(tag, w)| format!("{tag}={w}")).collect();
                format!("{n}: {}\n", tags.join(" "))
            })
            .collect();
        assert_eq!(rows, E15_WORDS_BY_COMPONENT, "got:\n{rows}");
    }

    /// `bb/dissemination` is `2(n − 1)`, `weak-ba/help` `n² − 1` and
    /// `weak-ba/phases` `7(n² − 1)/4`, so per `n(f+1)` they tend to 0, 2
    /// and 3.5; `bb/vetting` is silent; `fallback` is
    /// [`oracle::bb_fallback_words`] with `p1..pt` silent.
    const E15_WORDS_BY_COMPONENT: &str = "\
17: bb/dissemination=32 fallback=6202 weak-ba/help=288 weak-ba/phases=504
33: bb/dissemination=64 fallback=26818 weak-ba/help=1088 weak-ba/phases=1904
65: bb/dissemination=128 fallback=112130 weak-ba/help=4224 weak-ba/phases=7392
129: bb/dissemination=256 fallback=460002 weak-ba/help=16640 weak-ba/phases=29120
257: bb/dissemination=512 fallback=1866594 weak-ba/help=66048 weak-ba/phases=115584
513: bb/dissemination=1024 fallback=7526882 weak-ba/help=263168 weak-ba/phases=460544
1025: bb/dissemination=2048 fallback=30243298 weak-ba/help=1050624 weak-ba/phases=1838592
";

    #[test]
    fn recovery_run_recovers_and_stays_adaptive() {
        let delta = std::time::Duration::from_millis(2);
        let base = run_recovery_weak_ba(5, 0, delta);
        let s = run_recovery_weak_ba(5, 1, delta);
        assert!(base.agreement && s.agreement);
        assert_eq!(s.refused_equivocations, 0);
        assert!(s.replayed_records > 0, "the crashed process had journaled state");
        // One crash-restart is one fault: the overhead stays within the
        // f = 1 envelope relative to the failure-free run (the runner
        // also asserts weak BA's f = 1 word bound).
        assert!(s.words <= base.words * 3, "{} vs baseline {}", s.words, base.words);
    }
}

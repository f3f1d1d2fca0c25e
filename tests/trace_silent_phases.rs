//! The *silence* claims, read off the ledger: the paper's adaptivity
//! comes from silent phases costing nothing, which we verify per round
//! (`words_per_round`), per component (`by_component`) and per link
//! (`per_link`, one round at a time).

mod common;

use common::{oracle, round_budget, weak_ba_actors, Fault, WbaM, WbaProc};
use meba::prelude::*;
use meba::sim::faults::Link;

fn failure_free_weak_ba(n: usize, inputs: &[u64], max_rounds: u64) -> ClusterReport<WbaM> {
    let faults = vec![Fault::None; n];
    let config = DesConfig { max_rounds, ..DesConfig::default() };
    run_des_cluster(weak_ba_actors(inputs, &faults), None, config).expect("valid config")
}

#[test]
fn failure_free_run_is_silent_after_phase_one() {
    let n = 9usize;
    let run = failure_free_weak_ba(n, &vec![4u64; n], round_budget(n));
    assert!(run.completed);
    let m = &run.metrics;
    oracle::decided::<WbaProc>(&run.actors, m, &[Fault::None; 9]).assert_in_model();

    // Phase 1 occupies rounds 0..5; the finalize broadcast goes out in
    // round 4. After that: total silence — phases 2..n are silent, no
    // help requests, no fallback.
    assert_eq!(
        m.words_per_round.iter().rposition(|&w| w > 0),
        Some(4),
        "a failure-free run must not send a single word after phase 1"
    );
    assert!(!m.by_component.contains_key("fallback"));
    assert!(!m.by_component.contains_key("weak-ba/help"));

    // Round structure of the one non-silent phase: propose (r0), votes
    // (r1), commit cert (r2), decide shares (r3), finalize (r4).
    for r in 0..5 {
        assert!(m.words_per_round[r] > 0, "phase-1 round {r} must be active");
    }
    // And every word was sent by a correct process.
    assert_eq!(m.byzantine.words, 0);
}

#[test]
fn leader_to_all_pattern_in_phase_one() {
    let n = 7usize;
    let leader = ProcessId(1); // phase 1 leader: p_{1 mod n}
    let mut before = Metrics::default().per_link;
    for r in 0..5u64 {
        // The links round r sent on: the per-link `sent` delta between
        // the deterministic runs to round r and to round r + 1.
        let after = failure_free_weak_ba(n, &vec![2u64; n], r + 1).metrics.per_link;
        let sent: Vec<(Link, u64)> = after
            .iter()
            .map(|(l, s)| (*l, s.sent - before.get(l).map_or(0, |b| b.sent)))
            .filter(|(_, sent)| *sent > 0)
            .collect();
        before = after;
        assert_eq!(sent.len(), n - 1, "round {r}");
        assert!(sent.iter().all(|(_, k)| *k == 1), "one message per link in round {r}");
        if r % 2 == 0 {
            // Rounds 0, 2, 4 are leader broadcasts: it reaches the other
            // n - 1 processes.
            assert!(sent.iter().all(|(l, _)| l.from == leader), "round {r}");
        } else {
            // Rounds 1 and 3 are all-to-leader replies.
            assert!(sent.iter().all(|(l, _)| l.to == leader), "round {r}");
        }
    }
}

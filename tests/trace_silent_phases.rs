//! Trace-based verification of the *silence* claims: the paper's
//! adaptivity comes from silent phases costing nothing, which we verify
//! at message granularity with the simulator's event trace.

mod common;

use common::{round_budget, weak_ba_actors, Fault, WbaM};
use meba::prelude::*;

fn traced_weak_ba(n: usize, inputs: &[u64]) -> Simulation<WbaM> {
    let actors = weak_ba_actors(inputs, &vec![Fault::None; n]);
    SimBuilder::new(actors).trace(100_000).build()
}

#[test]
fn failure_free_run_is_silent_after_phase_one() {
    let n = 9usize;
    let mut sim = traced_weak_ba(n, &vec![4u64; n]);
    sim.run_until_done(round_budget(n)).unwrap();
    let trace = sim.trace().expect("tracing enabled");

    // Phase 1 occupies rounds 0..5; the finalize broadcast goes out in
    // round 4. After that: total silence — phases 2..n are silent, no
    // help requests, no fallback.
    assert_eq!(
        trace.last_activity("weak-ba"),
        Some(4),
        "a failure-free run must not send a single word after phase 1"
    );
    assert!(trace.component("fallback").is_empty());
    assert!(trace.component("weak-ba/help").is_empty());

    // Round structure of the one non-silent phase: propose (r0), votes
    // (r1), commit cert (r2), decide shares (r3), finalize (r4).
    for r in 0..5u64 {
        assert!(trace.in_round(r).count() > 0, "phase-1 round {r} must be active");
    }
    // And every event was sent by a correct process.
    assert!(trace.events().iter().all(|e| e.sender_correct));
}

#[test]
fn leader_to_all_pattern_in_phase_one() {
    let n = 7usize;
    let mut sim = traced_weak_ba(n, &vec![2u64; n]);
    sim.run_until_done(round_budget(n)).unwrap();
    let trace = sim.trace().unwrap();
    let leader = ProcessId(1); // phase 1 leader: p_{1 mod n}

    // Rounds 0, 2, 4 are leader broadcasts: every event's sender is the
    // leader and it reaches the other n-1 processes.
    for r in [0u64, 2, 4] {
        let events: Vec<_> = trace.in_round(r).collect();
        assert_eq!(events.len(), n - 1, "round {r}");
        assert!(events.iter().all(|e| e.from == leader), "round {r}");
    }
    // Rounds 1 and 3 are all-to-leader replies.
    for r in [1u64, 3] {
        let events: Vec<_> = trace.in_round(r).collect();
        assert_eq!(events.len(), n - 1, "round {r}");
        assert!(events.iter().all(|e| e.to == leader), "round {r}");
    }
}

#[test]
fn trace_word_totals_match_metrics() {
    let n = 7usize;
    let mut sim = traced_weak_ba(n, &vec![8u64; n]);
    sim.run_until_done(round_budget(n)).unwrap();
    let trace = sim.trace().unwrap();
    let traced: u64 = trace.events().iter().map(|e| e.words).sum();
    assert_eq!(traced, sim.metrics().correct_words());
    assert_eq!(trace.dropped(), 0);
}

//! Exhaustive small-model checking: for small `n`, enumerate *every*
//! crash pattern (victim sets × crash rounds over the interesting window)
//! and *every* input assignment over a small domain, and assert the
//! protocol properties on each execution. Complements the randomized
//! property tests with complete coverage of the small cases.

mod common;

use common::{round_budget, weak_ba_actors, Fault, WbaProc};
use meba::prelude::*;

fn run_weak_ba(
    n: usize,
    inputs: &[u64],
    crashes: &[(u32, u64)],
) -> Vec<(u32, Decision<u64>, bool)> {
    let actors = weak_ba_actors(inputs, &vec![Fault::None; n]);
    let mut b = SimBuilder::new(actors);
    for &(id, round) in crashes {
        b = b.crash_at(ProcessId(id), round);
    }
    let mut sim = b.build();
    sim.run_until_done(round_budget(n)).unwrap();
    (0..n as u32)
        .filter(|i| !crashes.iter().any(|(c, _)| c == i))
        .map(|i| {
            let a: &LockstepAdapter<WbaProc> =
                sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            (i, a.inner().output().expect("decided"), a.inner().used_fallback())
        })
        .collect()
}

/// n = 3, t = 1: every single-victim crash at every round through the
/// schedule's interesting window, × every binary input assignment.
#[test]
fn n3_every_crash_every_input() {
    let n = 3usize;
    let window = 3 * 5 + 4; // phases + help rounds
    let mut executions = 0;
    for victim in 0..n as u32 {
        for crash_round in 0..window {
            for input_bits in 0..(1u32 << n) {
                let inputs: Vec<u64> = (0..n).map(|i| u64::from(input_bits >> i & 1)).collect();
                let out = run_weak_ba(n, &inputs, &[(victim, crash_round)]);
                executions += 1;
                // Agreement.
                assert!(
                    out.windows(2).all(|w| w[0].1 == w[1].1),
                    "victim p{victim} at r{crash_round}, inputs {inputs:?}: {out:?}"
                );
                // Unique validity / value provenance: a concrete decision
                // must be some process's input (crash faults cannot
                // invent values).
                if let Decision::Value(v) = out[0].1 {
                    assert!(inputs.contains(&v), "invented value {v} (inputs {inputs:?})");
                }
                // Unanimity among ALL processes forces that value: the
                // crashed process was honest pre-crash, so when everyone
                // (including it) proposed the same v, only v exists.
                if inputs.windows(2).all(|w| w[0] == w[1]) {
                    assert_eq!(out[0].1, Decision::Value(inputs[0]));
                }
            }
        }
    }
    assert_eq!(executions, 3 * 19 * 8);
}

/// n = 5, t = 2: every two-victim crash pattern on a coarse round grid,
/// unanimous inputs — unanimity must always survive.
#[test]
fn n5_every_double_crash_on_grid() {
    let n = 5usize;
    let grid = [0u64, 2, 4, 7, 12, 22, 26, 28];
    let mut executions = 0;
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            for &ra in &grid {
                for &rb in &grid {
                    let out = run_weak_ba(n, &[9; 5], &[(a, ra), (b, rb)]);
                    executions += 1;
                    assert!(
                        out.iter().all(|(_, d, _)| *d == Decision::Value(9)),
                        "victims p{a}@r{ra}, p{b}@r{rb}: {out:?}"
                    );
                }
            }
        }
    }
    assert_eq!(executions, 10 * 64);
}

/// n = 5: every single victim × every round of the help window with
/// *split* inputs — agreement and provenance, plus Lemma-6-style checks
/// on where the fallback may appear.
#[test]
fn n5_help_window_crashes_split_inputs() {
    let n = 5usize;
    let help0 = 5 * 5;
    let inputs = [1u64, 2, 1, 2, 1];
    for victim in 0..n as u32 {
        for crash_round in help0..help0 + 8 {
            let out = run_weak_ba(n, &inputs, &[(victim, crash_round)]);
            assert!(
                out.windows(2).all(|w| w[0].1 == w[1].1),
                "victim p{victim} at r{crash_round}: {out:?}"
            );
            if let Decision::Value(v) = out[0].1 {
                assert!([1u64, 2].contains(&v));
            }
        }
    }
}

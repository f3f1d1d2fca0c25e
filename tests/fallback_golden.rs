//! Golden table for the fallback hand-off (Alg 3 lines 15–29, Alg 5
//! lines 16–30): exact `(correct words, rounds, max decided_at,
//! used_fallback count)` of one fallback-triggering lockstep run per
//! protocol and size. The other suites assert agreement on these paths;
//! this one pins the totals, so a change to the hand-off's timing or
//! traffic shows up as a number, not as a still-green property.
//!
//! The `f = t` values were recorded before the hand-off moved into the
//! single `FallbackHost`, the strong BA rows with zero and one idle
//! process before Algorithm 5 and its rotating extension became one
//! `StrongBa`; none may move with either.

mod common;

use common::*;
use meba::prelude::*;
use oracle::Probe;

/// `(correct words, rounds, max decided_at, used_fallback count)`.
type Row = (u64, u64, u64, usize);

/// The last `t` processes are silent from the start (`f = t`).
fn idle_tail(n: usize) -> Vec<Fault> {
    let t = (n - 1) / 2;
    (0..n).map(|i| if i < n - t { Fault::None } else { Fault::Idle }).collect()
}

/// Runs `actors` to completion on the lockstep DES, checks it, and
/// reads the row off the correct processes.
fn row<P: Probe>(
    actors: Vec<Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>>,
    faults: &[Fault],
) -> Row {
    let report = des(actors, faults, 0, &Timing::lockstep());
    assert!(report.completed);
    let run = oracle::decided::<P>(&report.actors, &report.metrics, faults);
    run.assert_in_model();
    (run.words, report.rounds, run.last, run.fell_back)
}

fn weak_ba_row(inputs: &[u64]) -> Row {
    let faults = idle_tail(inputs.len());
    row::<WbaProc>(weak_ba_actors(inputs, &faults), &faults)
}

/// Process `who`, if any, is silent from the start.
fn idle_one(n: usize, who: Option<usize>) -> Vec<Fault> {
    (0..n).map(|i| if Some(i) == who { Fault::Idle } else { Fault::None }).collect()
}

/// All inputs `true`.
fn strong_ba_row(variant: SbaCtor, faults: &[Fault]) -> Row {
    row::<SbaProc>(strong_ba_actors(variant, &vec![true; faults.len()], faults), faults)
}

fn bb_row(n: usize) -> Row {
    let faults = idle_tail(n);
    row::<BbProc>(bb_actors(0, 7, &faults), &faults)
}

#[test]
fn fallback_paths_match_the_recorded_totals() {
    let alg5 = |faults: Vec<Fault>| strong_ba_row(StrongBa::new, &faults);
    let rotating = |faults: Vec<Fault>| strong_ba_row(StrongBa::rotating, &faults);
    let table: [(&str, Row, Row); 21] = [
        ("weak BA n=5 unanimous", weak_ba_row(&[8; 5]), (324, 71, 70, 3)),
        ("weak BA n=9 unanimous", weak_ba_row(&[8; 9]), (1404, 129, 128, 5)),
        ("weak BA n=5 divergent", weak_ba_row(&[1, 2, 3, 4, 5]), (240, 71, 70, 3)),
        ("strong BA n=5", alg5(idle_tail(5)), (304, 49, 48, 3)),
        ("strong BA n=9", alg5(idle_tail(9)), (1316, 87, 86, 5)),
        ("rotating strong BA n=5", rotating(idle_tail(5)), (336, 58, 57, 3)),
        ("rotating strong BA n=9", rotating(idle_tail(9)), (1444, 104, 103, 5)),
        ("BB n=5", bb_row(5), (476, 87, 86, 3)),
        ("BB n=9", bb_row(9), (2042, 157, 156, 5)),
        ("strong BA n=5 f=0", alg5(idle_one(5, None)), (32, 12, 4, 0)),
        ("strong BA n=9 f=0", alg5(idle_one(9, None)), (64, 12, 4, 0)),
        ("rotating strong BA n=5 f=0", rotating(idle_one(5, None)), (32, 21, 4, 0)),
        ("rotating strong BA n=9 f=0", rotating(idle_one(9, None)), (64, 29, 4, 0)),
        ("strong BA n=5 p0 idle", alg5(idle_one(5, Some(0))), (368, 49, 48, 4)),
        ("strong BA n=9 p0 idle", alg5(idle_one(9, Some(0))), (1800, 87, 86, 8)),
        ("rotating strong BA n=5 p0 idle", rotating(idle_one(5, Some(0))), (36, 21, 8, 0)),
        ("rotating strong BA n=9 p0 idle", rotating(idle_one(9, Some(0))), (76, 29, 8, 0)),
        ("strong BA n=5 p3 idle", alg5(idle_one(5, Some(3))), (394, 49, 48, 4)),
        ("strong BA n=9 p3 idle", alg5(idle_one(9, Some(3))), (1842, 87, 86, 8)),
        ("rotating strong BA n=5 p3 idle", rotating(idle_one(5, Some(3))), (28, 21, 4, 0)),
        ("rotating strong BA n=9 p3 idle", rotating(idle_one(9, Some(3))), (60, 29, 4, 0)),
    ];
    for (label, got, want) in table {
        assert_eq!(got, want, "{label}: (words, rounds, max decided_at, used_fallback)");
    }
}

//! Shared harness for the cross-crate integration tests — a thin
//! re-export of the public `meba-testkit` crate so downstream users get
//! exactly the same facility the suite itself runs on.

#![allow(dead_code)]

pub use meba_testkit::*;

use meba::engine::{run_des_cluster, ClusterReport, DesConfig};
use meba::sim::{Actor, AnyActor, Message};
use oracle::{Decided, Probe};

/// Runs `actors` to completion on the lockstep discrete-event backend and
/// checks the finished run with family `P`'s oracle.
pub fn checked<P: Probe>(
    actors: Vec<Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>>,
    faults: &[Fault],
) -> Decided<P::Output> {
    let report = des(actors, faults, 0, &Timing::lockstep());
    assert!(report.completed, "not done within the round budget");
    oracle::decided::<P>(&report.actors, &report.metrics, faults)
}

/// Runs `actors` to the end on the lockstep discrete-event backend with
/// each `(id, round)` of `crashes` crashed there at that round — honest,
/// and honestly scheduled, until then. Returns the run and the fault
/// vector the oracle reads it with, in which each victim counts toward
/// `f`.
pub fn run_with_crashes<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    crashes: &[(u32, u64)],
) -> (ClusterReport<M>, Vec<Fault>) {
    let mut faults = vec![Fault::None; actors.len()];
    for &(id, round) in crashes {
        faults[id as usize] = Fault::CrashAt(round);
    }
    let fate = Some(crashes_at(crashes));
    let config = DesConfig {
        max_rounds: round_budget(faults.len()),
        process_fate: fate,
        ..DesConfig::default()
    };
    let report = run_des_cluster(actors, None, config).expect("valid config");
    assert!(report.completed, "not done within the round budget");
    (report, faults)
}

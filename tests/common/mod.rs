//! Shared harness for the cross-crate integration tests — a thin
//! re-export of the public `meba-testkit` crate so downstream users get
//! exactly the same facility the suite itself runs on.

#![allow(dead_code)]

pub use meba_testkit::*;

use meba::engine::{SimBuilder, Simulation};
use meba::sim::{Actor, AnyActor, Message};
use oracle::{Decided, Probe};

/// Runs `actors` to completion on the lockstep simulator and checks the
/// finished run with family `P`'s oracle.
pub fn checked<P: Probe>(
    actors: Vec<Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>>,
    faults: &[Fault],
) -> Decided<P::Output> {
    let mut sim = sim(actors, faults);
    sim.run_until_done(round_budget(faults.len())).unwrap();
    oracle::decided::<P>(sim.actors(), sim.metrics(), faults)
}

/// Runs `actors` to the end on the lockstep simulator with each `(id,
/// round)` of `crashes` crashed there at that round — honest, and
/// honestly scheduled, until then. Returns the run and the fault vector
/// the oracle reads it with, in which each victim counts toward `f`.
pub fn run_with_crashes<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    crashes: &[(u32, u64)],
) -> (Simulation<M>, Vec<Fault>) {
    let mut faults = vec![Fault::None; actors.len()];
    for &(id, round) in crashes {
        faults[id as usize] = Fault::CrashAt(round);
    }
    let mut sim = SimBuilder::new(actors).process_fate(crashes_at(crashes)).build();
    sim.run_until_done(round_budget(faults.len())).unwrap();
    (sim, faults)
}

//! A 101-process replicated log on the discrete-event backend.
//!
//! The paced runtimes spend two OS threads and a real δ of wall clock per
//! process per round, which caps them around a few dozen processes in
//! practice. The discrete-event backend replaces both with a seeded
//! virtual clock and a single-threaded event queue, so a cluster of 101
//! replicas (t = 50) committing a pipelined slot runs in well under a
//! second of host time — while producing the *same* decisions and word
//! counts the lockstep simulator would.
//!
//! (101, not 100: optimal resilience needs odd `n = 2t + 1`.)
//!
//! ```text
//! cargo run --release --example large_n
//! ```

use meba::testkit::{correct, des, log_actors, Fault, LogProc, Timing};
use std::time::Instant;

const N: usize = 101;
const SLOTS: u64 = 2;
const WINDOW: u64 = 2;

fn main() {
    let faults = vec![Fault::None; N];

    println!("replicated log: n = {N} (t = {}), {SLOTS} slots, window {WINDOW}", (N - 1) / 2);
    let started = Instant::now();
    let report = des(log_actors(SLOTS, WINDOW, &faults), &faults, 0x1009, &Timing::lockstep());
    let elapsed = started.elapsed();
    assert!(report.completed, "the run must commit every slot");

    let logs: Vec<_> = correct::<LogProc, _>(&report.actors, &faults).map(LogProc::log).collect();
    let first = logs[0];
    assert_eq!(first.len(), SLOTS as usize, "every slot committed");
    assert!(logs.iter().all(|l| *l == first), "all {N} replicas agree on the log");

    println!("committed log (all replicas identical):");
    for entry in first {
        println!("  slot {} (proposer {:?}) -> {:?}", entry.slot, entry.proposer, entry.entry);
    }
    println!();
    println!("virtual rounds      : {}", report.rounds);
    println!("correct words       : {}", report.metrics.correct.words);
    println!("words per replica   : {:.1}", report.metrics.correct.words as f64 / N as f64);
    println!("host wall-clock time: {elapsed:?}");
}

//! The `meba-smr` crate in action: a replicated log where each slot is
//! one adaptive BB instance with a rotating proposer, including a slot
//! with a crashed proposer — run **pipelined**, with up to `W` slots in
//! flight at once behind one session-multiplexed wire.
//!
//! Unlike `state_machine_replication.rs` (which wires BB instances by
//! hand), this uses the packaged [`ReplicatedLog`] actor: slots are
//! session-tagged instances with per-slot signature domains, so
//! overlapping instances cannot interfere. The same log is run
//! sequentially (`W = 1`) and pipelined (`W = 3`) to show the round
//! savings.
//!
//! ```text
//! cargo run --example replicated_log
//! ```

use meba::prelude::*;
use meba::smr::SmrMsg;

type Log = ReplicatedLog<u64, RecursiveBaFactory>;
type Msg = SmrMsg<u64, <RecursiveBa<BbBaValue<u64>> as SubProtocol>::Msg>;

const N: usize = 5;
const SLOTS: u64 = 5;

/// Builds the cluster (p2 crashed) at the given pipeline window and runs
/// it to completion, returning the finished run.
fn run(window: u64) -> Result<ClusterReport<Msg>, Box<dyn std::error::Error>> {
    let cfg = SystemConfig::new(N, 0)?;
    let (pki, keys) = trusted_setup(N, 2024);
    let crashed = ProcessId(2); // slot 2's proposer will be down

    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if id == crashed {
            actors.push(Box::new(IdleActor::new(id)));
            continue;
        }
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        let commands = vec![10 * (i as u64 + 1), 10 * (i as u64 + 1) + 1];
        let log: Log = ReplicatedLog::new(cfg, id, key, pki.clone(), factory, SLOTS, commands, 0)
            .with_window(window);
        actors.push(Box::new(log));
    }
    let config = DesConfig { max_rounds: 100_000, corrupt: vec![crashed], ..DesConfig::default() };
    let run = run_des_cluster(actors, None, config)?;
    assert!(run.completed, "every live replica finished the log");
    Ok(run)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sequential = run(1)?;
    let pipelined = run(3)?;

    println!("Pipelined replicated log over {SLOTS} adaptive-BB slots (n = {N}, p2 crashed)\n");
    let reference: &Log = pipelined.actors[0].as_any().downcast_ref().unwrap();
    println!(
        "window W = {} → a new slot opens every {} rounds (slot schedule: {})",
        reference.window(),
        reference.stride(),
        reference.stride() * reference.window(),
    );
    println!("{:<6} {:<10} {:<12}", "slot", "proposer", "entry");
    for e in reference.log() {
        let entry = match &e.entry {
            Decision::Value(v) => format!("commit {v}"),
            Decision::Bot => "skip (⊥)".to_string(),
        };
        println!("{:<6} {:<10} {:<12}", e.slot, e.proposer.to_string(), entry);
    }

    // Every live replica holds the identical log, and the pipelined run
    // commits exactly what the sequential run commits — only sooner.
    let crashed = ProcessId(2);
    for i in (0..N).filter(|&i| i != crashed.index()) {
        let l: &Log = pipelined.actors[i].as_any().downcast_ref().unwrap();
        assert_eq!(l.log(), reference.log(), "replica p{i} diverged");
    }
    let seq_ref: &Log = sequential.actors[0].as_any().downcast_ref().unwrap();
    assert_eq!(seq_ref.log(), reference.log(), "pipelining changed the log");
    assert!(pipelined.rounds < sequential.rounds);

    let committed: Vec<u64> = reference.committed().copied().collect();
    println!("\ncommitted commands : {committed:?}");
    println!(
        "rounds             : {} pipelined vs {} sequential",
        pipelined.rounds, sequential.rounds
    );
    println!("total words        : {}", pipelined.metrics.correct_words());
    println!("\nper-slot word bill (session metrics):");
    for (session, s) in &pipelined.metrics.per_session {
        println!(
            "  slot {session}: {:>4} words over rounds {}..={}",
            s.counters.words, s.first_round, s.last_round
        );
    }
    println!("\nAll replicas hold the identical log; the crashed proposer's slot");
    println!("committed ⊥ and the log moved on — and with W = 3 slots in flight");
    println!("the whole log lands in a fraction of the sequential rounds.");
    Ok(())
}

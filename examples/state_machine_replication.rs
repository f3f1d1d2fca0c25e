//! State-machine replication on top of adaptive Byzantine Broadcast —
//! the application the paper's introduction motivates: BA "as a key
//! component in many distributed systems", where most slots are
//! failure-free and adaptivity keeps the common case cheap.
//!
//! A rotating proposer broadcasts one command per slot with an adaptive
//! BB instance; every replica applies the agreed command to a tiny
//! key-value store. Some slots have a crashed proposer — the log still
//! stays identical everywhere, and the per-slot word cost shows the
//! adaptive gap between clean and faulty slots.
//!
//! ```text
//! cargo run --example state_machine_replication
//! ```

use meba::prelude::*;
use std::collections::BTreeMap;

type BbProc = Bb<Vec<u8>, RecursiveBaFactory>;
type Msg = <BbProc as SubProtocol>::Msg;

/// A replicated command: `set key value`.
fn encode_cmd(key: &str, val: u64) -> Vec<u8> {
    format!("set {key} {val}").into_bytes()
}

fn apply_cmd(store: &mut BTreeMap<String, u64>, cmd: &[u8]) {
    let s = String::from_utf8_lossy(cmd);
    let mut it = s.split_whitespace();
    if let (Some("set"), Some(k), Some(v)) = (it.next(), it.next(), it.next()) {
        if let Ok(v) = v.parse() {
            store.insert(k.to_string(), v);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 7usize;
    let commands =
        [("alice", 10u64), ("bob", 25), ("carol", 7), ("alice", 11), ("dave", 99), ("bob", 26)];
    // Slots 2 and 4 have a crashed proposer.
    let crashed_slots = [2usize, 4];

    let mut stores: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); n];
    let mut log: Vec<String> = Vec::new();

    println!("Replicated KV store over adaptive BB (n = {n}, rotating proposer)\n");
    println!("{:<6} {:<10} {:<16} {:>7}  result", "slot", "proposer", "command", "words");

    for (slot, (key, val)) in commands.iter().enumerate() {
        let proposer = ProcessId((slot % n) as u32);
        let proposer_crashed = crashed_slots.contains(&slot);
        let cfg = SystemConfig::new(n, slot as u64)?;
        let (pki, keys) = trusted_setup(n, 1000 + slot as u64);
        let cmd = encode_cmd(key, *val);

        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, k) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if id == proposer && proposer_crashed {
                actors.push(Box::new(IdleActor::new(id)));
                continue;
            }
            let factory = RecursiveBaFactory::new(cfg, k.clone(), pki.clone());
            let bb = if id == proposer {
                Bb::new_sender(cfg, id, k, pki.clone(), factory, cmd.clone())
            } else {
                Bb::new(cfg, id, k, pki.clone(), factory, proposer)
            };
            actors.push(Box::new(LockstepAdapter::new(id, bb)));
        }
        let corrupt = if proposer_crashed { vec![proposer] } else { Vec::new() };
        let config = DesConfig { max_rounds: 20_000, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config)?;
        assert!(run.completed, "every live replica decided the slot");

        // Apply the slot's decision at every live replica.
        let mut slot_decision: Option<Decision<Vec<u8>>> = None;
        for i in 0..n as u32 {
            if proposer_crashed && ProcessId(i) == proposer {
                continue;
            }
            let a: &LockstepAdapter<BbProc> =
                run.actors[i as usize].as_any().downcast_ref().unwrap();
            let d = a.inner().output().expect("replica decided");
            if let Some(prev) = &slot_decision {
                assert_eq!(prev, &d, "replicas diverged!");
            }
            slot_decision = Some(d.clone());
            if let Decision::Value(cmd) = &d {
                apply_cmd(&mut stores[i as usize], cmd);
            }
        }
        let d = slot_decision.unwrap();
        let result = match &d {
            Decision::Value(_) => {
                log.push(format!("set {key} {val}"));
                "committed".to_string()
            }
            Decision::Bot => {
                log.push("<skip>".to_string());
                "skipped (⊥, proposer faulty)".to_string()
            }
        };
        println!(
            "{:<6} {:<10} {:<16} {:>7}  {}",
            slot,
            format!("p{}{}", proposer.0, if proposer_crashed { "✗" } else { "" }),
            format!("set {key} {val}"),
            run.metrics.correct_words(),
            result
        );
    }

    // All live replicas hold the same state.
    let reference = stores
        .iter()
        .enumerate()
        .find(|(i, _)| !crashed_slots.iter().any(|s| s % n == *i))
        .map(|(_, s)| s.clone())
        .unwrap();
    for store in &stores {
        if !store.is_empty() {
            assert_eq!(store, &reference, "replica state diverged");
        }
    }

    println!("\nReplicated log : {log:?}");
    println!("Final state    : {reference:?}");
    println!("\nEvery replica applied the identical log — agreement held in every slot.");
    Ok(())
}

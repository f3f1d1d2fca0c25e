//! Quickstart: run adaptive Byzantine Broadcast among `n` simulated
//! processes and inspect decisions and word counts.
//!
//! ```text
//! cargo run --example quickstart [n]
//! ```

use meba::prelude::*;

type BbProc = Bb<u64, RecursiveBaFactory>;
type Msg = <BbProc as SubProtocol>::Msg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).map(|s| s.parse()).transpose()?.unwrap_or(7);
    let cfg = SystemConfig::new(n, 0)?;
    println!("Adaptive Byzantine Broadcast: n = {n}, t = {}, f = 0", cfg.t());

    // Trusted setup: PKI plus one secret key per process.
    let (pki, keys) = trusted_setup(n, 42);
    let sender = ProcessId(0);
    let value = 1_000_007u64;

    // Every process runs the BB state machine; the quadratic recursive BA
    // is plugged in as the fallback black box (it will stay unused: f = 0).
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        let bb = if id == sender {
            Bb::new_sender(cfg, id, key, pki.clone(), factory, value)
        } else {
            Bb::new(cfg, id, key, pki.clone(), factory, sender)
        };
        actors.push(Box::new(LockstepAdapter::new(id, bb)));
    }

    let run = run_des_cluster(actors, None, DesConfig::default())?;
    assert!(run.completed, "every process finished its schedule");

    println!("\nDecisions:");
    for (i, a) in run.actors.iter().enumerate() {
        let a: &LockstepAdapter<BbProc> = a.as_any().downcast_ref().unwrap();
        println!(
            "  p{i}: {:?} (decided at round {})",
            a.inner().output().unwrap(),
            a.inner().decided_at().unwrap()
        );
    }

    let m = &run.metrics;
    println!("\nComplexity:");
    println!("  rounds                  : {}", m.rounds);
    println!("  words (correct)         : {}", m.correct.words);
    println!("  messages (correct)      : {}", m.correct.messages);
    println!("  constituent signatures  : {}", m.correct.constituent_sigs);
    println!("\nPer component:");
    for (comp, c) in &m.by_component {
        println!("  {comp:<18} {:>6} words", c.words);
    }
    println!(
        "\nFailure-free run: {} words ≈ {:.1}·n — linear, as Table 1 promises.",
        m.correct.words,
        m.correct.words as f64 / n as f64
    );
    Ok(())
}

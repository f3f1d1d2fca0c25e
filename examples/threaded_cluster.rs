//! Run the protocols on the real-time threaded runtime: one OS thread per
//! process, crossbeam channels as links, wall-clock rounds.
//!
//! ```text
//! cargo run --example threaded_cluster [n] [delta_ms]
//! ```

use meba::engine::{run_cluster, ClusterConfig};
use meba::prelude::*;
use std::time::{Duration, Instant};

type SbaProc = StrongBa<RecursiveBaFactory>;
type Msg = <SbaProc as SubProtocol>::Msg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(7);
    let delta_ms: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(2);

    let cfg = SystemConfig::new(n, 0)?;
    let (pki, keys) = trusted_setup(n, 99);
    println!("Binary strong BA on {n} OS threads, δ = {delta_ms} ms, crashing one follower\n");

    let crashed = ProcessId((n - 1) as u32);
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if id == crashed {
            actors.push(Box::new(IdleActor::new(id)));
            continue;
        }
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        // Everyone proposes `true`; strong unanimity must deliver `true`
        // even though the crash forces the quadratic fallback.
        let sba = StrongBa::new(cfg, id, key, pki.clone(), factory, true);
        actors.push(Box::new(LockstepAdapter::new(id, sba)));
    }

    let started = Instant::now();
    let report = run_cluster(
        actors,
        ClusterConfig {
            delta: Duration::from_millis(delta_ms),
            max_rounds: 5_000,
            corrupt: vec![crashed],
            ..ClusterConfig::default()
        },
    );
    let elapsed = started.elapsed();

    assert!(report.completed, "cluster did not terminate");
    println!("Decisions:");
    for a in report.actors.iter().filter(|a| a.id() != crashed) {
        let l: &LockstepAdapter<SbaProc> = a.as_any().downcast_ref().unwrap();
        println!(
            "  {}: {:?} (used fallback: {})",
            a.id(),
            l.inner().output().unwrap(),
            l.inner().used_fallback()
        );
        assert_eq!(l.inner().output(), Some(true), "strong unanimity");
    }
    let m = &report.metrics;
    println!("\nWall clock      : {elapsed:?}");
    println!("Rounds          : {}", report.rounds);
    println!("Words (correct) : {}", m.correct.words);
    // Non-zero: δ is too small for this machine, and the run left the
    // synchrony model (rerun with a larger δ).
    println!("Overruns        : {}", report.overruns);
    println!("Backpressure    : {}", report.backpressure);
    println!(
        "Round latency   : p50 ≤ {} µs, p99 ≤ {} µs, max {} µs ({} samples)",
        m.round_latency.quantile(0.50),
        m.round_latency.quantile(0.99),
        m.round_latency.max_us(),
        m.round_latency.count(),
    );
    let (links, sent, delivered): (usize, u64, u64) =
        m.per_link.values().fold((0, 0, 0), |(l, s, d), st| (l + 1, s + st.sent, d + st.delivered));
    println!("Links           : {links} directed, {sent} sent / {delivered} delivered");
    println!("\nThe crash of {crashed} broke the (n,n) fast path, the cluster fell");
    println!("back to the quadratic recursive BA, and unanimity still delivered `true`.");
    Ok(())
}

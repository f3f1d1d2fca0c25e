//! A compact, runnable version of the paper's Table 1: sweep all three
//! protocols plus the Dolev–Strong baseline and print the measured
//! communication complexity side by side.
//!
//! ```text
//! cargo run --release --example complexity_sweep
//! ```
//! (Release mode recommended: the f = t column runs the quadratic
//! fallback.)

use meba::prelude::*;
use meba_bench_free::*;

/// Minimal run helpers, local to the example (the full sweep machinery
/// lives in the `meba-bench` crate).
mod meba_bench_free {
    use super::*;

    pub fn words_bb(n: usize, crash: usize) -> (u64, bool) {
        let cfg = SystemConfig::new(n, 0).unwrap();
        let (pki, keys) = trusted_setup(n, 1);
        type P = Bb<u64, RecursiveBaFactory>;
        type M = <P as SubProtocol>::Msg;
        let mut actors: Vec<Box<dyn AnyActor<Msg = M>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if i >= 1 && i <= crash {
                actors.push(Box::new(IdleActor::new(id)));
                continue;
            }
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let bb = if i == 0 {
                Bb::new_sender(cfg, id, key, pki.clone(), factory, 7u64)
            } else {
                Bb::new(cfg, id, key, pki.clone(), factory, ProcessId(0))
            };
            actors.push(Box::new(LockstepAdapter::new(id, bb)));
        }
        let run = run_to_end(actors, crash);
        let fb = run.actors.iter().any(|a| {
            a.as_any()
                .downcast_ref::<LockstepAdapter<P>>()
                .is_some_and(|a| a.inner().used_fallback())
        });
        (run.metrics.correct_words(), fb)
    }

    pub fn words_strong(n: usize, crash: usize) -> (u64, bool) {
        let cfg = SystemConfig::new(n, 0).unwrap();
        let (pki, keys) = trusted_setup(n, 2);
        type P = StrongBa<RecursiveBaFactory>;
        type M = <P as SubProtocol>::Msg;
        let mut actors: Vec<Box<dyn AnyActor<Msg = M>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if i >= 1 && i <= crash {
                actors.push(Box::new(IdleActor::new(id)));
                continue;
            }
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let sba = StrongBa::new(cfg, id, key, pki.clone(), factory, true);
            actors.push(Box::new(LockstepAdapter::new(id, sba)));
        }
        let run = run_to_end(actors, crash);
        let fb = run.actors.iter().any(|a| {
            a.as_any()
                .downcast_ref::<LockstepAdapter<P>>()
                .is_some_and(|a| a.inner().used_fallback())
        });
        (run.metrics.correct_words(), fb)
    }

    pub fn words_ds(n: usize) -> u64 {
        let cfg = SystemConfig::new(n, 0).unwrap();
        let (pki, keys) = trusted_setup(n, 3);
        type P = DolevStrongBb<u64>;
        type M = <P as SubProtocol>::Msg;
        let mut actors: Vec<Box<dyn AnyActor<Msg = M>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            let input = (i == 0).then_some(7u64);
            let ds = DolevStrongBb::new(&cfg, ProcessId(0), id, key, pki.clone(), input);
            actors.push(Box::new(LockstepAdapter::new(id, ds)));
        }
        run_to_end(actors, 0).metrics.correct_words()
    }

    /// Runs `actors` to completion on the lockstep discrete-event
    /// backend, `p1..=p{crash}` corrupt.
    fn run_to_end<M: Message>(
        actors: Vec<Box<dyn AnyActor<Msg = M>>>,
        crash: usize,
    ) -> ClusterReport<M> {
        let corrupt = (1..=crash).map(|i| ProcessId(i as u32)).collect();
        let config = DesConfig { max_rounds: 100_000, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed);
        run
    }
}

fn main() {
    println!("Table 1, measured (words sent by correct processes):\n");
    println!(
        "{:>4} | {:>12} {:>12} | {:>12} {:>12} | {:>12}",
        "n", "BB f=0", "BB f=t", "sBA f=0", "sBA f=1", "Dolev-Strong"
    );
    println!("{}", "-".repeat(78));
    for n in [9usize, 17, 33] {
        let t = (n - 1) / 2;
        let (bb0, _) = words_bb(n, 0);
        let (bbt, bbt_fb) = words_bb(n, t);
        let (s0, _) = words_strong(n, 0);
        let (s1, s1_fb) = words_strong(n, 1);
        let ds = words_ds(n);
        println!(
            "{:>4} | {:>12} {:>10}{} | {:>12} {:>10}{} | {:>12}",
            n,
            bb0,
            bbt,
            if bbt_fb { "*" } else { " " },
            s0,
            s1,
            if s1_fb { "*" } else { " " },
            ds
        );
    }
    println!("\n(* = run used the quadratic fallback)");
    println!("\nRead-off: column 1 is linear in n (adaptive, f = 0); column 2 is");
    println!("quadratic (f = t); strong BA is linear failure-free and quadratic with");
    println!("a single fault; Dolev–Strong is quadratic always. Exactly Table 1.");
}

//! The §8-direction extension in action: rotating-leader strong BA
//! surviving crashed leaders at linear cost, with a per-round activity
//! profile that makes the silent-attempt structure visible.
//!
//! ```text
//! cargo run --example adaptive_strong_ba [n] [crashed_leaders]
//! ```

use meba::prelude::*;
use meba::testkit::{correct, des, strong_ba_actors, Fault, SbaProc, Timing};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(17);
    let f: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(2);
    let cfg = SystemConfig::new(n, 0)?;
    assert!(
        f < cfg.adaptive_fault_bound(),
        "keep f below (n-t-1)/2 = {} for the linear path",
        cfg.adaptive_fault_bound()
    );

    println!("Rotating-leader strong BA: n = {n}, leaders p0..p{} crashed\n", f.saturating_sub(1));

    let faults: Vec<Fault> =
        (0..n).map(|i| if i < f { Fault::Idle } else { Fault::None }).collect();
    let actors = strong_ba_actors(StrongBa::rotating, &vec![true; n], &faults);
    let run = des(actors, &faults, 0, &Timing::lockstep());
    assert!(run.completed, "every correct process finished its schedule");

    for a in correct::<LockstepAdapter<SbaProc>, _>(&run.actors, &faults) {
        assert_eq!(a.inner().output(), Some(true), "strong unanimity");
        assert!(!a.inner().used_fallback(), "must stay on the linear path");
    }
    let sample = correct::<LockstepAdapter<SbaProc>, _>(&run.actors, &faults).next().unwrap();
    let decided = sample.inner().decided_at().unwrap();
    let m = &run.metrics;

    println!("all correct processes decided `true` at round {decided}");
    println!(
        "words: {} (≈ {:.1}·n), no fallback\n",
        m.correct.words,
        m.correct.words as f64 / n as f64
    );

    // Per-round activity profile: crashed-leader attempts show only the
    // undecided processes' input sends; the first correct leader's
    // attempt lights up with propose/share/cert traffic, then silence.
    println!("round | correct words sent");
    let max = m.words_per_round.iter().copied().max().unwrap_or(1).max(1);
    for (r, w) in m.words_per_round.iter().enumerate() {
        let bar = "#".repeat((w * 50 / max) as usize);
        let note = match (r as u64) / 4 {
            a if (a as usize) < f && (r as u64).is_multiple_of(4) => {
                "  <- inputs to crashed leader"
            }
            a if (a as usize) == f && (r as u64).is_multiple_of(4) => {
                "  <- first correct leader's attempt"
            }
            _ => "",
        };
        println!("{r:>5} | {w:>5} {bar}{note}");
        if *w == 0 && r as u64 > decided {
            break;
        }
    }
    println!("\nEach crashed-leader attempt wastes one thin input wave; the first");
    println!("correct leader finishes in 4 rounds. Algorithm 5 would have paid the");
    println!("full quadratic fallback here.");
    Ok(())
}

//! E12 — replicated-log throughput: sessions multiplexed over one wire.
//!
//! Measures what pipelining buys end-to-end:
//!  * rounds per committed slot, sequential (`W = 1`) vs pipelined
//!    (`W ≥ 2`) — the stride `⌈slot_rounds / W⌉` amortizes each slot's
//!    silent tail under the next slot's active phases;
//!  * words per committed slot at `f = 0` vs `f = t` — adaptivity
//!    survives multiplexing: clean slots stay `O(n)` words even while
//!    faulty slots run their fallback concurrently.

use meba_bench::runs::run_smr;
use meba_bench::table::{flt, num, Table};

fn main() {
    println!("=== E12: pipelined replicated log — rounds per slot (n = 9, 6 slots, f = 0) ===\n");
    let (n, slots) = (9usize, 6u64);
    let mut t1 = Table::new(&["W", "rounds", "rounds/slot", "words/slot", "speedup"]);
    let seq = run_smr(n, slots, 1, 0);
    assert!(seq.agreement && seq.committed == slots);
    for w in [1u64, 2, 3] {
        let s = if w == 1 { seq.clone() } else { run_smr(n, slots, w, 0) };
        assert!(s.agreement, "agreement at W={w}");
        assert_eq!(s.committed, slots, "all slots commit at W={w}");
        if w > 1 {
            assert!(
                s.rounds < seq.rounds,
                "W={w} must finish in strictly fewer rounds ({} vs {})",
                s.rounds,
                seq.rounds
            );
        }
        t1.row(&[
            num(w),
            num(s.rounds),
            flt(s.rounds_per_slot),
            flt(s.words_per_slot),
            flt(seq.rounds as f64 / s.rounds as f64),
        ]);
    }
    t1.print();
    println!("\npipelining is a latency optimization only: identical logs, same words,");
    println!("strictly fewer rounds once W ≥ 2.");

    println!("\n=== E12: adaptivity under multiplexing (n = 9, 6 slots, f ∈ {{0, t}}) ===\n");
    let t = (n - 1) / 2;
    let mut t2 = Table::new(&["W", "f", "committed", "rounds", "words/slot", "agreement"]);
    let clean = run_smr(n, slots, 3, 0);
    for (w, f) in [(3u64, 0usize), (1, t), (3, t)] {
        let s = if f == 0 { clean.clone() } else { run_smr(n, slots, w, f) };
        assert!(s.agreement, "agreement at W={w} f={f}");
        t2.row(&[
            num(w),
            num(f as u64),
            num(s.committed),
            num(s.rounds),
            flt(s.words_per_slot),
            s.agreement.to_string(),
        ]);
    }
    t2.print();
    assert!(
        clean.words_per_slot <= 30.0 * n as f64,
        "failure-free slots must stay O(n) words each"
    );
    assert_eq!(clean.session_words.len(), slots as usize, "one metrics session per slot");
    println!("\nfailure-free slots cost O(n) words each even with {t} crashed followers'");
    println!("slots running their full fallback in the same window — per-session metrics");
    println!("keep each slot's bill separate.");
}

//! E17 — the δ-estimate sweep: how the quorum-or-timeout round driver
//! degrades as the local timer drifts from 0.25× to 4× the nominal δ,
//! against a fixed network truth (link delay < δ/2, clock skew ≤ δ/8).
//!
//! The paper's synchrony precondition (delay + skew < round length,
//! Lemma 18) holds for every timer above 0.625 δ and breaks below it.
//! Each factor runs under both advance quorums: the full inbox
//! (quorum = n, advance early only when nothing can be stranded) and the
//! protocol quorum (n − t, which advances past straggler traffic and
//! pays for it in help words). Results are published as
//! `BENCH_E17_timing.json` at the repo root for the figure pipeline.

use meba_bench::runs::run_timing_sweep;
use meba_bench::table::{flt, num, Table};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E17_timing.json");

const FACTORS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 2.0, 4.0];

fn main() {
    println!("=== E17: δ-estimate sweep (failure-free BB, DES, delay < δ/2, skew ≤ δ/8) ===");
    println!("precondition delay + skew < timer holds above 0.625 δ, breaks below\n");

    let mut tab = Table::new(&[
        "timer (×δ)",
        "quorum",
        "completed",
        "rounds",
        "words",
        "baseline",
        "quorum adv",
        "timeout adv",
    ]);
    let mut rows = Vec::new();
    for (i, &tf) in FACTORS.iter().enumerate() {
        for full_inbox in [true, false] {
            let s = run_timing_sweep(tf, full_inbox, 0xe17 + i as u64);
            assert!(s.agreement, "E17 tf={tf}: agreement must survive any δ-estimate");
            if tf >= 0.75 && full_inbox {
                // Precondition honored + nothing stranded: the driver
                // must not cost a single extra word over lockstep.
                assert!(s.completed, "E17 tf={tf}: in-precondition run must decide");
                assert!(s.decided_input, "E17 tf={tf}: validity inside the precondition");
                assert_eq!(
                    s.words, s.baseline_words,
                    "E17 tf={tf}: full-inbox quorum must match the lockstep word bill"
                );
            }
            tab.row(&[
                flt(s.timeout_factor),
                (if s.full_inbox_quorum { "n" } else { "n-t" }).to_string(),
                (if s.completed { "yes" } else { "NO" }).to_string(),
                num(s.rounds),
                num(s.words),
                num(s.baseline_words),
                num(s.quorum_advances),
                num(s.timeout_advances),
            ]);
            rows.push(s);
        }
    }
    tab.print();

    serde_json::publish(JSON_PATH, &rows).expect("write BENCH_E17_timing.json");
    println!("\nwrote {} entries to BENCH_E17_timing.json", rows.len());
}

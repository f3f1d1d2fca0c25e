//! E16 — the readiness-driven mesh's scale profile: rounds/sec and peak
//! OS threads for failure-free BB over *real loopback sockets*, against
//! the analytic thread cost of the retired thread-per-link design
//! (`n × (2(n−1) + 1)` I/O threads + n engine threads).
//!
//! The sweep stays at small n so the full bench suite remains fast; the
//! n = 65/101 coverage lives in `meba-testkit`'s `tcp_scale` integration
//! tests, which `scripts/check.sh` runs in release. Results are also
//! published as `BENCH_E16_mesh.json` at the repo root for the paper's
//! figure pipeline.
//!
//! A wall-clock run retries at δ × 4 after any overrun (word equality is
//! only promised inside the synchrony model), so each row names the δ it
//! ran at and how many attempts it took: a rounds/sec figure is only
//! comparable across rows, or runs, at the same δ.

use meba_bench::runs::run_mesh_scale_bb;
use meba_bench::table::{flt, num, Table};
use std::time::Duration;

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E16_mesh.json");

fn main() {
    println!("=== E16: reactor-mesh scale profile (failure-free BB, real loopback sockets) ===");
    println!("old mesh = retired thread-per-link design: n(2(n-1)+1) I/O + n engine threads\n");

    let mut tab = Table::new(&[
        "n",
        "words",
        "des words",
        "rounds",
        "rounds/sec",
        "δ (ms)",
        "attempts",
        "peak threads",
        "old mesh threads",
    ]);
    let mut rows = Vec::new();
    for (i, &n) in [9usize, 17, 33].iter().enumerate() {
        let s = run_mesh_scale_bb(n, Duration::from_millis(10), 0xe16 + i as u64);
        assert!(s.agreement, "E16 n={n}: all correct processes decide the sender's value");
        assert_eq!(s.words, s.des_words, "E16 n={n}: word totals must not depend on the transport");
        if s.peak_threads > 0 {
            let budget = 4 * n + 64;
            assert!(
                s.peak_threads <= budget,
                "E16 n={n}: peak {} OS threads exceeds O(n) budget {budget}",
                s.peak_threads
            );
        }
        tab.row(&[
            num(s.n as u64),
            num(s.words),
            num(s.des_words),
            num(s.rounds),
            flt(s.rounds_per_sec),
            num(s.delta_ms),
            num(u64::from(s.attempts)),
            num(s.peak_threads as u64),
            num(s.old_design_threads as u64),
        ]);
        rows.push(s);
    }
    tab.print();

    serde_json::publish(JSON_PATH, &rows).expect("write BENCH_E16_mesh.json");
    println!("\nwrote {} entries to BENCH_E16_mesh.json", rows.len());
}

//! E18 — client-service throughput: what batching buys when the
//! replicated log serves a real workload.
//!
//! Sweeps the batch close bound × pipeline window `W` at n = 9, f = 0,
//! with 256 client ops spread over all replicas' admission ports, and
//! measures committed ops per round (deterministic), ops per wall-clock
//! second, and p50/p99 commit latency in rounds. One extra cell
//! oversubscribes tiny ports to show backpressure is *typed rejection*,
//! never silent queue growth. Every cell's runner ends in
//! `meba_testkit::oracle::service` (convergence, exactly-once, zero
//! session collisions, no slot bound to two values in any journal) and
//! asserts every accepted op committed.
//!
//! Results are published as `BENCH_E18_service.json` at the repo root.

use meba_bench::runs::{run_service_throughput, ServiceRunStats};
use meba_bench::table::{flt, num, Table};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E18_service.json");

fn main() {
    let (n, total_ops) = (9usize, 256u64);
    println!("=== E18: client-service throughput (n = {n}, f = 0, {total_ops} ops) ===\n");

    let mut tab = Table::new(&[
        "batch",
        "W",
        "slots",
        "rounds",
        "ops/round",
        "ops/sec",
        "p50 rounds",
        "p99 rounds",
        "occupancy",
        "words/op",
    ]);
    let mut cells: Vec<ServiceRunStats> = Vec::new();
    for &batch in &[1usize, 16, 64, 256] {
        for &w in &[1u64, 4] {
            let s = run_service_throughput(n, total_ops, batch, w, total_ops as usize);
            assert_eq!(s.rejected, 0, "sized ports reject nothing");
            tab.row(&[
                num(batch as u64),
                num(w),
                num(s.slots),
                num(s.rounds),
                flt(s.ops_per_round),
                flt(s.ops_per_sec),
                num(s.latency_p50_rounds),
                num(s.latency_p99_rounds),
                flt(s.mean_occupancy),
                flt(s.words_per_op),
            ]);
            cells.push(s);
        }
    }
    tab.print();

    // The acceptance claim: batching amortizes the per-slot agreement
    // cost ≥ 10× from batch = 1 to batch = 256 at the same window.
    for &w in &[1u64, 4] {
        let single = cells.iter().find(|s| s.batch_ops == 1 && s.window == w).unwrap();
        let full = cells.iter().find(|s| s.batch_ops == 256 && s.window == w).unwrap();
        let round_gain = full.ops_per_round / single.ops_per_round;
        let sec_gain = full.ops_per_sec / single.ops_per_sec;
        println!(
            "\nW={w}: batch 1→256 gains {round_gain:.1}x ops/round, {sec_gain:.1}x ops/sec, \
             words/op {:.1} → {:.1}",
            single.words_per_op, full.words_per_op
        );
        assert!(round_gain >= 10.0, "E18 W={w}: ops/round gain {round_gain:.1}x < 10x");
        assert!(sec_gain >= 10.0, "E18 W={w}: ops/sec gain {sec_gain:.1}x < 10x");
    }

    // Overload cell: ports bounded at 8 against the same offered load —
    // the overflow is rejected *typed*, everything accepted commits.
    let over = run_service_throughput(n, total_ops, 64, 4, 8);
    assert!(over.rejected > 0, "oversubscribed ports must reject");
    println!(
        "\noverload (capacity 8/port): offered {} accepted {} rejected {} — typed, no drop",
        over.offered, over.accepted, over.rejected
    );
    cells.push(over);

    serde_json::publish(JSON_PATH, &cells).expect("write BENCH_E18_service.json");
    println!("\nwrote {} entries to BENCH_E18_service.json", cells.len());
}

//! E18 — client-service throughput: what batching buys when the
//! replicated log serves a real workload.
//!
//! Sweeps the batch close bound × pipeline window `W` at n = 9, f = 0,
//! with 256 client ops spread over all replicas' admission ports, and
//! measures committed ops per round (deterministic), ops per wall-clock
//! second, and p50/p99 commit latency in rounds. Each cell runs 5 times:
//! every deterministic column must repeat exactly, and ops/sec — the one
//! host-time column — is the median of the 5. One extra cell
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

/// One cell, 5 times: the runs must agree on every column but ops/sec
/// (the lockstep backend is deterministic), and the run with the median
/// ops/sec is kept.
fn cell(n: usize, total_ops: u64, batch: usize, w: u64, capacity: usize) -> ServiceRunStats {
    let mut reps: Vec<_> =
        (0..5).map(|_| run_service_throughput(n, total_ops, batch, w, capacity)).collect();
    let columns = |s: &ServiceRunStats| {
        serde_json::to_string(&ServiceRunStats { ops_per_sec: 0.0, ..s.clone() }).unwrap()
    };
    assert!(
        reps.iter().all(|r| columns(r) == columns(&reps[0])),
        "E18 batch={batch} W={w}: repetitions differ"
    );
    reps.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
    reps.swap_remove(2)
}

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
            let s = cell(n, total_ops, batch, w, total_ops as usize);
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
    let over = cell(n, total_ops, 64, 4, 8);
    assert!(over.rejected > 0, "oversubscribed ports must reject");
    println!(
        "\noverload (capacity 8/port): offered {} accepted {} rejected {} — typed, no drop",
        over.offered, over.accepted, over.rejected
    );
    cells.push(over);

    serde_json::publish(JSON_PATH, &cells).expect("write BENCH_E18_service.json");
    println!("\nwrote {} entries to BENCH_E18_service.json", cells.len());
}

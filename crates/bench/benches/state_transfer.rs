//! E19 — certified state transfer: catch-up cost scales with the
//! outage, not the log.
//!
//! One replica of an n = 9 service deployment crash-restarts across
//! `1, 2, 4, 6` consecutive slot openings of an 18-slot log, and then
//! across a fixed 2-opening outage of logs of growing length, catching
//! back up by certified state transfer each time. Transfer traffic is
//! metered under its own `service/transfer` component tag, so the two
//! sweeps separate the claims:
//!
//! * transfer bytes grow with the **outage length** (more slept-through
//!   slots → more certified entries shipped), and
//! * at a fixed outage they stay **flat in the log length** — anti-
//!   entropy asks for the missing suffix, it never replays history.
//!
//! Every cell asserts convergence: `meba_testkit::oracle::service`
//! (identical applied prefixes, exactly-once, zero
//! transferred-versus-local conflicts, no journal double bind), zero
//! `⊥`-retired slots, and a victim that actually adopted the
//! slept-through slots by transfer.
//!
//! Results are published as `BENCH_E19_statetransfer.json` at the repo
//! root.

use meba_bench::runs::{run_state_transfer, StateTransferStats};
use meba_bench::table::{flt, num, Table};

const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E19_statetransfer.json");

fn main() {
    let n = 9usize;
    println!("=== E19: certified state transfer (n = {n}, one restarted replica) ===\n");

    let mut tab = Table::new(&[
        "slots",
        "outage",
        "transferred",
        "certs",
        "vouched",
        "xfer words",
        "xfer bytes",
        "xfer share",
        "recovery rounds",
    ]);
    // Axis 1: outage length at a fixed 18-slot log; axis 2: log length
    // at a fixed 2-opening outage.
    let outages = [(18u64, 1u64), (18, 2), (18, 4), (18, 6)];
    let logs = [(18u64, 2u64), (27, 2), (36, 2)];
    let mut cells: Vec<StateTransferStats> = Vec::new();
    for &(slots, outage) in outages.iter().chain(&logs) {
        let s = run_state_transfer(n, slots, outage);
        tab.row(&[
            num(s.slots),
            num(s.outage_slots),
            num(s.slots_transferred),
            num(s.certs_verified),
            num(s.vouches_accepted),
            num(s.transfer_words),
            num(s.transfer_bytes),
            flt(s.transfer_bytes as f64 / s.total_bytes.max(1) as f64),
            num(s.recovery_rounds),
        ]);
        cells.push(s);
    }
    tab.print();

    // Acceptance: transfer bytes grow with the outage…
    let (outage_cells, log_cells) = cells.split_at(outages.len());
    let short = &outage_cells[0];
    let long = outage_cells.last().unwrap();
    let outage_growth = long.transfer_bytes as f64 / short.transfer_bytes.max(1) as f64;
    println!(
        "\noutage 1 → {} openings: transfer bytes {} → {} ({outage_growth:.1}x)",
        long.outage_slots, short.transfer_bytes, long.transfer_bytes
    );
    assert!(
        long.transfer_bytes > short.transfer_bytes,
        "E19: a longer outage must ship more transfer bytes"
    );

    // …and stay flat in the log length at a fixed outage. "Flat" allows
    // the periodic-refetch overhead of a longer run, bounded well under
    // proportional growth (2× log must stay under 1.5× bytes).
    let base = &log_cells[0];
    let longest = log_cells.last().unwrap();
    let log_growth = longest.transfer_bytes as f64 / base.transfer_bytes.max(1) as f64;
    println!(
        "log {} → {} slots at outage 2: transfer bytes {} → {} ({log_growth:.2}x)",
        base.slots, longest.slots, base.transfer_bytes, longest.transfer_bytes
    );
    assert!(
        log_growth < 1.5,
        "E19: transfer bytes must not scale with log length (got {log_growth:.2}x over a 2x log)"
    );

    serde_json::publish(JSON_PATH, &cells).expect("write BENCH_E19_statetransfer.json");
    println!("\nwrote {} entries to BENCH_E19_statetransfer.json", cells.len());
}

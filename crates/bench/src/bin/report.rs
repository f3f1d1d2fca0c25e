//! Regenerates the complete experiment dataset behind `EXPERIMENTS.md` as
//! one markdown report on stdout.
//!
//! ```text
//! cargo run --release -p meba-bench --bin report > report.md
//! ```
//!
//! Unlike the per-experiment bench binaries (which assert shapes), this
//! binary only measures and prints — it is the "give me all the numbers"
//! entry point.

use meba_bench::fit::growth_order;
use meba_bench::runs::*;

fn section(title: &str) {
    println!("\n## {title}\n");
}

fn main() {
    println!("# meba experiment report");
    println!("\nDeterministic lockstep-simulator measurements; see EXPERIMENTS.md");
    println!("for interpretation against the paper's claims.");

    section("E1 — adaptive BB vs f (n = 33, wasteful leaders) and vs n (f = 0)");
    println!("| f | BB words | fallback | Dolev-Strong |");
    println!("|---|---|---|---|");
    for f in 0..=6usize {
        let adv = if f == 0 { BbAdversary::FailureFree } else { BbAdversary::WastefulLeaders(f) };
        let s = run_bb(33, adv);
        let ds = run_dolev_strong(33, f);
        println!("| {f} | {} | {} | {} |", s.words, s.fallback_used, ds.words);
    }
    println!();
    println!("| n | BB f=0 | Dolev-Strong | speedup |");
    println!("|---|---|---|---|");
    let mut bb_pts = Vec::new();
    for n in [9usize, 17, 33, 65] {
        let s = run_bb(n, BbAdversary::FailureFree);
        let ds = run_dolev_strong(n, 0);
        bb_pts.push((n as f64, s.words as f64));
        println!("| {n} | {} | {} | {:.2}x |", s.words, ds.words, ds.words as f64 / s.words as f64);
    }
    println!("\nBB failure-free growth order: n^{:.2}", growth_order(&bb_pts));

    section("E2 — weak BA vs f and vs n");
    println!("| f | words | fallback |");
    println!("|---|---|---|");
    for f in [0usize, 2, 4, 6, 8, 9, 10] {
        let adv = if f == 0 { WbaAdversary::FailureFree } else { WbaAdversary::WastefulLeaders(f) };
        let s = run_weak_ba(33, adv);
        println!("| {f} | {} | {} |", s.words, s.fallback_used);
    }

    section("E3 — strong BA and the fallback standalone");
    println!("| n | Alg5 f=0 | Alg5 f=1 | recursive BA (f=0) |");
    println!("|---|---|---|---|");
    for n in [9usize, 17, 33] {
        let a = run_strong_ba(n, 0, false);
        let b = run_strong_ba(n, 1, false);
        let r = run_recursive_ba(n, 0);
        println!("| {n} | {} | {} | {} |", a.words, b.words, r.words);
    }

    section("E4 — words vs constituent signatures (failure-free weak BA)");
    println!("| n | words | constituent sigs |");
    println!("|---|---|---|");
    for n in [9usize, 17, 33, 65, 97] {
        let s = run_weak_ba(n, WbaAdversary::FailureFree);
        println!("| {n} | {} | {} |", s.words, s.constituent_sigs);
    }

    section("E5 — component breakdown of BB (n = 17)");
    let scenarios = [
        ("f=0", BbAdversary::FailureFree),
        ("f=2 wasteful", BbAdversary::WastefulLeaders(2)),
        ("f=t crashed", BbAdversary::CrashFollowers(8)),
    ];
    println!("| component | f=0 | f=2 wasteful | f=t crashed |");
    println!("|---|---|---|---|");
    let stats: Vec<_> = scenarios.iter().map(|(_, a)| run_bb(17, *a)).collect();
    for comp in ["bb/dissemination", "bb/vetting", "weak-ba/phases", "weak-ba/help", "fallback"] {
        print!("| {comp} ");
        for s in &stats {
            print!("| {} ", s.by_component.get(comp).copied().unwrap_or(0));
        }
        println!("|");
    }

    section("E6/E7 — crossover and latency (n = 33)");
    println!("| f | words | first decision | fallback |");
    println!("|---|---|---|---|");
    for f in 0..=10usize {
        let adv = if f == 0 { WbaAdversary::FailureFree } else { WbaAdversary::WastefulLeaders(f) };
        let s = run_weak_ba(33, adv);
        println!("| {f} | {} | {} | {} |", s.words, s.decided_first, s.fallback_used);
    }

    section("E8/E9 — ablations (deterministic attack outcomes)");
    let a8n = run_split_vote_attack(true).0.agreement;
    let a8p = run_split_vote_attack(false).0.agreement;
    let a9off = run_late_help_attack(false).0.agreement;
    let a9on = run_late_help_attack(true).0.agreement;
    println!("| ablation | weakened config | paper config |");
    println!("|---|---|---|");
    println!(
        "| E8 quorum threshold | agreement {} | agreement {} |",
        if a8n { "held" } else { "VIOLATED" },
        if a8p { "held" } else { "VIOLATED" }
    );
    println!(
        "| E9 safety window | agreement {} | agreement {} |",
        if a9off { "held" } else { "VIOLATED" },
        if a9on { "held" } else { "VIOLATED" }
    );

    section("E11 — rotating-leader strong BA extension (n = 33, crashed leaders)");
    println!("| f | Alg 5 | rotating | rotating fallback |");
    println!("|---|---|---|---|");
    for f in 0..=4usize {
        let a = run_strong_ba(33, f, true);
        let r = run_rotating_strong(33, f);
        println!("| {f} | {} | {} | {} |", a.words, r.words, r.fallback_used);
    }

    section("E12 — pipelined replicated log (n = 9, 6 slots)");
    println!("| W | f | committed | rounds | rounds/slot | words/slot |");
    println!("|---|---|---|---|---|---|");
    let t9 = (9 - 1) / 2;
    for (w, f) in [(1u64, 0usize), (2, 0), (3, 0), (1, t9), (3, t9)] {
        let s = run_smr(9, 6, w, f);
        println!(
            "| {w} | {f} | {} | {} | {:.1} | {:.1} |",
            s.committed, s.rounds, s.rounds_per_slot, s.words_per_slot
        );
    }
    section("E13 — byte-level cost over loopback TCP (n = 9, canonical codec)");
    println!("| f | words | codec bytes | bytes/word | frames | frames/round | socket bytes |");
    println!("|---|---|---|---|---|---|---|");
    let t = (9 - 1) / 2;
    for f in [0usize, t] {
        let s = run_wire_bb(9, f, std::time::Duration::from_millis(5));
        assert!(s.agreement, "E13 f={f}: correct processes must agree over TCP");
        assert!(
            s.bytes <= s.words * meba_wire::BYTES_PER_WORD,
            "E13 f={f}: bytes/word exceeds the {} budget",
            meba_wire::BYTES_PER_WORD
        );
        println!(
            "| {f} | {} | {} | {:.1} | {} | {:.1} | {} |",
            s.words,
            s.bytes,
            s.bytes_per_word(),
            s.frames,
            s.frames_per_round(),
            s.socket_bytes
        );
    }
    println!(
        "\nEvery word fits the {}-byte wire budget at f = 0 and f = t alike: the",
        meba_wire::BYTES_PER_WORD
    );
    println!("adaptive word bound is also an adaptive byte bound on real sockets.");

    section("E14 — recovery: latency and word overhead vs crash-restart count (n = 9)");
    println!(
        "| crashes | words | overhead | recovery rounds | replayed records | fsyncs | refused |"
    );
    println!("|---|---|---|---|---|---|---|");
    let delta = std::time::Duration::from_millis(3);
    let baseline = run_recovery_weak_ba(9, 0, delta);
    for c in 0..=3usize {
        let s = if c == 0 { baseline.clone() } else { run_recovery_weak_ba(9, c, delta) };
        assert!(s.agreement, "E14 crashes={c}: all processes (incl. recovered) must agree");
        assert_eq!(s.refused_equivocations, 0, "E14 crashes={c}: honest recovery never conflicts");
        println!(
            "| {c} | {} | {:.2}x | {} | {} | {} | {} |",
            s.words,
            s.words as f64 / baseline.words.max(1) as f64,
            s.recovery_rounds,
            s.replayed_records,
            s.journal_fsyncs,
            s.refused_equivocations
        );
    }
    println!("\nEach crash-restart is one fault in the word budget: the overhead column");
    println!("stays within the O(n(f+1)) envelope, and the journal keeps every restart");
    println!("from re-signing a conflicting slot (refused = 0 means the guard never had");
    println!("to intervene — deterministic replay re-derives identical signatures).");

    section("E15 — asymptotics on the discrete-event backend (large n)");
    println!("The virtual-clock backend removes the per-round wall-clock δ, so the");
    println!("word-complexity claims can be measured where they bite. Sparse virtual");
    println!("time (DESIGN.md §18) makes a silent round free, so the failure-free and");
    println!("f = 1 columns run to n = 4097 (n = 10000 with MEBA_E15_STRETCH=1) in");
    println!("fractions of a second: their cost is the ~16n words that move, not the");
    println!("~8n rounds that pass. The f = t column stays capped at 257 — its cost");
    println!("is words, not ticks: ~n²/2 fallback messages wake every correct process");
    println!("almost every round, which no schedule can skip.");
    println!();
    println!("| n | f=0 words | f=1 | f=t | f=0 words/round | Dolev-Strong f=0 |");
    println!("|---|---|---|---|---|---|");
    let mut free_pts = Vec::new();
    let mut worst_pts = Vec::new();
    let mut crossover: Option<(usize, u64, u64)> = None;
    let mut ns = vec![17usize, 33, 65, 129, 257, 1025, 4097];
    if std::env::var("MEBA_E15_STRETCH").is_ok_and(|v| v == "1") {
        ns.push(10_000);
    }
    for n in ns {
        let t = (n - 1) / 2;
        let s0 = run_des_bb(n, 0, 0xe15);
        assert!(s0.agreement, "E15 n={n}: agreement");
        free_pts.push((n as f64, s0.words as f64));
        let s1 = run_des_bb(n, 1, 0xe15);
        assert!(s1.agreement, "E15 n={n}: agreement with one silent leader");
        let (wt, ds) = if n <= 257 {
            let st = run_des_bb(n, t, 0xe15);
            assert!(st.agreement, "E15 n={n}: agreement at f = t");
            worst_pts.push((n as f64, st.words as f64));
            // The quadratic reference only needs measuring where the
            // lockstep simulator is still fast; the growth orders carry
            // the comparison.
            let ds = if n <= 65 {
                let w = run_dolev_strong(n, 0).words;
                if crossover.is_none() && st.words >= w {
                    crossover = Some((n, st.words, w));
                }
                w.to_string()
            } else {
                "-".into()
            };
            (st.words.to_string(), ds)
        } else {
            ("-".into(), "-".into())
        };
        println!(
            "| {n} | {} | {} | {wt} | {:.1} | {ds} |",
            s0.words,
            s1.words,
            s0.words_per_round()
        );
    }
    println!();
    println!(
        "Growth orders: failure-free n^{:.2} (adaptive, linear); f=t n^{:.2}",
        growth_order(&free_pts),
        growth_order(&worst_pts)
    );
    match crossover {
        Some((n, adaptive, ds)) => println!(
            "(worst case meets the quadratic regime: at n={n}, f=t costs {adaptive} vs \
             Dolev-Strong's {ds} — the adaptive protocol only pays quadratic when f does)."
        ),
        None => println!(
            "(even at f=t the adaptive run stays below the Dolev-Strong baseline at \
             every measured n — the fallback crossover lies beyond f=t here)."
        ),
    }

    section("E16 — reactor-mesh scale profile (real loopback sockets)");
    println!("One readiness-driven I/O thread per process replaces the retired");
    println!("thread-per-link design (a reader + writer per directed link plus an");
    println!("acceptor: n(2(n-1)+1) I/O threads in-host). Word totals must equal");
    println!("the DES reference — the transport never changes what the protocol pays.");
    println!();
    println!("| n | words | DES words | rounds | rounds/sec | peak threads | old mesh threads |");
    println!("|---|---|---|---|---|---|---|");
    for (i, n) in [9usize, 17, 33].into_iter().enumerate() {
        let s = run_mesh_scale_bb(n, std::time::Duration::from_millis(10), 0xe16 + i as u64);
        assert!(s.agreement, "E16 n={n}: agreement");
        println!(
            "| {n} | {} | {} | {} | {:.1} | {} | {} |",
            s.words, s.des_words, s.rounds, s.rounds_per_sec, s.peak_threads, s.old_design_threads
        );
    }
    println!();
    println!("(peak threads is this process's live OS thread count from procfs — 0");
    println!("when unavailable; the n = 65/101 acceptance runs live in the");
    println!("`tcp_scale` integration tests.)");

    section("E17 — δ-estimate sweep (quorum-or-timeout round driver, DES)");
    println!("Network truth fixed at link delay < δ/2 with clock skew ≤ δ/8; local");
    println!("timers sweep 0.25×–4× δ. The paper's synchrony precondition");
    println!("(delay + skew < round length, Lemma 18) holds above 0.625 δ. Advancing");
    println!("only on a full inbox (quorum = n) matches the lockstep word bill");
    println!("exactly inside the precondition; the protocol quorum (n − t) advances");
    println!("past straggler traffic and pays for it in help words.");
    println!();
    println!("| timer (×δ) | quorum | completed | rounds | words | baseline | quorum adv | timeout adv |");
    println!("|---|---|---|---|---|---|---|---|");
    for (i, tf) in [0.25f64, 0.5, 0.75, 1.0, 2.0, 4.0].into_iter().enumerate() {
        for full_inbox in [true, false] {
            let s = run_timing_sweep(tf, full_inbox, 0xe17 + i as u64);
            assert!(s.agreement, "E17 tf={tf}: agreement must survive any δ-estimate");
            println!(
                "| {tf} | {} | {} | {} | {} | {} | {} | {} |",
                if s.full_inbox_quorum { "n" } else { "n-t" },
                if s.completed { "yes" } else { "NO" },
                s.rounds,
                s.words,
                s.baseline_words,
                s.quorum_advances,
                s.timeout_advances
            );
        }
    }
    println!();
    println!("(incomplete cells hit the round budget without every process deciding —");
    println!("agreement still holds; `timing_sweep` publishes this table as");
    println!("BENCH_E17_timing.json.)");

    section("E18 — client-service throughput (n = 9, f = 0, 256 ops)");
    println!("Client ops spread round-robin over all replicas' admission ports;");
    println!("batching amortizes each slot's O(n(f+1))-word agreement across whole");
    println!("batches. The last row oversubscribes ports bounded at 8 ops: the");
    println!("overflow is rejected *typed* (`Overloaded`), never silently dropped");
    println!("or buffered unboundedly.");
    println!();
    println!("| batch | W | slots | rounds | ops/round | p50 rounds | p99 rounds | words/op | accepted | rejected |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut e18 = Vec::new();
    for batch in [1usize, 16, 64, 256] {
        for w in [1u64, 4] {
            let s = run_service_throughput(9, 256, batch, w, 256);
            assert!(s.agreement, "E18 batch={batch} W={w}: replicas agree");
            e18.push(s.clone());
            println!(
                "| {batch} | {w} | {} | {} | {:.3} | {} | {} | {:.1} | {} | {} |",
                s.slots,
                s.rounds,
                s.ops_per_round,
                s.latency_p50_rounds,
                s.latency_p99_rounds,
                s.words_per_op,
                s.accepted,
                s.rejected
            );
        }
    }
    let over = run_service_throughput(9, 256, 64, 4, 8);
    assert!(over.agreement && over.rejected > 0, "E18 overload: typed rejections");
    println!(
        "| 64 | 4 | {} | {} | {:.3} | {} | {} | {:.1} | {} | {} |",
        over.slots,
        over.rounds,
        over.ops_per_round,
        over.latency_p50_rounds,
        over.latency_p99_rounds,
        over.words_per_op,
        over.accepted,
        over.rejected
    );
    println!();
    println!("(`service_throughput` publishes this table as BENCH_E18_service.json");
    println!("and asserts the ≥10× ops/round and ops/sec gains from batch 1 → 256.)");

    section("E19 — certified state transfer (n = 9, one restarted replica)");
    println!("One replica sleeps through consecutive slot openings and catches up");
    println!("by certified state transfer, metered under the `service/transfer`");
    println!("component tag. Transfer bytes grow with the outage and stay flat in");
    println!("the log length — anti-entropy ships the missing suffix, not history.");
    println!();
    println!("| slots | outage | transferred | certs | vouched | xfer words | xfer bytes | recovery rounds |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut e19 = Vec::new();
    for (slots, outage) in [(18u64, 1u64), (18, 2), (18, 4), (18, 6), (27, 2), (36, 2)] {
        let s = run_state_transfer(9, slots, outage);
        println!(
            "| {slots} | {outage} | {} | {} | {} | {} | {} | {} |",
            s.slots_transferred,
            s.certs_verified,
            s.vouches_accepted,
            s.transfer_words,
            s.transfer_bytes,
            s.recovery_rounds
        );
        e19.push(s);
    }
    let grow = e19[3].transfer_bytes as f64 / e19[0].transfer_bytes.max(1) as f64;
    let flat = e19[5].transfer_bytes as f64 / e19[1].transfer_bytes.max(1) as f64;
    println!();
    println!("(outage 1 → 6 openings scales transfer bytes {grow:.1}x; doubling the");
    println!("log at a fixed outage moves them {flat:.2}x — `state_transfer`");
    println!("publishes this table as BENCH_E19_statetransfer.json.)");

    section("E20 — zero-copy hot path (codec, signature verify, event-queue DES)");
    println!("The `hotpath` bench measures the zero-copy refactor end to end: the");
    println!("encode→frame→read→decode pipeline against the pre-refactor allocation");
    println!("pattern, signature verification over primed MAC states, the failure-");
    println!("free DES n-sweep (sparse virtual time: wall seconds per row), and one");
    println!("dense row (n = 257, f = t) whose events/sec is the DES event queue's");
    println!("real load. It publishes BENCH_E20_hotpath.json and enforces the");
    println!("regression gate (> 15% past a committed bound fails).");
    println!();
    let e20_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E20_hotpath.json");
    match std::fs::read_to_string(e20_path) {
        Ok(json) => {
            let get = |key: &str| -> String {
                let pat = format!("\"{key}\":");
                json.find(&pat)
                    .map(|at| {
                        let rest = json[at + pat.len()..].trim_start();
                        let end = rest
                            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                            .unwrap_or(rest.len());
                        rest[..end].to_string()
                    })
                    .unwrap_or_else(|| "?".into())
            };
            println!("| metric | value |");
            println!("|---|---|");
            println!("| codec pipeline, pre-refactor | {} msgs/sec |", get("before_msgs_per_sec"));
            println!("| codec pipeline, zero-copy | {} msgs/sec |", get("after_msgs_per_sec"));
            println!("| codec speedup | {}x |", get("speedup"));
            println!(
                "| threshold certificates | {} verifies/sec |",
                get("verify_threshold_certs_per_sec")
            );
            println!(
                "| DES failure-free n = 4097, gate ceiling | {} s |",
                get("gate_des_seconds_n4097")
            );
            println!("| DES dense row (n = 257, f = t) | {} events/sec |", get("events_per_sec"));
            println!();
            println!("(Full tables — per-share verify at k ∈ {{5, 9, 17}} and the");
            println!("n-sweep wall clocks up to n = 4097 — live in the JSON; re-measure");
            println!("with `cargo bench -p meba-bench --bench hotpath`.)");
        }
        Err(_) => println!("BENCH_E20_hotpath.json not found — run the `hotpath` bench first."),
    }

    println!("\n_Report complete._");
}

//! E15 — asymptotics on the discrete-event backend: BB words at system
//! sizes the paced runtimes cannot reach.
//!
//! The virtual-clock backend removes the per-round wall-clock δ, and
//! sparse virtual time (DESIGN.md §18) makes a silent round free, so the
//! failure-free and f = 1 (one silent leader) columns run to n = 4097 in
//! fractions of a second: their cost is the ~16n words that move, not the
//! ~8n rounds that pass. The f = t column stays capped at n = 257: ~n²/2
//! fallback messages wake every correct process almost every round, which
//! no schedule can skip. The Dolev–Strong column anchors the quadratic
//! reference where the lockstep baseline is still fast (n ≤ 65). The
//! bench asserts agreement in every cell and both growth orders: ~linear
//! failure-free, ~quadratic at f = t.

use meba_bench::fit::growth_order;
use meba_bench::runs::{run_des_bb, run_dolev_strong};
use meba_bench::table::{flt, num, Table};

fn main() {
    println!("=== E15: BB words on the discrete-event backend (seed 0xe15) ===\n");
    let mut tab =
        Table::new(&["n", "f=0 words", "f=1", "f=t", "f=0 words/round", "Dolev-Strong f=0"]);
    let mut free_pts = Vec::new();
    let mut worst_pts = Vec::new();
    let mut crossover: Option<(usize, u64, u64)> = None;
    for n in [17usize, 33, 65, 129, 257, 1025, 4097] {
        let t = (n - 1) / 2;
        let s0 = run_des_bb(n, 0, 0xe15);
        assert!(s0.agreement, "E15 n={n}: agreement");
        free_pts.push((n as f64, s0.words as f64));
        let s1 = run_des_bb(n, 1, 0xe15);
        assert!(s1.agreement, "E15 n={n}: agreement with one silent leader");
        let (mut wt, mut ds) = ("-".to_string(), "-".to_string());
        if n <= 257 {
            let st = run_des_bb(n, t, 0xe15);
            assert!(st.agreement, "E15 n={n}: agreement at f = t");
            worst_pts.push((n as f64, st.words as f64));
            wt = num(st.words);
            if n <= 65 {
                let w = run_dolev_strong(n, 0).words;
                if crossover.is_none() && st.words >= w {
                    crossover = Some((n, st.words, w));
                }
                ds = num(w);
            }
        }
        tab.row(&[num(n as u64), num(s0.words), num(s1.words), wt, flt(s0.words_per_round()), ds]);
    }
    tab.print();
    let (o_free, o_worst) = (growth_order(&free_pts), growth_order(&worst_pts));
    println!("\ngrowth orders: failure-free n^{o_free:.2} (adaptive, linear); f=t n^{o_worst:.2}");
    assert!(o_free < 1.3, "failure-free BB must stay ~linear up to n = 4097");
    assert!(o_worst > 1.6, "f = t must reach the quadratic fallback regime");
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
}

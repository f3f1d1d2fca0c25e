//! E8 — ablation of the quorum threshold `⌈(n+t+1)/2⌉` (§6).
//!
//! The same vote-splitting Byzantine leader attacks two configurations:
//! the naive `t + 1` quorum (no intersection guarantee) and the paper's
//! threshold. The attack splits decisions in the former and is harmless
//! in the latter.

use meba_bench::runs::run_split_vote_attack;
use meba_bench::table::Table;

fn main() {
    println!("=== E8: quorum-threshold ablation (n = 7, t = 3, split-vote leader) ===\n");
    let mut tab = Table::new(&["quorum", "agreement", "decisions of correct processes"]);
    let (stats, ds_naive) = run_split_vote_attack(true);
    let ok_naive = stats.agreement;
    tab.row(&[
        "t+1 = 4 (naive)".to_string(),
        if ok_naive { "held".into() } else { "VIOLATED".to_string() },
        format!("{ds_naive:?}"),
    ]);
    let (stats, ds_paper) = run_split_vote_attack(false);
    let ok_paper = stats.agreement;
    tab.row(&[
        "⌈(n+t+1)/2⌉ = 6 (paper)".to_string(),
        if ok_paper { "held".into() } else { "VIOLATED".to_string() },
        format!("{ds_paper:?}"),
    ]);
    tab.print();
    assert!(!ok_naive, "the naive threshold must exhibit the violation");
    assert!(ok_paper, "the paper's threshold must resist the attack");
    println!("\nWith quorum t+1 the adversary finalizes both values (its own t");
    println!("signatures plus one honest vote per side). With ⌈(n+t+1)/2⌉ any two");
    println!("quorums intersect in a correct process, so at most one certificate");
    println!("can ever form — the paper's key observation.");
}

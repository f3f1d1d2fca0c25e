//! E9 — ablation of the 2δ safety window before `A_fallback` (§6,
//! Lemma 19).
//!
//! A Byzantine leader finalizes a value secretly and help-answers exactly
//! one process after the phases. With the window, the lone decision is
//! re-broadcast with its certificate and adopted by every fallback
//! participant; without it, the fallback's strong unanimity works from
//! stale inputs and contradicts the lone decider.

use meba_bench::runs::run_late_help_attack;
use meba_bench::table::Table;

fn main() {
    println!("=== E9: 2δ safety-window ablation (n = 7, late-helper leader) ===\n");
    let mut tab = Table::new(&["safety window", "agreement", "decisions of correct processes"]);
    let (stats, ds_off) = run_late_help_attack(false);
    let ok_off = stats.agreement;
    tab.row(&[
        "disabled".to_string(),
        if ok_off { "held".into() } else { "VIOLATED".to_string() },
        format!("{ds_off:?}"),
    ]);
    let (stats, ds_on) = run_late_help_attack(true);
    let ok_on = stats.agreement;
    tab.row(&[
        "enabled (paper)".to_string(),
        if ok_on { "held".into() } else { "VIOLATED".to_string() },
        format!("{ds_on:?}"),
    ]);
    tab.print();
    assert!(!ok_off, "without the window the attack must split decisions");
    assert!(ok_on, "with the window agreement must hold");
    println!("\nThe window is exactly what makes Lemma 19 true: decisions reached");
    println!("before (or while) the fallback is being coordinated are certified and");
    println!("re-broadcast, so every participant enters A_fallback already holding");
    println!("the decided value and strong unanimity pins the outcome.");
}

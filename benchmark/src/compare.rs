//! `compare A B`: two results files (tab-separated, as written by
//! `--out`), one row per workload and end-to-end metric: each set's
//! median, the change against the metric's bound, and a verdict — `ok`,
//! `regressed`, or `unresolved` when either set's own run-to-run spread
//! exceeds the bound.

use crate::result::read_tsv;
use crate::spec::{defs, Better, Bound, MetricDef, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// The untraced rows of a results file, by workload and metric.
fn load(path: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for row in read_tsv(path)?.into_iter().filter(|r| !r.traced) {
        out.entry((row.workload, row.metric)).or_default().push(row.value);
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Amount by which `b` is worse than `a` (negative = better), in the
/// bound's own terms: a share of `a`, or an absolute difference.
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let diff = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    match def.bound {
        Some(Bound::Absolute(_)) => diff,
        _ if a == 0.0 => 0.0,
        _ => diff / a.abs(),
    }
}

/// Inter-quartile distance of `v` in the bound's own terms.
pub fn spread(def: &MetricDef, v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    match def.bound {
        Some(Bound::Absolute(_)) => q3 - q1,
        _ if median(v) == 0.0 => 0.0,
        _ => (q3 - q1) / median(v).abs(),
    }
}

pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(Bound::Share(bound)) | Some(Bound::Absolute(bound))) = def.bound else {
        return Verdict::Ok;
    };
    if spread(def, a).max(spread(def, b)) > bound {
        Verdict::Unresolved
    } else if worse_by(def, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; returns how many rows regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<17} {:<22} {:>3} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "n", "median A", "median B", "B worse", "IQR A", "IQR B", "bound"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for def in defs(w.family(), false).iter().filter(|d| d.applies_to(w.name)) {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            let v = verdict(def, va, vb);
            regressed += usize::from(v == Verdict::Regressed);
            // Shares print as percent, absolute bounds in the metric's unit.
            let (scale, suffix) = match def.bound {
                Some(Bound::Absolute(_)) => (1.0, " "),
                _ => (100.0, "%"),
            };
            let bound = match def.bound {
                Some(Bound::Share(x)) | Some(Bound::Absolute(x)) => x,
                None => 0.0,
            };
            println!(
                "{:<17} {:<22} {:>3} {:>12.4} {:>12.4} {:>+8.2}{suffix} {:>7.2}{suffix} {:>7.2}{suffix} {:>6.2}{suffix}  {}",
                w.name,
                def.name,
                va.len().min(vb.len()),
                median(va),
                median(vb),
                scale * worse_by(def, median(va), median(vb)),
                scale * spread(def, va),
                scale * spread(def, vb),
                scale * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SVC_END_TO_END;

    fn def(name: &str) -> MetricDef {
        *SVC_END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let (p50, goodput) = (def("commit_ms_p50"), def("goodput_ops_s"));
        let Some(Bound::Share(bound)) = p50.bound else { panic!() };
        let base = [100.0, 100.5, 99.5, 100.2, 99.8];
        let slower: Vec<f64> = base.iter().map(|x| x * (1.0 + 2.0 * bound)).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&p50, &base, &base), Verdict::Ok);
        assert_eq!(verdict(&p50, &base, &slower), Verdict::Regressed);
        assert_eq!(verdict(&p50, &base, &faster), Verdict::Ok);
        // Higher-is-better: half the goodput is a regression, double is not.
        assert_eq!(verdict(&goodput, &base, &faster), Verdict::Regressed);
        assert_eq!(verdict(&goodput, &faster, &base), Verdict::Ok);
        assert!((worse_by(&goodput, 100.0, 90.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let worse: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&def("commit_ms_p50"), &noisy, &worse), Verdict::Unresolved);
    }

    #[test]
    fn an_absolute_bound_compares_differences_not_ratios() {
        let failed = def("failed_share");
        let Some(Bound::Absolute(bound)) = failed.bound else { panic!() };
        let none = [0.0; 5];
        assert_eq!(verdict(&failed, &none, &[0.4 * bound; 5]), Verdict::Ok);
        assert_eq!(verdict(&failed, &none, &[2.0 * bound; 5]), Verdict::Regressed);
        let scattered = [0.0, 0.0, 3.0 * bound, 0.0, 5.0 * bound];
        assert_eq!(verdict(&failed, &none, &scattered), Verdict::Unresolved);
    }
}

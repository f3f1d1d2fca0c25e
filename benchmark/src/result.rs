//! What one run reports: the result line (one JSON object, the driver's
//! contract), the same numbers as a table for people, and as rows of a
//! tab-separated file for `compare`.

use crate::spec::{defs, Family, MetricDef, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub family: Family,
    pub seed: u64,
    pub traced: bool,
    /// Oracle violations; empty means the program's outputs were correct.
    pub violations: Vec<String>,
    /// Generator-validity problems (the run measured something, but not
    /// the schedule it was asked to offer).
    pub invalid: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name -> value. Holds the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable report (sample counts,
    /// the percentile each sample supports, ...).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &Workload, seed: u64, traced: bool) -> Self {
        RunResult {
            workload: workload.name,
            family: workload.family(),
            seed,
            traced,
            violations: Vec::new(),
            invalid: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// 0: outputs correct and the run valid; 1: an oracle violation;
    /// 3: correct, but the generator ran late (repeat the run).
    pub fn exit_code(&self) -> u8 {
        match (self.correct(), self.invalid.is_empty()) {
            (false, _) => 1,
            (true, false) => 3,
            (true, true) => 0,
        }
    }

    /// The metrics this run reports, in table order.
    fn defs(&self) -> impl Iterator<Item = &'static MetricDef> + '_ {
        defs(self.family, self.traced).iter().filter(|d| d.applies_to(self.workload))
    }

    pub fn has_def(&self, name: &str) -> bool {
        self.defs().any(|d| d.name == name)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.has_def(name), "{}: unknown metric {name}", self.workload);
        self.metrics.insert(name, value);
    }

    fn value(&self, def: &MetricDef) -> f64 {
        self.metrics.get(def.name).copied().unwrap_or(0.0)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in self.defs().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_str_lit(&mut out, def.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", num(self.value(def)));
            push_str_lit(&mut out, def.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Appends one row per metric to the tab-separated results file
    /// `compare` reads (columns: [`TSV_COLUMNS`]).
    pub fn append_tsv(&self, path: &str) -> std::io::Result<()> {
        let mut rows = String::new();
        for def in self.defs() {
            let _ = writeln!(
                rows,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                self.workload,
                self.seed,
                u8::from(self.traced),
                self.exit_code(),
                self.attempted,
                self.failed,
                def.name,
                num(self.value(def)),
                def.unit
            );
        }
        std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(rows.as_bytes())
    }

    /// Every metric by name with its unit, then notes and verdicts.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} ({}) ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced: per-layer" } else { "untraced: end-to-end" }
        );
        for def in self.defs() {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {:<9} ({} is better)",
                def.name,
                self.value(def),
                def.unit,
                def.better.as_str()
            );
        }
        let _ = writeln!(out, "  attempted {}  failed {}", self.attempted, self.failed);
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for v in &self.invalid {
            let _ = writeln!(out, "  INVALID: {v}");
        }
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out.push_str(if self.correct() { "  oracle: ok\n" } else { "  oracle: FAILED\n" });
        out
    }
}

/// Columns of the results file, in order.
pub const TSV_COLUMNS: [&str; 9] =
    ["workload", "seed", "trace", "exit", "attempted", "failed", "metric", "value", "unit"];

/// One parsed row of the results file.
pub struct TsvRow {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metric: String,
    pub value: f64,
}

/// Reads a results file written by [`RunResult::append_tsv`].
pub fn read_tsv(path: &str) -> Result<Vec<TsvRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Vec::new();
    for (k, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        let bad = |what: &str| format!("{path}:{}: {what}", k + 1);
        if cols.len() != TSV_COLUMNS.len() {
            return Err(bad("expected 9 tab-separated columns"));
        }
        rows.push(TsvRow {
            workload: cols[0].to_string(),
            seed: cols[1].parse().map_err(|_| bad("seed is not a number"))?,
            traced: cols[2] == "1",
            metric: cols[6].to_string(),
            value: cols[7].parse().map_err(|_| bad("value is not a number"))?,
        });
    }
    Ok(rows)
}

/// `x` as a JSON number with all its digits (non-finite reads 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Peak resident set of this process in MB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn result_line_has_exactly_the_four_members_and_the_family_metrics() {
        let mut r = RunResult::new(workload("des_bb_n257_ft").unwrap(), 7, false);
        r.attempted = 4;
        r.set("des_wall_norm_s", 3.25);
        r.set("peak_rss_mb", 180.5);
        r.set("setup_s", 0.001);
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"des_wall_norm_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 180.5, \"unit\": \"MB\"}, \
             \"setup_s\": {\"value\": 0.001, \"unit\": \"s\"}}}"
        );
        r.violations.push("x".into());
        assert!(r.result_line().starts_with("{\"correct\": false"));
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn a_metric_is_reported_only_where_it_is_defined() {
        let open = RunResult::new(workload("svc_open_n3").unwrap(), 1, false);
        let mixed = RunResult::new(workload("svc_mixed_n3").unwrap(), 1, false);
        assert!(!open.has_def("read_fast_ms_p50") && mixed.has_def("read_fast_ms_p50"));
        assert!(!mixed.has_def("outage_ms") && !mixed.has_def("des_wall_norm_s"));
    }

    #[test]
    fn tsv_rows_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-tsv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.tsv");
        let path = path.to_str().unwrap();
        let mut r = RunResult::new(workload("des_bb_n257_ft").unwrap(), 9, false);
        r.set("des_wall_norm_s", 3.0625);
        r.append_tsv(path).unwrap();
        r.append_tsv(path).unwrap();
        let rows = read_tsv(path).unwrap();
        assert_eq!(rows.len(), 6);
        let first = &rows[0];
        assert_eq!(
            (first.workload.as_str(), first.seed, first.traced),
            ("des_bb_n257_ft", 9, false)
        );
        assert_eq!((first.metric.as_str(), first.value), ("des_wall_norm_s", 3.0625));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

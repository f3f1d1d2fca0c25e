//! E21: the repository's benchmark — an open-loop service workload set
//! on real sockets plus the discrete-event backend at scale, with
//! per-layer attribution measured from outside (see `README.md`).
//!
//! ```text
//! meba-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! meba-benchmark --all [--seed <n>] [--seconds <s>] [--trace 1] [--repeat <k>] [--out <file>]
//! meba-benchmark --smoke
//! meba-benchmark compare <A.tsv> <B.tsv>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the driver's contract). `--all`
//! runs every workload in a child process of its own (so `peak_rss_mb`
//! is per workload). Every form exits 1 on an oracle violation and 3 on
//! a run whose generator ran late.

mod compare;
mod des;
mod gen;
mod result;
mod spec;
mod stats;
mod svc;
mod svc_eval;
mod wrap;

use result::RunResult;
use spec::{DesSpec, Shape, Workload, RUN_SECONDS, SVC_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Everything the benchmark writes (journals, traces, results) goes here.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--smoke` keeps the DES side at n = 257, one repetition each.
fn smoke_shape(shape: Shape) -> Shape {
    match shape {
        Shape::Des(DesSpec { f: 0, .. }) => {
            Shape::Des(DesSpec { n: 257, f: 0, expect_words: 4_096, expect_rounds: 2_065 })
        }
        other => other,
    }
}

/// `commit_ms_p50` of the untraced run of `workload` and `seed` recorded
/// in the results file, if there is one.
fn untraced_p50_ms(out: Option<&str>, workload: &str, seed: u64) -> Option<f64> {
    let rows = result::read_tsv(out?).ok()?;
    rows.iter()
        .rev()
        .find(|r| {
            !r.traced && r.workload == workload && r.seed == seed && r.metric == "commit_ms_p50"
        })
        .map(|r| r.value)
}

fn run_one(w: &Workload, a: &Args) -> std::io::Result<RunResult> {
    let shape = if a.smoke { smoke_shape(w.shape) } else { w.shape };
    match shape {
        Shape::Svc(spec) => {
            let seconds = a.seconds.unwrap_or(SVC_SECONDS);
            let run = svc::run(&spec, a.seed, seconds, a.trace, &out_dir())?;
            let res = if a.trace {
                let reference = untraced_p50_ms(a.out.as_deref(), w.name, a.seed);
                let mut res = svc_eval::per_layer(&run, a.seed, w, reference);
                let path = svc_eval::write_trace(&run, w.name, a.seed, &out_dir())?;
                res.notes.push(format!("spans written to {}", path.display()));
                res
            } else {
                svc_eval::end_to_end(&run, a.seed, w)
            };
            std::fs::remove_dir_all(&run.finished.dir)?;
            Ok(res)
        }
        Shape::Des(spec) => {
            let seconds = a.seconds.unwrap_or(RUN_SECONDS);
            let run = des::run(&spec, a.seed, seconds, a.trace, a.smoke.then_some(1));
            Ok(if a.trace {
                des::per_layer(&run, a.seed, w)
            } else {
                des::end_to_end(&run, a.seed, w)
            })
        }
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    all: bool,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
    compare: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { seed: 1, repeat: 1, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(val()?),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = Some(val()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => a.trace = val()? == "1",
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--repeat" => a.repeat = val()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--out" => a.out = Some(val()?),
            "compare" => a.compare = it.by_ref().collect(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One workload in a child process, which prints its own report and
/// appends its rows to `out`; returns the child's exit code.
fn child(
    w: &Workload,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    out: &str,
) -> i32 {
    let mut cmd = match std::env::current_exe() {
        Ok(exe) => Command::new(exe),
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return 1;
        }
    };
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()]).args([
        "--trace",
        if traced { "1" } else { "0" },
        "--out",
        out,
    ]);
    if let Some(seconds) = seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    match cmd.status() {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            1
        }
    }
}

/// Runs every workload; returns the worst child exit code (a violation
/// outranks an invalid run).
fn all(a: &Args) -> std::io::Result<i32> {
    let seconds = a.seconds.or(a.smoke.then_some(3));
    let out = match &a.out {
        Some(path) => path.clone(),
        None => {
            std::fs::create_dir_all(out_dir())?;
            out_dir().join("results.tsv").to_string_lossy().into_owned()
        }
    };
    std::fs::write(&out, "")?;
    let mut worst = 0;
    for k in 0..a.repeat {
        for w in &WORKLOADS {
            // The smoke check runs each service workload once, traced
            // (probes, trace file and oracle in one pass), and each DES
            // shape once, untraced.
            let modes: &[bool] = match (a.smoke, w.shape) {
                (true, Shape::Svc(_)) => &[true],
                (true, Shape::Des(_)) => &[false],
                (false, _) if a.trace => &[false, true],
                (false, _) => &[false],
            };
            for &traced in modes {
                worst = match (worst, child(w, a.seed + k as u64, seconds, traced, a.smoke, &out)) {
                    (_, 0) | (1, _) => worst,
                    (_, 3) => 3,
                    _ => 1,
                };
            }
        }
    }
    println!("results ({}) in {out}", result::TSV_COLUMNS.join(", "));
    Ok(worst)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !a.compare.is_empty() {
        return match a.compare.as_slice() {
            [x, y] => match compare::run(x, y) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: compare <A.tsv> <B.tsv>");
                ExitCode::from(2)
            }
        };
    }
    if let Some(name) = &a.workload {
        let Some(w) = spec::workload(name) else {
            eprintln!("unknown workload {name}; known: {:?}", WORKLOADS.map(|w| w.name));
            return ExitCode::from(2);
        };
        println!("# {}: {}", w.name, w.why);
        if !w.in_driver_set() {
            println!("# not listed in BENCHMARK.json: see README.md, \"Failing baseline\"");
        }
        let res = match run_one(w, &a) {
            Ok(res) => res,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(1);
            }
        };
        print!("{}", res.table());
        if let Some(Err(e)) = a.out.as_deref().map(|out| res.append_tsv(out)) {
            eprintln!("{name}: --out: {e}");
            return ExitCode::from(1);
        }
        println!("{}", res.result_line());
        return ExitCode::from(res.exit_code());
    }
    if a.all || a.smoke {
        return match all(&a) {
            Ok(0) => {
                println!("all workloads: oracle ok, runs valid");
                ExitCode::SUCCESS
            }
            Ok(3) => {
                println!("INVALID: the oracle passed, but a generator ran late (see above); repeat the run");
                ExitCode::from(3)
            }
            Ok(_) => {
                println!("FAILED: an oracle violation or a workload without a result (see above)");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }
    eprintln!("nothing to do: pass --workload <name>, --all, --smoke or compare (see README.md)");
    ExitCode::from(2)
}

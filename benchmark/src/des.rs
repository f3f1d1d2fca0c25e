//! The `des_*` workloads: adaptive Byzantine Broadcast on the
//! discrete-event backend (`run_des_cluster`), the CPU-bound side of the
//! benchmark. One repetition is one whole BB instance; repetitions run
//! until the measurement window is used, at least [`MIN_REPS`] of them.

use crate::gen::SplitMix64;
use crate::result::{peak_rss_mb, RunResult};
use crate::spec::{DesSpec, Workload};
use crate::stats::median;
use crate::svc_eval::{codec_roundtrip_ns, crypto_ns, set_component_words};
use crate::wrap::{DesCounters, Probe, RunFlags, Tap};
use meba::engine::{run_des_cluster, DesConfig};
use meba::prelude::{AnyActor, Decision, LockstepAdapter, SubProtocol};
use meba::testkit::{bb_actors, corrupt_ids, round_budget, BbM, BbProc, Fault};
use std::sync::Arc;
use std::time::Instant;

pub const MIN_REPS: usize = 3;
/// Actor-vector builds per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One repetition's observable outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepOutcome {
    pub words: u64,
    pub rounds: u64,
    pub sigs: u64,
    pub messages: u64,
    pub bytes: u64,
    pub completed: bool,
    /// Correct processes that decided the sender's input.
    pub decided_input: usize,
    pub correct: usize,
    pub words_by_component: Vec<(String, u64)>,
}

/// Per-repetition tracing aggregates (traced repetitions only).
#[derive(Clone, Debug, Default)]
pub struct DesTrace {
    /// Summed over the wrapped processes.
    pub counters: DesCounters,
    pub wrapped: usize,
    pub captured: Vec<BbM>,
}

pub struct DesRun {
    pub spec: DesSpec,
    /// Wall seconds of every untraced repetition, in run order.
    pub reps_s: Vec<f64>,
    /// [`HostProbe`] readings taken before, between and after the
    /// repetitions of an untraced run.
    pub host_index_s: Vec<f64>,
    /// Wall seconds and aggregates of every traced repetition.
    pub traced: Vec<(f64, DesTrace)>,
    pub outcomes: Vec<RepOutcome>,
    pub setups_s: Vec<f64>,
}

/// What the reference kernels take on this host when it is quiet; scales
/// `des_wall_norm_s` so that it reads as seconds here.
pub const NOMINAL_INDEX_S: f64 = 0.18;

/// How fast the host is right now. This shared 2-vCPU VM changes speed by
/// 10-40 % for minutes at a time (process CPU time moves with wall time;
/// the steal counter does not), which no statistic over one run's
/// repetitions removes. Two fixed kernels that share no code with the
/// program under test — one compute-bound, one a chain of dependent
/// loads over 32 MB — slow down with it, so dividing by their time
/// cancels about half of the run-to-run spread (README, "Calibration").
pub struct HostProbe {
    /// One cycle through all indices, so every load depends on the last.
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> Self {
        let len = 8usize << 20;
        let mut order: Vec<u32> = (0..len as u32).collect();
        let mut rng = SplitMix64::new(0x5eed);
        for i in (1..len).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; len];
        for w in 0..len {
            next[order[w] as usize] = order[(w + 1) % len];
        }
        HostProbe { next }
    }

    /// Geometric mean of the two kernels' wall seconds (~0.2 s).
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        let mut rng = SplitMix64::new(1);
        let mut acc = 0u64;
        for _ in 0..40_000_000u32 {
            acc ^= rng.next_u64();
        }
        std::hint::black_box(acc);
        let compute_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..4_000_000u32 {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        (compute_s * t0.elapsed().as_secs_f64()).sqrt()
    }
}

fn faults(spec: &DesSpec) -> Vec<Fault> {
    let mut faults = vec![Fault::None; spec.n];
    for f in faults.iter_mut().skip(1).take(spec.f) {
        *f = Fault::Idle;
    }
    faults
}

fn decision(actor: &dyn AnyActor<Msg = BbM>) -> Option<Decision<u64>> {
    let any = actor.as_any();
    let adapter: &LockstepAdapter<BbProc> = match any.downcast_ref::<Tap<BbM>>() {
        Some(tap) => tap.inner().as_any().downcast_ref()?,
        None => any.downcast_ref()?,
    };
    adapter.inner().output()
}

/// Every `wrap_stride(n)`-th correct process carries a probe in a traced
/// repetition: all of them up to n = 511, one in eight at n = 2049.
fn wrap_stride(n: usize) -> usize {
    (n / 256).max(1)
}

/// Builds the actor vector (the set-up a DES user pays before every
/// run: trusted set-up of `n` keys plus `n` protocol state machines).
fn build(spec: &DesSpec, input: u64, traced: bool) -> Vec<Box<dyn AnyActor<Msg = BbM>>> {
    let faults = faults(spec);
    let actors = bb_actors(0, input, &faults);
    if !traced {
        return actors;
    }
    let flags = Arc::new(RunFlags::default());
    let stride = wrap_stride(spec.n);
    let mut correct_seen = 0;
    actors
        .into_iter()
        .zip(&faults)
        .map(|(a, fault)| {
            if fault.is_byzantine() {
                return a;
            }
            correct_seen += 1;
            if (correct_seen - 1) % stride != 0 {
                return a;
            }
            let probe = Probe::Des {
                counters: DesCounters::default(),
                captured: Vec::new(),
                capture_cap: 16,
            };
            Box::new(Tap::new(a, flags.clone(), Some(probe))) as Box<dyn AnyActor<Msg = BbM>>
        })
        .collect()
}

fn one_rep(
    spec: &DesSpec,
    seed: u64,
    input: u64,
    actors: Vec<Box<dyn AnyActor<Msg = BbM>>>,
) -> (f64, RepOutcome, DesTrace) {
    let faults = faults(spec);
    let config = DesConfig {
        seed,
        corrupt: corrupt_ids(&faults),
        max_rounds: round_budget(spec.n),
        ..DesConfig::default()
    };
    let t0 = Instant::now();
    let report = run_des_cluster(actors, None, config).expect("default DES config is valid");
    let wall_s = t0.elapsed().as_secs_f64();
    let mut trace = DesTrace::default();
    let (mut decided_input, mut correct) = (0, 0);
    for (i, actor) in report.actors.iter().enumerate() {
        if let Some(Some(Probe::Des { counters, captured, .. })) =
            actor.as_any().downcast_ref::<Tap<BbM>>().map(Tap::probe)
        {
            trace.wrapped += 1;
            trace.counters.add(counters);
            trace.captured.extend(captured.iter().cloned());
        }
        if faults[i].is_byzantine() {
            continue;
        }
        correct += 1;
        if decision(actor.as_ref()) == Some(Decision::Value(input)) {
            decided_input += 1;
        }
    }
    let outcome = RepOutcome {
        words: report.metrics.correct.words,
        rounds: report.rounds,
        sigs: report.metrics.correct.constituent_sigs,
        messages: report.metrics.correct.messages,
        bytes: report.metrics.correct.bytes,
        completed: report.completed,
        decided_input,
        correct,
        words_by_component: report
            .metrics
            .by_component
            .iter()
            .map(|(k, c)| (k.clone(), c.words))
            .collect(),
    };
    (wall_s, outcome, trace)
}

/// Runs one `des_*` workload for about `seconds`. Untraced: repetitions
/// back to back. Traced: untraced and traced repetitions alternate, so
/// the tracing overhead is read off the same run. `exact_reps` (the
/// smoke check) fixes the repetition count regardless of the clock; a
/// traced run then needs two, one of each kind.
pub fn run(
    spec: &DesSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    exact_reps: Option<usize>,
) -> DesRun {
    let input = SplitMix64::new(seed).next_u64();
    let mut out = DesRun {
        spec: *spec,
        reps_s: Vec::new(),
        host_index_s: Vec::new(),
        traced: Vec::new(),
        outcomes: Vec::new(),
        setups_s: Vec::new(),
    };
    let started = Instant::now();
    let probe = (!traced).then(HostProbe::new);
    out.host_index_s.extend(probe.as_ref().map(HostProbe::sample));
    let min_reps = if traced { 2 } else { MIN_REPS };
    loop {
        let done = out.reps_s.len() + out.traced.len();
        let spent = started.elapsed().as_secs_f64();
        let enough = match exact_reps {
            Some(reps) => done >= reps.max(if traced { 2 } else { 1 }),
            None => done >= min_reps && spent + spent / done as f64 > seconds as f64,
        };
        if enough {
            break;
        }
        let trace_this = traced && done % 2 == 1;
        let t0 = Instant::now();
        let actors = build(spec, input, trace_this);
        out.setups_s.push(t0.elapsed().as_secs_f64());
        let (wall_s, outcome, trace) = one_rep(spec, seed, input, actors);
        out.outcomes.push(outcome);
        if trace_this {
            out.traced.push((wall_s, trace));
        } else {
            out.reps_s.push(wall_s);
        }
        out.host_index_s.extend(probe.as_ref().map(HostProbe::sample));
    }
    while out.setups_s.len() < SETUPS {
        let t0 = Instant::now();
        drop(build(spec, input, false));
        out.setups_s.push(t0.elapsed().as_secs_f64());
    }
    out
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// Every correct process decided the sender's input, and the exact
/// counts (words, rounds, signatures, per-component words) are the
/// expected ones and identical across repetitions.
fn oracle(run: &DesRun) -> Vec<String> {
    let mut bad = Vec::new();
    let spec = &run.spec;
    for (k, o) in run.outcomes.iter().enumerate() {
        if !o.completed {
            bad.push(format!("repetition {k} did not terminate"));
        }
        if o.decided_input != o.correct || o.correct != spec.n - spec.f {
            bad.push(format!(
                "repetition {k}: {} of {} correct processes decided the sender's input",
                o.decided_input, o.correct
            ));
        }
        if (o.words, o.rounds) != (spec.expect_words, spec.expect_rounds) {
            bad.push(format!(
                "repetition {k}: {} words in {} rounds, expected {} in {}",
                o.words, o.rounds, spec.expect_words, spec.expect_rounds
            ));
        }
        if *o != run.outcomes[0] {
            bad.push(format!("repetition {k} is not bit-identical to repetition 0"));
        }
    }
    bad
}

fn common(run: &DesRun, seed: u64, workload: &Workload, traced: bool) -> RunResult {
    let mut res = RunResult::new(workload, seed, traced);
    res.violations = oracle(run);
    res.attempted = run.outcomes.len() as u64;
    res.failed =
        run.outcomes.iter().filter(|o| !o.completed || o.decided_input != o.correct).count() as u64;
    res
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(run: &DesRun, seed: u64, workload: &Workload) -> RunResult {
    let mut res = common(run, seed, workload, false);
    // The work is deterministic, so whatever the host adds only ever
    // slows a repetition down: the fastest one is the steadiest reading
    // of the work's cost, and the host's speed while it ran scales it.
    let fastest = run.reps_s.iter().copied().fold(f64::INFINITY, f64::min);
    let index = median(&run.host_index_s);
    res.set("des_wall_norm_s", fastest * NOMINAL_INDEX_S / index);
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("setup_s", median(&run.setups_s));
    res.notes.push(format!(
        "des_wall_norm_s is the fastest of {} repetitions of n = {}, f = {} ({:?} s) x {NOMINAL_INDEX_S} / {index:.4} s, the median of {} host-speed readings",
        run.reps_s.len(),
        run.spec.n,
        run.spec.f,
        run.reps_s,
        run.host_index_s.len()
    ));
    res.notes.push(format!(
        "setup_s is the median of {} actor-vector builds (trusted set-up + {} state machines)",
        run.setups_s.len(),
        run.spec.n
    ));
    res
}

/// Per-layer metrics, from the traced repetitions of a traced run.
pub fn per_layer(run: &DesRun, seed: u64, workload: &Workload) -> RunResult {
    let mut res = common(run, seed, workload, true);
    let n = run.spec.n;
    // Repetitions alternate U0 T0 U1 T1 ...; later repetitions of one
    // process run a few percent slower whatever they are, so each traced
    // one is compared with the mean of its untraced neighbours.
    let traced_walls: Vec<f64> = run.traced.iter().map(|(w, _)| *w).collect();
    let overheads: Vec<f64> = traced_walls
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let around = &run.reps_s[k..(k + 2).min(run.reps_s.len())];
            t / (around.iter().sum::<f64>() / around.len() as f64) - 1.0
        })
        .collect();
    res.set("trace.overhead_share", median(&overheads));
    let Some((first_wall, trace)) = run.traced.first() else { return res };
    let c = &trace.counters;
    let o = &run.outcomes[0];
    // Timed calls -> all calls of the wrapped processes -> all correct
    // processes.
    let on_round_s = c.sampled_ns as f64 / 1e9 * c.calls as f64 / c.sampled_calls.max(1) as f64
        * o.correct as f64
        / trace.wrapped.max(1) as f64;
    res.set("core.on_round_s", on_round_s);
    res.set("engine.des.self_s", (first_wall - on_round_s).max(0.0));
    // One tick per process per round, plus one event per delivery.
    let events = o.rounds * n as u64 + o.messages;
    res.set("engine.des.events_per_s", events as f64 / first_wall);
    let empty_share = c.sampled_empty as f64 / c.sampled_calls.max(1) as f64;
    res.set("engine.des.empty_tick_share", empty_share);
    res.set("engine.rounds_per_s", o.rounds as f64 / first_wall);
    let words = o.words as f64;
    res.set("core.words", words);
    res.set("core.words_per_n", words / n as f64);
    set_component_words(
        &mut res,
        o.words_by_component.iter().map(|(k, w)| (k.as_str(), *w)),
        words,
    );
    let (verify_ns, sign_ns) = crypto_ns(n);
    res.set("crypto.sigs_per_op", o.sigs as f64);
    res.set("crypto.verify_ns_per_sig", verify_ns);
    res.set("crypto.sign_ns", sign_ns);
    res.set("crypto.est_busy_share", o.messages as f64 * verify_ns / (first_wall * 1e9));
    res.set("wire.bytes_per_word", o.bytes as f64 / words.max(1.0));
    res.set("wire.codec.roundtrip_ns_per_msg", codec_roundtrip_ns(&trace.captured));
    res.notes.push(format!(
        "traced repetitions {traced_walls:?} s vs untraced {:?} s; {} of {} correct processes wrapped, 1 call in {} timed ({} calls)",
        run.reps_s,
        trace.wrapped,
        o.correct,
        crate::wrap::DES_SAMPLE,
        c.sampled_calls
    ));
    res
}

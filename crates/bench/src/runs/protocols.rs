//! E1–E11: one run of a single-shot protocol (adaptive BB, weak BA, the
//! two strong BAs, the Dolev–Strong and recursive-BA baselines, the two
//! ablation attacks) on the lockstep discrete-event backend.

use super::idle_at;
use meba_adversary::{
    EquivocatingSender, LateHelperLeader, SplitVoteLeader, WastefulBbLeader, WastefulWeakLeader,
};
use meba_core::{AlwaysValid, Bb, Decision, LockstepAdapter, StrongBa, SystemConfig, WeakBa};
use meba_crypto::{ProcessId, SecretKey};
use meba_engine::ClusterReport;
use meba_fallback::{DolevStrongBb, RecursiveBa, BASE_SCOPE};
use meba_sim::{Actor, AnyActor, Message, Metrics};
use meba_testkit::oracle::{self, Decided, Probe, Violation};
use meba_testkit::{
    cluster, corrupt_ids, des, strong_ba_actors, BbM, BbProc, Family, Fault, Party, SbaCtor,
    SbaProc, Timing, WbaM, WbaProc,
};
use std::collections::BTreeMap;

/// Outcome of one run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// System size.
    pub n: usize,
    /// Actual failures injected.
    pub f: usize,
    /// Words sent by correct processes (the paper's metric).
    pub words: u64,
    /// Messages sent by correct processes.
    pub messages: u64,
    /// Constituent signatures sent by correct processes.
    pub constituent_sigs: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Earliest/latest decision steps among correct processes.
    pub decided_first: u64,
    /// Latest decision step among correct processes.
    pub decided_last: u64,
    /// Whether any correct process ran the fallback.
    pub fallback_used: bool,
    /// Whether all correct decisions were equal.
    pub agreement: bool,
    /// Per-component correct words (experiment E5).
    pub by_component: BTreeMap<String, u64>,
    /// Count of correct processes that led a non-silent phase.
    pub nonsilent_leaders: usize,
    /// The run's whole ledger, for readings the fields above do not
    /// name.
    pub metrics: Metrics,
}

/// Runs `actors` to completion on the lockstep discrete-event backend
/// and reads the traffic totals; the decision fields keep their "nothing
/// read" values.
fn run<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    faults: &[Fault],
) -> (ClusterReport<M>, RunStats) {
    let n = faults.len();
    let report = des(actors, faults, 0, &Timing::lockstep());
    assert!(report.completed, "run terminated");
    let m = &report.metrics;
    let stats = RunStats {
        n,
        f: corrupt_ids(faults).len(),
        words: m.correct.words,
        messages: m.correct.messages,
        constituent_sigs: m.correct.constituent_sigs,
        rounds: m.rounds,
        decided_first: 0,
        decided_last: 0,
        fallback_used: false,
        agreement: true,
        by_component: m.by_component.iter().map(|(k, v)| (k.clone(), v.words)).collect(),
        nonsilent_leaders: 0,
        metrics: m.clone(),
    };
    (report, stats)
}

/// [`run`] of a run inside the synchrony model, which every check of
/// family `P`'s oracle must pass, plus when and how its correct processes
/// decided. Returns the stats and the checked run.
fn run_protocol<P: Probe>(
    actors: Vec<Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>>,
    faults: &[Fault],
) -> (RunStats, Decided<P::Output>) {
    let (report, stats) = run(actors, faults);
    let decided = oracle::decided::<P>(&report.actors, &report.metrics, faults);
    decided.assert_in_model();
    let stats = RunStats {
        decided_first: decided.first,
        decided_last: decided.last,
        fallback_used: decided.fell_back > 0,
        agreement: true,
        nonsilent_leaders: decided.nonsilent_leaders,
        ..stats
    };
    (stats, decided)
}

/// A hand-written adversary, boxed for [`cluster`]'s `byzantine` slot.
fn hand_written<M: Message>(
    actor: impl AnyActor<Msg = M> + 'static,
) -> Option<Box<dyn AnyActor<Msg = M>>> {
    Some(Box::new(actor))
}

/// Adversary menu for BB runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BbAdversary {
    /// No failures.
    FailureFree,
    /// `f` crashed followers (silent from the start).
    CrashFollowers(usize),
    /// `f` cost-maximizing Byzantine leaders (`p1..pf`) that waste their
    /// vetting and BA phases — realizes the `O(n(f+1))` staircase.
    WastefulLeaders(usize),
    /// The designated sender never sends.
    SilentSender,
    /// The sender signs two values and splits the system.
    EquivocatingSender,
}

impl BbAdversary {
    /// Number of corrupted processes.
    pub fn f(&self) -> usize {
        match self {
            BbAdversary::FailureFree => 0,
            BbAdversary::CrashFollowers(f) | BbAdversary::WastefulLeaders(f) => *f,
            BbAdversary::SilentSender | BbAdversary::EquivocatingSender => 1,
        }
    }
}

/// Runs adaptive BB (sender `p0`, value 7) under the given adversary.
pub fn run_bb(n: usize, adversary: BbAdversary) -> RunStats {
    let (cfg, sender) = (Family::BB.config(n), ProcessId(0));
    assert!(adversary.f() <= cfg.t(), "f={} exceeds t={}", adversary.f(), cfg.t());
    let faults = match adversary {
        BbAdversary::SilentSender | BbAdversary::EquivocatingSender => idle_at(n, 0..1),
        _ => idle_at(n, 1..=adversary.f()),
    };
    let honest = |p: Party| {
        let factory = p.factory();
        let bb = if p.id == sender {
            Bb::new_sender(p.cfg, p.id, p.key, p.pki, factory, 7u64)
        } else {
            Bb::new(p.cfg, p.id, p.key, p.pki, factory, sender)
        };
        LockstepAdapter::new(p.id, bb)
    };
    let byzantine = |p: &Party, _: &[SecretKey]| match adversary {
        BbAdversary::WastefulLeaders(_) => {
            hand_written(WastefulBbLeader::<u64, _>::new(p.cfg, p.id, p.id.0))
        }
        BbAdversary::EquivocatingSender => {
            let half = (n as u32 - 1) / 2 + 1;
            let (a, b) = ((1..half).map(ProcessId).collect(), (half..n as u32).map(ProcessId));
            hand_written(EquivocatingSender::new(p.cfg, p.key.clone(), 1u64, 2u64, a, b.collect()))
        }
        _ => None,
    };
    let actors: Vec<Box<dyn AnyActor<Msg = BbM>>> =
        cluster(cfg, Family::BB.key_seed, &faults, honest, byzantine);
    run_protocol::<BbProc>(actors, &faults).0
}

/// Adversary menu for weak BA runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WbaAdversary {
    /// No failures.
    FailureFree,
    /// `f` crashed processes `p1..pf`.
    CrashFollowers(usize),
    /// `f` wasteful Byzantine leaders `p1..pf`.
    WastefulLeaders(usize),
}

impl WbaAdversary {
    /// Number of corrupted processes.
    pub fn f(&self) -> usize {
        match self {
            WbaAdversary::FailureFree => 0,
            WbaAdversary::CrashFollowers(f) | WbaAdversary::WastefulLeaders(f) => *f,
        }
    }
}

/// An honest weak BA process with the given input.
fn honest_weak_ba(p: Party, input: u64) -> WbaProc {
    let factory = p.factory();
    WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, input)
}

/// Runs adaptive weak BA (all inputs 5) under the given adversary.
pub fn run_weak_ba(n: usize, adversary: WbaAdversary) -> RunStats {
    let cfg = Family::WEAK_BA.config(n);
    assert!(adversary.f() <= cfg.t());
    let faults = idle_at(n, 1..=adversary.f());
    let byzantine = |p: &Party, _: &[SecretKey]| match adversary {
        WbaAdversary::WastefulLeaders(_) => {
            hand_written(WastefulWeakLeader::new(p.cfg, p.id, p.id.0, 99u64))
        }
        _ => None,
    };
    let actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = cluster(
        cfg,
        Family::WEAK_BA.key_seed,
        &faults,
        |p| LockstepAdapter::new(p.id, honest_weak_ba(p, 5)),
        byzantine,
    );
    run_protocol::<WbaProc>(actors, &faults).0
}

/// One strong BA run (all inputs `true`) with the processes in `byz`
/// crashed from the start.
fn run_strong(variant: SbaCtor, n: usize, byz: std::ops::Range<usize>) -> RunStats {
    assert!(byz.len() <= (n - 1) / 2);
    let faults = idle_at(n, byz);
    run_protocol::<SbaProc>(strong_ba_actors(variant, &vec![true; n], &faults), &faults).0
}

/// Runs binary strong BA (all inputs `true`) with `f` crashed followers
/// (crash the leader instead by passing `crash_leader`).
pub fn run_strong_ba(n: usize, f: usize, crash_leader: bool) -> RunStats {
    let first = usize::from(!crash_leader);
    run_strong(StrongBa::new, n, first..first + f)
}

/// Runs the rotating-leader strong BA extension (all inputs `true`) with
/// the first `f` processes crashed (the leaders of the first `f`
/// attempts — the hardest placement for the rotation).
pub fn run_rotating_strong(n: usize, f: usize) -> RunStats {
    run_strong(StrongBa::rotating, n, 0..f)
}

/// Runs the Dolev–Strong BB baseline with `f` crashed followers.
pub fn run_dolev_strong(n: usize, f: usize) -> RunStats {
    let (cfg, sender) = (Family::BB.config(n), ProcessId(0));
    let faults = idle_at(n, 1..=f);
    let honest = |p: Party| {
        let input = (p.id == sender).then_some(7u64);
        LockstepAdapter::new(p.id, DolevStrongBb::new(&p.cfg, sender, p.id, p.key, p.pki, input))
    };
    let (_, stats) = run(cluster(cfg, Family::BB.key_seed, &faults, honest, |_, _| None), &faults);
    let decided = cfg.t() as u64 + 1;
    RunStats { decided_first: decided, decided_last: decided, ..stats }
}

/// One standalone run of the recursive fallback BA: unanimous `input`,
/// base-case size `base`, every other process from `p1` on crashed until
/// `f` are. Its decision steps and fallback flags keep their "nothing
/// read" values: the run *is* the fallback.
fn run_recursive(n: usize, f: usize, input: u64, base: usize) -> (RunStats, Decided<u64>) {
    let faults = idle_at(n, (0..f).map(|i| 2 * i + 1));
    let honest = |p: Party| {
        LockstepAdapter::new(p.id, RecursiveBa::with_base(p.cfg, p.id, p.key, p.pki, input, base))
    };
    let family = Family::STRONG_BA;
    let actors = cluster(family.config(n), family.key_seed, &faults, honest, |_, _| None);
    run_protocol::<RecursiveBa<u64>>(actors, &faults)
}

/// Runs the recursive fallback BA standalone with `f` crashed processes
/// (unanimous input 1).
pub fn run_recursive_ba(n: usize, f: usize) -> RunStats {
    run_recursive(n, f, 1, BASE_SCOPE).0
}

/// Runs one E10 cell: the recursive fallback BA (unanimous input 5) with
/// base-case size `base` and `crashes` crashed processes. Returns the
/// run's stats and whether every correct process decided 5.
pub fn run_base_scope(n: usize, base: usize, crashes: usize) -> (RunStats, bool) {
    let (stats, decided) = run_recursive(n, crashes, 5, base);
    (stats, decided.decision() == Some(&5))
}

/// The E8/E9 stage: n = 7 weak BA where the Byzantine cohort {p1, p3,
/// p5} is led by `leader` at p1 (lent the whole cohort's keys), p3 and
/// p5 stay silent, and the correct processes run `honest`. Returns the
/// run's stats (`agreement` read off the oracle's violations) and the
/// decisions of the correct processes. An ablated run breaks agreement
/// and nothing else; the paper-configured one breaks nothing.
fn run_cohort_attack(
    cfg: SystemConfig,
    key_seed: u64,
    honest: impl Fn(Party) -> WbaProc,
    leader: impl Fn(&Party, Vec<SecretKey>) -> Box<dyn AnyActor<Msg = WbaM>>,
) -> (RunStats, Vec<Decision<u64>>) {
    let faults = idle_at(7, [1, 3, 5]);
    let cohort = |keys: &[SecretKey]| [1, 3, 5].map(|i| keys[i].clone()).to_vec();
    let actors = cluster(
        cfg,
        key_seed,
        &faults,
        |p| LockstepAdapter::new(p.id, honest(p)),
        |p, keys| (p.id.0 == 1).then(|| leader(p, cohort(keys))),
    );
    let (report, stats) = run(actors, &faults);
    let decided = oracle::decided::<WbaProc>(&report.actors, &report.metrics, &faults);
    let split = |v: &Violation| matches!(v, Violation::Disagreement(..));
    assert!(decided.violations.iter().all(split), "{:?}", decided.violations);
    let decisions = decided.decisions.iter().flatten().cloned().collect();
    (RunStats { agreement: decided.violations.is_empty(), ..stats }, decisions)
}

/// Runs the E8 split-vote attack; [`RunStats::agreement`] says whether
/// agreement held. Returns `(stats, decisions_of_correct)`.
pub fn run_split_vote_attack(naive_quorum: bool) -> (RunStats, Vec<Decision<u64>>) {
    let mut cfg = SystemConfig::new(7, 0xe8).unwrap();
    if naive_quorum {
        cfg = cfg.unsafe_with_quorum(cfg.idk_threshold());
    }
    run_cohort_attack(
        cfg,
        0xe8,
        |p| honest_weak_ba(p, 7),
        |p, cohort| {
            let (group_a, group_b) =
                ([0, 2].map(ProcessId).to_vec(), [4, 6].map(ProcessId).to_vec());
            let pki = p.pki.clone();
            Box::new(SplitVoteLeader::new(
                p.cfg, p.id, pki, cohort, 1, 100u64, 200u64, group_a, group_b,
            ))
        },
    )
}

/// Runs the E9 late-help attack; `window` controls whether the paper's
/// 2δ safety window is active. Returns `(stats, decisions)`.
pub fn run_late_help_attack(window: bool) -> (RunStats, Vec<Decision<u64>>) {
    run_cohort_attack(
        SystemConfig::new(7, 0xe9).unwrap(),
        0xe9,
        |p| {
            let mut wba = honest_weak_ba(p, 10);
            if !window {
                wba.disable_safety_window();
            }
            wba
        },
        |p, cohort| {
            let (pki, helped) = (p.pki.clone(), ProcessId(0));
            Box::new(LateHelperLeader::new(p.cfg, p.id, pki, cohort, 1, 20u64, helped))
        },
    )
}

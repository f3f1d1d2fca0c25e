//! Single-configuration protocol runs under named adversaries.

use meba_adversary::{
    EquivocatingSender, LateHelperLeader, SplitVoteLeader, WastefulBbLeader, WastefulWeakLeader,
};
use meba_core::{
    AlwaysValid, Bb, Decision, LockstepAdapter, StrongBa, SubProtocol, SystemConfig, WeakBa,
};
use meba_crypto::{trusted_setup, ProcessId, SecretKey};
use meba_fallback::{DolevStrongBb, RecursiveBa, RecursiveBaFactory};
use meba_sim::{Actor, AnyActor, IdleActor, Metrics, SimBuilder};
use meba_smr::{LogEntry, ReplicatedLog};
use std::collections::BTreeMap;

type BbProc = Bb<u64, RecursiveBaFactory>;
type BbM = <BbProc as SubProtocol>::Msg;
type WbaProc = WeakBa<u64, AlwaysValid, RecursiveBaFactory>;
type WbaM = <WbaProc as SubProtocol>::Msg;
type SbaProc = StrongBa<RecursiveBaFactory>;
type SbaM = <SbaProc as SubProtocol>::Msg;

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
}

fn stats_from(metrics: &Metrics, n: usize, f: usize) -> RunStats {
    RunStats {
        n,
        f,
        words: metrics.correct.words,
        messages: metrics.correct.messages,
        constituent_sigs: metrics.correct.constituent_sigs,
        rounds: metrics.rounds,
        decided_first: 0,
        decided_last: 0,
        fallback_used: false,
        agreement: true,
        by_component: metrics.by_component.iter().map(|(k, v)| (k.clone(), v.words)).collect(),
        nonsilent_leaders: 0,
    }
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
    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xb0b);
    let sender = ProcessId(0);
    let value = 7u64;
    let f = adversary.f();
    assert!(f <= cfg.t(), "f={f} exceeds t={}", cfg.t());

    let mut byz: Vec<u32> = Vec::new();
    let mut actors: Vec<Box<dyn AnyActor<Msg = BbM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        let actor: Box<dyn AnyActor<Msg = BbM>> = match adversary {
            BbAdversary::CrashFollowers(f) if i >= 1 && i <= f => {
                byz.push(i as u32);
                Box::new(IdleActor::new(id))
            }
            BbAdversary::WastefulLeaders(f) if i >= 1 && i <= f => {
                byz.push(i as u32);
                Box::new(WastefulBbLeader::<u64, _>::new(cfg, id, i as u32))
            }
            BbAdversary::SilentSender if i == 0 => {
                byz.push(0);
                Box::new(IdleActor::new(id))
            }
            BbAdversary::EquivocatingSender if i == 0 => {
                byz.push(0);
                let half = (n - 1) / 2 + 1;
                Box::new(EquivocatingSender::new(
                    cfg,
                    key,
                    1u64,
                    2u64,
                    (1..half as u32).map(ProcessId).collect(),
                    (half as u32..n as u32).map(ProcessId).collect(),
                ))
            }
            _ => {
                let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
                let bb = if id == sender {
                    Bb::new_sender(cfg, id, key, pki.clone(), factory, value)
                } else {
                    Bb::new(cfg, id, key, pki.clone(), factory, sender)
                };
                Box::new(LockstepAdapter::new(id, bb))
            }
        };
        actors.push(actor);
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(60 * n as u64 + 4_000).expect("bb run terminated");

    let mut stats = stats_from(sim.metrics(), n, f);
    let mut decisions: Vec<Decision<u64>> = Vec::new();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for i in (0..n as u32).filter(|i| !byz.contains(i)) {
        let a: &LockstepAdapter<BbProc> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
        decisions.push(a.inner().output().expect("decided"));
        let d = a.inner().decided_at().expect("decided step");
        first = first.min(d);
        last = last.max(d);
        stats.fallback_used |= a.inner().used_fallback();
        stats.nonsilent_leaders += a.inner().led_nonsilent_phase() as usize;
    }
    stats.agreement = decisions.windows(2).all(|w| w[0] == w[1]);
    stats.decided_first = first;
    stats.decided_last = last;
    stats
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

/// Runs adaptive weak BA (all inputs 5) under the given adversary.
pub fn run_weak_ba(n: usize, adversary: WbaAdversary) -> RunStats {
    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0x3a3a);
    let f = adversary.f();
    assert!(f <= cfg.t());

    let mut byz: Vec<u32> = Vec::new();
    let mut actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        let actor: Box<dyn AnyActor<Msg = WbaM>> = match adversary {
            WbaAdversary::CrashFollowers(f) if i >= 1 && i <= f => {
                byz.push(i as u32);
                Box::new(IdleActor::new(id))
            }
            WbaAdversary::WastefulLeaders(f) if i >= 1 && i <= f => {
                byz.push(i as u32);
                Box::new(WastefulWeakLeader::new(cfg, id, i as u32, 99u64))
            }
            _ => {
                let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
                let wba = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 5u64);
                Box::new(LockstepAdapter::new(id, wba))
            }
        };
        actors.push(actor);
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(60 * n as u64 + 4_000).expect("weak ba run terminated");

    let mut stats = stats_from(sim.metrics(), n, f);
    let mut decisions = Vec::new();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for i in (0..n as u32).filter(|i| !byz.contains(i)) {
        let a: &LockstepAdapter<WbaProc> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
        decisions.push(a.inner().output().expect("decided"));
        let d = a.inner().decided_at().expect("decided step");
        first = first.min(d);
        last = last.max(d);
        stats.fallback_used |= a.inner().used_fallback();
        stats.nonsilent_leaders += a.inner().led_nonsilent_phase() as usize;
    }
    stats.agreement = decisions.windows(2).all(|w| w[0] == w[1]);
    stats.decided_first = first;
    stats.decided_last = last;
    stats
}

/// One strong BA run (all inputs `true`) with the processes in `byz`
/// crashed from the start.
fn run_strong(variant: meba_testkit::SbaCtor, n: usize, byz: std::ops::Range<u32>) -> RunStats {
    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0x5ba);
    let f = byz.len();
    assert!(f <= cfg.t());
    let mut actors: Vec<Box<dyn AnyActor<Msg = SbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if byz.contains(&id.0) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let sba = variant(cfg, id, key, pki.clone(), factory, true);
            actors.push(Box::new(LockstepAdapter::new(id, sba)));
        }
    }
    let mut b = SimBuilder::new(actors);
    for c in byz.clone() {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(60 * n as u64 + 4_000).expect("strong ba run terminated");

    let mut stats = stats_from(sim.metrics(), n, f);
    let mut decisions = Vec::new();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for i in (0..n as u32).filter(|i| !byz.contains(i)) {
        let a: &LockstepAdapter<SbaProc> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
        decisions.push(a.inner().output().expect("decided"));
        let d = a.inner().decided_at().expect("decided step");
        first = first.min(d);
        last = last.max(d);
        stats.fallback_used |= a.inner().used_fallback();
    }
    stats.agreement = decisions.windows(2).all(|w| w[0] == w[1]);
    stats.decided_first = first;
    stats.decided_last = last;
    stats
}

/// Runs binary strong BA (all inputs `true`) with `f` crashed followers
/// (crash the leader instead by passing `crash_leader`).
pub fn run_strong_ba(n: usize, f: usize, crash_leader: bool) -> RunStats {
    let first = u32::from(!crash_leader);
    run_strong(StrongBa::new, n, first..first + f as u32)
}

/// Runs the rotating-leader strong BA extension (all inputs `true`) with
/// the first `f` processes crashed (the leaders of the first `f`
/// attempts — the hardest placement for the rotation).
pub fn run_rotating_strong(n: usize, f: usize) -> RunStats {
    run_strong(StrongBa::rotating, n, 0..f as u32)
}

type LogProc = ReplicatedLog<u64, RecursiveBaFactory>;
type LogM = <LogProc as Actor>::Msg;

/// Outcome of one replicated-log run (experiment E12).
#[derive(Clone, Debug)]
pub struct SmrRunStats {
    /// System size.
    pub n: usize,
    /// Crashed followers.
    pub f: usize,
    /// Pipeline window `W` (`1` = sequential).
    pub window: u64,
    /// Slots attempted.
    pub slots: u64,
    /// Slots that committed a value (`≠ ⊥`).
    pub committed: u64,
    /// Total rounds until every replica finished the log.
    pub rounds: u64,
    /// Words sent by correct processes across all sessions.
    pub words: u64,
    /// Rounds per *committed* slot — the pipelining win.
    pub rounds_per_slot: f64,
    /// Correct words per committed slot — must stay adaptive.
    pub words_per_slot: f64,
    /// Per-session correct words, in slot order (from
    /// [`meba_sim::Metrics::per_session`]).
    pub session_words: Vec<u64>,
    /// Whether all correct replicas hold identical logs.
    pub agreement: bool,
}

/// Runs the session-multiplexed replicated log: `slots` BB instances,
/// pipeline window `window`, and `f` crashed followers (`p1..pf` — their
/// proposer slots commit `⊥`). Replica `i` proposes `100·(i+1) + k`.
pub fn run_smr(n: usize, slots: u64, window: u64, f: usize) -> SmrRunStats {
    let cfg = SystemConfig::new(n, 0x512).unwrap();
    let (pki, keys) = trusted_setup(n, 0x109);
    assert!(f <= cfg.t());
    let byz: Vec<u32> = (1..=f as u32).collect();
    let mut actors: Vec<Box<dyn AnyActor<Msg = LogM>>> = Vec::new();
    let mut budget = 0;
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let commands: Vec<u64> = (0..slots).map(|k| 100 * (i as u64 + 1) + k).collect();
            let log = ReplicatedLog::new(cfg, id, key, pki.clone(), factory, slots, commands, 0)
                .with_window(window);
            budget = log.total_rounds() + 16;
            actors.push(Box::new(log));
        }
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(budget).expect("smr run terminated");

    let logs: Vec<Vec<LogEntry<u64>>> = (0..n as u32)
        .filter(|i| !byz.contains(i))
        .map(|i| {
            let a: &LogProc = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            a.log().to_vec()
        })
        .collect();
    let agreement = logs.windows(2).all(|w| w[0] == w[1]);
    let committed = logs[0].iter().filter(|e| e.entry.value().is_some()).count() as u64;
    let m = sim.metrics();
    let session_words: Vec<u64> = m.per_session.values().map(|s| s.counters.words).collect();
    SmrRunStats {
        n,
        f,
        window,
        slots,
        committed,
        rounds: m.rounds,
        words: m.correct.words,
        rounds_per_slot: m.rounds as f64 / committed.max(1) as f64,
        words_per_slot: m.correct.words as f64 / committed.max(1) as f64,
        session_words,
        agreement,
    }
}

/// Runs the Dolev–Strong BB baseline with `f` crashed followers.
pub fn run_dolev_strong(n: usize, f: usize) -> RunStats {
    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xd5);
    let sender = ProcessId(0);
    let byz: Vec<u32> = (1..=f as u32).collect();
    let mut actors: Vec<Box<dyn AnyActor<Msg = meba_fallback::DsBbMsg<u64>>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let input = (id == sender).then_some(7u64);
            let ds = DolevStrongBb::new(&cfg, sender, id, key, pki.clone(), input);
            actors.push(Box::new(LockstepAdapter::new(id, ds)));
        }
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(10 * n as u64 + 100).expect("dolev-strong run terminated");
    let mut stats = stats_from(sim.metrics(), n, f);
    stats.decided_first = cfg.t() as u64 + 1;
    stats.decided_last = cfg.t() as u64 + 1;
    stats
}

/// Runs the recursive fallback BA standalone with `f` crashed processes
/// (unanimous input 1).
pub fn run_recursive_ba(n: usize, f: usize) -> RunStats {
    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0x4ec);
    let byz: Vec<u32> = (0..f as u32).map(|i| 2 * i + 1).collect();
    let mut actors: Vec<Box<dyn AnyActor<Msg = meba_fallback::RecBaMsg<u64>>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let rb = RecursiveBa::new(cfg, id, key, pki.clone(), 1u64);
            actors.push(Box::new(LockstepAdapter::new(id, rb)));
        }
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(40 * n as u64 + 200).expect("recursive ba run terminated");
    stats_from(sim.metrics(), n, f)
}

/// Runs the E8 split-vote attack and reports whether agreement held.
/// Returns `(agreement, decisions_of_correct)`.
pub fn run_split_vote_attack(naive_quorum: bool) -> (bool, Vec<Decision<u64>>) {
    let n = 7usize;
    let mut cfg = SystemConfig::new(n, 0xe8).unwrap();
    if naive_quorum {
        cfg = cfg.unsafe_with_quorum(cfg.idk_threshold());
    }
    let (pki, keys) = trusted_setup(n, 0xe8);
    let byz = [1u32, 3, 5];
    let cohort: Vec<SecretKey> = byz.iter().map(|&i| keys[i as usize].clone()).collect();
    let mut actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if i as u32 == 1 {
            actors.push(Box::new(SplitVoteLeader::new(
                cfg,
                id,
                pki.clone(),
                cohort.clone(),
                1,
                100u64,
                200u64,
                vec![ProcessId(0), ProcessId(2)],
                vec![ProcessId(4), ProcessId(6)],
            )));
        } else if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let wba = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 7u64);
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(4_000).expect("attack run terminated");
    let decisions: Vec<Decision<u64>> = [0u32, 2, 4, 6]
        .iter()
        .map(|&i| {
            let a: &LockstepAdapter<WbaProc> =
                sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            a.inner().output().expect("decided")
        })
        .collect();
    let agreement = decisions.windows(2).all(|w| w[0] == w[1]);
    (agreement, decisions)
}

/// Runs the E9 late-help attack; `window` controls whether the paper's
/// 2δ safety window is active. Returns `(agreement, decisions)`.
pub fn run_late_help_attack(window: bool) -> (bool, Vec<Decision<u64>>) {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xe9).unwrap();
    let (pki, keys) = trusted_setup(n, 0xe9);
    let byz = [1u32, 3, 5];
    let cohort: Vec<SecretKey> = byz.iter().map(|&i| keys[i as usize].clone()).collect();
    let mut actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if i as u32 == 1 {
            actors.push(Box::new(LateHelperLeader::new(
                cfg,
                id,
                pki.clone(),
                cohort.clone(),
                1,
                20u64,
                ProcessId(0),
            )));
        } else if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let mut wba = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 10u64);
            if !window {
                wba.disable_safety_window();
            }
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let mut b = SimBuilder::new(actors);
    for &c in &byz {
        b = b.corrupt(ProcessId(c));
    }
    let mut sim = b.build();
    sim.run_until_done(4_000).expect("attack run terminated");
    let decisions: Vec<Decision<u64>> = [0u32, 2, 4, 6]
        .iter()
        .map(|&i| {
            let a: &LockstepAdapter<WbaProc> =
                sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            a.inner().output().expect("decided")
        })
        .collect();
    let agreement = decisions.windows(2).all(|w| w[0] == w[1]);
    (agreement, decisions)
}

/// Outcome of one loopback-TCP run (experiment E13).
#[derive(Clone, Debug)]
pub struct WireRunStats {
    /// System size.
    pub n: usize,
    /// Crashed processes.
    pub f: usize,
    /// Words sent by correct processes.
    pub words: u64,
    /// Canonical-codec bytes those words encoded to.
    pub bytes: u64,
    /// Frames that actually crossed sockets (self-delivery excluded).
    pub frames: u64,
    /// Bytes written to sockets, length prefixes included.
    pub socket_bytes: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether all correct decisions were equal.
    pub agreement: bool,
}

impl WireRunStats {
    /// Codec bytes per correct word.
    pub fn bytes_per_word(&self) -> f64 {
        self.bytes as f64 / self.words.max(1) as f64
    }

    /// Socket frames per executed round.
    pub fn frames_per_round(&self) -> f64 {
        self.frames as f64 / self.rounds.max(1) as f64
    }
}

/// Runs adaptive BB (sender `p0`, value 7) over real loopback TCP
/// sockets with `f` crashed followers, measuring the byte-level cost of
/// the word-level protocol (experiment E13).
pub fn run_wire_bb(n: usize, f: usize, delta: std::time::Duration) -> WireRunStats {
    use meba_engine::{ClusterConfig, OverrunAction};
    use meba_wire::{run_tcp_cluster, TcpClusterConfig};

    let cfg = SystemConfig::new(n, 0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xb0b);
    let sender = ProcessId(0);
    assert!(f <= cfg.t(), "f={f} exceeds t={}", cfg.t());

    let mut byz: Vec<ProcessId> = Vec::new();
    let mut actors: Vec<Box<dyn AnyActor<Msg = BbM>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if i >= 1 && i <= f {
            byz.push(id);
            actors.push(Box::new(IdleActor::new(id)));
            continue;
        }
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        let bb = if id == sender {
            Bb::new_sender(cfg, id, key, pki.clone(), factory, 7u64)
        } else {
            Bb::new(cfg, id, key, pki.clone(), factory, sender)
        };
        actors.push(Box::new(LockstepAdapter::new(id, bb)));
    }

    let config = TcpClusterConfig {
        cluster: ClusterConfig {
            delta,
            max_rounds: 60 * n as u64 + 4_000,
            corrupt: byz.clone(),
            overrun_action: OverrunAction::Escalate {
                multiplier: 2,
                max_delta: std::time::Duration::from_millis(250),
            },
            ..ClusterConfig::default()
        },
        ..TcpClusterConfig::default()
    };
    let tcp = run_tcp_cluster(actors, &cfg, config).expect("loopback TCP cluster established");
    let report = &tcp.report;
    assert!(report.completed, "wire run terminated");

    let decisions: Vec<Decision<u64>> = report
        .actors
        .iter()
        .filter(|a| !byz.contains(&a.id()))
        .map(|a| {
            let l: &LockstepAdapter<BbProc> = a.as_any().downcast_ref().unwrap();
            l.inner().output().expect("decided")
        })
        .collect();
    WireRunStats {
        n,
        f,
        words: report.metrics.correct.words,
        bytes: report.metrics.correct.bytes,
        frames: tcp.frames_sent,
        socket_bytes: tcp.socket_bytes,
        rounds: report.rounds,
        agreement: decisions.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Outcome of one crash-recovery run (experiment E14).
#[derive(Clone, Debug)]
pub struct RecoveryRunStats {
    /// System size.
    pub n: usize,
    /// Processes that crash-restarted mid-run.
    pub crashes: usize,
    /// Words sent by correct processes (each crash-restart counts as one
    /// fault toward the `O(n(f+1))` budget).
    pub words: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Journal records replayed across all rejoins.
    pub replayed_records: u64,
    /// Journal fsyncs issued by the recovered handles.
    pub journal_fsyncs: u64,
    /// Rounds between rejoin and the recovered process's decision,
    /// summed over all recoveries — the recovery latency.
    pub recovery_rounds: u64,
    /// Conflicting-signature attempts refused (must be 0 for honest
    /// journal-backed recovery).
    pub refused_equivocations: u64,
    /// Whether every process — including the recovered ones — decided
    /// the same value.
    pub agreement: bool,
}

/// Runs journal-backed weak BA on the threaded cluster runtime with
/// `crashes` processes crash-restarting at staggered rounds (experiment
/// E14: recovery latency and word overhead vs. crash count).
///
/// # Panics
///
/// Panics if `crashes > t` or the run does not terminate.
pub fn run_recovery_weak_ba(
    n: usize,
    crashes: usize,
    delta: std::time::Duration,
) -> RecoveryRunStats {
    use meba_engine::{run_cluster_with_recovery, ClusterConfig, OverrunAction, ProcessFate};
    use meba_testkit::{recoverable_decision, WeakBaRecoveryHarness};
    use std::sync::Arc;

    let h = Arc::new(WeakBaRecoveryHarness::new(&vec![7u64; n]));
    assert!(crashes <= h.config().t(), "crashes={crashes} exceeds t={}", h.config().t());
    let config = ClusterConfig {
        delta,
        max_rounds: 60 * n as u64 + 4_000,
        process_fate: Some(Arc::new(move |p: ProcessId| {
            let i = p.index();
            if (1..=crashes).contains(&i) {
                // Stagger the crashes across phase 1 so each exercises a
                // different point of the schedule.
                ProcessFate::CrashRestart { at_round: i as u64, rejoin_after: 3 }
            } else {
                ProcessFate::Run
            }
        })),
        overrun_action: OverrunAction::Escalate {
            multiplier: 2,
            max_delta: std::time::Duration::from_millis(250),
        },
        ..ClusterConfig::default()
    };
    let report = run_cluster_with_recovery(h.actors(), Some(h.rebuilder()), config);
    assert!(report.completed, "E14 n={n} crashes={crashes}: run must terminate");
    let decisions: Vec<Decision<u64>> =
        report.actors.iter().map(|a| recoverable_decision(a.as_ref()).expect("decided")).collect();
    let rec = &report.metrics.recovery;
    RecoveryRunStats {
        n,
        crashes,
        words: report.metrics.correct.words,
        rounds: report.rounds,
        replayed_records: rec.replayed_records,
        journal_fsyncs: rec.journal_fsyncs,
        recovery_rounds: rec.recovery_rounds,
        refused_equivocations: rec.refused_equivocations,
        agreement: decisions.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Outcome of one large-n run on the discrete-event backend (experiment
/// E15: asymptotics at system sizes the paced runtimes cannot reach).
#[derive(Clone, Debug)]
pub struct DesRunStats {
    /// System size.
    pub n: usize,
    /// Crashed (silent) leaders injected.
    pub f: usize,
    /// Words sent by correct processes.
    pub words: u64,
    /// Point-to-point messages sent by correct processes.
    pub messages: u64,
    /// Virtual rounds to global termination.
    pub rounds: u64,
    /// Whether all correct decisions were equal.
    pub agreement: bool,
}

impl DesRunStats {
    /// Average correct words per virtual round.
    pub fn words_per_round(&self) -> f64 {
        self.words as f64 / self.rounds.max(1) as f64
    }
}

/// Runs adaptive BB (sender `p0`, value 7) on the discrete-event backend
/// with `f` crashed leaders (`p1..pf` silent from round 0 — each costs a
/// help phase, realizing the `O(n(f+1))` staircase without the per-round
/// wall-clock δ of the paced runtimes).
///
/// # Panics
///
/// Panics if the run does not terminate within the standard round budget.
pub fn run_des_bb(n: usize, f: usize, seed: u64) -> DesRunStats {
    use meba_testkit::{bb_des, bb_report_decisions, Fault};
    let mut faults = vec![Fault::None; n];
    for slot in faults.iter_mut().skip(1).take(f) {
        *slot = Fault::Idle;
    }
    let report = bb_des(0, 7, &faults, seed);
    assert!(report.completed, "E15 n={n} f={f}: DES run must terminate");
    let decisions = bb_report_decisions(&report, &faults);
    DesRunStats {
        n,
        f,
        words: report.metrics.correct.words,
        messages: report.metrics.correct.messages,
        rounds: report.rounds,
        agreement: decisions.windows(2).all(|w| w[0] == w[1]),
    }
}

/// Outcome of one reactor-mesh scale run (experiment E16: the thread and
/// throughput profile of the readiness-driven mesh over real loopback
/// sockets, against the analytic cost of the retired thread-per-link
/// design).
#[derive(Clone, Debug)]
pub struct MeshScaleStats {
    /// System size.
    pub n: usize,
    /// Words sent by correct processes over TCP.
    pub words: u64,
    /// Words sent by correct processes on the DES reference run (must
    /// equal `words` — same protocol, different transport).
    pub des_words: u64,
    /// Rounds executed by the TCP run.
    pub rounds: u64,
    /// Protocol rounds per wall-clock second of the TCP run.
    pub rounds_per_sec: f64,
    /// Peak OS threads observed in this process while the cluster was
    /// live (0 when procfs is unavailable).
    pub peak_threads: usize,
    /// Threads the retired thread-per-link mesh would have needed for the
    /// same in-host cluster: per process, a reader + writer per remote
    /// peer plus an acceptor, plus the engine thread.
    pub old_design_threads: usize,
    /// Whether every process decided the sender's value.
    pub agreement: bool,
}

/// Current OS thread count of this process (Linux procfs; 0 elsewhere).
fn current_threads() -> usize {
    if cfg!(target_os = "linux") {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:").map(|v| v.trim().parse().ok()))
                    .flatten()
            })
            .unwrap_or(0)
    } else {
        0
    }
}

/// Runs failure-free adaptive BB (sender `p0`, value 7) over real
/// loopback TCP sockets on the readiness-driven mesh, sampling the
/// process's peak OS thread count while the cluster is live (experiment
/// E16). The DES reference run with the same scenario provides the word
/// total the socket run must reproduce.
///
/// Wall-clock runs retry with a widening δ until one completes
/// overrun-free, since word equality is only promised while the synchrony
/// assumption held.
///
/// # Panics
///
/// Panics if the mesh cannot establish or no overrun-free run completes
/// within the attempt budget.
pub fn run_mesh_scale_bb(n: usize, delta: std::time::Duration, seed: u64) -> MeshScaleStats {
    use meba_engine::ClusterConfig;
    use meba_testkit::{bb_actors, bb_des, bb_report_decisions, round_budget, Fault};
    use meba_wire::{raise_nofile_limit, run_tcp_cluster, TcpClusterConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Every directed link is a socket on both ends, plus a listener and
    // a wake pipe per process and harness slack.
    raise_nofile_limit((2 * n * (n - 1) + 4 * n + 512) as u64);

    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 7u64);
    let des = bb_des(sender, input, &faults, seed);
    assert!(des.completed, "E16 n={n}: DES reference run must terminate");

    let system = SystemConfig::new(n, 0xe16).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(current_threads()));
    let monitor = {
        let (stop, peak) = (stop.clone(), peak.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(current_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let mut delta = delta;
    let mut outcome = None;
    for _ in 0..5 {
        let config = TcpClusterConfig {
            cluster: ClusterConfig {
                delta,
                max_rounds: round_budget(n),
                ..ClusterConfig::default()
            },
            dial_timeout: Duration::from_secs(120),
            ..TcpClusterConfig::default()
        };
        let started = Instant::now();
        let tcp = run_tcp_cluster(bb_actors(sender, input, &faults), &system, config)
            .expect("loopback mesh establishes");
        let elapsed = started.elapsed();
        if tcp.report.completed && tcp.report.overruns == 0 {
            outcome = Some((tcp, elapsed));
            break;
        }
        delta *= 4;
    }
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("thread monitor");
    let (tcp, elapsed) =
        outcome.unwrap_or_else(|| panic!("E16 n={n}: no overrun-free run in the attempt budget"));

    let decisions = bb_report_decisions(&tcp.report, &faults);
    MeshScaleStats {
        n,
        words: tcp.report.metrics.correct.words,
        des_words: des.metrics.correct.words,
        rounds: tcp.report.rounds,
        rounds_per_sec: tcp.report.rounds as f64 / elapsed.as_secs_f64().max(1e-9),
        peak_threads: peak.load(Ordering::Relaxed),
        old_design_threads: n * (2 * (n - 1) + 1) + n,
        agreement: decisions.iter().all(|d| *d == Decision::Value(input)),
    }
}

/// Outcome of one δ-estimate cell of the timing sweep (experiment E17:
/// how the quorum-or-timeout round driver degrades as the δ-estimate
/// drifts away from the network's true bound).
#[derive(Clone, Debug)]
pub struct TimingSweepStats {
    /// Local timer as a multiple of the nominal δ.
    pub timeout_factor: f64,
    /// `true` = advance early only on a complete inbox (quorum = n);
    /// `false` = the protocol quorum `n − t`, which can strand straggler
    /// traffic.
    pub full_inbox_quorum: bool,
    /// Whether every correct process decided within the round budget.
    pub completed: bool,
    /// Whether all correct processes decided the *same* value
    /// (vacuously true for incomplete runs). Safety: must never be
    /// false, no matter how wrong the δ-estimate is.
    pub agreement: bool,
    /// Whether that common decision was the sender's input. Validity
    /// holds whenever the synchrony precondition does; under a broken
    /// precondition ⊥ is a legitimate outcome.
    pub decided_input: bool,
    /// Rounds executed (the budget itself for incomplete runs).
    pub rounds: u64,
    /// Words sent by correct processes.
    pub words: u64,
    /// Words of the lockstep baseline with the same seed.
    pub baseline_words: u64,
    /// Round advances fired by quorum readiness.
    pub quorum_advances: u64,
    /// Round advances fired by the local timer.
    pub timeout_advances: u64,
}

/// Runs one E17 cell: failure-free BB (n = 5, sender `p0`, value 7) on
/// the DES backend under the quorum-or-timeout driver with a local timer
/// of `timeout_factor · δ`, against a *fixed* network truth — real link
/// delay capped at δ/2, per-process clock skew up to δ/8. The paper's
/// synchrony precondition (delay + skew < round length, Lemma 18) holds
/// for every timer above 0.625 δ and breaks below it, so sweeping the
/// factor from 0.25 to 4 traces the degradation curve of a mis-estimated
/// δ while the lockstep baseline pins the reference word bill.
pub fn run_timing_sweep(
    timeout_factor: f64,
    full_inbox_quorum: bool,
    seed: u64,
) -> TimingSweepStats {
    use meba_testkit::{bb_des, bb_des_timed, bb_report_decisions, Fault, Timing};

    let n = 5;
    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 7u64);
    let delta = Timing::DELTA_NS;

    let baseline = bb_des(sender, input, &faults, seed);
    assert!(baseline.completed, "E17: lockstep baseline must terminate");

    let mut timing =
        Timing::quorum_or_timeout(timeout_factor).with_link_cap(delta / 2).with_skew(delta / 8);
    if full_inbox_quorum {
        timing = timing.with_quorum(n);
    }
    let report = bb_des_timed(sender, input, &faults, seed, &timing);
    // Undecided actors make `bb_report_decisions` panic, so only read
    // decisions out of completed runs.
    let (agreement, decided_input) = if report.completed {
        let decisions = bb_report_decisions(&report, &faults);
        (
            decisions.windows(2).all(|w| w[0] == w[1]),
            decisions.iter().all(|d| *d == Decision::Value(input)),
        )
    } else {
        (true, false)
    };
    TimingSweepStats {
        timeout_factor,
        full_inbox_quorum,
        completed: report.completed,
        agreement,
        decided_input,
        rounds: report.rounds,
        words: report.metrics.correct.words,
        baseline_words: baseline.metrics.correct.words,
        quorum_advances: report.metrics.advance.quorum,
        timeout_advances: report.metrics.advance.timeout,
    }
}

/// Outcome of one client-service throughput run (experiment E18).
#[derive(Clone, Debug)]
pub struct ServiceRunStats {
    /// System size.
    pub n: usize,
    /// Batch close bound (`max_batch_ops`).
    pub batch_ops: usize,
    /// Pipeline window `W`.
    pub window: u64,
    /// Slots the deployment ran.
    pub slots: u64,
    /// Ops offered across all replica ports.
    pub offered: u64,
    /// Ops the bounded ports accepted.
    pub accepted: u64,
    /// Ops rejected with the typed `Overloaded` error.
    pub rejected: u64,
    /// Distinct ops committed (identical on every replica).
    pub committed_ops: u64,
    /// Rounds until every replica finished the log.
    pub rounds: u64,
    /// Committed ops per round — the deterministic throughput metric.
    pub ops_per_round: f64,
    /// Committed ops per wall-clock second of the lockstep run.
    pub ops_per_sec: f64,
    /// Median commit latency in rounds (admission → apply), bucketed.
    pub latency_p50_rounds: u64,
    /// 99th-percentile commit latency in rounds, bucketed.
    pub latency_p99_rounds: u64,
    /// Mean ops per proposed batch.
    pub mean_occupancy: f64,
    /// Words sent by correct processes.
    pub words: u64,
    /// Words per committed op — what batching amortizes.
    pub words_per_op: f64,
    /// Whether all replicas hold identical logs.
    pub agreement: bool,
    /// Session-id collisions surfaced by the dynamic spawn path
    /// (must be 0).
    pub session_collisions: u64,
}

/// Runs one E18 cell: `total_ops` client ops spread round-robin over the
/// replicas' admission ports, batched under `max_batch_ops` and
/// pipelined with window `window`, on the lockstep simulator. The slot
/// count is sized so every accepted op fits the proposers' slots.
/// Every replica journals; the run is audited for per-slot double
/// binding before returning.
///
/// # Panics
///
/// Panics if the run violates agreement, commits an op twice, or binds
/// a slot to two different values — the audits ARE the experiment's
/// safety claim.
pub fn run_service_throughput(
    n: usize,
    total_ops: u64,
    max_batch_ops: usize,
    window: u64,
    queue_capacity: usize,
) -> ServiceRunStats {
    use meba_service::{Batch, BatchPolicy, Op, ServiceConfig};
    use meba_testkit::service::{audit_proposals, service_replica, ServiceHarness};
    use std::sync::Arc;

    // Round-robin op assignment: port `i` serves client `i + 1`.
    let ops_per_port = total_ops.div_ceil(n as u64);
    let accepted_per_port = ops_per_port.min(queue_capacity as u64);
    let slots_per_replica = accepted_per_port.div_ceil(max_batch_ops as u64).max(1);
    let service = ServiceConfig {
        total_slots: n as u64 * slots_per_replica,
        window,
        queue_capacity,
        batch: BatchPolicy { max_batch_ops, ..BatchPolicy::default() },
    };
    let h = Arc::new(ServiceHarness::new(n, service));

    let mut offered = 0u64;
    let mut rejected = 0u64;
    for j in 0..total_ops {
        let i = (j % n as u64) as usize;
        let op = Op { client: i as u64 + 1, seq: j / n as u64, key: j, value: 3 * j + 1 };
        offered += 1;
        if h.port(i).submit(op).is_err() {
            rejected += 1;
        }
    }
    let accepted = offered - rejected;

    let probe = h.actor(0);
    let budget = service_replica(probe.as_ref()).log().total_rounds() + 64;
    drop(probe);
    let mut sim = SimBuilder::new(h.actors()).build();
    let started = std::time::Instant::now();
    sim.run_until_done(budget).expect("service run terminated");
    let elapsed = started.elapsed().as_secs_f64();

    let logs: Vec<Vec<LogEntry<Batch>>> = (0..n as u32)
        .map(|i| service_replica(sim.actor(ProcessId(i))).log().log().to_vec())
        .collect();
    let agreement = logs.windows(2).all(|w| w[0] == w[1]);

    let mut committed_ops = 0u64;
    let mut latency = meba_sim::metrics::LatencyHistogram::default();
    let mut occupancy = (0u64, 0u64);
    let mut session_collisions = 0u64;
    for i in 0..n {
        let r = service_replica(sim.actor(ProcessId(i as u32)));
        let s = r.stats();
        if i == 0 {
            committed_ops = s.ops_committed;
        }
        assert_eq!(s.ops_committed, committed_ops, "replica {i}: same distinct commits");
        latency.merge(&s.commit_latency_rounds);
        occupancy.0 += s.batched_ops;
        occupancy.1 += s.batches_proposed;
        session_collisions += s.session_collisions;
        // The service-level double-sign audit: no slot bound twice.
        audit_proposals(h.journal_buffer(i));
    }
    assert_eq!(committed_ops, accepted, "every accepted op commits exactly once");

    let m = sim.metrics();
    ServiceRunStats {
        n,
        batch_ops: max_batch_ops,
        window,
        slots: service.total_slots,
        offered,
        accepted,
        rejected,
        committed_ops,
        rounds: m.rounds,
        ops_per_round: committed_ops as f64 / m.rounds.max(1) as f64,
        ops_per_sec: committed_ops as f64 / elapsed.max(f64::EPSILON),
        latency_p50_rounds: latency.quantile(0.5),
        latency_p99_rounds: latency.quantile(0.99),
        mean_occupancy: occupancy.0 as f64 / occupancy.1.max(1) as f64,
        words: m.correct.words,
        words_per_op: m.correct.words as f64 / committed_ops.max(1) as f64,
        agreement,
        session_collisions,
    }
}

/// Outcome of one certified-state-transfer catch-up run (experiment
/// E19).
#[derive(Clone, Debug)]
pub struct StateTransferStats {
    /// System size.
    pub n: usize,
    /// Total log length in slots.
    pub slots: u64,
    /// Consecutive slot openings the victim slept through.
    pub outage_slots: u64,
    /// Slots the victim adopted by transfer rather than local agreement.
    pub slots_transferred: u64,
    /// Transferred entries adopted against a verifying certificate.
    pub certs_verified: u64,
    /// Transferred entries adopted via `t + 1` matching donor claims.
    pub vouches_accepted: u64,
    /// Words on the `service/transfer` component, cluster-wide.
    pub transfer_words: u64,
    /// Canonical bytes on the `service/transfer` component.
    pub transfer_bytes: u64,
    /// Point-to-point messages on the `service/transfer` component.
    pub transfer_messages: u64,
    /// Bytes sent by correct processes across *all* components.
    pub total_bytes: u64,
    /// Rounds from the victim's rejoin until it finished the log — the
    /// catch-up latency.
    pub recovery_rounds: u64,
    /// Rounds the whole run took.
    pub rounds: u64,
    /// Whether every replica holds the identical applied prefix.
    pub agreement: bool,
    /// `⊥`-retired slots across all replicas (0: the outage spends the
    /// fault budget, it never burns a slot).
    pub bot_slots: u64,
}

/// Runs one E19 cell: an `n`-replica service drives a `total_slots` log
/// on the threaded runtime while one replica (the last, whose own
/// proposer slots stay clear of the window) crash-restarts across
/// `outage_slots` consecutive slot openings and catches back up by
/// certified state transfer. Transfer traffic is read off the
/// `service/transfer` component tag, so the cell isolates exactly the
/// words/bytes that anti-entropy added to the run.
///
/// # Panics
///
/// Panics if the run fails to terminate, any prefix diverges, any slot
/// `⊥`-retires, any transferred slot conflicts with local agreement, or
/// the victim fails to recover — the audits are the experiment's claim.
pub fn run_state_transfer(n: usize, total_slots: u64, outage_slots: u64) -> StateTransferStats {
    use meba_engine::{
        run_cluster_with_recovery, ClusterConfig, OverrunAction, ProcessFate, ProcessFateFactory,
    };
    use meba_service::{BatchPolicy, Op, ServiceConfig};
    use meba_testkit::log_round_budget;
    use meba_testkit::service::{audit_proposals, service_replica, ServiceHarness};
    use std::sync::Arc;
    use std::time::Duration;

    let victim = n - 1;
    assert!(
        1 + outage_slots < victim as u64,
        "outage window [slot 1, slot {}] must stay clear of the victim's proposer slot {victim}",
        outage_slots
    );
    let service = ServiceConfig {
        total_slots,
        window: 2,
        queue_capacity: 64,
        // Batches close when a proposer slot opens, so the pre-submitted
        // ops bind deterministically and every slot carries a real value.
        batch: BatchPolicy { max_batch_delay: u64::MAX, ..BatchPolicy::default() },
    };
    let h = Arc::new(ServiceHarness::new(n, service));
    for i in 0..n {
        for seq in 0..2u64 {
            let client = i as u64 + 1;
            h.port(i)
                .submit(Op { client, seq, key: client * 1000 + seq, value: seq + 7 })
                .expect("capacity sized for the script");
        }
    }
    let stride = {
        let probe = h.actor(0);
        service_replica(probe.as_ref()).log().stride()
    };
    // Down from 0.7 strides after slot 1 would normally open its
    // predecessor, through `outage_slots` further openings: openings
    // `1..=outage_slots` fall inside the window, opening
    // `outage_slots + 1` falls after it.
    let fate: ProcessFateFactory = Arc::new(move |p: ProcessId| {
        if p.index() == victim {
            ProcessFate::CrashRestart {
                at_round: stride * 7 / 10,
                rejoin_after: stride * outage_slots,
            }
        } else {
            ProcessFate::Run
        }
    });
    let config = ClusterConfig {
        delta: Duration::from_millis(2),
        max_rounds: log_round_budget(n, total_slots),
        process_fate: Some(fate),
        overrun_action: OverrunAction::Escalate {
            multiplier: 2,
            max_delta: Duration::from_millis(250),
        },
        ..ClusterConfig::default()
    };
    let report = run_cluster_with_recovery(h.actors(), Some(h.rebuilder()), config);
    assert!(report.completed, "E19 cluster must terminate");
    assert_eq!(report.metrics.recovery.crash_restarts, 1, "exactly one restart");

    let replicas: Vec<_> = report.actors.iter().map(|a| service_replica(a.as_ref())).collect();
    let reference: Vec<Option<Vec<u8>>> =
        (0..total_slots).map(|s| replicas[0].applied_value(s).map(<[u8]>::to_vec)).collect();
    let mut agreement = true;
    let mut bot_slots = 0u64;
    for (i, r) in replicas.iter().enumerate() {
        assert_eq!(r.applied_slots(), total_slots, "E19 replica {i}: applied the whole log");
        assert!(!r.recovering(), "E19 replica {i}: recovery must complete");
        let st = r.stats();
        assert_eq!(st.applied_conflicts, 0, "E19 replica {i}: no certified/local conflicts");
        bot_slots += st.skipped_slots;
        agreement &= (0..total_slots)
            .all(|s| r.applied_value(s).map(<[u8]>::to_vec) == reference[s as usize]);
        audit_proposals(h.journal_buffer(i));
    }
    assert!(agreement, "E19: applied prefixes diverged");
    assert_eq!(bot_slots, 0, "E19: the outage spends the fault budget, never a slot");

    let vs = replicas[victim].stats();
    assert!(vs.slots_transferred >= outage_slots, "E19: the slept-through slots transferred");

    let m = &report.metrics;
    let transfer = m.by_component.get("service/transfer").cloned().unwrap_or_default();
    StateTransferStats {
        n,
        slots: total_slots,
        outage_slots,
        slots_transferred: vs.slots_transferred,
        certs_verified: vs.transfer_certs_verified,
        vouches_accepted: vs.transfer_vouches_accepted,
        transfer_words: transfer.words,
        transfer_bytes: transfer.bytes,
        transfer_messages: transfer.messages,
        total_bytes: m.correct.bytes,
        recovery_rounds: m.recovery.recovery_rounds,
        rounds: report.rounds,
        agreement,
        bot_slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_failure_free_linear() {
        let s = run_bb(9, BbAdversary::FailureFree);
        assert!(s.agreement);
        assert!(!s.fallback_used);
        assert!(s.words <= 25 * 9);
    }

    #[test]
    fn wasteful_leaders_stay_adaptive_below_bound() {
        // n = 17, bound = 4: f = 2 wasteful leaders must not trigger the
        // fallback.
        let s = run_weak_ba(17, WbaAdversary::WastefulLeaders(2));
        assert!(s.agreement);
        assert!(!s.fallback_used, "f below the bound must stay adaptive");
    }

    #[test]
    fn dolev_strong_flat_in_f() {
        let a = run_dolev_strong(9, 0);
        let b = run_dolev_strong(9, 2);
        assert!(b.words <= a.words, "crashes cannot increase DS cost");
        assert!(a.words >= (9 * 9) as u64 / 4, "DS is quadratic-order even at f=0");
    }

    #[test]
    fn attack_runners_reproduce_ablations() {
        assert!(!run_split_vote_attack(true).0);
        assert!(run_split_vote_attack(false).0);
        assert!(!run_late_help_attack(false).0);
        assert!(run_late_help_attack(true).0);
    }

    #[test]
    fn des_run_matches_the_lockstep_failure_free_envelope() {
        let s = run_des_bb(33, 0, 0xe15);
        assert!(s.agreement);
        assert!(s.words <= 25 * 33, "failure-free DES words stay linear: {}", s.words);
        // Same scenario, same accounting: the lockstep runner's words.
        assert_eq!(s.words, run_bb(33, BbAdversary::FailureFree).words);
    }

    #[test]
    fn recovery_run_recovers_and_stays_adaptive() {
        let delta = std::time::Duration::from_millis(2);
        let base = run_recovery_weak_ba(5, 0, delta);
        let s = run_recovery_weak_ba(5, 1, delta);
        assert!(base.agreement && s.agreement);
        assert_eq!(s.refused_equivocations, 0);
        assert!(s.replayed_records > 0, "the crashed process had journaled state");
        // One crash-restart is one fault: the overhead stays within the
        // f = 1 envelope relative to the failure-free run.
        assert!(s.words <= base.words * 3, "{} vs baseline {}", s.words, base.words);
    }
}

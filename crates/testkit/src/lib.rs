//! Fault-matrix test harness for the `meba` protocols.
//!
//! Downstream users (and this workspace's own integration tests) build
//! adversarial simulations in one call: pick a protocol, assign a
//! [`Fault`] to each process, run, and assert. All builders wire the
//! production [`RecursiveBaFactory`] fallback.
//!
//! Every protocol comes in two layers:
//!
//! * `*_actors` — builds the fault-wrapped actor vector, runtime-free.
//!   Hand it to any backend: [`SimBuilder`] (lockstep),
//!   [`meba_engine::run_cluster`] (threaded), `meba_wire::run_tcp_cluster`
//!   (TCP), or [`meba_engine::run_des_cluster`] (discrete-event).
//! * `*_sim` / `*_des` — one-call runners over the lockstep simulator
//!   and the deterministic discrete-event backend respectively. The DES
//!   runners are what make n = 100–200 protocol runs practical in tests
//!   and benchmarks.
//!
//! # Examples
//!
//! ```
//! use meba_testkit::{assert_agreement, bb_sim, bb_decisions, round_budget, Fault};
//! use meba_core::Decision;
//!
//! // n = 7 adaptive BB: sender p0 broadcasts 42, p3 crashed from round 0.
//! let mut faults = vec![Fault::None; 7];
//! faults[3] = Fault::Idle;
//! let mut sim = bb_sim(0, 42, &faults);
//! sim.run_until_done(round_budget(7))?;
//! let d = assert_agreement(&bb_decisions(&sim, &faults));
//! assert_eq!(d, Decision::Value(42));
//! # Ok::<(), meba_sim::RunError>(())
//! ```
//!
//! The same scenario on the discrete-event backend (no lockstep rushing
//! adversary, but identical decisions and word counts when the faults
//! are scheduling-independent):
//!
//! ```
//! use meba_testkit::{assert_agreement, bb_des, bb_report_decisions, Fault};
//! use meba_core::Decision;
//!
//! let faults = vec![Fault::None; 7];
//! let report = bb_des(0, 42, &faults, 0xd15c);
//! assert!(report.completed);
//! let d = assert_agreement(&bb_report_decisions(&report, &faults));
//! assert_eq!(d, Decision::Value(42));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)] // allowed only inside `alloc_count` (the GlobalAlloc impl)

pub mod alloc_count;
pub mod recovery;
pub mod service;

pub use recovery::{
    recoverable_decision, DoubleSign, DoubleSignDetector, RecWbaProc, WeakBaRecoveryHarness,
};
pub use service::{audit_proposals, service_replica, ServiceHarness, ServiceM, ServiceProc};

use meba_adversary::{ChaosActor, CrashActor, LossyLinkActor};
use meba_core::{
    AlwaysValid, Bb, Decision, LockstepAdapter, StrongBa, SubProtocol, SystemConfig, WeakBa,
};
use meba_crypto::{trusted_setup, Pki, ProcessId, SecretKey};
pub use meba_engine::{default_quorum, AdvanceCause, RoundDriverConfig};
use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
use meba_fallback::RecursiveBaFactory;
use meba_sim::faults::BernoulliDrop;
use meba_sim::{Actor, AnyActor, IdleActor, Round, SimBuilder, Simulation};
use meba_smr::{LogEntry, ReplicatedLog};

/// Per-message drop probability applied by [`Fault::Lossy`]: heavy enough
/// that multi-round certificate collection routinely misses this
/// process's traffic.
const LOSSY_DROP_PROB: f64 = 0.75;

/// Fault assignment for one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Correct.
    None,
    /// Crashed from the start (a silent Byzantine process).
    Idle,
    /// Runs the honest protocol under *Byzantine* (rushed) scheduling
    /// until the given round, then goes silent. For honest-until-crash
    /// with honest scheduling, use [`meba_sim::SimBuilder::crash_at`]
    /// instead.
    CrashAt(u64),
    /// Replays observed messages at random (seeded).
    Chaos(u64),
    /// Runs the honest protocol, but each outbound message is dropped
    /// with high probability (seeded; see
    /// [`meba_adversary::LossyLinkActor`]). Models a correct machine on a
    /// failing network — which the synchronous model must count toward
    /// `f`, since its words can exceed `δ`.
    Lossy(u64),
}

impl Fault {
    /// Whether this assignment counts toward `f`.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, Fault::None)
    }
}

/// The BB state machine the harness builds.
pub type BbProc = Bb<u64, RecursiveBaFactory>;
/// Its wire-message type.
pub type BbM = <BbProc as SubProtocol>::Msg;
/// The weak BA state machine the harness builds.
pub type WbaProc = WeakBa<u64, AlwaysValid, RecursiveBaFactory>;
/// Its wire-message type.
pub type WbaM = <WbaProc as SubProtocol>::Msg;
/// The strong BA state machine the harness builds.
pub type SbaProc = StrongBa<RecursiveBaFactory>;
/// Its wire-message type.
pub type SbaM = <SbaProc as SubProtocol>::Msg;
/// Which strong BA the harness builds: [`StrongBa::new`] (Algorithm 5)
/// or [`StrongBa::rotating`] (the rotating-leader extension).
pub type SbaCtor = fn(SystemConfig, ProcessId, SecretKey, Pki, RecursiveBaFactory, bool) -> SbaProc;
/// The replicated-log replica the harness builds.
pub type LogProc = ReplicatedLog<u64, RecursiveBaFactory>;
/// Its wire-message type (session-tagged BB messages).
pub type LogM = <LogProc as Actor>::Msg;

/// The processes a fault matrix counts toward `f` — the `corrupt` set
/// every backend takes.
pub fn corrupt_ids(faults: &[Fault]) -> Vec<ProcessId> {
    faults
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_byzantine())
        .map(|(i, _)| ProcessId(i as u32))
        .collect()
}

fn apply_faults<M: meba_sim::Message>(
    mut builder: SimBuilder<M>,
    faults: &[Fault],
) -> SimBuilder<M> {
    for id in corrupt_ids(faults) {
        builder = builder.corrupt(id);
    }
    builder
}

/// Wraps one process's honest actor according to its [`Fault`]. `honest`
/// is only invoked for fault kinds that run the real protocol.
fn apply_fault<M, A, F>(id: ProcessId, fault: Fault, honest: F) -> Box<dyn AnyActor<Msg = M>>
where
    M: meba_sim::Message,
    A: AnyActor<Msg = M> + 'static,
    F: FnOnce() -> A,
{
    match fault {
        Fault::None => Box::new(honest()),
        Fault::Idle => Box::new(IdleActor::new(id)),
        Fault::CrashAt(r) => Box::new(CrashActor::new(honest(), Round(r))),
        Fault::Chaos(seed) => Box::new(ChaosActor::new(id, seed, 4)),
        Fault::Lossy(seed) => Box::new(LossyLinkActor::new(
            honest(),
            Box::new(BernoulliDrop::new(seed, LOSSY_DROP_PROB)),
        )),
    }
}

/// A [`DesConfig`] matched to a fault matrix: the corrupt set is derived
/// from `faults`, the round cap from [`round_budget`].
fn des_config(faults: &[Fault], seed: u64) -> DesConfig {
    DesConfig {
        seed,
        corrupt: corrupt_ids(faults),
        max_rounds: round_budget(faults.len()),
        ..DesConfig::default()
    }
}

/// A timing scenario for the DES backend: the round driver plus the
/// clock-skew and GST hazards of [`DesConfig`]. The default
/// ([`Timing::lockstep`]) reproduces the pre-refactor global schedule
/// exactly, so a `Timing`-parameterized run with defaults is
/// byte-identical to the plain `*_des` runners.
///
/// ```
/// use meba_testkit::{bb_des_timed, bb_report_decisions, assert_agreement, Fault, Timing};
/// use meba_core::Decision;
///
/// // Mis-estimated δ (timer at 0.5× the nominal δ) on a network whose
/// // real delays and skew honor the paper's precondition for that
/// // timer (delay + skew < round length): the run still decides the
/// // sender's value.
/// let faults = vec![Fault::None; 5];
/// let timing = Timing::quorum_or_timeout(0.5)
///     .with_quorum(5)
///     .with_link_cap(Timing::DELTA_NS / 4)
///     .with_skew(Timing::DELTA_NS / 8);
/// let report = bb_des_timed(0, 7, &faults, 0x71ae, &timing);
/// assert!(report.completed);
/// assert_eq!(assert_agreement(&bb_report_decisions(&report, &faults)), Decision::Value(7));
/// ```
#[derive(Clone, Debug)]
pub struct Timing {
    /// How rounds advance (see [`RoundDriverConfig`]).
    pub driver: RoundDriverConfig,
    /// Maximum seeded per-process clock-skew offset in virtual ns.
    pub max_skew_ns: u64,
    /// Global stabilization time on the virtual timeline (0 =
    /// synchronous from the start).
    pub gst_ns: u64,
    /// Latency cap for messages sent before GST (0 = GST changes
    /// nothing).
    pub pre_gst_delay_ns: u64,
    /// True post-GST network-delay cap (`None` = the nominal δ). Timing
    /// scenarios with a δ-estimate below δ set this so the paper's
    /// precondition delay + skew < round length can actually hold.
    pub link_cap_ns: Option<u64>,
}

impl Timing {
    /// The testkit's DES round duration: [`DesConfig::default`]'s
    /// `delta_ns`. Skew and GST knobs are naturally expressed in
    /// multiples of this.
    pub const DELTA_NS: u64 = 1_000_000;

    /// The pre-refactor timing model: global lockstep schedule, aligned
    /// clocks, no GST.
    pub fn lockstep() -> Self {
        Timing {
            driver: RoundDriverConfig::Lockstep,
            max_skew_ns: 0,
            gst_ns: 0,
            pre_gst_delay_ns: 0,
            link_cap_ns: None,
        }
    }

    /// Quorum-or-timeout partial synchrony with the protocol quorum and
    /// a δ-estimate of `timeout_factor · δ` (1.0 = perfect estimate).
    pub fn quorum_or_timeout(timeout_factor: f64) -> Self {
        Timing {
            driver: RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor },
            ..Timing::lockstep()
        }
    }

    /// Overrides the advance quorum (default: the protocol quorum
    /// `n - t`). `Some(n)` advances early only on a complete inbox —
    /// latency win without stranding straggler traffic. No effect under
    /// the lockstep driver.
    pub fn with_quorum(mut self, quorum: usize) -> Self {
        if let RoundDriverConfig::QuorumOrTimeout { quorum: q, .. } = &mut self.driver {
            *q = Some(quorum);
        }
        self
    }

    /// Bounds real post-GST link delay below `link_cap_ns` (instead of
    /// the nominal δ).
    pub fn with_link_cap(mut self, link_cap_ns: u64) -> Self {
        self.link_cap_ns = Some(link_cap_ns);
        self
    }

    /// Adds seeded per-process clock skew up to `max_skew_ns`.
    pub fn with_skew(mut self, max_skew_ns: u64) -> Self {
        self.max_skew_ns = max_skew_ns;
        self
    }

    /// Adds a pre-GST asynchronous period: messages sent before `gst_ns`
    /// may take up to `pre_gst_delay_ns` (typically ≫ δ) to arrive.
    pub fn with_gst(mut self, gst_ns: u64, pre_gst_delay_ns: u64) -> Self {
        self.gst_ns = gst_ns;
        self.pre_gst_delay_ns = pre_gst_delay_ns;
        self
    }

    /// Applies this scenario to a [`DesConfig`].
    fn apply(&self, config: DesConfig) -> DesConfig {
        DesConfig {
            driver: self.driver,
            max_skew_ns: self.max_skew_ns,
            gst_ns: self.gst_ns,
            pre_gst_delay_ns: self.pre_gst_delay_ns,
            link_cap_ns: self.link_cap_ns,
            ..config
        }
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::lockstep()
    }
}

/// [`bb_des`] under an explicit [`Timing`] scenario.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3) or the
/// timing scenario is invalid (e.g. a non-positive timeout factor).
pub fn bb_des_timed(
    sender: u32,
    input: u64,
    faults: &[Fault],
    seed: u64,
    timing: &Timing,
) -> ClusterReport<BbM> {
    run_des_cluster(bb_actors(sender, input, faults), None, timing.apply(des_config(faults, seed)))
        .expect("testkit timing scenario is valid")
}

/// [`weak_ba_des`] under an explicit [`Timing`] scenario.
///
/// # Panics
///
/// Panics if the fault matrix or timing scenario is invalid.
pub fn weak_ba_des_timed(
    inputs: &[u64],
    faults: &[Fault],
    seed: u64,
    timing: &Timing,
) -> ClusterReport<WbaM> {
    run_des_cluster(weak_ba_actors(inputs, faults), None, timing.apply(des_config(faults, seed)))
        .expect("testkit timing scenario is valid")
}

/// [`strong_ba_des`] under an explicit [`Timing`] scenario.
///
/// # Panics
///
/// Panics if the fault matrix or timing scenario is invalid.
pub fn strong_ba_des_timed(
    variant: SbaCtor,
    inputs: &[bool],
    faults: &[Fault],
    seed: u64,
    timing: &Timing,
) -> ClusterReport<SbaM> {
    let actors = strong_ba_actors(variant, inputs, faults);
    run_des_cluster(actors, None, timing.apply(des_config(faults, seed)))
        .expect("testkit timing scenario is valid")
}

/// Builds the fault-wrapped adaptive-BB actor vector; `faults[i]`
/// applies to process `i`. Runtime-free: hand the vector to any backend.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn bb_actors(sender: u32, input: u64, faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = BbM>>> {
    let n = faults.len();
    let cfg = SystemConfig::new(n, 0xbb).unwrap();
    let (pki, keys) = trusted_setup(n, 0x5eed);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let pki = pki.clone();
            apply_fault(id, faults[i], move || {
                let bb = if i as u32 == sender {
                    Bb::new_sender(cfg, id, key, pki, factory, input)
                } else {
                    Bb::new(cfg, id, key, pki, factory, ProcessId(sender))
                };
                LockstepAdapter::new(id, bb)
            })
        })
        .collect()
}

/// Builds an adaptive-BB simulation; `faults[i]` applies to process `i`.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn bb_sim(sender: u32, input: u64, faults: &[Fault]) -> Simulation<BbM> {
    apply_faults(SimBuilder::new(bb_actors(sender, input, faults)), faults).build()
}

/// Runs adaptive BB on the deterministic discrete-event backend.
/// One call: build, run to completion (or [`round_budget`]), report.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn bb_des(sender: u32, input: u64, faults: &[Fault], seed: u64) -> ClusterReport<BbM> {
    run_des_cluster(bb_actors(sender, input, faults), None, des_config(faults, seed))
        .expect("testkit DES config is valid")
}

/// Extracts the decision of one correct `LockstepAdapter<P>`-wrapped
/// process.
fn adapter_output<P>(a: &dyn AnyActor<Msg = P::Msg>, i: usize) -> P::Output
where
    P: SubProtocol,
{
    let l: &LockstepAdapter<P> = a.as_any().downcast_ref().unwrap();
    l.inner().output().unwrap_or_else(|| panic!("p{i} did not decide"))
}

/// Decisions of the correct processes of a [`bb_sim`] run.
///
/// # Panics
///
/// Panics if a correct process has not decided — run the simulation to
/// completion first.
pub fn bb_decisions(sim: &Simulation<BbM>, faults: &[Fault]) -> Vec<Decision<u64>> {
    (0..sim.n())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<BbProc>(sim.actor(ProcessId(i as u32)), i))
        .collect()
}

/// Decisions of the correct processes of a [`bb_des`] (or any
/// cluster-report-producing) BB run.
///
/// # Panics
///
/// Panics if a correct process has not decided.
pub fn bb_report_decisions(report: &ClusterReport<BbM>, faults: &[Fault]) -> Vec<Decision<u64>> {
    (0..report.actors.len())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<BbProc>(report.actors[i].as_ref(), i))
        .collect()
}

/// Builds the fault-wrapped weak-BA actor vector over `u64` values with
/// [`AlwaysValid`]. Runtime-free.
pub fn weak_ba_actors(inputs: &[u64], faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = WbaM>>> {
    let n = faults.len();
    assert_eq!(inputs.len(), n, "one input per process");
    let cfg = SystemConfig::new(n, 0x3a).unwrap();
    let (pki, keys) = trusted_setup(n, 0xfeed);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let pki = pki.clone();
            let input = inputs[i];
            apply_fault(id, faults[i], move || {
                LockstepAdapter::new(
                    id,
                    WeakBa::new(cfg, id, key, pki, AlwaysValid, factory, input),
                )
            })
        })
        .collect()
}

/// Builds a weak BA simulation over `u64` values with [`AlwaysValid`].
pub fn weak_ba_sim(inputs: &[u64], faults: &[Fault]) -> Simulation<WbaM> {
    apply_faults(SimBuilder::new(weak_ba_actors(inputs, faults)), faults).build()
}

/// Runs weak BA on the deterministic discrete-event backend.
pub fn weak_ba_des(inputs: &[u64], faults: &[Fault], seed: u64) -> ClusterReport<WbaM> {
    run_des_cluster(weak_ba_actors(inputs, faults), None, des_config(faults, seed))
        .expect("testkit DES config is valid")
}

/// Decisions of the correct processes of a [`weak_ba_sim`] run.
///
/// # Panics
///
/// Panics if a correct process has not decided.
pub fn weak_ba_decisions(sim: &Simulation<WbaM>, faults: &[Fault]) -> Vec<Decision<u64>> {
    (0..sim.n())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<WbaProc>(sim.actor(ProcessId(i as u32)), i))
        .collect()
}

/// Decisions of the correct processes of a [`weak_ba_des`] run.
///
/// # Panics
///
/// Panics if a correct process has not decided.
pub fn weak_ba_report_decisions(
    report: &ClusterReport<WbaM>,
    faults: &[Fault],
) -> Vec<Decision<u64>> {
    (0..report.actors.len())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<WbaProc>(report.actors[i].as_ref(), i))
        .collect()
}

/// Builds the fault-wrapped binary strong BA actor vector; `variant` is
/// `StrongBa::new` or `StrongBa::rotating`. Runtime-free.
pub fn strong_ba_actors(
    variant: SbaCtor,
    inputs: &[bool],
    faults: &[Fault],
) -> Vec<Box<dyn AnyActor<Msg = SbaM>>> {
    let n = faults.len();
    assert_eq!(inputs.len(), n, "one input per process");
    let cfg = SystemConfig::new(n, 0x5b).unwrap();
    let (pki, keys) = trusted_setup(n, 0xdead);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let pki = pki.clone();
            let input = inputs[i];
            apply_fault(id, faults[i], move || {
                LockstepAdapter::new(id, variant(cfg, id, key, pki, factory, input))
            })
        })
        .collect()
}

/// Builds a binary strong BA simulation.
pub fn strong_ba_sim(variant: SbaCtor, inputs: &[bool], faults: &[Fault]) -> Simulation<SbaM> {
    apply_faults(SimBuilder::new(strong_ba_actors(variant, inputs, faults)), faults).build()
}

/// Runs binary strong BA on the deterministic discrete-event backend.
pub fn strong_ba_des(
    variant: SbaCtor,
    inputs: &[bool],
    faults: &[Fault],
    seed: u64,
) -> ClusterReport<SbaM> {
    run_des_cluster(strong_ba_actors(variant, inputs, faults), None, des_config(faults, seed))
        .expect("testkit DES config is valid")
}

/// Decisions of the correct processes of a [`strong_ba_sim`] run.
///
/// # Panics
///
/// Panics if a correct process has not decided.
pub fn strong_ba_decisions(sim: &Simulation<SbaM>, faults: &[Fault]) -> Vec<bool> {
    (0..sim.n())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<SbaProc>(sim.actor(ProcessId(i as u32)), i))
        .collect()
}

/// Decisions of the correct processes of a [`strong_ba_des`] run.
///
/// # Panics
///
/// Panics if a correct process has not decided.
pub fn strong_ba_report_decisions(report: &ClusterReport<SbaM>, faults: &[Fault]) -> Vec<bool> {
    (0..report.actors.len())
        .filter(|&i| !faults[i].is_byzantine())
        .map(|i| adapter_output::<SbaProc>(report.actors[i].as_ref(), i))
        .collect()
}

/// Builds the fault-wrapped replicated-log actor vector: `slots` BB
/// instances multiplexed with pipeline window `window` (`1` =
/// sequential). Replica `i`'s command queue is `100·(i+1) + k` for
/// `k = 0, 1, …`, so slot `k`'s honest proposal is recognizable; `0` is
/// the no-op. Runtime-free.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn log_actors(slots: u64, window: u64, faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = LogM>>> {
    let n = faults.len();
    let cfg = SystemConfig::new(n, 0x109).unwrap();
    let (pki, keys) = trusted_setup(n, 0xfee1);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let id = ProcessId(i as u32);
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let pki = pki.clone();
            let commands: Vec<u64> = (0..slots).map(|k| 100 * (i as u64 + 1) + k).collect();
            apply_fault(id, faults[i], move || {
                ReplicatedLog::new(cfg, id, key, pki, factory, slots, commands, 0)
                    .with_window(window)
            })
        })
        .collect()
}

/// Builds a replicated-log simulation: `slots` BB instances multiplexed
/// with pipeline window `window` (`1` = sequential).
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn log_sim(slots: u64, window: u64, faults: &[Fault]) -> Simulation<LogM> {
    apply_faults(SimBuilder::new(log_actors(slots, window, faults)), faults).build()
}

/// Runs the replicated log on the deterministic discrete-event backend
/// (round cap [`log_round_budget`]).
pub fn log_des(slots: u64, window: u64, faults: &[Fault], seed: u64) -> ClusterReport<LogM> {
    let config =
        DesConfig { max_rounds: log_round_budget(faults.len(), slots), ..des_config(faults, seed) };
    run_des_cluster(log_actors(slots, window, faults), None, config)
        .expect("testkit DES config is valid")
}

fn log_of(a: &dyn AnyActor<Msg = LogM>) -> Vec<LogEntry<u64>> {
    let l: &LogProc = a.as_any().downcast_ref().unwrap();
    l.log().to_vec()
}

/// Committed logs of the fault-free replicas of a [`log_sim`] run, in
/// process order. Only `Fault::None` replicas are inspected (the faulty
/// ones are wrapped or replaced and hold no comparable log).
pub fn log_entries(sim: &Simulation<LogM>, faults: &[Fault]) -> Vec<Vec<LogEntry<u64>>> {
    (0..sim.n())
        .filter(|&i| faults[i] == Fault::None)
        .map(|i| log_of(sim.actor(ProcessId(i as u32))))
        .collect()
}

/// Committed logs of the fault-free replicas of a [`log_des`] run.
pub fn log_report_entries(
    report: &ClusterReport<LogM>,
    faults: &[Fault],
) -> Vec<Vec<LogEntry<u64>>> {
    (0..report.actors.len())
        .filter(|&i| faults[i] == Fault::None)
        .map(|i| log_of(report.actors[i].as_ref()))
        .collect()
}

/// A generous round budget for a [`log_sim`] run: every slot may need
/// its full worst-case schedule.
pub fn log_round_budget(n: usize, slots: u64) -> u64 {
    slots * (round_budget(n) + 10)
}

/// Asserts all decisions are equal and returns the common one.
///
/// # Panics
///
/// Panics on an empty slice or on disagreement — the point of the helper.
pub fn assert_agreement<T: PartialEq + std::fmt::Debug + Clone>(decisions: &[T]) -> T {
    assert!(!decisions.is_empty());
    for d in decisions {
        assert_eq!(d, &decisions[0], "agreement violated: {decisions:?}");
    }
    decisions[0].clone()
}

/// A generous per-run round budget: the full fixed schedule (phases, help
/// round, doubled-round fallback) with slack.
pub fn round_budget(n: usize) -> u64 {
    (70 * n as u64) + 200
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds_and_runs_each_protocol() {
        let faults = vec![Fault::None, Fault::Idle, Fault::None, Fault::None, Fault::None];
        let mut bb = bb_sim(0, 3, &faults);
        bb.run_until_done(round_budget(5)).unwrap();
        assert_eq!(assert_agreement(&bb_decisions(&bb, &faults)), Decision::Value(3));

        let mut wba = weak_ba_sim(&[2; 5], &faults);
        wba.run_until_done(round_budget(5)).unwrap();
        assert_eq!(assert_agreement(&weak_ba_decisions(&wba, &faults)), Decision::Value(2));

        let mut sba = strong_ba_sim(StrongBa::new, &[true; 5], &faults);
        sba.run_until_done(round_budget(5)).unwrap();
        assert!(assert_agreement(&strong_ba_decisions(&sba, &faults)));
    }

    #[test]
    fn des_runners_reach_the_same_decisions() {
        let faults = vec![Fault::None; 5];
        let bb = bb_des(0, 3, &faults, 7);
        assert!(bb.completed);
        assert_eq!(assert_agreement(&bb_report_decisions(&bb, &faults)), Decision::Value(3));

        let wba = weak_ba_des(&[2; 5], &faults, 7);
        assert!(wba.completed);
        assert_eq!(assert_agreement(&weak_ba_report_decisions(&wba, &faults)), Decision::Value(2));

        let sba = strong_ba_des(StrongBa::new, &[true; 5], &faults, 7);
        assert!(sba.completed);
        assert!(assert_agreement(&strong_ba_report_decisions(&sba, &faults)));
    }

    #[test]
    #[should_panic(expected = "agreement violated")]
    fn assert_agreement_panics_on_split() {
        assert_agreement(&[1, 1, 2]);
    }

    #[test]
    fn lossy_fault_still_reaches_agreement() {
        // One process behind a drop-heavy network; the other 4 (n = 5,
        // t = 2) must still decide the sender's value.
        let mut faults = vec![Fault::None; 5];
        faults[2] = Fault::Lossy(0x10);
        assert!(faults[2].is_byzantine(), "lossy processes count toward f");
        let mut bb = bb_sim(0, 9, &faults);
        bb.run_until_done(round_budget(5)).unwrap();
        assert_eq!(assert_agreement(&bb_decisions(&bb, &faults)), Decision::Value(9));
    }
}

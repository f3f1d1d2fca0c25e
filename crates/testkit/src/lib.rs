//! Fault-matrix test harness for the `meba` protocols.
//!
//! Every experiment and integration test does the same three things,
//! and each is done in one place:
//!
//! * **Build.** [`cluster`] does the trusted set-up once, hands every
//!   process its [`Party`] (config, id, key, PKI, and the production
//!   [`RecursiveBaFactory`] via [`Party::factory`]), builds its actor
//!   according to its [`Fault`], and lets the caller put a hand-written
//!   Byzantine actor at any index the fault vector marks Byzantine.
//!   [`bb_actors`], [`weak_ba_actors`], [`strong_ba_actors`] and
//!   [`log_actors`] are the four protocol families as one-line
//!   constructors on it. The result is a plain actor vector,
//!   runtime-free: hand it to any backend.
//! * **Run.** The fault vector is the run's fault plan: [`with_faults`]
//!   reads it once into the engine's settings — the corrupt set, a
//!   crash fate per [`Fault::CrashAt`], a drop layer per [`Fault::Lossy`]
//!   sender. [`des`] runs the actors to completion on the discrete-event
//!   backend under them and a [`Timing`] (the lockstep one is the
//!   synchronous model, rushing adversary included), which makes n in
//!   the thousands practical; a run with another round budget hands
//!   [`with_faults`]'s settings to [`run_des_cluster`] itself.
//!   [`meba_engine::run_cluster`] (threads) and
//!   `meba_wire::run_tcp_cluster` (TCP) take the same vector with
//!   [`corrupt_ids`]; [`overrun_free`] reruns such a wall-clock run until
//!   one held the synchrony bound, the only way it is inside the model.
//! * **Check.** [`oracle::decided`] checks a finished single-shot or log
//!   run — a cluster report's `actors`, its ledger, and the fault
//!   vector — for termination, agreement, the family's validity rule and
//!   its Table 1 word bound, and hands back the decisions and when they
//!   were reached. [`correct`] reads protocol state the oracle does not.
//!   A service run is checked by [`oracle::service`] over its replicas
//!   and journals (convergence, exactly-once, no double binding);
//!   [`oracle::fold_journals`] is that journal scan on its own, for the
//!   journal-backed weak BA.
//!
//! # Examples
//!
//! ```
//! use meba_testkit::{bb_actors, des, oracle, BbProc, Fault, Timing};
//! use meba_core::Decision;
//!
//! // n = 7 adaptive BB: sender p0 broadcasts 42, p3 crashed from round 0.
//! let mut faults = vec![Fault::None; 7];
//! faults[3] = Fault::Idle;
//! let report = des(bb_actors(0, 42, &faults), &faults, 0xd15c, &Timing::lockstep());
//! assert!(report.completed);
//! let run = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
//! assert_eq!(run.assert_in_model(), Decision::Value(42));
//! assert_eq!(run.fell_back, 0, "one silent follower costs no fallback");
//! ```
//!
//! A hand-written adversary: mark its index Byzantine and return the
//! actor from the `byzantine` closure, which can reach every key of the
//! set-up (a Byzantine cohort signs with all of its members' keys). A
//! broken run is a list of violations, not a panic:
//!
//! ```
//! use meba_testkit::{cluster, des, oracle, BbM, BbProc, Family, Fault, Timing};
//! use meba_adversary::EquivocatingSender;
//! use meba_core::{Bb, LockstepAdapter};
//! use meba_crypto::ProcessId;
//! use meba_sim::AnyActor;
//!
//! let mut faults = vec![Fault::None; 5];
//! faults[0] = Fault::Idle; // the sender is Byzantine ...
//! let actors = cluster(
//!     Family::BB.config(5),
//!     Family::BB.key_seed,
//!     &faults,
//!     |p| {
//!         let factory = p.factory();
//!         LockstepAdapter::new(p.id, Bb::new(p.cfg, p.id, p.key, p.pki, factory, ProcessId(0)))
//!     },
//!     // ... and signs 1 for {p1, p2} but 2 for {p3, p4}.
//!     |p, _keys| {
//!         let (a, b) = (vec![ProcessId(1), ProcessId(2)], vec![ProcessId(3), ProcessId(4)]);
//!         let sender = EquivocatingSender::new(p.cfg, p.key.clone(), 1u64, 2u64, a, b);
//!         Some(Box::new(sender) as Box<dyn AnyActor<Msg = BbM>>)
//!     },
//! );
//! let report = des(actors, &faults, 0xd15c, &Timing::lockstep());
//! let checked = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
//! assert!(checked.violations.is_empty(), "{:?}", checked.violations);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)] // allowed only inside `alloc_count` (the GlobalAlloc impl)

pub mod alloc_count;
pub mod oracle;
pub mod recovery;
pub mod service;
pub mod wall_clock;

pub use recovery::{
    recoverable_decision, weak_ba_binding, DoubleSign, DoubleSignDetector, RecWbaProc,
    WeakBaRecoveryHarness,
};
pub use service::{service_replica, ServiceHarness, ServiceM, ServiceProc};
pub use wall_clock::{overrun_free, with_thread_peak, OverrunFree, WallClockRun};

use meba_adversary::ChaosActor;
use meba_core::{AlwaysValid, Bb, LockstepAdapter, StrongBa, SubProtocol, SystemConfig, WeakBa};
use meba_crypto::{trusted_setup, Decoder, Encoder, Pki, ProcessId, SecretKey, ThresholdSignature};
pub use meba_engine::{default_quorum, AdvanceCause, RoundDriverConfig};
use meba_engine::{run_des_cluster, ClusterReport, DesConfig, LinkPolicyFactory};
use meba_engine::{ProcessFate, ProcessFateFactory};
use meba_fallback::RecursiveBaFactory;
use meba_sim::faults::{BernoulliDrop, PolicyStack, ReliableLinks};
use meba_sim::{Actor, AnyActor, IdleActor, Message};
use meba_smr::ReplicatedLog;
use std::borrow::Borrow;
use std::sync::Arc;

/// Per-message drop probability applied by [`Fault::Lossy`]: heavy enough
/// that multi-round certificate collection routinely misses this
/// process's traffic.
const LOSSY_DROP_PROB: f64 = 0.75;

/// Fault assignment for one process; a vector of them, one per process,
/// is a run's fault plan. Every kind but `None` counts toward `f`: the
/// process is corrupt — rushed on a lockstep run, its words billed to
/// `byzantine`. [`cluster`] builds the actor (the honest protocol for
/// `CrashAt` and `Lossy`); [`with_faults`] turns the vector into the
/// engine settings every run honours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Correct.
    None,
    /// Crashed from the start (a silent Byzantine process).
    Idle,
    /// Runs the honest protocol, rushed, until the given round, then is
    /// down for good ([`ProcessFate::Crash`]). For honest-until-crash
    /// with honest scheduling, give a correct process that fate instead
    /// ([`crashes_at`], handed to `process_fate` on any backend).
    CrashAt(u64),
    /// Replays observed messages at random (seeded).
    Chaos(u64),
    /// Runs the honest protocol behind outbound links that drop each
    /// message with high probability (a seeded [`BernoulliDrop`] layer on
    /// the sender's link policy). Models a correct machine on a failing
    /// network — which the synchronous model must count toward `f`, since
    /// its words can exceed `δ`. The dropped words are billed where they
    /// were sent.
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

/// The process fates of a run in which `victim` crashes at `at_round`
/// and rejoins `rejoin_after` rounds later (`u64::MAX`: never) while
/// every other process runs — the `process_fate` the engine backends
/// take.
pub fn crash_restart(victim: usize, at_round: u64, rejoin_after: u64) -> ProcessFateFactory {
    Arc::new(move |p: ProcessId| {
        if p.index() == victim {
            ProcessFate::CrashRestart { at_round, rejoin_after }
        } else {
            ProcessFate::Run
        }
    })
}

/// The process fates of a run in which each `(victim, at_round)` of
/// `crashes` is down for good from `at_round` ([`ProcessFate::Crash`]:
/// honest, and honestly scheduled, until then) while every other process
/// runs.
pub fn crashes_at(crashes: &[(u32, u64)]) -> ProcessFateFactory {
    let crashes = crashes.to_vec();
    Arc::new(move |p: ProcessId| {
        crashes
            .iter()
            .find(|&&(victim, _)| victim == p.0)
            .map_or(ProcessFate::Run, |&(_, at_round)| ProcessFate::Crash { at_round })
    })
}

/// One process's share of the trusted set-up: everything an honest
/// protocol constructor (or a hand-written adversary) takes.
#[derive(Clone, Debug)]
pub struct Party {
    /// The system configuration (size, resilience, session domain).
    pub cfg: SystemConfig,
    /// This process.
    pub id: ProcessId,
    /// Its signing key.
    pub key: SecretKey,
    /// The public verification handle.
    pub pki: Pki,
}

impl Party {
    /// The production fallback factory for this process — what every
    /// testkit family wires in as `A_fallback`.
    pub fn factory(&self) -> RecursiveBaFactory {
        RecursiveBaFactory::new(self.cfg, self.key.clone(), self.pki.clone())
    }
}

/// The two constants that tell one protocol family's clusters apart
/// from another's: the session domain its signatures are bound to and
/// the seed of its trusted set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family {
    /// Session domain of the family's [`SystemConfig`].
    pub session: u64,
    /// Seed handed to [`trusted_setup`].
    pub key_seed: u64,
}

impl Family {
    /// Adaptive Byzantine Broadcast ([`bb_actors`]).
    pub const BB: Family = Family { session: 0xbb, key_seed: 0x5eed };
    /// Adaptive weak BA ([`weak_ba_actors`]).
    pub const WEAK_BA: Family = Family { session: 0x3a, key_seed: 0xfeed };
    /// Binary strong BA, both constructors ([`strong_ba_actors`]).
    pub const STRONG_BA: Family = Family { session: 0x5b, key_seed: 0xdead };
    /// The pipelined replicated log ([`log_actors`]).
    pub const LOG: Family = Family { session: 0x109, key_seed: 0xfee1 };

    /// The family's configuration for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid system size (odd, ≥ 3).
    pub fn config(&self, n: usize) -> SystemConfig {
        SystemConfig::new(n, self.session).unwrap()
    }
}

/// One process's actor for its [`Fault`]. `honest` is only invoked for
/// fault kinds that run the real protocol; a crash or a lossy link is an
/// engine setting ([`with_faults`]), not an actor.
fn apply_fault<M, A, F>(id: ProcessId, fault: Fault, honest: F) -> Box<dyn AnyActor<Msg = M>>
where
    M: meba_sim::Message,
    A: AnyActor<Msg = M> + 'static,
    F: FnOnce() -> A,
{
    match fault {
        Fault::None | Fault::CrashAt(_) | Fault::Lossy(_) => Box::new(honest()),
        Fault::Idle => Box::new(IdleActor::new(id)),
        Fault::Chaos(seed) => Box::new(ChaosActor::new(id, seed, 4)),
    }
}

/// The engine settings a fault vector stands for, laid over `config` —
/// the one reading of a fault plan, which every run goes through
/// ([`des`], or [`run_des_cluster`] with its own budget):
///
/// * every faulty process is `corrupt` ([`corrupt_ids`]);
/// * a [`Fault::CrashAt`] process is [`ProcessFate::Crash`], over
///   whatever `config.process_fate` gives it;
/// * a [`Fault::Lossy`] sender's [`BernoulliDrop`] is stacked
///   ([`PolicyStack`]) over its instance of `config.link_policy`.
///
/// Every other setting passes through, so a vector without `CrashAt` or
/// `Lossy` changes `corrupt` only.
pub fn with_faults(faults: &[Fault], config: DesConfig) -> DesConfig {
    let plan: Arc<[Fault]> = faults.into();
    let process_fate = match config.process_fate {
        under if !faults.iter().any(|f| matches!(f, Fault::CrashAt(_))) => under,
        under => {
            let plan = plan.clone();
            let fate: ProcessFateFactory = Arc::new(move |p| match plan[p.index()] {
                Fault::CrashAt(at_round) => ProcessFate::Crash { at_round },
                _ => under.as_ref().map_or(ProcessFate::Run, |f| f(p)),
            });
            Some(fate)
        }
    };
    let link_policy = match config.link_policy {
        under if !faults.iter().any(|f| matches!(f, Fault::Lossy(_))) => under,
        under => {
            let policy: LinkPolicyFactory = Arc::new(move |p| {
                let base = under.as_ref().map_or_else(|| Box::new(ReliableLinks) as _, |f| f(p));
                match plan[p.index()] {
                    Fault::Lossy(seed) => {
                        let drop = BernoulliDrop::new(seed, LOSSY_DROP_PROB);
                        Box::new(PolicyStack::new().with(base).with(Box::new(drop)))
                    }
                    _ => base,
                }
            });
            Some(policy)
        }
    };
    DesConfig { corrupt: corrupt_ids(faults), process_fate, link_policy, ..config }
}

/// Builds an `n = faults.len()` process cluster: one trusted set-up
/// from `key_seed`, then for each process its [`Party`] goes to `honest`
/// and the actor is built according to `faults[i]` (`honest` is only
/// invoked for fault kinds that run the real protocol).
///
/// `byzantine` is asked first at every index `faults` marks Byzantine;
/// `Some(actor)` puts that hand-written adversary there instead of the
/// fault's stock actor. It is lent the whole key vector, because a
/// Byzantine cohort signs with all of its members' keys. Since only
/// marked indices are ever asked, a hand-written actor always counts
/// toward `f` — in [`corrupt_ids`], in the metrics, and in read-back.
/// Build the adversary only where it goes and answer `None` elsewhere
/// (a leader-attack constructor asserts it leads its phase); pass
/// `|_, _| None` for a cluster without one.
///
/// Runtime-free: hand the vector to any backend.
///
/// # Panics
///
/// Panics if `cfg` is not a configuration for `faults.len()` processes.
pub fn cluster<M, A>(
    cfg: SystemConfig,
    key_seed: u64,
    faults: &[Fault],
    mut honest: impl FnMut(Party) -> A,
    mut byzantine: impl FnMut(&Party, &[SecretKey]) -> Option<Box<dyn AnyActor<Msg = M>>>,
) -> Vec<Box<dyn AnyActor<Msg = M>>>
where
    M: Message,
    A: AnyActor<Msg = M> + 'static,
{
    let n = faults.len();
    assert_eq!(cfg.n(), n, "one fault assignment per process");
    let (pki, keys) = trusted_setup(n, key_seed);
    let party = |i: usize, key| Party { cfg, id: ProcessId(i as u32), key, pki: pki.clone() };
    // Adversaries first, while the whole key vector is still there to lend.
    let custom: Vec<_> = (0..n)
        .map(|i| {
            let ask = || byzantine(&party(i, keys[i].clone()), &keys);
            faults[i].is_byzantine().then(ask).flatten()
        })
        .collect();
    (keys.into_iter().zip(custom).enumerate())
        .map(|(i, (key, custom))| {
            let p = party(i, key);
            custom.unwrap_or_else(|| apply_fault(p.id, faults[i], || honest(p)))
        })
        .collect()
}

/// Builds the fault-wrapped adaptive-BB actor vector: `sender`
/// broadcasts `input`; `faults[i]` applies to process `i`.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3), or if
/// `sender` is not one of its processes (a cluster without a sender
/// decides `⊥` everywhere and agrees vacuously).
pub fn bb_actors(sender: u32, input: u64, faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = BbM>>> {
    let n = faults.len();
    assert!((sender as usize) < n, "sender p{sender} is not one of the n = {n} processes");
    let honest = |p: Party| {
        let factory = p.factory();
        let bb = if p.id.0 == sender {
            Bb::new_sender(p.cfg, p.id, p.key, p.pki, factory, input)
        } else {
            Bb::new(p.cfg, p.id, p.key, p.pki, factory, ProcessId(sender))
        };
        LockstepAdapter::new(p.id, bb)
    };
    cluster(Family::BB.config(n), Family::BB.key_seed, faults, honest, |_, _| None)
}

/// Builds the fault-wrapped weak-BA actor vector over `u64` values with
/// [`AlwaysValid`]; process `i` proposes `inputs[i]`.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size or `inputs` is
/// not one per process.
pub fn weak_ba_actors(inputs: &[u64], faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = WbaM>>> {
    let n = faults.len();
    assert_eq!(inputs.len(), n, "one input per process");
    let honest = |p: Party| {
        let (factory, input) = (p.factory(), inputs[p.id.index()]);
        LockstepAdapter::new(
            p.id,
            WeakBa::new(p.cfg, p.id, p.key, p.pki, AlwaysValid, factory, input),
        )
    };
    cluster(Family::WEAK_BA.config(n), Family::WEAK_BA.key_seed, faults, honest, |_, _| None)
}

/// Builds the fault-wrapped binary strong BA actor vector; `variant` is
/// `StrongBa::new` or `StrongBa::rotating`.
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size or `inputs` is
/// not one per process.
pub fn strong_ba_actors(
    variant: SbaCtor,
    inputs: &[bool],
    faults: &[Fault],
) -> Vec<Box<dyn AnyActor<Msg = SbaM>>> {
    let n = faults.len();
    assert_eq!(inputs.len(), n, "one input per process");
    let honest = |p: Party| {
        let (factory, input) = (p.factory(), inputs[p.id.index()]);
        LockstepAdapter::new(p.id, variant(p.cfg, p.id, p.key, p.pki, factory, input))
    };
    cluster(Family::STRONG_BA.config(n), Family::STRONG_BA.key_seed, faults, honest, |_, _| None)
}

/// Builds the fault-wrapped replicated-log actor vector: `slots` BB
/// instances multiplexed with pipeline window `window` (`1` =
/// sequential). Replica `i`'s command queue is `100·(i+1) + k` for
/// `k = 0, 1, …`, so slot `k`'s honest proposal is recognizable; `0` is
/// the no-op. Budget a run with [`log_round_budget`].
///
/// # Panics
///
/// Panics if `faults.len()` is not a valid system size (odd, ≥ 3).
pub fn log_actors(slots: u64, window: u64, faults: &[Fault]) -> Vec<Box<dyn AnyActor<Msg = LogM>>> {
    let honest = |p: Party| {
        let commands = (0..slots).map(|k| 100 * (u64::from(p.id.0) + 1) + k).collect();
        let factory = p.factory();
        ReplicatedLog::new(p.cfg, p.id, p.key, p.pki, factory, slots, commands, 0)
            .with_window(window)
    };
    let n = faults.len();
    cluster(Family::LOG.config(n), Family::LOG.key_seed, faults, honest, |_, _| None)
}

/// A timing scenario for the DES backend: the round driver plus the
/// clock-skew and GST hazards of [`DesConfig`]. The default
/// ([`Timing::lockstep`]) is the global lockstep schedule with aligned
/// clocks — what [`des`] runs unless told otherwise.
///
/// ```
/// use meba_testkit::{bb_actors, des, oracle, BbProc, Fault, Timing};
/// use meba_core::Decision;
///
/// // Mis-estimated δ (timer at 0.5× the nominal δ) on a network whose
/// // real delays and skew honor the paper's precondition for that
/// // timer (delay + skew < round length): the run is inside the model
/// // and decides the sender's value.
/// let faults = vec![Fault::None; 5];
/// let timing = Timing::quorum_or_timeout(0.5)
///     .with_quorum(5)
///     .with_link_cap(Timing::DELTA_NS / 4)
///     .with_skew(Timing::DELTA_NS / 8);
/// let report = des(bb_actors(0, 7, &faults), &faults, 0x71ae, &timing);
/// assert!(report.completed);
/// let run = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
/// assert_eq!(run.assert_in_model(), Decision::Value(7));
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

/// Runs `actors` on the deterministic discrete-event backend under
/// `timing` and the engine settings of `faults` ([`with_faults`]) — one
/// call: run to completion (or [`round_budget`] rounds), report. `seed`
/// drives the link-latency and skew sampling. The cap covers any
/// single-shot protocol and a log of a few slots; a longer log wants
/// [`run_des_cluster`] with its own `max_rounds` ([`log_round_budget`]).
///
/// # Panics
///
/// Panics if the timing scenario is invalid (e.g. a non-positive
/// timeout factor).
pub fn des<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    faults: &[Fault],
    seed: u64,
    timing: &Timing,
) -> ClusterReport<M> {
    let config = DesConfig { seed, max_rounds: round_budget(faults.len()), ..DesConfig::default() };
    run_des_cluster(actors, None, with_faults(faults, timing.apply(config)))
        .expect("testkit timing scenario is valid")
}

/// The correct (`Fault::None`) processes of a finished run, downcast to
/// their concrete actor type `A` — `LockstepAdapter<P>` for the
/// single-shot families, [`LogProc`] for the log. `actors` is a cluster
/// report's `actors`. Faulty
/// processes are skipped: an adversary holds nothing comparable, and a
/// crashed or lossy honest machine is not a correct process.
///
/// # Panics
///
/// The iterator panics at a correct process that is not an `A`.
pub fn correct<'a, A: 'static, M: Message>(
    actors: &'a [impl Borrow<dyn AnyActor<Msg = M>>],
    faults: &'a [Fault],
) -> impl Iterator<Item = &'a A> {
    actors.iter().map(Borrow::borrow).zip(faults).filter(|(_, f)| !f.is_byzantine()).map(
        |(a, _)| {
            a.as_any()
                .downcast_ref()
                .unwrap_or_else(|| panic!("{} is not the expected actor", a.id()))
        },
    )
}

/// `cert` with the last byte of its tag flipped, by way of its wire
/// encoding — the forger's nearest miss of a genuine certificate.
pub fn with_flipped_tag(cert: &ThresholdSignature) -> ThresholdSignature {
    let mut enc = Encoder::new();
    cert.encode(&mut enc);
    let mut bytes = enc.into_bytes();
    *bytes.last_mut().expect("an encoded certificate is not empty") ^= 1;
    ThresholdSignature::decode(&mut Decoder::new(&bytes)).expect("same shape, one tag bit off")
}

/// A generous per-run round budget: the full fixed schedule (phases, help
/// round, doubled-round fallback) with slack.
pub fn round_budget(n: usize) -> u64 {
    (70 * n as u64) + 200
}

/// A generous round budget for a [`log_actors`] run: every slot may need
/// its full worst-case schedule.
pub fn log_round_budget(n: usize, slots: u64) -> u64 {
    slots * (round_budget(n) + 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_adversary::WastefulBbLeader;
    use meba_core::Decision;

    #[test]
    fn harness_builds_and_runs_each_protocol() {
        let faults = vec![Fault::None, Fault::Idle, Fault::None, Fault::None, Fault::None];
        let lockstep = Timing::lockstep();
        let bb = des(bb_actors(0, 3, &faults), &faults, 7, &lockstep);
        let d = oracle::decided::<BbProc>(&bb.actors, &bb.metrics, &faults).assert_in_model();
        assert_eq!(d, Decision::Value(3));

        let wba = des(weak_ba_actors(&[2; 5], &faults), &faults, 7, &lockstep);
        let d = oracle::decided::<WbaProc>(&wba.actors, &wba.metrics, &faults).assert_in_model();
        assert_eq!(d, Decision::Value(2));

        let sba = des(strong_ba_actors(StrongBa::new, &[true; 5], &faults), &faults, 7, &lockstep);
        assert!(oracle::decided::<SbaProc>(&sba.actors, &sba.metrics, &faults).assert_in_model());

        let config = DesConfig { max_rounds: log_round_budget(5, 2), ..DesConfig::default() };
        let log =
            run_des_cluster(log_actors(2, 2, &faults), None, with_faults(&faults, config)).unwrap();
        let d = oracle::decided::<LogProc>(&log.actors, &log.metrics, &faults).assert_in_model();
        assert_eq!(d.len(), 2);
    }

    #[test]
    #[should_panic(expected = "agreement: p0 and p2 decided differently")]
    fn assert_safe_panics_on_split() {
        let faults = [Fault::None; 3];
        let split = |v: u64| des(bb_actors(0, v, &faults), &faults, 0, &Timing::lockstep());
        let (a, b) = (split(1), split(2));
        // p2 of the second run decided another value than the first's p0, p1.
        let mut actors = a.actors.iter().map(|x| x.as_ref()).collect::<Vec<_>>();
        actors[2] = b.actors[2].as_ref();
        oracle::decided::<BbProc>(&actors, &a.metrics, &faults).assert_safe();
    }

    #[test]
    #[should_panic(expected = "sender p5 is not one of the n = 5 processes")]
    fn bb_cluster_without_a_sender_is_refused() {
        bb_actors(5, 3, &[Fault::None; 5]);
    }

    #[test]
    fn hand_written_actor_counts_toward_f() {
        // p1 leads phase 1 and wastes it; p2 is marked too but left to
        // its stock `Idle` actor.
        let mut faults = vec![Fault::None; 5];
        faults[1] = Fault::Idle;
        faults[2] = Fault::Idle;
        let mut asked = Vec::new();
        let actors = cluster(
            Family::BB.config(5),
            Family::BB.key_seed,
            &faults,
            |p| {
                let factory = p.factory();
                LockstepAdapter::new(
                    p.id,
                    Bb::new(p.cfg, p.id, p.key, p.pki, factory, ProcessId(0)),
                )
            },
            |p, keys| {
                assert_eq!(keys.len(), 5, "the whole key vector is lent");
                asked.push(p.id.0);
                let leader = || WastefulBbLeader::<u64, _>::new(p.cfg, p.id, 1);
                (p.id.0 == 1).then(|| Box::new(leader()) as Box<dyn AnyActor<Msg = BbM>>)
            },
        );
        assert_eq!(asked, [1, 2], "only marked indices are offered to the adversary");
        let run = des(actors, &faults, 0, &Timing::lockstep());
        // Read-back skips it (a `WastefulBbLeader` is no `BbProc`) ...
        let checked = oracle::decided::<BbProc>(&run.actors, &run.metrics, &faults);
        assert_eq!(checked.decisions.iter().flatten().count(), 3);
        // ... and its words are billed to the adversary, not to
        // `Metrics::correct_words`.
        let m = &run.metrics;
        assert!(m.per_process[&1].words > 0);
        assert_eq!(m.byzantine.words, m.per_process[&1].words);
        let correct: u64 = [0, 3, 4].iter().map(|i| m.per_process[i].words).sum();
        assert_eq!(m.correct_words(), correct);
    }

    #[test]
    fn lossy_fault_still_reaches_agreement() {
        // One process behind a drop-heavy network; the other 4 (n = 5,
        // t = 2) must still decide the sender's value.
        let mut faults = vec![Fault::None; 5];
        faults[2] = Fault::Lossy(0x10);
        assert!(faults[2].is_byzantine(), "lossy processes count toward f");
        let bb = des(bb_actors(0, 9, &faults), &faults, 0, &Timing::lockstep());
        let d = oracle::decided::<BbProc>(&bb.actors, &bb.metrics, &faults).assert_in_model();
        assert_eq!(d, Decision::Value(9));
    }

    #[test]
    fn a_copy_in_flight_is_a_handle() {
        // Sender, round, and an 8-byte handle: every copy of a broadcast
        // shares one payload, however large the message type is.
        let delivery = std::mem::size_of::<meba_engine::Delivery<BbM>>();
        assert!(delivery <= 24, "Delivery<BbM> is {delivery} bytes");
        assert!(std::mem::size_of::<BbM>() > 24, "the payload would not fit a copy");
    }
}

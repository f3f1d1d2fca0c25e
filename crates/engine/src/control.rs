//! Threaded execution of the engine: one OS thread per process, a shared
//! [`DeadlinePacer`], and thread 0 doubling as the coordinator.
//!
//! This module is the single home of the round-coordination machinery of
//! the channel and TCP runtimes: after finishing round `r` the
//! coordinator publishes exactly one decision — stop after `r`
//! (recording whether the run completed) or approve round `r + 1`.
//! Worker threads never execute a round that was not approved, so every
//! thread executes the same set of rounds and
//! [`ClusterReport::completed`] is the coordinator's own recorded verdict
//! rather than a racy post-join recomputation.

use crate::config::{ClusterConfig, ClusterReport, OverrunAction};
use crate::driver::{RoundDriver, RoundDriverConfig};
use crate::fate::{resolve_fates, ActorRebuilder};
use crate::pacer::{AbortReason, ClusterDiagnostic, DeadlinePacer};
use crate::process::{EngineProcess, StepStatus, Transport};
use meba_sim::{AnyActor, Message, Metrics};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coordinator's stop verdict, written exactly once.
struct Outcome {
    completed: bool,
    rounds: u64,
    aborted: Option<ClusterDiagnostic>,
}

/// State shared by all cluster threads.
struct Control {
    pacer: DeadlinePacer,
    /// Number of rounds approved for execution; round `r` may run iff
    /// `r < approved`.
    approved: AtomicU64,
    /// First round that must NOT be executed (`u64::MAX` while running).
    stop_at: AtomicU64,
    outcome: Mutex<Option<Outcome>>,
    overruns: AtomicU64,
    backpressure: AtomicU64,
    done_flags: Vec<AtomicBool>,
}

impl Control {
    fn record_outcome(&self, outcome: Outcome, stop_at: u64) {
        let mut slot = self.outcome.lock();
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.stop_at.store(stop_at, Ordering::SeqCst);
    }
}

/// What a worker learned while waiting for round approval.
enum Approval {
    Go,
    Stop,
}

/// Per-thread slice of the cluster configuration.
struct WorkerConfig {
    max_rounds: u64,
    overrun_window: u32,
    abort_on_overruns: bool,
    driver: RoundDriverConfig,
    n: usize,
}

/// Runs every actor on its own thread over its own transport until every
/// correct actor is done, the round budget is exhausted, or the overrun
/// policy stops the run. This is the generic core behind
/// [`crate::run_cluster`] and `meba_wire::run_tcp_cluster`: the caller
/// supplies one [`Transport`] per actor (aligned by index) and the engine
/// does the rest — every process's outbound links are judged by its own
/// [`ClusterConfig::link_policy`] instance, and fate resolution happens
/// exactly once, up front.
///
/// # Panics
///
/// Panics if `actors` is empty, ids are not `p0..p(n-1)` in order, the
/// transport vector is not aligned with `actors`, or the
/// [`RoundDriverConfig`] is invalid.
pub fn run_threaded_cluster<M, T>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    transports: Vec<T>,
    rebuilder: Option<ActorRebuilder<M>>,
    config: &ClusterConfig,
) -> ClusterReport<M>
where
    M: Message,
    T: Transport<M> + Send + 'static,
{
    let n = actors.len();
    assert!(n > 0, "cluster needs at least one actor");
    assert_eq!(n, transports.len(), "one transport per actor");
    for (i, a) in actors.iter().enumerate() {
        assert_eq!(a.id().index(), i, "actor {i} has id {}", a.id());
    }
    config.driver.validate(n).expect("invalid round driver configuration");
    let fates = resolve_fates(n, config.process_fate.as_ref(), rebuilder.is_some());

    let ctrl = Arc::new(Control {
        pacer: DeadlinePacer::new(Instant::now() + Duration::from_millis(5), config.delta),
        approved: AtomicU64::new(1),
        stop_at: AtomicU64::new(u64::MAX),
        outcome: Mutex::new(None),
        overruns: AtomicU64::new(0),
        backpressure: AtomicU64::new(0),
        done_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
    });
    let corrupt: Vec<bool> =
        (0..n).map(|i| config.corrupt.iter().any(|c| c.index() == i)).collect();
    // The coordinator waits for the correct processes that are not
    // fated to crash for good.
    let awaited: Arc<Vec<bool>> =
        Arc::new((0..n).map(|i| !corrupt[i] && fates[i].awaited()).collect());

    let mut handles = Vec::with_capacity(n);
    for ((actor, transport), fate) in actors.into_iter().zip(transports).zip(fates) {
        let i = actor.id().index();
        let policy = config.link_policy.as_ref().map(|f| f(actor.id()));
        let proc = EngineProcess::new(n, !corrupt[i], false, fate, rebuilder.clone(), policy);
        let ctrl = ctrl.clone();
        let awaited = awaited.clone();
        let cfg = WorkerConfig {
            max_rounds: config.max_rounds,
            overrun_window: config.overrun_window,
            abort_on_overruns: config.overrun_action == OverrunAction::Abort,
            driver: config.driver,
            n,
        };
        handles.push(std::thread::spawn(move || {
            run_paced_process(actor, proc, transport, ctrl, awaited, cfg)
        }));
    }

    // Threads were spawned, and are joined, in process order: that is
    // the order of `actors_back` and the order the shards fold in.
    let mut actors_back: Vec<Box<dyn AnyActor<Msg = M>>> = Vec::with_capacity(n);
    let mut metrics = Metrics::default();
    let mut max_round = 0;
    for h in handles {
        let (actor, rounds, shard) = h.join().expect("cluster thread panicked");
        max_round = max_round.max(rounds);
        actors_back.push(actor);
        metrics.merge(&shard);
    }

    let ctrl = Arc::try_unwrap(ctrl).unwrap_or_else(|_| panic!("cluster threads still alive"));
    let outcome = ctrl.outcome.into_inner();
    let (completed, rounds, aborted) = match outcome {
        Some(o) => (o.completed, o.rounds, o.aborted),
        // Only reachable if every thread exited on the max_rounds
        // belt-and-braces check before the coordinator could decide.
        None => (false, max_round, None),
    };
    metrics.rounds = rounds.max(max_round);
    ClusterReport {
        metrics,
        rounds: rounds.max(max_round),
        actors: actors_back,
        completed,
        overruns: ctrl.overruns.into_inner(),
        backpressure: ctrl.backpressure.into_inner(),
        aborted,
    }
}

/// One thread's life: rounds under coordinator approval, paced by its
/// [`RoundDriver`] — the shared [`DeadlinePacer`] schedule (lockstep) or
/// a local quorum-or-timeout wait — with the round body delegated to
/// [`EngineProcess::step`]. Everything the process is billed goes into
/// its own [`Metrics`] shard, returned with the actor and its round count.
fn run_paced_process<M: Message, T: Transport<M>>(
    mut actor: Box<dyn AnyActor<Msg = M>>,
    mut proc: EngineProcess<M>,
    mut transport: T,
    ctrl: Arc<Control>,
    awaited: Arc<Vec<bool>>,
    cfg: WorkerConfig,
) -> (Box<dyn AnyActor<Msg = M>>, u64, Metrics) {
    let me = actor.id();
    let i = me.index();
    let mut metrics = Metrics::default();
    let is_coordinator = i == 0;
    let mut driver = RoundDriver::wall_clock(&cfg.driver, cfg.n);
    // Coordinator-only overrun-window bookkeeping.
    let mut overruns_seen = 0u64;
    let mut consecutive_overruns = 0u32;
    let mut round = 0u64;

    'rounds: while round < cfg.max_rounds {
        if ctrl.stop_at.load(Ordering::SeqCst) <= round {
            break;
        }
        if !is_coordinator {
            match wait_for_approval(&ctrl, round) {
                Approval::Go => {}
                Approval::Stop => break 'rounds,
            }
        }
        let cause = driver
            .wait_for_round(&ctrl.pacer, round, || proc.ready_senders(me, round, &mut transport));

        let proc_start = Instant::now();
        let status: StepStatus = proc.step(&mut actor, round, cause, &mut transport, &mut metrics);
        if status.executed {
            // Observability: per-round processing latency and synchrony
            // monitoring. Processing past the round's deadline means a
            // peer may have missed this round's messages. Dead rounds
            // record nothing — a crashed process has no processing.
            let proc_end = Instant::now();
            let latency_us =
                u64::try_from(proc_end.duration_since(proc_start).as_micros()).unwrap_or(u64::MAX);
            let overran = match &cfg.driver {
                // Lockstep: past the global deadline of the round.
                RoundDriverConfig::Lockstep => ctrl.pacer.overran(round),
                // Event-driven: there is no global deadline; an overrun
                // is processing that outlasts the effective δ itself.
                RoundDriverConfig::QuorumOrTimeout { .. } => {
                    proc_end.duration_since(proc_start) > ctrl.pacer.delta()
                }
            };
            metrics.round_latency.record_us(latency_us);
            if overran {
                ctrl.overruns.fetch_add(1, Ordering::Relaxed);
            }
            driver.observe(status.late_admitted);
        }
        ctrl.done_flags[i].store(status.done, Ordering::SeqCst);

        if is_coordinator {
            coordinate(&ctrl, &awaited, &cfg, round, &mut overruns_seen, &mut consecutive_overruns);
        }
        round += 1;
    }
    ctrl.backpressure.fetch_add(transport.backpressure(), Ordering::Relaxed);
    // TCP: shuts the mesh down here, on the thread that drove it.
    drop(transport);
    proc.finish(actor.as_ref(), &mut metrics);
    (actor, round, metrics)
}

/// The coordinator's end-of-round decision: stop (exactly one recorded
/// outcome) or approve the next round.
fn coordinate(
    ctrl: &Control,
    awaited: &[bool],
    cfg: &WorkerConfig,
    round: u64,
    overruns_seen: &mut u64,
    consecutive_overruns: &mut u32,
) {
    let stop = |completed, aborted| {
        ctrl.record_outcome(Outcome { completed, rounds: round + 1, aborted }, round + 1);
    };
    let all_done = (awaited.iter().zip(&ctrl.done_flags))
        .all(|(&awaited, done)| !awaited || done.load(Ordering::SeqCst));
    if all_done || round + 1 >= cfg.max_rounds {
        return stop(all_done, None);
    }

    // Overrun bookkeeping: "this round overran" means the global counter
    // moved since the coordinator last looked. (Laggard threads may
    // attribute an overrun to the next coordinator round — the window is
    // a sustained-degradation heuristic, not an exact per-round flag.)
    let overruns_now = ctrl.overruns.load(Ordering::Relaxed);
    *consecutive_overruns =
        if overruns_now > *overruns_seen { *consecutive_overruns + 1 } else { 0 };
    *overruns_seen = overruns_now;

    if cfg.abort_on_overruns && *consecutive_overruns >= cfg.overrun_window {
        let reason = AbortReason::SustainedOverruns {
            consecutive: *consecutive_overruns,
            window: cfg.overrun_window,
        };
        let delta = ctrl.pacer.delta();
        return stop(
            false,
            Some(ClusterDiagnostic { reason, round, overruns: overruns_now, delta }),
        );
    }
    ctrl.approved.store(round + 2, Ordering::SeqCst);
}

/// Blocks a worker until its next round is approved or the run stops. A
/// multi-minute wait means the coordinator died mid-run; the worker then
/// stops the cluster with a [`AbortReason::CoordinatorStalled`]
/// diagnostic instead of spinning forever.
fn wait_for_approval(ctrl: &Control, round: u64) -> Approval {
    let stall_after = ctrl.pacer.delta().saturating_mul(64).max(Duration::from_secs(60));
    let wait_start = Instant::now();
    loop {
        if ctrl.stop_at.load(Ordering::SeqCst) <= round {
            return Approval::Stop;
        }
        if ctrl.approved.load(Ordering::SeqCst) > round {
            return Approval::Go;
        }
        if wait_start.elapsed() > stall_after {
            ctrl.record_outcome(
                Outcome {
                    completed: false,
                    rounds: round,
                    aborted: Some(ClusterDiagnostic {
                        reason: AbortReason::CoordinatorStalled,
                        round,
                        overruns: ctrl.overruns.load(Ordering::Relaxed),
                        delta: ctrl.pacer.delta(),
                    }),
                },
                round,
            );
            return Approval::Stop;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

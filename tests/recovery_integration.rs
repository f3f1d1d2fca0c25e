//! Crash-recovery integration: journal-backed weak BA processes that die
//! and rejoin mid-protocol on both cluster runtimes, audited for
//! equivocation by a double-sign detector over every journaled and
//! every wire-observed signature.

mod common;

use common::*;
use meba::core::weak_ba::PHASE_ROUNDS;
use meba::engine::{run_cluster_with_recovery, ClusterConfig, OverrunAction};
use meba::prelude::*;
use meba::sim::faults::{Link, LinkFate, LinkPolicy};
use meba::sim::{Metrics, RoundCtx};
use meba::wire::{run_tcp_cluster_with_recovery, TcpClusterConfig};
use meba_engine::{ActorRebuilder, RebuiltActor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Wraps an actor and folds every inbox signature into a shared
/// [`DoubleSignDetector`], so a run is audited against what was actually
/// observed on the wire, not only against the journals.
struct SigObserver {
    inner: Box<dyn AnyActor<Msg = WbaM>>,
    det: Arc<Mutex<DoubleSignDetector>>,
    session: u64,
}

impl Actor for SigObserver {
    type Msg = WbaM;
    fn id(&self) -> ProcessId {
        self.inner.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WbaM>) {
        {
            let mut det = self.det.lock().unwrap();
            for env in ctx.inbox() {
                det.observe_weak_ba_msg(self.session, env.from, &env.msg);
            }
        }
        self.inner.on_round(ctx);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }
}

fn observed_actors(
    h: &WeakBaRecoveryHarness,
    det: &Arc<Mutex<DoubleSignDetector>>,
) -> Vec<Box<dyn AnyActor<Msg = WbaM>>> {
    let session = h.config().session();
    h.actors()
        .into_iter()
        .map(|inner| {
            Box::new(SigObserver { inner, det: det.clone(), session })
                as Box<dyn AnyActor<Msg = WbaM>>
        })
        .collect()
}

fn observed_rebuilder(
    h: &Arc<WeakBaRecoveryHarness>,
    det: &Arc<Mutex<DoubleSignDetector>>,
) -> ActorRebuilder<WbaM> {
    let base = h.rebuilder();
    let det = det.clone();
    let session = h.config().session();
    Arc::new(move |me| {
        let rb = base(me);
        RebuiltActor {
            actor: Box::new(SigObserver { inner: rb.actor, det: det.clone(), session }),
            resume_step: rb.resume_step,
            replayed_records: rb.replayed_records,
            journal_fsyncs: rb.journal_fsyncs,
        }
    })
}

/// A finished run's journal-backed processes, out of their observers,
/// checked by the oracle.
fn decided(
    actors: &[Box<dyn AnyActor<Msg = WbaM>>],
    metrics: &Metrics,
    faults: &[Fault],
) -> oracle::Decided<Decision<u64>> {
    let inner: Vec<&(dyn AnyActor<Msg = WbaM> + 'static)> = (actors.iter())
        .map(|a| a.as_any().downcast_ref::<SigObserver>().expect("observer-wrapped actor"))
        .map(|obs| obs.inner.as_ref())
        .collect();
    oracle::decided::<RecWbaProc>(&inner, metrics, faults)
}

/// Folds every journal into the detector that watched the wire — the
/// oracle's one journal fold — and asserts no slot is bound to two
/// different preimages.
fn audit(h: &WeakBaRecoveryHarness, det: &Arc<Mutex<DoubleSignDetector>>) {
    let mut det = det.lock().unwrap();
    oracle::fold_journals(&mut det, &h.journals());
    det.assert_clean();
}

/// The acceptance sweep: crash the same process at *every* round of
/// phase 1, restart it from its journal, and require agreement, the
/// victim's own decision, zero double-signs, and the oracle's word bound
/// (the crash-restart counts as `f = 1`).
#[test]
fn crash_restart_sweep_over_phase_one() {
    let n = 5usize;
    for crash_round in 0..PHASE_ROUNDS {
        let h = Arc::new(WeakBaRecoveryHarness::new(&vec![7u64; n]));
        let det = Arc::new(Mutex::new(DoubleSignDetector::new()));
        let config = ClusterConfig {
            delta: Duration::from_millis(2),
            max_rounds: 3_000,
            process_fate: Some(crash_restart(1, crash_round, 3)),
            // Stretch δ under CI load instead of missing the synchrony
            // bound — word counts, not wall-clock, are under test here.
            overrun_action: OverrunAction::Escalate {
                multiplier: 2,
                max_delta: Duration::from_millis(250),
            },
            ..ClusterConfig::default()
        };
        let report = run_cluster_with_recovery(
            observed_actors(&h, &det),
            Some(observed_rebuilder(&h, &det)),
            config,
        );
        assert!(report.completed, "crash at round {crash_round}: cluster must terminate");
        let d = decided(&report.actors, &report.metrics, &[Fault::None; 5]).assert_in_model();
        assert_eq!(d, Decision::Value(7), "crash at round {crash_round}");
        let rec = &report.metrics.recovery;
        assert_eq!(rec.crash_restarts, 1, "crash at round {crash_round}");
        assert_eq!(rec.refused_equivocations, 0, "honest recovery never conflicts");
        if crash_round > 0 {
            assert!(rec.replayed_records > 0, "crash at round {crash_round} had state to replay");
        }
        audit(&h, &det);
    }
}

/// Without a rebuilder the crash is permanent — n = 5 tolerates it, and
/// the survivors' journals still audit clean.
#[test]
fn crash_without_rejoin_is_tolerated_by_survivors() {
    let n = 5usize;
    let h = Arc::new(WeakBaRecoveryHarness::new(&vec![3u64; n]));
    let det = Arc::new(Mutex::new(DoubleSignDetector::new()));
    let config = ClusterConfig {
        delta: Duration::from_millis(2),
        max_rounds: 3_000,
        overrun_action: OverrunAction::Escalate {
            multiplier: 2,
            max_delta: Duration::from_millis(250),
        },
        process_fate: Some(crash_restart(2, 1, u64::MAX)),
        // A process that never comes back counts toward f: the
        // coordinator must not wait for its done flag.
        corrupt: vec![ProcessId(2)],
        ..ClusterConfig::default()
    };
    let report = run_cluster_with_recovery(observed_actors(&h, &det), None, config);
    assert!(report.completed, "survivors must terminate without the victim");
    let mut faults = vec![Fault::None; n];
    faults[2] = Fault::CrashAt(1);
    let d = decided(&report.actors, &report.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(3));
    // The victim's crash is its fault: counted in `faults`, not again as
    // a crash-restart, so the oracle reads f = 1.
    assert_eq!(report.metrics.recovery.crash_restarts, 0);
    audit(&h, &det);
}

/// The TCP acceptance run: a process crash-restarts mid weak-BA while
/// its links also suffer `Drop` and `DelayRounds` link faults. The restart
/// goes through real socket teardown (every link severed) and the
/// reconnect/re-handshake machinery; catch-up rides the help path.
#[test]
fn tcp_crash_restart_under_socket_faults() {
    struct FlakyLinks {
        victim: ProcessId,
    }
    impl LinkPolicy for FlakyLinks {
        fn fate(&mut self, link: Link, round: u64) -> LinkFate {
            // Rounds 2–5: traffic touching the victim is dropped or
            // delayed, so its recovery must survive a lossy rejoin.
            let touches_victim = link.from == self.victim || link.to == self.victim;
            if touches_victim && (2..=5).contains(&round) {
                if round.is_multiple_of(2) {
                    LinkFate::Drop
                } else {
                    LinkFate::DelayRounds(2)
                }
            } else {
                LinkFate::Deliver
            }
        }
    }

    let n = 5usize;
    let h = Arc::new(WeakBaRecoveryHarness::new(&vec![9u64; n]));
    let det = Arc::new(Mutex::new(DoubleSignDetector::new()));
    let victim = ProcessId(1);
    let config = TcpClusterConfig {
        cluster: ClusterConfig {
            delta: Duration::from_millis(12),
            max_rounds: 600,
            overrun_action: OverrunAction::Escalate {
                multiplier: 2,
                max_delta: Duration::from_millis(250),
            },
            process_fate: Some(crash_restart(victim.index(), 3, 4)),
            reconnect_backoff_cap: Duration::from_millis(20),
            reconnect_jitter: Duration::from_millis(2),
            link_policy: Some(Arc::new(move |_me| Box::new(FlakyLinks { victim }))),
            ..ClusterConfig::default()
        },
        domain: 14,
        ..TcpClusterConfig::default()
    };
    let report = run_tcp_cluster_with_recovery(
        observed_actors(&h, &det),
        Some(observed_rebuilder(&h, &det)),
        &h.config(),
        config,
    )
    .expect("mesh establishment");
    assert!(report.report.completed, "TCP cluster must terminate: {report:?}");
    let r = &report.report;
    let d = decided(&r.actors, &r.metrics, &[Fault::None; 5]).assert_in_model();
    assert_eq!(d, Decision::Value(9));
    let rec = &report.report.metrics.recovery;
    assert_eq!(rec.crash_restarts, 1);
    assert_eq!(rec.refused_equivocations, 0);
    assert!(rec.replayed_records > 0, "three executed rounds must replay");
    assert!(report.reconnects > 0, "severed links must re-handshake on rejoin");
    audit(&h, &det);
}

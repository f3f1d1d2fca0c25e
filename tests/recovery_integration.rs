//! Crash-recovery integration: journal-backed weak BA processes that die
//! and rejoin mid-protocol on both cluster runtimes, audited for
//! equivocation by a double-sign detector over every journaled and
//! every wire-observed signature; and, on the discrete-event backend,
//! each process's journaled signatures against the ones it sent.

mod common;

use common::*;
use meba::core::weak_ba::PHASE_ROUNDS;
use meba::crypto::Digest;
use meba::engine::{run_cluster_with_recovery, run_des_cluster, ClusterConfig, DesConfig};
use meba::journal::Record;
use meba::prelude::*;
use meba::sim::faults::{Link, LinkFate, LinkPolicy};
use meba::sim::{Metrics, Round, RoundCtx};
use meba::wire::{run_tcp_cluster_with_recovery, TcpClusterConfig};
use meba_engine::{ActorRebuilder, ProcessFateFactory, RebuiltActor};
use std::collections::BTreeSet;
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

/// One run of a fresh journal-backed weak BA, every process proposing
/// `input`, under `run`, with what holds at any timing checked: agreement,
/// no refused equivocation, and — every journal folded into the detector
/// that watched the wire, the oracle's one journal fold — no slot bound to
/// two different preimages.
fn audited<R: WallClockRun<Msg = WbaM>>(
    input: u64,
    faults: &[Fault],
    run: impl FnOnce(&Arc<WeakBaRecoveryHarness>, &Arc<Mutex<DoubleSignDetector>>) -> R,
) -> R {
    let h = Arc::new(WeakBaRecoveryHarness::new(&vec![input; faults.len()]));
    let det = Arc::new(Mutex::new(DoubleSignDetector::new()));
    let out = run(&h, &det);
    let r = out.cluster_report();
    decided(&r.actors, &r.metrics, faults).assert_safe();
    assert_eq!(r.metrics.recovery.refused_equivocations, 0, "honest recovery never conflicts");
    let mut det = det.lock().unwrap();
    oracle::fold_journals(&mut det, &h.journals());
    det.assert_clean();
    out
}

/// The acceptance sweep: crash the same process at *every* round of
/// phase 1, restart it from its journal, and require agreement, the
/// victim's own decision, zero double-signs, and the oracle's word bound
/// (the crash-restart counts as `f = 1`).
#[test]
fn crash_restart_sweep_over_phase_one() {
    let faults = [Fault::None; 5];
    for crash_round in 0..PHASE_ROUNDS {
        let label = format!("crash at round {crash_round}");
        let report = overrun_free(&label, Duration::from_millis(2), |delta| {
            audited(7, &faults, |h, det| {
                let config = ClusterConfig {
                    delta,
                    max_rounds: 3_000,
                    process_fate: Some(crash_restart(1, crash_round, 3)),
                    ..ClusterConfig::default()
                };
                run_cluster_with_recovery(
                    observed_actors(h, det),
                    Some(observed_rebuilder(h, det)),
                    config,
                )
            })
        })
        .report;
        let d = decided(&report.actors, &report.metrics, &faults).assert_in_model();
        assert_eq!(d, Decision::Value(7), "{label}");
        let rec = &report.metrics.recovery;
        assert_eq!(rec.crash_restarts, 1, "{label}");
        if crash_round > 0 {
            assert!(rec.replayed_records > 0, "{label} had state to replay");
        }
    }
}

/// Without a rebuilder the crash is permanent — n = 5 tolerates it, and
/// the survivors' journals still audit clean.
#[test]
fn crash_without_rejoin_is_tolerated_by_survivors() {
    let mut faults = vec![Fault::None; 5];
    faults[2] = Fault::CrashAt(1);
    let report = overrun_free("permanent crash", Duration::from_millis(2), |delta| {
        audited(3, &faults, |h, det| {
            let config = ClusterConfig {
                delta,
                max_rounds: 3_000,
                process_fate: Some(crash_restart(2, 1, u64::MAX)),
                // A process that never comes back counts toward f: the
                // coordinator must not wait for its done flag.
                corrupt: vec![ProcessId(2)],
                ..ClusterConfig::default()
            };
            run_cluster_with_recovery(observed_actors(h, det), None, config)
        })
    })
    .report;
    let d = decided(&report.actors, &report.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(3));
    // The victim's crash is its fault: counted in `faults`, not again as
    // a crash-restart, so the oracle reads f = 1.
    assert_eq!(report.metrics.recovery.crash_restarts, 0);
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

    let faults = [Fault::None; 5];
    let victim = ProcessId(1);
    let tcp = overrun_free("TCP crash-restart", Duration::from_millis(12), |delta| {
        audited(9, &faults, |h, det| {
            let config = TcpClusterConfig {
                cluster: ClusterConfig {
                    delta,
                    max_rounds: 600,
                    process_fate: Some(crash_restart(victim.index(), 3, 4)),
                    reconnect_backoff_cap: Duration::from_millis(20),
                    reconnect_jitter: Duration::from_millis(2),
                    link_policy: Some(Arc::new(move |_me| Box::new(FlakyLinks { victim }))),
                    ..ClusterConfig::default()
                },
                domain: 14,
                ..TcpClusterConfig::default()
            };
            let rebuilder = Some(observed_rebuilder(h, det));
            run_tcp_cluster_with_recovery(observed_actors(h, det), rebuilder, &h.config(), config)
                .expect("mesh establishment")
        })
    })
    .report;
    let r = &tcp.report;
    let d = decided(&r.actors, &r.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(9));
    assert_eq!(r.metrics.recovery.crash_restarts, 1);
    assert!(r.metrics.recovery.replayed_records > 0, "three executed rounds must replay");
    assert!(tcp.reconnects > 0, "severed links must re-handshake on rejoin");
}

/// One `(context, preimage digest)` set per process.
type Bindings = Vec<BTreeSet<(Vec<u8>, Digest)>>;

/// Wraps an actor and records, for every weak BA message it sends, the
/// signature binding the double-sign detector reconstructs from it.
struct SendLog {
    inner: Box<dyn AnyActor<Msg = WbaM>>,
    sent: Arc<Mutex<Bindings>>,
    session: u64,
}

impl Actor for SendLog {
    type Msg = WbaM;
    fn id(&self) -> ProcessId {
        self.inner.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WbaM>) {
        self.inner.on_round(ctx);
        let mut sent = self.sent.lock().unwrap();
        for (_, msg) in ctx.outbox().iter() {
            if let Some(binding) = weak_ba_binding(self.session, msg) {
                sent[self.inner.id().index()].insert(binding);
            }
        }
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }
    fn on_rejoin(&mut self, round: Round) {
        self.inner.on_rejoin(round);
    }
    fn next_wakeup(&self, after: Round) -> Round {
        self.inner.next_wakeup(after)
    }
}

/// One DES run of journal-backed weak BA at n = 5 under `fate`: what each
/// process sent, and the `Record::Signed` bindings its journal holds.
fn sent_and_journaled(fate: Option<ProcessFateFactory>) -> (Bindings, Bindings, u64) {
    let n = 5;
    let h = Arc::new(WeakBaRecoveryHarness::new(&[4; 5]));
    let session = h.config().session();
    let sent = Arc::new(Mutex::new(vec![BTreeSet::new(); n]));
    let logged = {
        let sent = sent.clone();
        move |inner| Box::new(SendLog { inner, sent: sent.clone(), session }) as Box<_>
    };
    let actors = h.actors().into_iter().map(&logged).collect();
    let base = h.rebuilder();
    let rebuilder: ActorRebuilder<WbaM> = Arc::new(move |me| {
        let rb = base(me);
        RebuiltActor { actor: logged(rb.actor), ..rb }
    });
    let config = DesConfig { max_rounds: 1_000, process_fate: fate, ..DesConfig::default() };
    let report = run_des_cluster(actors, Some(rebuilder), config).expect("valid DES config");
    assert!(report.completed, "weak BA must finish");
    assert_eq!(report.metrics.recovery.refused_equivocations, 0);
    let journaled = (h.journals().into_iter())
        .map(|records| {
            (records.into_iter())
                .filter_map(|r| match r {
                    Record::Signed { context, digest } => Some((context, digest)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let sent = sent.lock().unwrap().clone();
    (sent, journaled, report.metrics.recovery.crash_restarts)
}

/// CORRECTNESS §10's invariant (1) on a real protocol: every signature a
/// process sent is in its journal. Failure-free, the journal holds
/// exactly what was sent; across a crash and a journal replay, what was
/// sent — by either incarnation — is still a subset of what was
/// journaled.
#[test]
fn every_sent_signature_is_journaled() {
    let (sent, journaled, restarts) = sent_and_journaled(None);
    assert_eq!(restarts, 0);
    for (i, (sent, journaled)) in sent.iter().zip(&journaled).enumerate() {
        assert!(!sent.is_empty(), "p{i} signed a vote and a decide share");
        assert_eq!(sent, journaled, "p{i}: failure-free, journal = wire");
    }

    let (sent, journaled, restarts) = sent_and_journaled(Some(crash_restart(1, 2, 3)));
    assert_eq!(restarts, 1);
    for (i, (sent, journaled)) in sent.iter().zip(&journaled).enumerate() {
        assert!(sent.is_subset(journaled), "p{i}: sent {sent:?}, journaled {journaled:?}");
    }
}

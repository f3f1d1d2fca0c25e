//! Service integration: admission control under overload and
//! exactly-once commits across crash-restart of a serving replica, on
//! the lockstep, threaded, and TCP runtimes.
//!
//! The overload property is the paper's economy applied to the front
//! door: a full pipeline yields a *typed* `Overloaded` rejection — the
//! client always learns the fate of its op — and everything accepted is
//! committed exactly once. The crash tests then kill the serving
//! replica mid-slot and require the same exactly-once guarantee from
//! the journal-replay restart, including against client retries that
//! race the crash.

mod common;

use common::*;
use meba::engine::{run_cluster_with_recovery, run_des_cluster, ClusterConfig, DesConfig};
use meba::prelude::*;
use meba::service::SubmitError;
use meba::sim::RoundCtx;
use meba::wire::{run_tcp_cluster_with_recovery, TcpClusterConfig};
use meba_testkit::oracle::{self, Verdict};
use meba_testkit::service::{service_pin, service_replica, ServiceHarness, ServiceM, ServiceProc};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 3;

fn submit_all(port: &ServicePort, client: u64, seqs: std::ops::Range<u64>) {
    for seq in seqs {
        port.submit(Op { client, seq, key: client * 100 + seq, value: seq + 1 })
            .expect("capacity sized for the script");
    }
}

// ---------------------------------------------------------------------------
// Overload: typed rejection, never a silent drop
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // Oversubscribing a bounded port rejects exactly the overflow with
    // the typed `Overloaded` error, and every accepted `(client, seq)`
    // is committed exactly once on every replica.
    #[test]
    fn full_queue_rejects_typed_and_accepted_ops_commit(
        offered in 1u64..40,
        capacity in 1usize..8,
    ) {
        let service = ServiceConfig {
            total_slots: 3,
            queue_capacity: capacity,
            ..ServiceConfig::default()
        };
        let h = Arc::new(ServiceHarness::new(N, service));
        let port = h.port(0);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for seq in 0..offered {
            match port.submit(Op { client: 1, seq, key: seq, value: seq + 1 }) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Overloaded { queue_len, capacity: c }) => {
                    prop_assert_eq!(c, capacity, "rejection reports the true bound");
                    prop_assert_eq!(queue_len, capacity, "rejection fired on a full queue");
                    rejected += 1;
                }
            }
        }
        prop_assert_eq!(accepted, offered.min(capacity as u64), "FIFO fills to the bound");
        prop_assert_eq!(accepted + rejected, offered, "no silent drop");
        let c = port.counters();
        prop_assert_eq!(c.submitted, offered);
        prop_assert_eq!(c.accepted + c.rejected, c.submitted);

        let config = DesConfig { max_rounds: log_round_budget(N, 3), ..DesConfig::default() };
        let run = run_des_cluster(h.actors(), None, config).expect("valid config");
        prop_assert!(run.completed);
        let replicas = replicas(&run.actors);
        let v = oracle::service(&replicas, &h.journals());
        v.assert_safe();
        // Every replica applied the whole log, so the oracle's one fold
        // is every replica's: exactly the accepted prefix committed.
        prop_assert_eq!(v.applied_slots, vec![3; N]);
        prop_assert_eq!(v.committed_ops, accepted);
        for seq in 0..offered {
            let want = (seq < accepted).then_some(seq + 1);
            prop_assert_eq!(replicas[0].kv().get(&seq).copied(), want, "seq {}", seq);
        }
    }
}

/// Every actor of a finished run as its service replica — through the
/// [`ClientScript`] or [`Overload`] wrapper where there is one.
fn replicas(actors: &[Box<dyn AnyActor<Msg = ServiceM>>]) -> Vec<&ServiceProc> {
    actors
        .iter()
        .map(|a| {
            let any = a.as_any();
            let script = any.downcast_ref::<ClientScript>().map(|s| &s.inner);
            let inner = script.or_else(|| any.downcast_ref::<Overload>().map(|o| &o.inner));
            service_replica(inner.unwrap_or(a).as_ref())
        })
        .collect()
}

/// A replica behind a client that offers three ops against its port in
/// every round it runs, from inside the round loop, and tallies the
/// verdicts.
struct Overload {
    inner: Box<dyn AnyActor<Msg = ServiceM>>,
    port: Arc<ServicePort>,
    accepted: Vec<u64>,
    rejected: u64,
    seq: u64,
}

impl Actor for Overload {
    type Msg = ServiceM;
    fn id(&self) -> ProcessId {
        self.inner.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, ServiceM>) {
        for _ in 0..3 {
            let seq = self.seq;
            match self.port.submit(Op { client: 2, seq, key: 7, value: seq }) {
                Ok(()) => self.accepted.push(seq),
                Err(SubmitError::Overloaded { queue_len, capacity }) => {
                    assert_eq!(capacity, 2);
                    assert!(queue_len <= capacity, "queue never exceeds its bound");
                    self.rejected += 1;
                }
            }
            self.seq += 1;
        }
        assert!(self.port.queue_len() <= 2, "backpressure holds mid-run");
        self.inner.on_round(ctx);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
}

/// Sustained oversubmission against a tiny window: the queue never grows
/// past its bound (backpressure is rejection, not buffering), rejections
/// are typed, and the committed set is exactly the accepted prefix that
/// fit the log's proposer slots.
#[test]
fn sustained_overload_bounds_queue_and_commits_exactly_once() {
    let service =
        ServiceConfig { total_slots: 4, window: 1, queue_capacity: 2, ..ServiceConfig::default() };
    let h = Arc::new(ServiceHarness::new(N, service));
    let mut actors = h.actors();
    // Three ops per round against a queue of two.
    let inner = actors.remove(0);
    let client = Overload { inner, port: h.port(0), accepted: Vec::new(), rejected: 0, seq: 0 };
    actors.insert(0, Box::new(client));
    let config = DesConfig { max_rounds: log_round_budget(N, 4), ..DesConfig::default() };
    let run = run_des_cluster(actors, None, config).expect("valid config");
    let Overload { accepted, rejected, seq, .. } = run.actors[0].as_any().downcast_ref().unwrap();
    assert!(*rejected > 0, "sustained oversubmission must hit the bound");
    assert_eq!(accepted.len() as u64 + rejected, *seq, "every submit got a typed verdict");

    let replicas = replicas(&run.actors);
    let v = oracle::service(&replicas, &h.journals());
    v.assert_safe();
    assert_eq!(v.applied_slots, vec![4; N], "every replica applied the whole log");
    let r0 = replicas[0];
    let committed = v.committed_ops as usize;
    assert!(committed > 0, "some accepted ops committed");
    assert!(committed <= accepted.len(), "only accepted ops can commit");
    // Admission and batching preserve FIFO order, so the committed set
    // is exactly the prefix of the accepted ops that fit the proposer's
    // slots; everything past it was accepted but ran out of slots, and
    // nothing rejected ever commits.
    for &s in &accepted[..committed] {
        assert!(r0.committed_at(2, s).is_some(), "committed prefix seq {s}");
    }
    for &s in &accepted[committed..] {
        assert!(r0.committed_at(2, s).is_none(), "past the slot capacity seq {s}");
    }
}

// ---------------------------------------------------------------------------
// Crash-restart: exactly-once across journal-replay recovery
// ---------------------------------------------------------------------------

/// Submits scripted ops into a replica's port at fixed rounds, from
/// inside the round loop — so the script replays identically during a
/// crash-restart fast-forward, which is exactly the client-retry storm
/// the dedup machinery must absorb.
struct ClientScript {
    inner: Box<dyn AnyActor<Msg = ServiceM>>,
    port: Arc<ServicePort>,
    resubmit_round: u64,
}

impl ClientScript {
    fn run(&self, round: u64) {
        if round == 0 {
            // Phase 1: client 1's ops, bound to slot 0 pre-crash.
            submit_all(&self.port, 1, 0..4);
        }
        if round == self.resubmit_round {
            // Post-rejoin: client 1 retries everything (it never saw an
            // ack), and client 2 is new traffic.
            submit_all(&self.port, 1, 0..4);
            submit_all(&self.port, 2, 0..3);
        }
    }
}

impl Actor for ClientScript {
    type Msg = ServiceM;
    fn id(&self) -> ProcessId {
        self.inner.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, ServiceM>) {
        self.run(ctx.round().as_u64());
        self.inner.on_round(ctx);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }
}

/// The seven distinct ops the crash script offers.
fn script_pairs() -> Vec<(u64, u64)> {
    (0..4).map(|s| (1, s)).chain((0..3).map(|s| (2, s))).collect()
}

fn crash_service() -> ServiceConfig {
    ServiceConfig {
        total_slots: 6,
        window: 2,
        queue_capacity: 64,
        // Batches close only when a proposer slot opens, so retries and
        // new traffic ride the victim's next slot whenever it comes.
        batch: BatchPolicy { max_batch_delay: u64::MAX, ..BatchPolicy::default() },
    }
}

fn scripted_actors(
    h: &ServiceHarness,
    resubmit_round: u64,
) -> Vec<Box<dyn AnyActor<Msg = ServiceM>>> {
    h.actors()
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            if i == 0 {
                Box::new(ClientScript { inner, port: h.port(0), resubmit_round })
                    as Box<dyn AnyActor<Msg = ServiceM>>
            } else {
                inner
            }
        })
        .collect()
}

fn scripted_rebuilder(
    h: &Arc<ServiceHarness>,
    resubmit_round: u64,
) -> meba_engine::ActorRebuilder<ServiceM> {
    let base = h.rebuilder();
    let port = h.port(0);
    Arc::new(move |me| {
        let rb = base(me);
        meba_engine::RebuiltActor {
            actor: Box::new(ClientScript { inner: rb.actor, port: port.clone(), resubmit_round }),
            resume_step: rb.resume_step,
            replayed_records: rb.replayed_records,
            journal_fsyncs: rb.journal_fsyncs,
        }
    })
}

/// Checks what holds in a crash run at any timing: the oracle over all
/// three replicas — the restarted victim included.
///
/// The restarted victim counts toward `f` for the slot whose critical
/// rounds it missed; certified state transfer (and, before transfer
/// closes the gap, the retry storm re-landing ops in its next proposer
/// slot) brings its prefix back to the cluster's, so the oracle's
/// convergence and exactly-once hold for it too, and its journal shows
/// each of its slots bound to one value across the restart. A violation
/// names the attempt's `overruns` and `completed`, so a run outside
/// Lemma 18's timing can be told from a bug without instrumenting.
fn check_crash_run(report: &ClusterReport<ServiceM>, h: &ServiceHarness) -> Verdict {
    let v = oracle::service(&replicas(&report.actors), &h.journals());
    v.assert_safe_in(report);
    v
}

/// The script's liveness, inside the model: every scripted op committed
/// on every replica.
fn assert_script_committed(actors: &[Box<dyn AnyActor<Msg = ServiceM>>]) {
    for (i, r) in replicas(actors).iter().enumerate() {
        for (c, s) in script_pairs() {
            assert!(r.committed_at(c, s).is_some(), "replica {i}: op ({c}, {s}) committed");
        }
    }
}

/// One crash-script run of a fresh three-replica service under `run`
/// (given the harness and the script's resubmit round), its safety
/// checked.
fn crash_script<R: WallClockRun<Msg = ServiceM>>(
    run: impl FnOnce(&Arc<ServiceHarness>, u64) -> R,
) -> (R, Verdict) {
    let h = Arc::new(ServiceHarness::new(N, crash_service()));
    let out = run(&h, 12);
    let v = check_crash_run(out.cluster_report(), &h);
    (out, v)
}

/// Threaded runtime: the serving replica crashes four rounds in — after
/// binding (and journaling) slot 0, before it commits — restarts from
/// its journal, and absorbs a full client retry storm. Every distinct
/// op commits exactly once on every replica, including the rebuilt one.
#[test]
fn crash_restart_of_serving_replica_is_exactly_once_threaded() {
    let (report, _) = overrun_free("threaded crash script", Duration::from_millis(2), |delta| {
        crash_script(|h, resubmit| {
            let config = ClusterConfig {
                delta,
                max_rounds: log_round_budget(N, 6),
                process_fate: Some(crash_restart(0, 4, 4)),
                ..ClusterConfig::default()
            };
            let rebuilder = Some(scripted_rebuilder(h, resubmit));
            run_cluster_with_recovery(scripted_actors(h, resubmit), rebuilder, config)
        })
    })
    .report;
    assert_eq!(report.metrics.recovery.crash_restarts, 1);
    assert!(report.metrics.recovery.replayed_records > 0, "slot 0's binding must replay");
    assert_script_committed(&report.actors);
}

/// The same crash script over real TCP: the restart goes through socket
/// teardown and re-handshake, and the exactly-once guarantee holds.
#[test]
fn crash_restart_of_serving_replica_is_exactly_once_tcp() {
    let (tcp, _) = overrun_free("TCP crash script", Duration::from_millis(8), |delta| {
        crash_script(|h, resubmit| {
            let config = TcpClusterConfig {
                cluster: ClusterConfig {
                    delta,
                    max_rounds: log_round_budget(N, 6),
                    process_fate: Some(crash_restart(0, 4, 4)),
                    reconnect_backoff_cap: Duration::from_millis(20),
                    reconnect_jitter: Duration::from_millis(2),
                    ..ClusterConfig::default()
                },
                domain: 18,
                ..TcpClusterConfig::default()
            };
            let actors = scripted_actors(h, resubmit);
            let rebuilder = Some(scripted_rebuilder(h, resubmit));
            run_tcp_cluster_with_recovery(actors, rebuilder, &h.config(), config)
                .expect("mesh establishment")
        })
    })
    .report;
    assert_eq!(tcp.report.metrics.recovery.crash_restarts, 1);
    assert!(tcp.report.metrics.recovery.replayed_records > 0);
    assert_script_committed(&tcp.report.actors);
}

/// The same crash script on the discrete-event backend, where it is
/// seeded and therefore byte-exact: exactly-once as on the wall-clock
/// backends, the same seed twice gives identical `Metrics` JSON and
/// `ServiceStats`, and the run's fingerprint — every replica's applied
/// bytes per slot, its journal bytes, the metrics and the stats — is
/// the one recorded before the slot path was collapsed onto one `apply`,
/// but for the `state` half: journals embed signature tags, so it was
/// re-recorded when signatures became hash-then-sign and again when a tag
/// became one keyed block (same journal lengths both times; only tag
/// fields, the digests of certificates over signed values and the CRCs
/// of the journal frames holding them moved).
/// The rebuilt victim replays records its pre-crash incarnation wrote
/// through the live path, so this also pins journal compatibility.
#[test]
fn crash_restart_of_serving_replica_is_exactly_once_des() {
    let run = || {
        let ((report, (metrics, pin)), v) = crash_script(|h, resubmit| {
            let config = DesConfig {
                seed: 0x5107,
                max_rounds: log_round_budget(N, 6),
                process_fate: Some(crash_restart(0, 4, 4)),
                ..DesConfig::default()
            };
            let rebuilder = Some(scripted_rebuilder(h, resubmit));
            let report = run_des_cluster(scripted_actors(h, resubmit), rebuilder, config)
                .expect("valid config");
            let metrics = serde_json::to_string(&report.metrics).expect("metrics serialize");
            let pin = service_pin(h, &metrics, &replicas(&report.actors));
            (report, (metrics, pin))
        });
        assert!(report.completed, "cluster must terminate: {report:?}");
        assert_eq!(report.metrics.recovery.crash_restarts, 1);
        assert!(report.metrics.recovery.replayed_records > 0, "slot 0's binding must replay");
        assert_script_committed(&report.actors);
        assert_eq!(v.applied_slots, vec![6; N], "every replica applied the whole log");
        let stats: Vec<_> = replicas(&report.actors).iter().map(|r| r.stats()).collect();
        (metrics, stats, pin)
    };
    let (first, second) = (run(), run());
    assert_eq!(first, second, "same seed: same Metrics bytes, same ServiceStats");
    assert_eq!(
        first.2,
        "state=453dd513116aec72b8527af039fbf804ba87ebdd18e00855616d92586b6b4c19 \
         metrics=e1376e909ceb493f337c7aee72bd1a4a8c841dfedb4df9c73509202f2e038a5e \
         stats=efa3679037f1011290e81f91422ea295d6770a5074a4b88930c8ad68939cf8a6"
    );
}

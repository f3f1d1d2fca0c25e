//! Certified state transfer under churn: every replica of a five-process
//! cluster is crash-restarted once, mid-stream, with outages placed so
//! each victim misses a slot's critical rounds entirely — and every
//! replica still converges to the *identical, ⊥-free* applied prefix,
//! on the threaded and TCP runtimes. A third test wraps a donor in
//! [`LyingDonor`] and asserts forged history is rejected-and-counted
//! while recovery converges through the honest donors.
//!
//! This is the retirement test for the PR-8 restart contract ("a
//! restarted replica may retire a missed slot as ⊥ locally and wait for
//! client retries"): here *nothing is resubmitted*, outages are placed
//! exactly on slot openings, and the assertions demand value-for-value
//! convergence with zero ⊥-retired slots and zero double-signs.

mod common;

use common::*;
use meba::adversary::transfer_attacks::LyingDonor;
use meba::engine::{
    run_cluster_with_recovery, run_des_cluster, ClusterConfig, DesConfig, ProcessFate,
    ProcessFateFactory,
};
use meba::prelude::*;
use meba::service::ServiceMsg;
use meba::wire::{run_tcp_cluster_with_recovery, TcpClusterConfig};
use meba_testkit::oracle::{self, Verdict};
use meba_testkit::service::{service_pin, service_replica, ServiceHarness, ServiceM, ServiceProc};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// n = 5 ⇒ t = 2, quorum = 4: one replica down at a time leaves the
/// cluster committing values, and `t + 1 = 3` honest donors exist for
/// the vouch path even with one Byzantine donor and one crashed victim.
const N: usize = 5;
const SLOTS: u64 = 10;
const OPS_PER_CLIENT: u64 = 4;

fn churn_service() -> ServiceConfig {
    ServiceConfig {
        total_slots: SLOTS,
        window: 2,
        queue_capacity: 64,
        // Batches close when a proposer slot opens, so pre-submitted ops
        // ride each replica's first proposer slot deterministically.
        batch: BatchPolicy { max_batch_delay: u64::MAX, ..BatchPolicy::default() },
    }
}

fn submit(port: &ServicePort, client: u64) {
    for seq in 0..OPS_PER_CLIENT {
        port.submit(Op { client, seq, key: client * 100 + seq, value: seq + 1 })
            .expect("capacity sized for the script");
    }
}

/// Rolling-restart schedule, one victim at a time, each outage covering
/// a slot opening *whose proposer is someone else*.
///
/// With stride `s`, slot `k` opens at round `k·s` and replica `i` is
/// critical (proposing slots `i` and `i + 5`) during `[i·s, (i+2)·s]`
/// and `[(i+5)·s, (i+7)·s]`. Victim windows are `[0.7s + k·s, 1.5s +
/// k·s]` for `k = 0..5`, assigned so window `k` covers the opening of
/// slot `k + 1` and stays clear of its victim's own proposer slots:
///
/// | k | victim | covers slot | proposer of that slot |
/// |---|--------|-------------|-----------------------|
/// | 0 | 3      | 1           | 1                     |
/// | 1 | 4      | 2           | 2                     |
/// | 2 | 0      | 3           | 3                     |
/// | 3 | 1      | 4           | 4                     |
/// | 4 | 2      | 5           | 0                     |
///
/// Windows are pairwise disjoint with ≥ 0.2s gaps, so at most one
/// replica is ever down and the remaining four are exactly a quorum:
/// every slot commits a *value* cluster-wide, and each victim must fill
/// the slot it slept through by certified transfer, not local agreement.
fn churn_fate(s: u64, jitter: u64) -> ProcessFateFactory {
    Arc::new(move |p: ProcessId| {
        let k = match p.index() {
            3 => 0u64,
            4 => 1,
            0 => 2,
            1 => 3,
            2 => 4,
            _ => unreachable!("churn schedule is sized for n = 5"),
        };
        ProcessFate::CrashRestart {
            at_round: s * 7 / 10 + k * s + jitter,
            rejoin_after: s * 8 / 10,
        }
    })
}

/// One churn run of a fresh service, both clients' ops pre-submitted,
/// under `run` (given the harness and the churn fate), with what holds at
/// any timing checked: the oracle over all five replicas.
fn churn<R: WallClockRun<Msg = ServiceM>>(
    jitter_tenths: u64,
    run: impl FnOnce(&Arc<ServiceHarness>, ProcessFateFactory) -> R,
) -> (R, Verdict) {
    let h = Arc::new(ServiceHarness::new(N, churn_service()));
    submit(&h.port(0), 1);
    submit(&h.port(1), 2);
    let s = h.stride();
    let out = run(&h, churn_fate(s, s * jitter_tenths / 100));
    let v = oracle::service(&replicas(&out.cluster_report().actors), &h.journals());
    v.assert_safe_in(out.cluster_report());
    (out, v)
}

fn replicas(actors: &[Box<dyn AnyActor<Msg = ServiceM>>]) -> Vec<&ServiceProc> {
    actors.iter().map(|a| service_replica(a.as_ref())).collect()
}

/// The churn's liveness, inside the model — every replica applied the
/// whole log with zero ⊥-retired slots and left recovering mode, every
/// op committed though no client resubmitted, and the catch-up visibly
/// went through the transfer path.
fn check_churn(actors: &[Box<dyn AnyActor<Msg = ServiceM>>], v: &Verdict) {
    let replicas = replicas(actors);
    assert_eq!(v.applied_slots, vec![SLOTS; N], "every replica applied the whole log");
    assert!(replicas.iter().all(|r| !r.recovering()), "recovery must complete");
    assert_eq!(v.bot_slots, 0, "zero ⊥-retired slots");
    // The whole log everywhere and one fold: every replica holds both
    // clients' ops.
    assert_eq!(v.committed_ops, 2 * OPS_PER_CLIENT);
    assert!(v.transferred_slots >= N as u64, "every victim slept through a slot opening: {v:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    // Threaded runtime: all five replicas crash-restart once, staggered
    // across the stream (with a proptest-driven phase jitter of up to
    // 0.1 stride), and the cluster converges to one ⊥-free prefix.
    #[test]
    fn rolling_restart_churn_converges_threaded(jitter_tenths in 0u64..10) {
        let label = format!("threaded churn, jitter {jitter_tenths}");
        let (report, v) = overrun_free(&label, Duration::from_millis(2), |delta| {
            churn(jitter_tenths, |h, fate| {
                let config = ClusterConfig {
                    delta,
                    max_rounds: log_round_budget(N, SLOTS),
                    process_fate: Some(fate),
                    ..ClusterConfig::default()
                };
                run_cluster_with_recovery(h.actors(), Some(h.rebuilder()), config)
            })
        })
        .report;
        prop_assert_eq!(report.metrics.recovery.crash_restarts, N as u64);
        check_churn(&report.actors, &v);
    }
}

/// The same rolling-restart schedule on the discrete-event backend,
/// where it is seeded and therefore byte-exact: the converged-⊥-free-
/// prefix contract as on the wall-clock backends, the same seed twice
/// gives identical `Metrics` JSON and `ServiceStats`, and each run's
/// fingerprint — applied bytes per slot, journal bytes, metrics, stats —
/// is the one recorded before the slot path was collapsed onto one
/// `apply`, but for the `state` half, re-recorded when signatures became
/// hash-then-sign and again when a tag became one keyed block (journals
/// embed signature tags). Every victim restarts
/// after it has journaled commits, so the rebuilt replicas replay
/// `Committed` and `Transferred` records their earlier incarnations wrote
/// through the live path.
#[test]
fn rolling_restart_churn_converges_des() {
    let run = |jitter_tenths: u64| {
        let ((report, (metrics, pin)), v) = churn(jitter_tenths, |h, fate| {
            let config = DesConfig {
                seed: 0xc4a2 + jitter_tenths,
                max_rounds: log_round_budget(N, SLOTS),
                process_fate: Some(fate),
                ..DesConfig::default()
            };
            let report =
                run_des_cluster(h.actors(), Some(h.rebuilder()), config).expect("valid config");
            let metrics = serde_json::to_string(&report.metrics).expect("metrics serialize");
            let pin = service_pin(h, &metrics, &replicas(&report.actors));
            (report, (metrics, pin))
        });
        assert!(report.completed, "cluster must terminate: {report:?}");
        assert_eq!(report.metrics.recovery.crash_restarts, N as u64);
        check_churn(&report.actors, &v);
        let stats: Vec<_> = replicas(&report.actors).iter().map(|r| r.stats()).collect();
        (metrics, stats, pin)
    };
    // The outage phase moves the traffic (and so the metrics) but not
    // what is applied, journaled or counted.
    const STATE: &str = "9ae8c3154621e220935c494a31b330eef75a1e832109d838b0c69c32086f501c";
    const STATS: &str = "d3bcbaad114b27030e873321a83f0278f676544b9d646c150dddee30d0666e98";
    for (jitter_tenths, metrics) in [
        (0, "c7d1e8cef432f3639936de8e8737f0d087b052ef333ffaab86f729650ba35ad4"),
        (5, "f1992cc77d7ddf344dad457e1db59798ce08c3446bbac892f18adda74de3baba"),
    ] {
        let recorded = format!("state={STATE} metrics={metrics} stats={STATS}");
        let (first, second) = (run(jitter_tenths), run(jitter_tenths));
        assert_eq!(first, second, "jitter {jitter_tenths}: same seed, same Metrics and stats");
        assert_eq!(first.2, recorded, "jitter {jitter_tenths}");
    }
}

/// The same rolling-restart schedule over real TCP: each restart goes
/// through socket teardown, re-handshake, and round fast-forward, and
/// the converged-⊥-free-prefix contract still holds.
#[test]
fn rolling_restart_churn_converges_tcp() {
    let (tcp, v) = overrun_free("TCP churn", Duration::from_millis(8), |delta| {
        churn(0, |h, fate| {
            let config = TcpClusterConfig {
                cluster: ClusterConfig {
                    delta,
                    max_rounds: log_round_budget(N, SLOTS),
                    process_fate: Some(fate),
                    reconnect_backoff_cap: Duration::from_millis(20),
                    reconnect_jitter: Duration::from_millis(2),
                    ..ClusterConfig::default()
                },
                domain: 19,
                ..TcpClusterConfig::default()
            };
            run_tcp_cluster_with_recovery(h.actors(), Some(h.rebuilder()), &h.config(), config)
                .expect("mesh establishment")
        })
    })
    .report;
    assert_eq!(tcp.report.metrics.recovery.crash_restarts, N as u64);
    check_churn(&tcp.report.actors, &v);
}

// ---------------------------------------------------------------------------
// Byzantine donor: forged history is rejected-and-counted
// ---------------------------------------------------------------------------

const LIE_SLOTS: u64 = 6;

fn lying_service() -> ServiceConfig {
    ServiceConfig {
        total_slots: LIE_SLOTS,
        window: 2,
        queue_capacity: 64,
        batch: BatchPolicy { max_batch_delay: u64::MAX, ..BatchPolicy::default() },
    }
}

type Liar = LyingDonor<ServiceMsg<RecursiveBaFactory>>;

fn replica_of(a: &dyn AnyActor<Msg = ServiceM>) -> &ServiceProc {
    match a.as_any().downcast_ref::<Liar>() {
        Some(d) => service_replica(d.inner()),
        None => service_replica(a),
    }
}

/// Replica 1 is a [`LyingDonor`]: honest in agreement, but it answers
/// fetches with — and spams — forged `CommittedBatch` history (forged
/// quorum certificates on odd slots, bare claims on even ones). Replica
/// 0 crash-restarts across slot 1's opening and must recover anyway:
/// every certified lie is rejected *and counted*, no bare lie ever
/// reaches the `t + 1` vouch threshold, and convergence arrives through
/// the honest donors — without any client resubmission.
#[test]
fn lying_donor_is_rejected_and_counted_while_recovery_converges() {
    let (report, v) = overrun_free("lying donor", Duration::from_millis(2), |delta| {
        let h = Arc::new(ServiceHarness::new(N, lying_service()));
        submit(&h.port(0), 1);
        let s = h.stride();
        let actors: Vec<Box<dyn AnyActor<Msg = ServiceM>>> = (0..N)
            .map(|i| {
                let a = h.actor(i);
                if i == 1 {
                    Box::new(Liar::new(a, N, LIE_SLOTS)) as Box<dyn AnyActor<Msg = ServiceM>>
                } else {
                    a
                }
            })
            .collect();
        let config = ClusterConfig {
            delta,
            max_rounds: log_round_budget(N, LIE_SLOTS),
            // Down across slot 1's opening: the victim misses its critical
            // rounds outright and must transfer it.
            process_fate: Some(crash_restart(0, s / 2, s)),
            ..ClusterConfig::default()
        };
        let report = run_cluster_with_recovery(actors, Some(h.rebuilder()), config);
        // The oracle over every replica (the liar agrees honestly, so its
        // own replica is checked too): the victim's prefix is the honest
        // one, value for value.
        let replicas: Vec<_> = report.actors.iter().map(|a| replica_of(a.as_ref())).collect();
        let v = oracle::service(&replicas, &h.journals());
        v.assert_safe_in(&report);
        (report, v)
    })
    .report;
    assert_eq!(report.metrics.recovery.crash_restarts, 1);
    let replicas: Vec<_> = report.actors.iter().map(|a| replica_of(a.as_ref())).collect();
    let victim = replicas[0];
    let st = victim.stats();
    assert!(st.transfer_certs_rejected > 0, "forged certificates rejected and counted");
    assert!(st.slots_transferred > 0, "the slot slept through arrives by transfer");
    assert!(st.transfer_certs_verified > 0, "honest certified entries do verify");
    assert_eq!(v.applied_slots[0], LIE_SLOTS, "victim caught all the way up");
    assert!(!victim.recovering(), "recovery must complete");
    for seq in 0..OPS_PER_CLIENT {
        assert!(victim.committed_at(1, seq).is_some(), "no client resubmission needed");
    }
    // The fabricated op writes key 0xbad; the oracle's kv check makes
    // its absence there its absence everywhere.
    assert!(replicas.iter().all(|r| r.kv().get(&0xbad).is_none()), "forged op never applied");
    let liar = report.actors[1].as_any().downcast_ref::<Liar>().expect("liar survives the run");
    assert!(liar.lies_broadcast() > 0, "the attack actually ran");
}

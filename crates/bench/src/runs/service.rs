//! E18: client-service throughput — batched, pipelined client ops on the
//! lockstep discrete-event backend.

use meba_engine::{run_des_cluster, DesConfig};
use meba_service::{BatchPolicy, Op, ServiceConfig};
use meba_testkit::oracle;
use meba_testkit::service::{service_replica, ServiceHarness};
use std::sync::Arc;

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
    /// The run's whole ledger.
    pub metrics: meba_sim::Metrics,
}

serde::impl_serde_struct!(ServiceRunStats {
    n,
    batch_ops,
    window,
    slots,
    offered,
    accepted,
    rejected,
    committed_ops,
    rounds,
    ops_per_round,
    ops_per_sec,
    latency_p50_rounds,
    latency_p99_rounds,
    mean_occupancy,
    words,
    words_per_op,
    agreement,
    session_collisions,
} skip { metrics });

/// Runs one E18 cell: `total_ops` client ops spread round-robin over the
/// replicas' admission ports, batched under `max_batch_ops` and
/// pipelined with window `window`, on the lockstep simulator. The slot
/// count is sized so every accepted op fits the proposers' slots.
/// Every replica journals; [`oracle::service`] checks the finished run.
///
/// # Panics
///
/// Panics if the oracle finds a violation or an accepted op did not
/// commit — the audits ARE the experiment's safety claim.
pub fn run_service_throughput(
    n: usize,
    total_ops: u64,
    max_batch_ops: usize,
    window: u64,
    queue_capacity: usize,
) -> ServiceRunStats {
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
    let started = std::time::Instant::now();
    let config = DesConfig { max_rounds: budget, ..DesConfig::default() };
    let report = run_des_cluster(h.actors(), None, config).expect("valid config");
    assert!(report.completed, "service run terminated");
    let elapsed = started.elapsed().as_secs_f64();

    let replicas: Vec<_> = report.actors.iter().map(|a| service_replica(a.as_ref())).collect();
    let verdict = oracle::service(&replicas, &h.journals());
    verdict.assert_safe();
    let committed_ops = verdict.committed_ops;
    assert_eq!(committed_ops, accepted, "every accepted op commits");

    let mut latency = meba_sim::metrics::LatencyHistogram::default();
    let mut occupancy = (0u64, 0u64);
    let mut session_collisions = 0u64;
    for s in replicas.iter().map(|r| r.stats()) {
        latency.merge(&s.commit_latency_rounds);
        occupancy.0 += s.batched_ops;
        occupancy.1 += s.batches_proposed;
        session_collisions += s.session_collisions;
    }

    let m = &report.metrics;
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
        agreement: verdict.is_safe(),
        session_collisions,
        metrics: m.clone(),
    }
}

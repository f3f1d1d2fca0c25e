//! Service test harness: journal-backed [`ServiceReplica`] clusters for
//! overload and crash-restart testing on any backend.
//!
//! [`ServiceHarness`] mirrors [`crate::recovery::WeakBaRecoveryHarness`]
//! one layer up the stack: each replica gets a shared [`ServicePort`]
//! (the handle test drivers submit ops through, from the test thread or
//! concurrently with a running cluster) and a [`MemBuffer`] journal that
//! survives the actor being dropped. [`ServiceHarness::rebuilder`] replays that
//! journal through [`ServiceReplica::rebuild`], so crash-restart runs
//! exercise the real WAL discipline: journaled slot bindings re-bind
//! byte-identical values, and journaled commits are never re-acked.
//!
//! A finished run is checked by [`crate::oracle::service`] over the
//! replicas and [`ServiceHarness::journals`].

use meba_core::SystemConfig;
use meba_crypto::{trusted_setup, Digest, Pki, ProcessId, SecretKey};
use meba_engine::{ActorRebuilder, RebuiltActor};
use meba_fallback::RecursiveBaFactory;
use meba_journal::{Journal, MemBuffer, Record};
use meba_service::{ServiceConfig, ServicePort, ServiceReplica};
use meba_sim::{Actor, AnyActor};
use std::sync::Arc;

/// The service replica the harness builds.
pub type ServiceProc = ServiceReplica<RecursiveBaFactory>;
/// Its wire-message type (identical to the bare log's).
pub type ServiceM = <ServiceProc as Actor>::Msg;

/// Builds journal-backed service replicas with shared admission ports,
/// for overload and crash-restart runs on any runtime.
///
/// # Examples
///
/// ```
/// use meba_service::{Op, ServiceConfig};
/// use meba_testkit::service::ServiceHarness;
/// use std::sync::Arc;
///
/// let h = Arc::new(ServiceHarness::new(3, ServiceConfig::default()));
/// h.port(0).submit(Op { client: 1, seq: 0, key: 9, value: 3 }).unwrap();
/// let actors = h.actors();
/// let _rebuilder = h.rebuilder();
/// assert_eq!(actors.len(), 3);
/// ```
pub struct ServiceHarness {
    cfg: SystemConfig,
    pki: Pki,
    keys: Vec<SecretKey>,
    service: ServiceConfig,
    ports: Vec<Arc<ServicePort>>,
    journals: Vec<MemBuffer>,
}

impl ServiceHarness {
    /// A service deployment of `n` journal-backed replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid system size (odd, ≥ 3).
    pub fn new(n: usize, service: ServiceConfig) -> Self {
        let cfg = SystemConfig::new(n, 0x5e7).unwrap();
        let (pki, keys) = trusted_setup(n, 0xf00d);
        let ports = (0..n).map(|_| ServicePort::new(service.queue_capacity)).collect();
        let journals = (0..n).map(|_| MemBuffer::new()).collect();
        ServiceHarness { cfg, pki, keys, service, ports, journals }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// The system configuration the replicas run under.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The service sizing the replicas run under.
    pub fn service_config(&self) -> ServiceConfig {
        self.service
    }

    /// Replica `i`'s admission port. Clone the `Arc` and submit from any
    /// thread — including while a cluster run holds the replica.
    pub fn port(&self, i: usize) -> Arc<ServicePort> {
        self.ports[i].clone()
    }

    /// Replica `i`'s journal buffer — the "disk" that survives its crash.
    pub fn journal_buffer(&self, i: usize) -> &MemBuffer {
        &self.journals[i]
    }

    /// The rounds between two slot openings of the replicas' log — the
    /// unit crash schedules are phrased in.
    pub fn stride(&self) -> u64 {
        service_replica(self.actor(0).as_ref()).log().stride()
    }

    /// Every replica's journal records, in id order — the oracle's input.
    pub fn journals(&self) -> Vec<Vec<Record>> {
        self.journals.iter().map(crate::oracle::records).collect()
    }

    /// The initial actor for replica `i`: a fresh service replica
    /// journaling into [`Self::journal_buffer`]`(i)`.
    pub fn actor(&self, i: usize) -> Box<dyn AnyActor<Msg = ServiceM>> {
        let key = self.keys[i].clone();
        let factory = RecursiveBaFactory::new(self.cfg, key.clone(), self.pki.clone());
        let journal = Journal::in_memory(self.journals[i].clone());
        Box::new(ServiceReplica::new(
            self.cfg,
            ProcessId(i as u32),
            key,
            self.pki.clone(),
            factory,
            self.service,
            self.ports[i].clone(),
            Some(journal),
        ))
    }

    /// Initial actors for all replicas, in id order.
    pub fn actors(&self) -> Vec<Box<dyn AnyActor<Msg = ServiceM>>> {
        (0..self.n()).map(|i| self.actor(i)).collect()
    }

    /// The rebuilder a cluster runtime calls when a crashed replica
    /// rejoins: [`ServiceReplica::rebuild`] replays the journal, so the
    /// restart re-binds byte-identical values to its journaled slots and
    /// never re-acks a journaled commit.
    ///
    /// # Panics
    ///
    /// The returned closure panics if journal replay fails (in-memory
    /// buffers cannot fail I/O, so this indicates harness misuse).
    pub fn rebuilder(self: &Arc<Self>) -> ActorRebuilder<ServiceM> {
        let h = self.clone();
        Arc::new(move |me: ProcessId| {
            let i = me.index();
            let key = h.keys[i].clone();
            let factory = RecursiveBaFactory::new(h.cfg, key.clone(), h.pki.clone());
            let journal = Journal::in_memory(h.journals[i].clone());
            let fsyncs = journal.stats().fsyncs;
            let (replica, replayed_records) = ServiceReplica::rebuild(
                h.cfg,
                me,
                key,
                h.pki.clone(),
                factory,
                h.service,
                h.ports[i].clone(),
                journal,
            )
            .expect("in-memory replay cannot fail");
            RebuiltActor {
                actor: Box::new(replica),
                resume_step: 0,
                replayed_records,
                journal_fsyncs: fsyncs,
            }
        })
    }
}

/// Downcasts an actor built by [`ServiceHarness`].
///
/// # Panics
///
/// Panics if the actor is not a [`ServiceProc`].
pub fn service_replica(actor: &dyn AnyActor<Msg = ServiceM>) -> &ServiceProc {
    actor.as_any().downcast_ref().expect("harness-built service replica")
}

/// The byte-exact fingerprint a seeded DES service run is pinned by:
/// hex SHA-256 of (`state`) every replica's `(slot, applied_value)`
/// sequence and journal bytes, (`metrics`) the run's `Metrics` JSON, and
/// (`stats`) every replica's `ServiceStats` `{:?}`. `replicas[i]` journals
/// into [`ServiceHarness::journal_buffer`]`(i)`.
pub fn service_pin(h: &ServiceHarness, metrics_json: &str, replicas: &[&ServiceProc]) -> String {
    let mut state = Vec::new();
    let mut put = |chunk: &[u8]| {
        state.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
        state.extend_from_slice(chunk);
    };
    for (i, r) in replicas.iter().enumerate() {
        put(&r.applied_slots().to_le_bytes());
        for slot in 0..r.log().total_slots() {
            put(r.applied_value(slot).unwrap_or(b"unapplied"));
        }
        put(&h.journal_buffer(i).contents());
    }
    let stats: Vec<_> = replicas.iter().map(|r| r.stats()).collect();
    format!(
        "state={} metrics={} stats={}",
        Digest::of(&state).to_hex(),
        Digest::of(metrics_json.as_bytes()).to_hex(),
        Digest::of(format!("{stats:?}").as_bytes()).to_hex()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_engine::{run_des_cluster, DesConfig};
    use meba_service::Op;

    /// The harness's replicas run to completion on the lockstep DES.
    fn run(h: &ServiceHarness) -> meba_engine::ClusterReport<ServiceM> {
        let config =
            DesConfig { max_rounds: crate::log_round_budget(3, 3), ..DesConfig::default() };
        let report = run_des_cluster(h.actors(), None, config).unwrap();
        assert!(report.completed);
        report
    }

    #[test]
    fn harness_runs_and_commits_on_lockstep() {
        let service = ServiceConfig { total_slots: 3, ..ServiceConfig::default() };
        let h = Arc::new(ServiceHarness::new(3, service));
        h.port(0).submit(Op { client: 4, seq: 0, key: 2, value: 11 }).unwrap();
        let report = run(&h);
        let replicas: Vec<_> = report.actors.iter().map(|a| service_replica(a.as_ref())).collect();
        // One place for op (4, 0) on every replica, and every journaled
        // slot binding bound once.
        let v = crate::oracle::service(&replicas, &h.journals());
        v.assert_safe();
        assert_eq!((v.applied_slots, v.committed_ops, v.bot_slots), (vec![3; 3], 1, 0));
        for r in &replicas {
            assert_eq!((r.committed_at(4, 0).is_some(), r.kv().get(&2)), (true, Some(&11)));
        }
        assert!(!h.journal_buffer(0).is_empty(), "replica 0 journaled its binding");
    }

    #[test]
    fn rebuilder_replays_commits_and_bindings() {
        let service = ServiceConfig { total_slots: 3, ..ServiceConfig::default() };
        let h = Arc::new(ServiceHarness::new(3, service));
        h.port(0).submit(Op { client: 9, seq: 1, key: 5, value: 77 }).unwrap();
        // "Crash" replica 0 by dropping the run; its journal survives.
        drop(run(&h));
        let acked = h.port(0).drain_events();
        assert!(!acked.is_empty(), "the live commit was acknowledged");
        let journaled = h.journal_buffer(0).len();
        let rb = h.rebuilder()(ProcessId(0));
        assert!(rb.replayed_records > 0, "bindings and commits must replay");
        // Replay is silent: the client was told by the earlier
        // incarnation, and nothing is journaled twice.
        assert!(h.port(0).drain_events().is_empty(), "replay must not re-acknowledge");
        assert_eq!(h.journal_buffer(0).len(), journaled, "replay must not write");
        let r = service_replica(rb.actor.as_ref());
        assert_eq!(r.kv().get(&5), Some(&77), "journal replay rebuilt the KV state");
        assert!(r.committed_at(9, 1).is_some(), "dedup table survives the crash");
    }
}

//! E14 and E19: crash-restart on the threaded runtime — journal-backed
//! weak BA recovery, and a service replica catching up by certified
//! state transfer.

use meba_crypto::ProcessId;
use meba_engine::{run_cluster_with_recovery, ClusterConfig, OverrunAction, ProcessFate};
use meba_service::{BatchPolicy, Op, ServiceConfig};
use meba_testkit::service::{service_replica, ServiceHarness};
use meba_testkit::{
    crash_restart, log_round_budget, oracle, round_budget, DoubleSignDetector, Fault, RecWbaProc,
    WeakBaRecoveryHarness,
};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one crash-recovery run (experiment E14).
#[derive(Clone, Debug)]
pub struct RecoveryRunStats {
    /// System size.
    pub n: usize,
    /// Processes that crash-restarted mid-run.
    pub crashes: usize,
    /// Words sent by correct processes (each crash-restart counts as one
    /// fault toward the `O(n(f+1))` bound).
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
/// Panics if `crashes > t`, the run does not terminate, the oracle finds
/// a violation (each crash-restart counts as one fault), or
/// [`oracle::fold_journals`] finds a signature context bound to two
/// digests in some journal.
pub fn run_recovery_weak_ba(n: usize, crashes: usize, delta: Duration) -> RecoveryRunStats {
    let h = Arc::new(WeakBaRecoveryHarness::new(&vec![7u64; n]));
    assert!(crashes <= h.config().t(), "crashes={crashes} exceeds t={}", h.config().t());
    let config = ClusterConfig {
        delta,
        max_rounds: round_budget(n),
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
            max_delta: Duration::from_millis(250),
        },
        ..ClusterConfig::default()
    };
    let report = run_cluster_with_recovery(h.actors(), Some(h.rebuilder()), config);
    assert!(report.completed, "E14 n={n} crashes={crashes}: run must terminate");
    oracle::decided::<RecWbaProc>(&report.actors, &report.metrics, &vec![Fault::None; n])
        .assert_in_model();
    let mut det = DoubleSignDetector::new();
    oracle::fold_journals(&mut det, &h.journals());
    det.assert_clean();
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
        agreement: true,
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

serde::impl_serde_struct!(StateTransferStats {
    n,
    slots,
    outage_slots,
    slots_transferred,
    certs_verified,
    vouches_accepted,
    transfer_words,
    transfer_bytes,
    transfer_messages,
    total_bytes,
    recovery_rounds,
    rounds,
    agreement,
    bot_slots,
});

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
/// Panics if the run fails to terminate, [`oracle::service`] finds a
/// violation, any slot `⊥`-retires, or a replica fails to apply the
/// whole log — the audits are the experiment's claim.
pub fn run_state_transfer(n: usize, total_slots: u64, outage_slots: u64) -> StateTransferStats {
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
    let stride = h.stride();
    let config = ClusterConfig {
        delta: Duration::from_millis(2),
        max_rounds: log_round_budget(n, total_slots),
        // Down from 0.7 strides after slot 1 would normally open its
        // predecessor, through `outage_slots` further openings: openings
        // `1..=outage_slots` fall inside the window, opening
        // `outage_slots + 1` falls after it.
        process_fate: Some(crash_restart(victim, stride * 7 / 10, stride * outage_slots)),
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
    let verdict = oracle::service(&replicas, &h.journals());
    verdict.assert_safe();
    assert_eq!(verdict.applied_slots, vec![total_slots; n], "E19: every replica applied the log");
    assert!(replicas.iter().all(|r| !r.recovering()), "E19: recovery must complete");
    assert_eq!(verdict.bot_slots, 0, "E19: the outage spends the fault budget, never a slot");

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
        agreement: verdict.is_safe(),
        bot_slots: verdict.bot_slots,
    }
}

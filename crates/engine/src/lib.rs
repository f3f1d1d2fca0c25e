//! Runtime-agnostic round engine for the `meba` protocols.
//!
//! The workspace runs the same [`meba_sim::Actor`] state machines on three
//! backends — this crate's deterministic discrete-event backend, a
//! threaded wall-clock cluster ([`run_cluster`]), and a real-TCP cluster
//! (`meba-wire`) — and a lockstep run is the first of them under its
//! lockstep driver. All three execute a process's round through one body, [`EngineProcess::step`],
//! over a [`Transport`] — how bytes move: send / drain / sever / crash,
//! with backpressure surfaced for accounting. This crate holds that body,
//! the transports (the discrete-event queue in [`des`],
//! [`ChannelTransport`] over bounded crossbeam channels; `meba-wire`'s
//! TCP mesh implements the same trait) and everything around them:
//!
//! * [`DeadlinePacer`] — when wall-clock rounds happen, one fixed δ
//!   apart; the discrete-event backend owns a virtual clock.
//! * [`RoundDriver`] — *why* a process advances: the lockstep global
//!   schedule (default), or event-driven quorum-or-timeout partial
//!   synchrony where each process advances on a quorum of prior-round
//!   senders or its local δ-estimate timer, whichever fires first. One
//!   state machine, configured by [`RoundDriverConfig`], serves every
//!   backend (see [`driver`]).
//! * [`EngineProcess`] — one process and its round body: inbox
//!   partitioning by `sent_round`, word/byte/per-link accounting into a
//!   `&mut Metrics` the backend owns, a per-sender
//!   [`meba_sim::faults::LinkPolicy`], [`ProcessFate`] crash and
//!   crash-restart execution, journal-replay rejoin, the advance-cause
//!   tally and the end-of-run refusal count.
//! * [`run_threaded_cluster`] — generic thread-per-process execution with
//!   coordinator stop decisions and overrun counting (the machinery
//!   behind [`run_cluster`] and
//!   `meba_wire::run_tcp_cluster`).
//! * [`run_des_cluster`] — seeded virtual clock, one event queue of
//!   per-instant buckets, no threads; n = 100–200 runs in milliseconds
//!   for asymptotic word/round curves, and failure-free runs scale past
//!   n = 4000. Under the lockstep driver its corrupt processes are the
//!   rushing adversary, always. It is the one way to run a lockstep
//!   run — the protocol crates' unit tests and the experiment runners
//!   included — and it runs to completion, with one ledger.
//!
//! Fates are resolved exactly once per process, up front
//! ([`resolve_fates`]): a `CrashRestart` without a rebuilder is rejected
//! (downgraded to a permanent crash) before the run starts instead of
//! being discovered mid-run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod control;
pub mod des;
pub mod driver;
pub mod fate;
pub mod pacer;
pub mod process;

pub use channel::{channel_mesh, run_cluster, run_cluster_with_recovery, ChannelTransport};
pub use config::{ClusterConfig, ClusterReport, LinkPolicyFactory, OverrunAction, LINK_CAPACITY};
pub use control::run_threaded_cluster;
pub use des::{run_des_cluster, DesConfig, DesConfigError};
pub use driver::{default_quorum, AdvanceCause, DriverConfigError, RoundDriver, RoundDriverConfig};
pub use fate::{
    resolve_fate, resolve_fates, ActorRebuilder, ProcessFate, ProcessFateFactory, RebuiltActor,
    ResolvedFate,
};
pub use pacer::{AbortReason, ClusterDiagnostic, DeadlinePacer};
pub use process::{Delivery, EngineProcess, StepStatus, Transport};

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::ProcessId;
    use meba_sim::{Actor, AnyActor, Message, RoundCtx};

    #[derive(Clone, Debug)]
    struct Ping(#[allow(dead_code)] u64);
    impl Message for Ping {
        fn words(&self) -> u64 {
            1
        }
    }

    struct Gossip {
        id: ProcessId,
        heard: usize,
        target: usize,
    }
    impl Actor for Gossip {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            if ctx.round() == meba_sim::Round(0) {
                ctx.broadcast(Ping(self.id.0 as u64));
            }
            self.heard += ctx.inbox().len();
        }
        fn done(&self) -> bool {
            self.heard >= self.target
        }
    }

    fn gossips(n: usize) -> Vec<Box<dyn AnyActor<Msg = Ping>>> {
        (0..n)
            .map(|i| Box::new(Gossip { id: ProcessId(i as u32), heard: 0, target: n }) as _)
            .collect()
    }

    #[test]
    fn des_delivers_broadcasts_next_round() {
        let n = 5;
        let report = run_des_cluster(gossips(n), None, DesConfig::default()).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds, 2, "broadcast in round 0, heard in round 1");
        for a in &report.actors {
            let g: &Gossip = a.as_any().downcast_ref().unwrap();
            assert_eq!(g.heard, n, "every broadcast (incl. own) delivered once");
        }
        // n broadcasts × (n - 1) remote copies.
        assert_eq!(report.metrics.correct.words, (n * (n - 1)) as u64);
        // One delivery per directed remote link.
        let l = report.metrics.link(ProcessId(0), ProcessId(1));
        assert_eq!((l.sent, l.delivered, l.dropped), (1, 1, 0));
    }

    #[test]
    fn des_same_seed_is_byte_identical() {
        let run = |seed: u64| {
            let report =
                run_des_cluster(gossips(7), None, DesConfig { seed, ..Default::default() })
                    .unwrap();
            serde_json::to_string(&report.metrics).expect("metrics serialize")
        };
        assert_eq!(run(42), run(42), "same seed ⇒ byte-identical metrics");
    }

    #[test]
    fn des_respects_round_budget() {
        let report =
            run_des_cluster(gossips(3), None, DesConfig { max_rounds: 1, ..Default::default() })
                .unwrap();
        assert!(!report.completed);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn des_crash_without_rebuilder_is_permanent() {
        let fate: ProcessFateFactory = std::sync::Arc::new(|me: ProcessId| {
            if me == ProcessId(1) {
                ProcessFate::CrashRestart { at_round: 0, rejoin_after: 1 }
            } else {
                ProcessFate::Run
            }
        });
        let report = run_des_cluster(
            gossips(3),
            None,
            DesConfig { max_rounds: 8, process_fate: Some(fate), ..Default::default() },
        )
        .unwrap();
        assert!(!report.completed, "p1 never hears enough broadcasts");
        assert_eq!(report.metrics.recovery.crash_restarts, 1);
    }

    #[test]
    fn channel_mesh_is_aligned_and_self_delivering() {
        let mut mesh = channel_mesh::<Ping>(2);
        mesh[0].send(ProcessId(1), 0, &std::sync::Arc::new(Ping(7)));
        mesh[1].send(ProcessId(1), 0, &std::sync::Arc::new(Ping(9)));
        let mut out = Vec::new();
        mesh[1].drain(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].from, ProcessId(0));
        assert_eq!(out[1].from, ProcessId(1), "self-sends loop back");
    }
}

//! The threaded wall-clock cluster: [`run_cluster`] over an in-memory
//! [`Transport`] of bounded crossbeam channels as authenticated links.
//!
//! Runs the same [`meba_sim::Actor`] state machines as the lockstep
//! simulator, but with one OS thread per process and real time: round
//! `r` spans `[start + r·δ, start + (r+1)·δ)` and a message sent during
//! round `r` is processed by its recipient in round `r + 1`. The
//! per-process round loop, crash-restart fate execution, stop
//! coordination, overrun counting, and all accounting live in
//! [`run_threaded_cluster`]; this module only supplies the channel mesh.
//!
//! Beyond the happy path, the runtime models the network the paper's
//! synchrony assumption abstracts away:
//!
//! * **Link faults** — a per-sender [`meba_sim::faults::LinkPolicy`]
//!   ([`ClusterConfig::link_policy`]), the one fault vocabulary every
//!   backend interprets, can drop, delay, partition, or sever directed
//!   links; the protocols must ride out the loss (or the caller asserts
//!   they don't). Channels are not connections, so a
//!   [`LinkFate::Sever`](meba_sim::faults::LinkFate::Sever) is a drop
//!   here; over TCP the same plan also tears the socket down.
//! * **Observability** — every thread records its per-round processing
//!   latency into [`Metrics::round_latency`](meba_sim::Metrics) and every
//!   directed link's sent/delivered/dropped/delayed counts into
//!   [`Metrics::per_link`](meba_sim::Metrics).
//! * **Backpressure** — links are bounded ([`LINK_CAPACITY`]); a full
//!   link blocks the sender (counted in [`ClusterReport::backpressure`])
//!   instead of ballooning memory.
//! * **Explicit degradation** — δ never changes mid-run; every round a
//!   process finishes past its deadline is counted in
//!   [`ClusterReport::overruns`], and under [`OverrunAction::Abort`](crate::OverrunAction)
//!   a sustained run of them stops the run with a [`ClusterDiagnostic`](crate::ClusterDiagnostic).

use crate::config::{ClusterConfig, ClusterReport, LINK_CAPACITY};
use crate::control::run_threaded_cluster;
use crate::fate::ActorRebuilder;
use crate::process::{Delivery, Transport};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use meba_crypto::ProcessId;
use meba_sim::{AnyActor, Message};
use std::sync::Arc;

/// One process's endpoint of a full mesh of bounded channels. A full
/// link blocks the sender (counted as backpressure) instead of
/// ballooning memory; a disconnected link (the peer already stopped)
/// loses the message, which is fine: the run is over for that peer.
pub struct ChannelTransport<M: Message> {
    me: ProcessId,
    rx: Receiver<Delivery<M>>,
    txs: Vec<Sender<Delivery<M>>>,
    backpressure: u64,
}

/// Builds a full mesh of channels bounded at [`LINK_CAPACITY`] for `n`
/// processes; element `i` of the result is process `i`'s transport (it
/// holds its own receiver and a sender to every process, itself
/// included).
pub fn channel_mesh<M: Message>(n: usize) -> Vec<ChannelTransport<M>> {
    let mut txs: Vec<Sender<Delivery<M>>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<Delivery<M>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded(LINK_CAPACITY);
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| ChannelTransport {
            me: ProcessId(i as u32),
            rx,
            txs: txs.clone(),
            backpressure: 0,
        })
        .collect()
}

impl<M: Message> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &Arc<M>) {
        let delivery = Delivery { from: self.me, sent_round, msg: Arc::clone(msg) };
        match self.txs[to.index()].try_send(delivery) {
            Ok(()) => {}
            Err(TrySendError::Full(delivery)) => {
                self.backpressure += 1;
                let _ = self.txs[to.index()].send(delivery);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    fn drain(&mut self, out: &mut Vec<Delivery<M>>) {
        out.extend(self.rx.try_iter());
    }

    fn backpressure(&self) -> u64 {
        self.backpressure
    }
}

/// Runs `actors` as a real-time cluster until every correct actor is done,
/// the round budget is exhausted, or the overrun policy stops the run.
///
/// # Panics
///
/// Panics if `actors` is empty or ids are not `p0..p(n-1)` in order.
///
/// # Examples
///
/// See the `threaded_cluster` and `fault_injection` examples at the
/// workspace root.
pub fn run_cluster<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    config: ClusterConfig,
) -> ClusterReport<M> {
    run_cluster_with_recovery(actors, None, config)
}

/// [`run_cluster`] with a crash-recovery path: processes whose
/// [`ProcessFate`](crate::ProcessFate) is
/// [`CrashRestart`](crate::ProcessFate::CrashRestart) lose their in-memory
/// state at the crash round, stay dead (inbound traffic discarded, no
/// sends) for the configured window, and are then rebuilt by `rebuilder`
/// — typically by replaying a durable `meba-journal` write-ahead log —
/// and fast-forwarded back to the cluster's current round with empty
/// inboxes, as if every message during the outage was dropped. Recovery
/// counters land in [`Metrics::recovery`](meba_sim::Metrics).
pub fn run_cluster_with_recovery<M: Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    rebuilder: Option<ActorRebuilder<M>>,
    config: ClusterConfig,
) -> ClusterReport<M> {
    let n = actors.len();
    assert!(n > 0, "cluster needs at least one actor");
    let transports = channel_mesh::<M>(n);
    run_threaded_cluster(actors, transports, rebuilder, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::*;
    use meba_crypto::ProcessId;
    use meba_sim::faults::{Link, LinkFate, LinkPolicy};
    use meba_sim::{Actor, IdleActor, Message, Round, RoundCtx};
    use std::sync::Arc;

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
            if ctx.round() == Round(0) {
                ctx.broadcast(Ping(self.id.0 as u64));
            }
            self.heard += ctx.inbox().len();
        }
        fn done(&self) -> bool {
            self.heard >= self.target
        }
    }

    fn gossips(targets: &[usize]) -> Vec<Box<dyn AnyActor<Msg = Ping>>> {
        targets
            .iter()
            .enumerate()
            .map(|(i, &t)| Box::new(Gossip { id: ProcessId(i as u32), heard: 0, target: t }) as _)
            .collect()
    }

    #[test]
    fn cluster_delivers_broadcasts_next_round() {
        let n = 4;
        let report = run_cluster(gossips(&[n; 4]), ClusterConfig::default());
        assert!(report.completed);
        assert!(report.aborted.is_none());
        for a in &report.actors {
            let g: &Gossip = a.as_any().downcast_ref().unwrap();
            assert_eq!(g.heard, n, "every broadcast (incl. own) delivered once");
        }
        // 4 broadcasts × 3 remote copies.
        assert_eq!(report.metrics.correct.words, 12);
    }

    #[test]
    fn event_driven_cluster_delivers_and_records_advance_causes() {
        // Same gossip scenario under the quorum-or-timeout driver: the
        // decisions and word totals must match lockstep, and every
        // advance must have a recorded cause.
        let n = 4;
        let cfg =
            ClusterConfig { driver: RoundDriverConfig::quorum_or_timeout(), ..Default::default() };
        let report = run_cluster(gossips(&[n; 4]), cfg);
        assert!(report.completed);
        assert!(report.aborted.is_none());
        for a in &report.actors {
            let g: &Gossip = a.as_any().downcast_ref().unwrap();
            assert_eq!(g.heard, n, "every broadcast (incl. own) delivered once");
        }
        assert_eq!(report.metrics.correct.words, 12);
        assert!(
            report.metrics.advance.total() > 0,
            "event-driven rounds record their advance cause"
        );
    }

    #[test]
    fn event_driven_cluster_times_out_silent_rounds() {
        // Readiness counts the local process plus buffered senders, so
        // with two silent peers a full-inbox quorum of 3 can never
        // assemble (self + the one gossiping sender = 2): every advance
        // must be a local timeout, and the cluster still terminates on
        // its own clocks.
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Gossip { id: ProcessId(0), heard: 0, target: 3 }),
            Box::new(IdleActor::new(ProcessId(1))),
            Box::new(IdleActor::new(ProcessId(2))),
        ];
        let cfg = ClusterConfig {
            driver: RoundDriverConfig::QuorumOrTimeout { quorum: Some(3), timeout_factor: 1.0 },
            max_rounds: 8,
            ..Default::default()
        };
        let report = run_cluster(actors, cfg);
        assert_eq!(
            report.metrics.advance.quorum, 0,
            "two silent peers can never complete a full inbox of 3"
        );
        assert!(report.metrics.advance.timeout > 0);
    }

    #[test]
    fn cluster_respects_corrupt_accounting() {
        let cfg = ClusterConfig { corrupt: vec![ProcessId(1)], ..Default::default() };
        let report = run_cluster(gossips(&[3; 3]), cfg);
        assert_eq!(report.metrics.correct.words, 4); // 2 correct × 2 remote
        assert_eq!(report.metrics.byzantine.words, 2);
    }

    #[test]
    fn cluster_stops_at_round_budget() {
        let cfg = ClusterConfig { max_rounds: 5, ..Default::default() };
        let report = run_cluster(gossips(&[99]), cfg);
        assert!(!report.completed);
        assert_eq!(report.rounds, 5);
    }

    #[test]
    fn idle_actors_count_as_done() {
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = vec![
            Box::new(Gossip { id: ProcessId(0), heard: 0, target: 1 }),
            Box::new(IdleActor::new(ProcessId(1))),
        ];
        let report = run_cluster(actors, ClusterConfig::default());
        assert!(report.completed);
    }

    #[test]
    fn latency_histogram_and_link_counters_are_recorded() {
        let report = run_cluster(gossips(&[2; 2]), ClusterConfig::default());
        assert!(report.completed);
        // Two threads × ≥ 2 rounds: at least 4 latency samples.
        assert!(report.metrics.round_latency.count() >= 4);
        // Each process broadcast once; one message per directed link.
        let l01 = report.metrics.link(ProcessId(0), ProcessId(1));
        let l10 = report.metrics.link(ProcessId(1), ProcessId(0));
        assert_eq!((l01.sent, l01.delivered, l01.dropped), (1, 1, 0));
        assert_eq!((l10.sent, l10.delivered, l10.dropped), (1, 1, 0));
        // Self-links are never recorded.
        assert!(report.metrics.per_link.keys().all(|link| link.from != link.to));
    }

    #[test]
    fn dropped_links_are_counted_and_not_delivered() {
        use meba_sim::faults::ReliableLinks;
        // p1's outbound links all drop; inbound links to p1 are fine.
        let factory: LinkPolicyFactory = Arc::new(|me: ProcessId| {
            if me == ProcessId(1) {
                Box::new(|_l: Link, _r: u64| LinkFate::Drop) as Box<dyn LinkPolicy>
            } else {
                Box::new(ReliableLinks)
            }
        });
        // p0/p2 can only ever hear themselves + each other; p1 hears all 3.
        let cfg = ClusterConfig { link_policy: Some(factory), ..Default::default() };
        let report = run_cluster(gossips(&[2, 3, 2]), cfg);
        assert!(report.completed, "gossip must finish without p1's traffic");
        let l10 = report.metrics.link(ProcessId(1), ProcessId(0));
        assert_eq!((l10.sent, l10.dropped, l10.delivered), (1, 1, 0));
        let l01 = report.metrics.link(ProcessId(0), ProcessId(1));
        assert_eq!((l01.sent, l01.dropped, l01.delivered), (1, 0, 1));
        assert_eq!(report.metrics.total_dropped(), 2);
        // Dropped messages still count as sent words (3 × 2 remote).
        assert_eq!(report.metrics.correct.words, 6);
    }

    #[test]
    fn delayed_links_arrive_late_and_are_counted() {
        let factory: LinkPolicyFactory = Arc::new(|_me: ProcessId| {
            Box::new(|l: Link, _r: u64| {
                if l.from == ProcessId(0) {
                    LinkFate::DelayRounds(2)
                } else {
                    LinkFate::Deliver
                }
            }) as Box<dyn LinkPolicy>
        });
        let cfg = ClusterConfig { link_policy: Some(factory), ..Default::default() };
        let report = run_cluster(gossips(&[2, 2]), cfg);
        assert!(report.completed);
        let l01 = report.metrics.link(ProcessId(0), ProcessId(1));
        assert_eq!((l01.delayed, l01.delivered), (1, 1), "delayed but eventually delivered");
        // The delayed message surfaces ≥ 2 rounds late, so the run lasts
        // strictly longer than the fault-free 2-round gossip.
        assert!(report.rounds > 2, "rounds = {}", report.rounds);
    }

    #[test]
    fn severed_links_are_counted_drops_on_channels() {
        use meba_sim::faults::SeverAt;
        // Channels are not connections: the severed message is lost and
        // billed as dropped, the link carries on.
        let link = Link { from: ProcessId(0), to: ProcessId(1) };
        let factory: LinkPolicyFactory = Arc::new(move |_me| Box::new(SeverAt::new(link, 0)));
        let cfg = ClusterConfig { link_policy: Some(factory), ..Default::default() };
        let report = run_cluster(gossips(&[2, 1]), cfg);
        assert!(report.completed);
        let l01 = report.metrics.link(link.from, link.to);
        assert_eq!((l01.sent, l01.dropped, l01.delivered), (1, 1, 0));
        let l10 = report.metrics.link(link.to, link.from);
        assert_eq!((l10.sent, l10.dropped, l10.delivered), (1, 0, 1));
    }

    #[test]
    fn delay_past_the_end_of_the_run_saturates() {
        // Tickers broadcast every round, so from round 1 on `round + k`
        // would overflow: the message is never released, and is still
        // billed as delayed.
        let factory: LinkPolicyFactory = Arc::new(|_me| {
            Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(u64::MAX)) as Box<dyn LinkPolicy>
        });
        let cfg = ClusterConfig { link_policy: Some(factory), ..Default::default() };
        let tickers: Vec<Box<dyn AnyActor<Msg = Ping>>> = (0..2)
            .map(|i| {
                Box::new(Ticker { id: ProcessId(i), rounds: 0, target: 4, rejoined_at: None }) as _
            })
            .collect();
        let report = run_cluster(tickers, cfg);
        assert!(report.completed);
        let l01 = report.metrics.link(ProcessId(0), ProcessId(1));
        assert_eq!((l01.sent, l01.delayed, l01.delivered), (3, 3, 0));
    }

    #[test]
    fn report_debug_is_informative() {
        let report = run_cluster(gossips(&[1]), ClusterConfig::default());
        let s = format!("{report:?}");
        assert!(s.contains("completed"));
        assert!(s.contains("backpressure"));
    }

    /// Counts rounds; broadcasts a heartbeat each round until done.
    struct Ticker {
        id: ProcessId,
        rounds: u64,
        target: u64,
        rejoined_at: Option<u64>,
    }
    impl Actor for Ticker {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            self.rounds += 1;
            if !self.done() {
                ctx.broadcast(Ping(self.rounds));
            }
        }
        fn done(&self) -> bool {
            self.rounds >= self.target
        }
        fn on_rejoin(&mut self, round: meba_sim::Round) {
            self.rejoined_at = Some(round.as_u64());
        }
    }

    #[test]
    fn crash_restart_rebuilds_and_completes() {
        let n = 3;
        let target = 8u64;
        let mk = move |i: u32| -> Box<dyn AnyActor<Msg = Ping>> {
            Box::new(Ticker { id: ProcessId(i), rounds: 0, target, rejoined_at: None })
        };
        let fate: ProcessFateFactory = Arc::new(|me: ProcessId| {
            if me == ProcessId(1) {
                ProcessFate::CrashRestart { at_round: 2, rejoin_after: 2 }
            } else {
                ProcessFate::Run
            }
        });
        // The rebuilder returns a fresh Ticker: the fast-forward then
        // replays rounds 0..rejoin with empty inboxes, so its round
        // counter catches back up with the cluster clock.
        let rebuilder: ActorRebuilder<Ping> = Arc::new(move |me: ProcessId| RebuiltActor {
            actor: mk(me.0),
            resume_step: 0,
            replayed_records: 5,
            journal_fsyncs: 2,
        });
        let cfg = ClusterConfig { process_fate: Some(fate), max_rounds: 50, ..Default::default() };
        let report = run_cluster_with_recovery((0..n).map(mk).collect(), Some(rebuilder), cfg);
        assert!(report.completed, "restarted process must finish: {report:?}");
        assert_eq!(report.metrics.recovery.crash_restarts, 1);
        assert_eq!(report.metrics.recovery.replayed_records, 5);
        assert_eq!(report.metrics.recovery.journal_fsyncs, 2);
        assert!(report.metrics.recovery.recovery_rounds > 0, "rejoined before done");
        let t: &Ticker = report.actors[1].as_any().downcast_ref().unwrap();
        assert!(t.rounds >= target, "rebuilt actor caught up to the cluster clock");
        // The rejoin signal carries the first live round (crash at 2 +
        // rejoin_after 2), after the empty-inbox fast-forward.
        assert_eq!(t.rejoined_at, Some(4), "on_rejoin fired with the first live round");
    }

    #[test]
    fn crash_without_rebuilder_is_permanent() {
        let fate: ProcessFateFactory = Arc::new(|me: ProcessId| {
            if me == ProcessId(1) {
                ProcessFate::CrashRestart { at_round: 1, rejoin_after: 1 }
            } else {
                ProcessFate::Run
            }
        });
        let cfg = ClusterConfig { process_fate: Some(fate), max_rounds: 6, ..Default::default() };
        // p1 dies at round 1 and never rejoins: the run exhausts its
        // round budget instead of completing.
        let actors: Vec<Box<dyn AnyActor<Msg = Ping>>> = (0..2)
            .map(|i| {
                Box::new(Ticker { id: ProcessId(i), rounds: 0, target: 4, rejoined_at: None }) as _
            })
            .collect();
        let report = run_cluster_with_recovery(actors, None, cfg);
        assert!(!report.completed);
        assert_eq!(report.metrics.recovery.crash_restarts, 1);
    }
}

#[cfg(test)]
mod overrun_tests {
    use super::*;
    use crate::*;
    use meba_crypto::ProcessId;
    use meba_sim::{Actor, Message};
    use std::time::Duration;

    #[derive(Clone, Debug)]
    struct Noop;
    impl Message for Noop {
        fn words(&self) -> u64 {
            1
        }
    }

    struct Sleeper {
        id: ProcessId,
        rounds: u64,
        sleep: Duration,
        done_after: u64,
    }
    impl Actor for Sleeper {
        type Msg = Noop;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, _ctx: &mut meba_sim::RoundCtx<'_, Noop>) {
            self.rounds += 1;
            // Deliberately exceed the configured round duration.
            std::thread::sleep(self.sleep);
        }
        fn done(&self) -> bool {
            self.rounds >= self.done_after
        }
    }

    fn sleeper(sleep: Duration, done_after: u64) -> Vec<Box<dyn AnyActor<Msg = Noop>>> {
        vec![Box::new(Sleeper { id: ProcessId(0), rounds: 0, sleep, done_after })]
    }

    #[test]
    fn overruns_are_detected() {
        let report = run_cluster(
            sleeper(Duration::from_millis(3), 3),
            ClusterConfig { delta: Duration::from_millis(1), max_rounds: 10, ..Default::default() },
        );
        assert!(report.overruns > 0, "slow rounds must be flagged");
        assert!(report.aborted.is_none(), "default action only counts");
    }

    #[test]
    fn fast_rounds_do_not_overrun() {
        #[derive(Debug)]
        struct Quick {
            id: ProcessId,
            rounds: u64,
        }
        impl Actor for Quick {
            type Msg = Noop;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_round(&mut self, _ctx: &mut meba_sim::RoundCtx<'_, Noop>) {
                self.rounds += 1;
            }
            fn done(&self) -> bool {
                self.rounds >= 3
            }
        }
        let actors: Vec<Box<dyn AnyActor<Msg = Noop>>> =
            vec![Box::new(Quick { id: ProcessId(0), rounds: 0 })];
        let report = run_cluster(
            actors,
            ClusterConfig {
                delta: Duration::from_millis(20),
                max_rounds: 10,
                ..Default::default()
            },
        );
        assert_eq!(report.overruns, 0);
        assert!(report.metrics.round_latency.max_us() < 20_000);
    }

    #[test]
    fn sustained_overruns_abort_with_diagnostic() {
        let report = run_cluster(
            sleeper(Duration::from_millis(4), 1_000),
            ClusterConfig {
                delta: Duration::from_millis(1),
                max_rounds: 200,
                overrun_window: 2,
                overrun_action: OverrunAction::Abort,
                ..Default::default()
            },
        );
        assert!(!report.completed);
        let diag = report.aborted.expect("abort must attach a diagnostic");
        match diag.reason {
            AbortReason::SustainedOverruns { consecutive, window } => {
                assert_eq!(window, 2);
                assert!(consecutive >= 2);
            }
            other => panic!("unexpected abort reason {other:?}"),
        }
        assert!(diag.overruns >= 2);
        assert_eq!(diag.delta, Duration::from_millis(1));
        assert!(report.rounds < 200, "abort must stop the run early");
        let rendered = diag.to_string();
        assert!(rendered.contains("consecutive overrunning rounds"), "{rendered}");
    }
}

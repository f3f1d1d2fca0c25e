//! Integration tests: the same protocol state machines running on the
//! threaded wall-clock runtime (`meba-engine`) instead of the lockstep
//! simulator — with and without injected link faults.

mod common;

use common::*;
use meba::engine::{run_cluster, AbortReason, ClusterConfig, LinkPolicyFactory, OverrunAction};
use meba::prelude::*;
use meba::sim::faults::{
    Link, LinkFate, LinkPolicy, OneShotPartition, PolicyStack, RandomDelay, SeverAt,
};
use std::sync::Arc;
use std::time::Duration;

fn cluster_config(corrupt: Vec<ProcessId>) -> ClusterConfig {
    ClusterConfig {
        delta: Duration::from_millis(2),
        max_rounds: 3_000,
        corrupt,
        ..ClusterConfig::default()
    }
}

#[test]
fn bb_on_threads_failure_free() {
    let faults = vec![Fault::None; 5];
    let report = run_cluster(bb_actors(0, 17, &faults), cluster_config(vec![]));
    assert!(report.completed, "cluster must terminate");
    // Word accounting matches the simulator's O(n) failure-free bound.
    oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    // Observability: each thread contributed one latency sample per round,
    // and on reliable links every sent message was delivered.
    assert_eq!(report.metrics.round_latency.count(), 5 * report.rounds);
    assert!(!report.metrics.per_link.is_empty());
    for (link, stats) in &report.metrics.per_link {
        assert_eq!(stats.dropped, 0, "{link} must not drop");
        assert_eq!(stats.delivered, stats.sent, "{link} must deliver everything");
    }
}

/// `n` replicas of the pipelined log (`W = 3`), replica `i`
/// proposing `700 + i`.
fn pipelined_log(n: usize, slots: u64) -> Vec<Box<dyn AnyActor<Msg = LogM>>> {
    let cfg = SystemConfig::new(n, 0xc7).unwrap();
    let (pki, keys) = trusted_setup(n, 0xc7);
    let mut actors: Vec<Box<dyn AnyActor<Msg = LogM>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
        let log: LogProc =
            ReplicatedLog::new(cfg, id, key, pki.clone(), factory, slots, vec![700 + i as u64], 0)
                .with_window(3);
        actors.push(Box::new(log));
    }
    actors
}

#[test]
fn pipelined_log_on_threads() {
    // The same pipelined log that runs on the lockstep
    // simulator, driven by the threaded wall-clock runtime. A smoke:
    // completion and agreement only, since a loaded host can miss δ and
    // leave the model — what the log holds, how many rounds it took and
    // what it cost are asserted where they are exact, in
    // `pipelined_log_on_des`.
    let report = run_cluster(pipelined_log(5, 3), cluster_config(vec![]));
    assert!(report.completed, "cluster must terminate");
    oracle::decided::<LogProc>(&report.actors, &report.metrics, &[Fault::None; 5]).assert_safe();
}

#[test]
fn pipelined_log_on_des() {
    // Sessions are routed, opened and retired on an engine backend as
    // on the simulator, and the per-session metrics breakdown is
    // populated by the cluster report too.
    let n = 5usize;
    let slots = 3u64;
    let faults = vec![Fault::None; n];
    let report = des(pipelined_log(n, slots), &faults, 0xc7, &Timing::lockstep());
    assert!(report.completed, "cluster must terminate");
    let log =
        oracle::decided::<LogProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    let committed: Vec<u64> = log.iter().filter_map(|e| e.entry.value().copied()).collect();
    assert_eq!(committed, vec![700, 701, 702]);
    // Pipelining: with W = 3 the whole log fits well inside two
    // sequential slot schedules.
    let slot_rounds = {
        let cfg = SystemConfig::new(n, 0xc7).unwrap();
        let (pki, keys) = trusted_setup(n, 0xc7);
        let f = RecursiveBaFactory::new(cfg, keys[0].clone(), pki);
        LogProc::slot_rounds(&cfg, &f)
    };
    assert!(
        report.rounds < 2 * slot_rounds,
        "pipelined run took {} rounds, sequential would need ~{}",
        report.rounds,
        slots * slot_rounds
    );
    // One accounting bucket per slot.
    assert_eq!(report.metrics.per_session.len(), slots as usize);
}

#[test]
fn strong_ba_on_threads_with_crash() {
    let mut faults = vec![Fault::None; 5];
    faults[2] = Fault::Idle;
    let actors = strong_ba_actors(StrongBa::new, &[true; 5], &faults);
    let report = run_cluster(actors, cluster_config(corrupt_ids(&faults)));
    assert!(report.completed);
    // Strong unanimity on threads is the oracle's validity rule.
    oracle::decided::<SbaProc>(&report.actors, &report.metrics, &faults).assert_in_model();
}

#[test]
fn cluster_and_simulator_agree_on_words() {
    // Every runtime implements the same accounting. On the seeded DES a
    // failure-free weak BA is inside the model, word bound included; the
    // threaded run of the same actors is a smoke — completion and
    // agreement only (wall-clock backends stop a timing-dependent round
    // or two after the last decision, so their totals are not exact).
    let n = 5usize;
    let inputs = vec![3u64; n];
    let faults = vec![Fault::None; n];
    let exact = des(weak_ba_actors(&inputs, &faults), &faults, 0x3a, &Timing::lockstep());
    assert!(exact.completed);
    oracle::decided::<WbaProc>(&exact.actors, &exact.metrics, &faults).assert_in_model();

    let report = run_cluster(weak_ba_actors(&inputs, &faults), cluster_config(vec![]));
    assert!(report.completed);
    // A loaded host can miss δ, which leaves the model: safety only.
    oracle::decided::<WbaProc>(&report.actors, &report.metrics, &faults).assert_safe();
}

/// The all-correct, unanimous weak-BA actors the lossy-link tests run.
fn unanimous_weak_ba(n: usize, input: u64) -> Vec<Box<dyn AnyActor<Msg = WbaM>>> {
    weak_ba_actors(&vec![input; n], &vec![Fault::None; n])
}

/// The lossy-link tests' fault vector: p3 and p4 run the honest protocol
/// behind links that break the synchrony bound, so they count toward `f`.
fn lossy_p3_p4() -> Vec<Fault> {
    let mut faults = vec![Fault::None; 5];
    faults[3] = Fault::Lossy(0);
    faults[4] = Fault::Lossy(0);
    faults
}

#[test]
fn weak_ba_decides_under_drop_and_delay_links() {
    // n = 5, t = 2. Outbound links of p3 are jittered (delays reorder its
    // traffic past δ) and p4's are cut entirely; both behaviours exceed
    // the synchrony assumption, so p3/p4 count toward f. The three
    // processes on reliable links must still decide — the missing
    // signatures force the fallback path.
    let n = 5usize;
    let factory: LinkPolicyFactory = Arc::new(|me: ProcessId| -> Box<dyn LinkPolicy> {
        match me.0 {
            3 => Box::new(PolicyStack::new().with(Box::new(RandomDelay::new(0xd3, 0.8, 3)))),
            4 => Box::new(|_l: Link, _r: u64| LinkFate::Drop),
            _ => Box::new(|_l: Link, _r: u64| LinkFate::Deliver),
        }
    });
    let faults = lossy_p3_p4();
    let config =
        ClusterConfig { link_policy: Some(factory), ..cluster_config(corrupt_ids(&faults)) };
    let report = run_cluster(unanimous_weak_ba(n, 7), config);
    assert!(report.completed, "correct processes must decide despite lossy links");
    assert!(report.aborted.is_none());

    let run = oracle::decided::<WbaProc>(&report.actors, &report.metrics, &faults);
    assert_eq!(run.assert_in_model(), Decision::Value(7), "unanimous correct inputs decide");
    assert!(run.fell_back > 0, "dropped signatures must force the fallback path");

    // The injected fates are visible in the per-link counters.
    let m = &report.metrics;
    assert!(
        (0..n as u32).filter(|&q| q != 4).all(|q| {
            let l = m.link(ProcessId(4), ProcessId(q));
            l.sent > 0 && l.dropped == l.sent && l.delivered == 0
        }),
        "p4's outbound links must drop everything: {:?}",
        m.per_link
    );
    let delayed_from_p3: u64 =
        (0..n as u32).map(|q| m.link(ProcessId(3), ProcessId(q)).delayed).sum();
    assert!(delayed_from_p3 > 0, "p3's links must have delayed traffic");
    // Reliable links delivered every message.
    let l01 = m.link(ProcessId(0), ProcessId(1));
    assert!(l01.sent > 0 && l01.delivered == l01.sent && l01.dropped == 0);
    // Latency histogram covers every (thread, round) pair.
    assert_eq!(m.round_latency.count(), n as u64 * report.rounds);
}

/// A chatty test actor for transport-level scenarios: broadcasts every
/// round until it has heard `target` messages.
struct Chatty {
    id: ProcessId,
    heard: usize,
    target: usize,
    slow: Option<Duration>,
}

impl meba::sim::Actor for Chatty {
    type Msg = ChatM;
    fn id(&self) -> ProcessId {
        self.id
    }
    fn on_round(&mut self, ctx: &mut meba::sim::RoundCtx<'_, ChatM>) {
        if let Some(d) = self.slow {
            std::thread::sleep(d);
        }
        if !self.done() {
            ctx.broadcast(ChatM);
        }
        self.heard += ctx.inbox().len();
    }
    fn done(&self) -> bool {
        self.heard >= self.target
    }
}

#[derive(Clone, Debug)]
struct ChatM;
impl meba::sim::Message for ChatM {
    fn words(&self) -> u64 {
        1
    }
}

fn chatties(
    n: usize,
    target: usize,
    slow: Option<Duration>,
) -> Vec<Box<dyn AnyActor<Msg = ChatM>>> {
    (0..n)
        .map(|i| Box::new(Chatty { id: ProcessId(i as u32), heard: 0, target, slow }) as _)
        .collect()
}

#[test]
fn partition_heals_and_cluster_completes() {
    // {p0, p1} is split from {p2, p3, p4} for rounds 1..6; traffic inside
    // each side flows, crossing traffic is dropped, and after the heal
    // everyone catches up and completes.
    let n = 5usize;
    let left = vec![ProcessId(0), ProcessId(1)];
    let factory: LinkPolicyFactory = Arc::new(move |_me: ProcessId| -> Box<dyn LinkPolicy> {
        Box::new(OneShotPartition::new(1, 5, left.clone()))
    });
    let config = ClusterConfig { link_policy: Some(factory), ..cluster_config(vec![]) };
    let report = run_cluster(chatties(n, 25, None), config);
    assert!(report.completed, "the partition heals; the cluster must finish");
    assert!(report.aborted.is_none());
    let m = &report.metrics;
    let crossing = m.link(ProcessId(0), ProcessId(2));
    assert!(crossing.dropped > 0, "crossing links must drop during the partition");
    let inside = m.link(ProcessId(0), ProcessId(1));
    assert_eq!(inside.dropped, 0, "links inside a side are untouched");
    assert_eq!(m.link(ProcessId(2), ProcessId(3)).dropped, 0);
}

#[test]
fn partitioned_slow_cluster_aborts_with_diagnostic() {
    // δ = 1 ms against 4 ms of processing: sustained overruns under an
    // Abort policy must stop the run with a structured diagnostic, while
    // the partition's drops still show up in the per-link counters.
    let n = 4usize;
    let left = vec![ProcessId(0), ProcessId(1)];
    let factory: LinkPolicyFactory = Arc::new(move |_me: ProcessId| -> Box<dyn LinkPolicy> {
        Box::new(OneShotPartition::new(0, u64::MAX, left.clone()))
    });
    let config = ClusterConfig {
        delta: Duration::from_millis(1),
        max_rounds: 200,
        link_policy: Some(factory),
        overrun_window: 2,
        overrun_action: OverrunAction::Abort,
        ..ClusterConfig::default()
    };
    let report = run_cluster(chatties(n, usize::MAX, Some(Duration::from_millis(4))), config);
    assert!(!report.completed);
    assert!(report.overruns > 0, "slow rounds must be counted");
    let diag = report.aborted.expect("sustained overruns must abort with a diagnostic");
    assert!(
        matches!(diag.reason, AbortReason::SustainedOverruns { window: 2, .. }),
        "unexpected reason: {:?}",
        diag.reason
    );
    assert!(diag.overruns > 0);
    assert!(report.rounds < 200, "abort must beat the round budget");
    assert!(
        report.metrics.link(ProcessId(0), ProcessId(2)).dropped > 0,
        "partition drops recorded up to the abort"
    );
}

// ---------------------------------------------------------------------
// The same scenarios over real loopback TCP (meba-wire): canonical
// codec, framed sockets, versioned handshake — same config and report
// surface, so the assertions port almost verbatim.
// ---------------------------------------------------------------------

use meba::wire::{run_tcp_cluster, TcpClusterConfig};

fn tcp_config(corrupt: Vec<ProcessId>) -> TcpClusterConfig {
    TcpClusterConfig {
        cluster: ClusterConfig {
            delta: Duration::from_millis(5),
            max_rounds: 3_000,
            corrupt,
            ..ClusterConfig::default()
        },
        ..TcpClusterConfig::default()
    }
}

#[test]
fn bb_over_loopback_tcp_failure_free() {
    let faults = vec![Fault::None; 5];
    let tcp = run_tcp_cluster(bb_actors(0, 17, &faults), &Family::BB.config(5), tcp_config(vec![]))
        .unwrap();
    let report = &tcp.report;
    assert!(report.completed, "TCP cluster must terminate");
    // Failure-free silent vetting survives the transport: the O(n) word
    // bound is the same one the channel runtimes satisfy.
    oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    // Byte accounting rides along: every correct word costs a bounded
    // number of canonical-encoding bytes.
    let m = &report.metrics.correct;
    assert!(m.bytes > 0, "byte counters must be populated over TCP");
    assert!(m.bytes <= m.words * meba::wire::BYTES_PER_WORD, "bytes/word over budget");
    // Socket reality: frames actually crossed sockets, decoded cleanly,
    // and no link had to reconnect on a healthy loopback.
    assert!(tcp.frames_sent > 0);
    assert!(tcp.socket_bytes > tcp.frames_sent * 4, "frame bytes include payloads");
    assert_eq!(tcp.decode_errors, 0);
    assert_eq!(tcp.reconnects, 0);
    for (link, stats) in &report.metrics.per_link {
        assert_eq!(stats.dropped, 0, "{link} must not drop");
        assert_eq!(stats.delivered, stats.sent, "{link} must deliver everything");
    }
}

#[test]
fn weak_ba_over_tcp_decides_under_socket_faults() {
    // The channel-runtime lossy-link scenario on sockets, in the same
    // `LinkPolicy` vocabulary: p3's frames are jittered and its p3→p0
    // connection severed once (exercising reconnect), p4's frames are all
    // dropped at the socket edge. The three processes on healthy links
    // must still decide.
    let n = 5usize;
    let factory: LinkPolicyFactory = Arc::new(|me: ProcessId| -> Box<dyn LinkPolicy> {
        match me.0 {
            // Round 10 is p3's first frame bound for p0 (its help request
            // after two failed phases); the ones after it force a re-dial.
            3 => Box::new(
                PolicyStack::new()
                    .with(Box::new(SeverAt::new(Link { from: me, to: ProcessId(0) }, 10)))
                    .with(Box::new(RandomDelay::new(0xd3, 0.8, 3))),
            ),
            4 => Box::new(|_l: Link, _r: u64| LinkFate::Drop),
            _ => Box::new(|_l: Link, _r: u64| LinkFate::Deliver),
        }
    });
    let faults = lossy_p3_p4();
    let mut config = tcp_config(corrupt_ids(&faults));
    config.cluster.link_policy = Some(factory);
    let tcp = run_tcp_cluster(unanimous_weak_ba(n, 7), &Family::WEAK_BA.config(n), config).unwrap();
    let report = &tcp.report;
    assert!(report.completed, "correct processes must decide despite socket faults");
    assert!(report.aborted.is_none());
    let d = oracle::decided::<WbaProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(7), "unanimous correct inputs decide");

    // The injected fates are visible in the same per-link counters.
    let m = &report.metrics;
    assert!(
        (0..n as u32).filter(|&q| q != 4).all(|q| {
            let l = m.link(ProcessId(4), ProcessId(q));
            l.sent > 0 && l.dropped == l.sent && l.delivered == 0
        }),
        "p4's outbound frames must all drop: {:?}",
        m.per_link
    );
    let delayed_from_p3: u64 =
        (0..n as u32).map(|q| m.link(ProcessId(3), ProcessId(q)).delayed).sum();
    assert!(delayed_from_p3 > 0, "p3's links must have delayed traffic");
    // The sever is billed as a drop, really tore a connection down, and
    // the link re-dialed.
    assert!(m.link(ProcessId(3), ProcessId(0)).dropped >= 1, "the severed frame is a drop");
    assert!(tcp.reconnects >= 1, "severed p3→p0 must reconnect");
}

/// A raw dialer sends a framed stale, misconfigured or wrong-domain
/// `Hello` to a live two-process mesh: the reactor refuses each one,
/// counts it in `handshake_rejects`, closes the socket without answering,
/// and the mesh keeps carrying traffic.
#[test]
fn handshake_rejects_version_and_config_mismatch() {
    use meba::crypto::WireCodec;
    use meba::service::TransferMsg;
    use meba::wire::frame::write_frame;
    use meba::wire::{config_digest, Hello, MeshConfig, TcpMesh, PROTOCOL_VERSION};
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::Instant;

    let ours_cfg = SystemConfig::new(3, 0xc1).unwrap();
    let hello = |id: u32| Hello {
        version: PROTOCOL_VERSION,
        id: ProcessId(id),
        config_digest: config_digest(&ours_cfg),
        domain: 9,
    };
    let listeners: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    // Both ends establish at once: each waits for the other's dial.
    let mut establishing = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let (addrs, config) =
            (addrs.clone(), MeshConfig::new(ProcessId(i as u32), hello(i as u32)));
        establishing.push(std::thread::spawn(move || {
            TcpMesh::<TransferMsg>::establish(config, listener, &addrs)
        }));
    }
    let meshes: Vec<TcpMesh<TransferMsg>> =
        establishing.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
    let delivers = |from: usize, to: usize, slot: u64| {
        let msg = TransferMsg::FetchCommitted { from_slot: slot, budget: 1 };
        meshes[from].send(ProcessId(to as u32), slot, &Arc::new(msg.clone()));
        let (start, mut got) = (Instant::now(), Vec::new());
        while got.is_empty() && start.elapsed() < Duration::from_secs(5) {
            meshes[to].drain_into(&mut got);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(got.len(), 1, "p{from} → p{to} must still deliver");
        assert_eq!((got[0].from, &*got[0].msg), (ProcessId(from as u32), &msg));
    };
    delivers(1, 0, 1);

    let other_cfg = SystemConfig::new(3, 0xdead).unwrap();
    let refused = [
        Hello { version: PROTOCOL_VERSION + 1, ..hello(1) },
        Hello { config_digest: config_digest(&other_cfg), ..hello(1) },
        Hello { domain: 10, ..hello(1) },
    ];
    for (k, bad) in refused.into_iter().enumerate() {
        let mut dialer = TcpStream::connect(addrs[0]).unwrap();
        write_frame(&mut dialer, &bad.to_wire_bytes()).unwrap();
        // A rejected dialer learns only that the connection closed: no
        // reply hello, no diagnostic.
        dialer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = Vec::new();
        assert!(
            matches!(dialer.read_to_end(&mut reply), Ok(0) | Err(_)) && reply.is_empty(),
            "{bad:?} must be answered with a closed connection, got {reply:?}"
        );
        let start = Instant::now();
        while meshes[0].stats().snapshot().handshake_rejects < k as u64 + 1 {
            assert!(start.elapsed() < Duration::from_secs(5), "{bad:?} was never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(meshes[0].stats().snapshot().handshake_rejects, 3);
    assert_eq!(meshes[1].stats().snapshot().handshake_rejects, 0);

    // The refused dials touched neither established link.
    delivers(1, 0, 2);
    delivers(0, 1, 3);
    for mesh in meshes {
        mesh.shutdown();
    }
}

#[test]
fn escalation_recovers_a_slow_cluster() {
    // Same slow actors, but the Escalate policy stretches δ until rounds
    // fit, so the run completes instead of aborting.
    let n = 3usize;
    let config = ClusterConfig {
        delta: Duration::from_millis(1),
        max_rounds: 500,
        overrun_window: 2,
        overrun_action: OverrunAction::Escalate {
            multiplier: 4,
            max_delta: Duration::from_millis(64),
        },
        ..ClusterConfig::default()
    };
    let report = run_cluster(chatties(n, 20, Some(Duration::from_millis(3))), config);
    assert!(report.completed, "escalated δ must let the cluster finish");
    assert!(!report.escalations.is_empty());
    assert!(report.escalations.iter().all(|e| e.new_delta > e.old_delta));
}

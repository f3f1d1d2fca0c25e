//! Cross-runtime equivalence: the same protocol, the same inputs, the
//! same decisions — and, where scheduling is equivalent, the same word
//! and round counts — on every backend the engine drives.
//!
//! The contract under test is the one round body all backends run
//! (`meba_engine::EngineProcess::step`): a round is "fate → release
//! pending → drain → partition by `sent_round` → step → account and
//! dispatch the outbox" on every backend, so moving a scenario from the discrete-event
//! queue to the threaded cluster or real TCP sockets must not change what
//! the protocol decides or how many words correct processes pay.
//!
//! The lockstep simulation *is* the discrete-event backend under the
//! lockstep driver, so there is one virtual clock to check, not two: its
//! runs must not depend on the link-latency seed, with every fault the
//! testkit builds — the rushing adversary's included, since corrupt
//! processes rush on every lockstep discrete-event run — and stepping it
//! a round at a time must read the fault vector as running it to
//! completion does. Against the wall-clock backends only decisions and
//! failure-free words are compared.

use meba_core::{Decision, LockstepAdapter, StrongBa, SubProtocol};
use meba_crypto::ProcessId;
use meba_engine::{
    run_cluster, run_des_cluster, ActorRebuilder, ClusterConfig, DesConfig, LinkPolicyFactory,
    ProcessFateFactory, RebuiltActor, RoundDriverConfig, SimBuilder,
};
use meba_sim::faults::{Link, LinkFate, LinkPolicy, PolicyStack, RandomDelay, SeverAt};
use meba_sim::{Actor, AnyActor, Message, Metrics, Round, RoundCtx};
use meba_testkit::{
    bb_actors, corrupt_ids, crash_restart, des, log_actors, log_round_budget, oracle, round_budget,
    sim, strong_ba_actors, weak_ba_actors, with_faults, BbProc, Fault, LogProc, SbaProc, Timing,
    WbaProc,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// One fault the seed-invariance matrix may place: silent, honest then
/// rushed-and-silent from a round, seeded replay, or behind lossy links.
fn any_fault(k: &mut Knobs, n: usize) -> Fault {
    match k.below(4) {
        0 => Fault::Idle,
        1 => Fault::CrashAt(k.below(8 * n as u64)),
        2 => Fault::Lossy(k.next()),
        _ => Fault::Chaos(k.next()),
    }
}

/// A finished run checked by family `P`'s oracle and rendered whole:
/// verdict, rounds, decisions and the serialized ledger.
fn rendered<P: oracle::Probe>(
    actors: &[Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>],
    metrics: &Metrics,
    completed: bool,
    faults: &[Fault],
) -> String {
    let decided = oracle::decided::<P>(actors, metrics, faults);
    decided.assert_in_model();
    let ledger = serde_json::to_string(metrics).expect("metrics serialize");
    format!("{completed} {} {:?} {ledger}", metrics.rounds, decided.decisions)
}

/// `metrics` with the advance-cause tallies cleared: a run stepped a
/// round at a time is not credited with its sleepers' last rounds, so
/// that field says how a run was driven, not what it sent or decided.
fn unclocked(metrics: &Metrics) -> Metrics {
    Metrics { advance: Default::default(), ..metrics.clone() }
}

/// Three renderings of one fault vector over `build()`'s actors: `des`
/// under latency seeds `a` and `b`, which must agree byte for byte, and
/// `sim` stepped a round at a time, whose ledger must equal `des`'s but
/// for `advance`.
fn one_reading<P: oracle::Probe>(
    build: impl Fn() -> Vec<Box<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>>,
    faults: &[Fault],
    [a, b]: [u64; 2],
) {
    let render = |seed| {
        let report = des(build(), faults, seed, &Timing::lockstep());
        let whole = rendered::<P>(&report.actors, &report.metrics, report.completed, faults);
        let ledger = unclocked(&report.metrics);
        (whole, rendered::<P>(&report.actors, &ledger, report.completed, faults))
    };
    let ((at_a, unclocked_a), (at_b, _)) = (render(a), render(b));
    assert_eq!(at_a, at_b, "two latency seeds: {faults:?}");
    let mut stepped = sim(build(), faults);
    let completed = stepped.run_until_done(round_budget(faults.len())).is_ok();
    let ledger = unclocked(stepped.metrics());
    let stepped = rendered::<P>(stepped.actors(), &ledger, completed, faults);
    assert_eq!(stepped, unclocked_a, "sim vs des: {faults:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    // The lockstep discrete-event run — what `sim` and `SimBuilder` drive
    // — is one function of its actors and its fault vector: the
    // link-latency seed only moves arrivals inside the round window, and
    // a rushed copy lands at its send instant whatever the seed. For
    // every family and up to t faults of every kind the testkit builds,
    // two seeds give byte-identical `Metrics`, the same rounds and
    // verdict, and the same decisions; and `sim`, which reads the fault
    // vector through the same `with_faults` as `des`, gives the same
    // ledger but for `advance`.
    #[test]
    fn lockstep_des_is_seed_invariant(
        family in 0usize..4,
        pick in 0usize..3,
        knobs in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let n = [5usize, 7, 9][pick];
        let mut k = Knobs(knobs);
        let mut faults = vec![Fault::None; n];
        for _ in 0..k.below((n as u64 - 1) / 2 + 1) {
            faults[k.below(n as u64) as usize] = any_fault(&mut k, n);
        }
        let (sender, input) = (k.below(n as u64) as u32, k.next() % 1_000);
        let inputs: Vec<u64> = (0..n as u64).map(|i| 1 + (input + i) % 2).collect();
        let bits: Vec<bool> = inputs.iter().map(|&v| v == 1).collect();
        let seeds = [a, b];
        match family {
            0 => one_reading::<BbProc>(|| bb_actors(sender, input, &faults), &faults, seeds),
            1 => one_reading::<WbaProc>(|| weak_ba_actors(&inputs, &faults), &faults, seeds),
            2 => {
                let build = || strong_ba_actors(StrongBa::new, &bits, &faults);
                one_reading::<SbaProc>(build, &faults, seeds)
            }
            _ => {
                let build = || strong_ba_actors(StrongBa::rotating, &bits, &faults);
                one_reading::<SbaProc>(build, &faults, seeds)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // The event-driven refactor's compatibility contract: `des` under
    // `Timing::lockstep()` (the explicit lockstep `RoundDriver`, aligned
    // clocks, no GST) produces *byte-identical* serialized metrics to an
    // untouched `DesConfig::default()` — the pre-refactor global
    // schedule — for every system size, sender, fault placement, and
    // latency seed. Not just the same decisions: the same words, rounds,
    // per-link stats, and advance causes, byte for byte.
    #[test]
    fn lockstep_driver_is_byte_identical_to_the_global_schedule(
        pick in 0usize..3,
        sender_raw in 0u32..7,
        idle_raw in 0u32..8,
        input in 1u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let n = [3usize, 5, 7][pick];
        let sender = sender_raw % n as u32;
        let mut faults = vec![Fault::None; n];
        let idle = (idle_raw % (n as u32 + 1)) as usize;
        if idle < n && idle as u32 != sender {
            faults[idle] = Fault::Idle;
        }

        let default = DesConfig {
            seed,
            corrupt: corrupt_ids(&faults),
            max_rounds: round_budget(n),
            ..DesConfig::default()
        };
        let default_run = run_des_cluster(bb_actors(sender, input, &faults), None, default).unwrap();
        let driven_run = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
        prop_assert!(default_run.completed && driven_run.completed);
        oracle::decided::<BbProc>(&driven_run.actors, &driven_run.metrics, &faults).assert_in_model();
        prop_assert_eq!(default_run.rounds, driven_run.rounds);
        prop_assert_eq!(
            serde_json::to_string(&default_run.metrics).unwrap(),
            serde_json::to_string(&driven_run.metrics).unwrap(),
            "lockstep RoundDriver must reproduce the global schedule byte-identically"
        );
    }
}

/// `SimBuilder::process_fate` takes the same fate factory as every other
/// backend, not only its `Crash` fates: a `CrashRestart` victim without a
/// rebuilder is down for good yet still awaited, so neither run
/// completes, and the lockstep façade's ledger equals `run_des_cluster`'s
/// but for `advance` — the restart counted once in both.
#[test]
fn lockstep_facade_reads_a_crash_restart_fate_as_the_des_does() {
    let n = 5;
    let clean = vec![Fault::None; n];
    let fate = crash_restart(2, 3, 2);
    let budget = round_budget(n);

    let mut stepped = SimBuilder::new(bb_actors(0, 7, &clean)).process_fate(fate.clone()).build();
    assert!(stepped.run_until_done(budget).is_err(), "the victim never finishes");
    let config = DesConfig { max_rounds: budget, process_fate: Some(fate), ..DesConfig::default() };
    let des = run_des_cluster(bb_actors(0, 7, &clean), None, config).expect("valid config");
    assert!(!des.completed);

    assert_eq!(stepped.metrics().recovery.crash_restarts, 1);
    assert_eq!(stepped.metrics().rounds, des.rounds);
    let ledger = |m: &Metrics| serde_json::to_string(&unclocked(m)).expect("metrics serialize");
    assert_eq!(ledger(stepped.metrics()), ledger(&des.metrics), "sim vs des ledger");
}

/// Retries a wall-clock cluster run until it completes with zero
/// overruns — word-count equality with the deterministic backends is only
/// promised while the synchrony assumption actually held, and under
/// parallel test-suite load a δ of a few milliseconds can be missed.
/// Panics if no clean run happens within the attempt budget.
fn clean_run<M, F>(label: &str, mut run: F) -> meba_engine::ClusterReport<M>
where
    M: meba_sim::Message,
    F: FnMut(Duration) -> meba_engine::ClusterReport<M>,
{
    let mut delta = Duration::from_millis(2);
    for _ in 0..5 {
        let report = run(delta);
        if report.completed && report.overruns == 0 {
            return report;
        }
        // A loaded machine missed the deadline schedule: widen δ and
        // try again rather than comparing a desynchronized run.
        delta *= 4;
    }
    panic!("{label}: no overrun-free run within the attempt budget");
}

/// The threaded wall-clock cluster — same engine, channel transport —
/// reaches the same decisions and pays the same correct words as the
/// discrete-event backend on a failure-free BB run.
#[test]
fn threaded_cluster_matches_des_decisions_and_words() {
    let n = 5;
    let faults = vec![Fault::None; n];
    let (sender, input) = (2u32, 77u64);

    let des = des(bb_actors(sender, input, &faults), &faults, 1, &Timing::lockstep());
    assert!(des.completed);
    let des = oracle::decided::<BbProc>(&des.actors, &des.metrics, &faults);
    des.assert_in_model();

    let threaded = clean_run("threaded BB", |delta| {
        let config = ClusterConfig {
            delta,
            max_rounds: round_budget(n),
            corrupt: corrupt_ids(&faults),
            ..ClusterConfig::default()
        };
        run_cluster(bb_actors(sender, input, &faults), config)
    });

    let threaded = oracle::decided::<BbProc>(&threaded.actors, &threaded.metrics, &faults);
    // An overrun-free run held the synchrony bound: it is inside the model.
    assert_eq!(threaded, des, "decisions or correct word totals diverge between threaded and DES");
}

/// Real TCP sockets: the smoke subset of the equivalence matrix. The
/// loopback cluster must decide exactly what the DES backend decides and
/// pay the same correct words.
#[test]
fn tcp_cluster_matches_des_decisions_and_words() {
    use meba_core::SystemConfig;
    use meba_wire::{run_tcp_cluster, TcpClusterConfig};

    let n = 3;
    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 9u64);

    let des = des(bb_actors(sender, input, &faults), &faults, 2, &Timing::lockstep());
    assert!(des.completed);
    let des = oracle::decided::<BbProc>(&des.actors, &des.metrics, &faults);
    des.assert_in_model();

    let system = SystemConfig::new(n, 0xbb).unwrap();
    let report = clean_run("TCP BB", |delta| {
        let config = TcpClusterConfig {
            cluster: ClusterConfig {
                delta: delta.max(Duration::from_millis(5)),
                max_rounds: round_budget(n),
                ..ClusterConfig::default()
            },
            ..TcpClusterConfig::default()
        };
        run_tcp_cluster(bb_actors(sender, input, &faults), &system, config)
            .expect("loopback mesh establishes")
            .report
    });

    let tcp = oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults);
    assert_eq!(tcp, des, "decisions or correct word totals diverge between TCP and DES");
}

/// The link [`link_fault_plan`] severs.
const SEVERED: Link = Link { from: ProcessId(3), to: ProcessId(0) };

/// One seeded link-fault plan in the one fault vocabulary: p3's outbound
/// links jittered past δ with its p3→p0 link severed in round 10 (p3's
/// first traffic to p0 — its help request after two failed phases), p4's
/// outbound links cut. Every backend builds one instance per sender.
fn link_fault_plan() -> Box<dyn LinkPolicy> {
    let mut jitter = RandomDelay::new(0xd3, 0.8, 3);
    let by_sender = move |l: Link, r: u64| match l.from.0 {
        3 => jitter.fate(l, r),
        4 => LinkFate::Drop,
        _ => LinkFate::Deliver,
    };
    let sever = SeverAt::new(SEVERED, 10);
    Box::new(PolicyStack::new().with(Box::new(sever)).with(Box::new(by_sender)))
}

/// [`link_fault_plan`], sever included, runs unchanged on all four
/// backends. Lockstep and DES — neither has connections, so the sever is
/// a counted drop — agree on decisions, words, rounds and every counter
/// of every link (both bill `delivered` where a round drains the inbox,
/// and both stop before the last round's traffic is drained); the
/// threaded cluster and TCP decide the same, and
/// over TCP the same plan additionally tears the socket down and the
/// link reconnects.
#[test]
fn one_link_fault_plan_runs_on_all_four_backends() {
    use meba_core::SystemConfig;
    use meba_wire::{run_tcp_cluster, TcpClusterConfig};

    let n = 5;
    let faults = vec![Fault::None; n];
    let inputs = vec![7u64; n];
    let factory: LinkPolicyFactory = Arc::new(|_me| link_fault_plan());

    let mut sim =
        SimBuilder::new(weak_ba_actors(&inputs, &faults)).link_policy(factory.clone()).build();
    sim.run_until_done(round_budget(n)).unwrap();
    // The plan breaks the synchrony bound on p3's and p4's links without
    // counting them toward f, so the runs are outside the model: safety.
    let decided = |actors: &_, metrics: &_| oracle::decided::<WbaProc>(actors, metrics, &faults);
    let lockstep = decided(sim.actors(), sim.metrics());
    assert_eq!(lockstep.assert_safe(), Decision::Value(7));
    let severed = sim.metrics().link(SEVERED.from, SEVERED.to);
    assert!(severed.dropped >= 1, "the severed frame is billed as a drop: {severed:?}");

    let des = run_des_cluster(
        weak_ba_actors(&inputs, &faults),
        None,
        DesConfig {
            seed: 0x5e7e,
            max_rounds: round_budget(n),
            link_policy: Some(factory.clone()),
            ..DesConfig::default()
        },
    )
    .expect("valid config");
    assert!(des.completed, "DES run must complete");
    let decisions = &lockstep.decisions;
    assert_eq!(
        &decided(&des.actors, &des.metrics).decisions,
        decisions,
        "lockstep vs DES decisions"
    );
    assert_eq!(sim.metrics().correct.words, des.metrics.correct.words, "lockstep vs DES words");
    assert_eq!(sim.metrics().rounds, des.rounds, "lockstep vs DES rounds");
    assert_eq!(sim.metrics().per_link, des.metrics.per_link, "lockstep vs DES per-link counters");

    let threaded = clean_run("threaded weak BA under the link plan", |delta| {
        let config = ClusterConfig {
            delta,
            max_rounds: round_budget(n),
            link_policy: Some(factory.clone()),
            ..ClusterConfig::default()
        };
        run_cluster(weak_ba_actors(&inputs, &faults), config)
    });
    // A wall-clock run stops a timing-dependent round or two after the
    // last decision, and decided processes still answer p3's late help
    // requests — so the smoke backends pin the decisions and the sever,
    // not the word total.
    let threaded_decisions = decided(&threaded.actors, &threaded.metrics).decisions;
    assert_eq!(&threaded_decisions, decisions, "threaded decisions");
    assert!(threaded.metrics.link(SEVERED.from, SEVERED.to).dropped >= 1);

    let system = SystemConfig::new(n, 0x3a).unwrap();
    let config = TcpClusterConfig {
        cluster: ClusterConfig {
            delta: Duration::from_millis(5),
            max_rounds: round_budget(n),
            link_policy: Some(factory),
            ..ClusterConfig::default()
        },
        ..TcpClusterConfig::default()
    };
    let tcp = run_tcp_cluster(weak_ba_actors(&inputs, &faults), &system, config)
        .expect("loopback mesh establishes");
    assert!(tcp.report.completed, "TCP run must complete");
    let tcp_decisions = decided(&tcp.report.actors, &tcp.report.metrics).decisions;
    assert_eq!(&tcp_decisions, decisions, "TCP decisions");
    assert!(tcp.report.metrics.link(SEVERED.from, SEVERED.to).dropped >= 1);
    assert!(tcp.reconnects >= 1, "the severed socket must re-dial");
}

/// DES determinism: the same seed yields *byte-identical* metrics — the
/// whole serialized struct, not just the headline counters.
#[test]
fn des_same_seed_is_byte_identical() {
    let faults = vec![Fault::None; 5];
    let run = |seed: u64| {
        let report = des(bb_actors(0, 42, &faults), &faults, seed, &Timing::lockstep());
        assert!(report.completed);
        oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults).assert_in_model();
        serde_json::to_string(&report.metrics).expect("metrics serialize")
    };
    assert_eq!(run(0xfeed), run(0xfeed), "same seed must be byte-identical");
    // A different latency seed reschedules deliveries inside the round
    // window but cannot change what the protocol pays.
    let a = des(bb_actors(0, 42, &faults), &faults, 1, &Timing::lockstep());
    let b = des(bb_actors(0, 42, &faults), &faults, 2, &Timing::lockstep());
    assert_eq!(a.metrics.correct.words, b.metrics.correct.words);
    assert_eq!(a.rounds, b.rounds);
}

// ---------------------------------------------------------------------
// Dense ≡ sparse: the hinted schedule against the every-round one
// ---------------------------------------------------------------------

/// Pass-through wrapper that forwards everything *except*
/// [`Actor::next_wakeup`]: the wrapped actor answers with the default
/// hint and the discrete-event backend ticks it every round. This is how
/// the dense schedule is obtained — from outside, since the engine has
/// no dense mode.
struct EveryRound<M: Message>(Box<dyn AnyActor<Msg = M>>);

impl<M: Message> Actor for EveryRound<M> {
    type Msg = M;
    fn id(&self) -> ProcessId {
        self.0.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
        self.0.on_round(ctx);
    }
    fn done(&self) -> bool {
        self.0.done()
    }
    fn refused_equivocations(&self) -> u64 {
        self.0.refused_equivocations()
    }
    fn on_rejoin(&mut self, round: Round) {
        self.0.on_rejoin(round);
    }
}

/// SplitMix64 stream: one proptest seed fans out into a whole scenario.
struct Knobs(u64);

impl Knobs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// One seeded DES scenario: a fault matrix plus every timing, link and
/// process-fate hazard the backend models.
struct Scenario {
    faults: Vec<Fault>,
    config: DesConfig,
    rebuild: bool,
}

fn scenario(seed: u64) -> Scenario {
    const DELTA: u64 = Timing::DELTA_NS;
    let mut k = Knobs(seed);
    // Small systems dominate (debug-build crypto makes the f = t
    // fallback at n = 33 the slow case), large ones still appear.
    let n = k.pick(&[5usize, 5, 7, 7, 9, 9, 11, 13, 17, 21, 33]);
    let t = (n - 1) / 2;
    let mut faults = vec![Fault::None; n];
    let f = if n > 13 { k.below(3) } else { k.below(t as u64 + 1) };
    for _ in 0..f {
        let at = k.below(n as u64) as usize;
        faults[at] = match k.below(4) {
            0 => Fault::Idle,
            1 => Fault::CrashAt(k.below(8 * n as u64)),
            2 => Fault::Lossy(k.next()),
            _ => Fault::Chaos(k.next()),
        };
    }
    let driver = match k.below(4) {
        0 => RoundDriverConfig::QuorumOrTimeout {
            quorum: None,
            timeout_factor: k.pick(&[0.5, 1.0, 2.0]),
        },
        _ => RoundDriverConfig::Lockstep,
    };
    let (gst_ns, pre_gst_delay_ns) =
        k.pick(&[(0, 0), (0, 0), (3 * DELTA, 6 * DELTA), (40 * DELTA, 5 * DELTA / 2)]);
    let link_policy: Option<LinkPolicyFactory> = match k.below(3) {
        0 => {
            let (link_seed, slow) = (k.next(), k.below(n as u64) as u32);
            // One process behind laggy links, or all of them.
            let everyone = k.below(2) == 0;
            Some(Arc::new(move |p: ProcessId| {
                let prob = if everyone || p.0 == slow { 0.3 } else { 0.0 };
                Box::new(RandomDelay::new(link_seed ^ u64::from(p.0), prob, 3)) as _
            }))
        }
        1 => {
            // Everyone mildly laggy, and one directed link severed in one
            // round — no connection on this backend, so a counted drop.
            let link_seed = k.next();
            let from = k.below(n as u64) as u32;
            let to = (from + 1 + k.below(n as u64 - 1) as u32) % n as u32;
            let severed = SeverAt::new(
                Link { from: ProcessId(from), to: ProcessId(to) },
                k.below(6 * n as u64),
            );
            Some(Arc::new(move |p: ProcessId| {
                let jitter = RandomDelay::new(link_seed ^ u64::from(p.0), 0.2, 3);
                Box::new(PolicyStack::new().with(Box::new(severed)).with(Box::new(jitter))) as _
            }))
        }
        _ => None,
    };
    let process_fate: Option<ProcessFateFactory> = match k.below(3) {
        0 => {
            let victim = k.below(n as u64) as usize;
            let at_round = k.below(6 * n as u64);
            let rejoin_after = k.pick(&[0, 1, 2, 7, 40, u64::MAX]);
            Some(crash_restart(victim, at_round, rejoin_after))
        }
        _ => None,
    };
    let config = DesConfig {
        seed: k.next(),
        // Mostly the full budget; sometimes one the run cannot finish in.
        max_rounds: if k.below(6) == 0 { 3 * n as u64 } else { round_budget(n) },
        link_policy,
        process_fate,
        driver,
        max_skew_ns: k.pick(&[0, 0, DELTA / 4, DELTA / 2, 3 * DELTA / 2, 3 * DELTA]),
        gst_ns,
        pre_gst_delay_ns,
        link_cap_ns: k.pick(&[None, None, Some(DELTA / 4)]),
        ..DesConfig::default()
    };
    // The fault vector's crash fates and lossy layers go over the
    // scenario's own.
    let config = with_faults(&faults, config);
    Scenario { faults, config, rebuild: k.below(2) == 0 }
}

/// Everything a run exposes, rendered for comparison: the serialized
/// metrics, the verdict, and what each fault-free process decided when.
fn observe<M: Message>(
    report: &meba_engine::ClusterReport<M>,
    faults: &[Fault],
    decided: &dyn Fn(&dyn AnyActor<Msg = M>) -> String,
) -> String {
    let actors: Vec<String> = report
        .actors
        .iter()
        .zip(faults)
        .filter(|(_, f)| **f == Fault::None)
        .map(|(a, _)| match a.as_any().downcast_ref::<EveryRound<M>>() {
            Some(dense) => decided(dense.0.as_ref()),
            None => decided(a.as_ref()),
        })
        .collect();
    format!(
        "rounds={} completed={} actors={actors:?} metrics={}",
        report.rounds,
        report.completed,
        serde_json::to_string(&report.metrics).expect("metrics serialize")
    )
}

/// Runs `scenario` twice — actors as built (hinted), and the same actors
/// behind [`EveryRound`] (ticked every round) — and returns both
/// renderings. A process fate that restarts rebuilds a factory-fresh
/// actor (no journal): wrong for the protocol, irrelevant for the
/// schedule equivalence under test.
fn hinted_and_dense<M: Message>(
    sc: &Scenario,
    build: impl Fn() -> Vec<Box<dyn AnyActor<Msg = M>>> + Clone + Send + Sync + 'static,
    decided: &dyn Fn(&dyn AnyActor<Msg = M>) -> String,
) -> (String, String) {
    let run = |dense: bool| {
        let wrap = move |a: Box<dyn AnyActor<Msg = M>>| -> Box<dyn AnyActor<Msg = M>> {
            if dense {
                Box::new(EveryRound(a))
            } else {
                a
            }
        };
        let rebuilder: Option<ActorRebuilder<M>> = sc.rebuild.then(|| {
            let build = build.clone();
            Arc::new(move |p: ProcessId| RebuiltActor {
                actor: wrap(build().swap_remove(p.index())),
                resume_step: 0,
                replayed_records: 3,
                journal_fsyncs: 1,
            }) as ActorRebuilder<M>
        });
        let actors = build().into_iter().map(wrap).collect();
        let report = run_des_cluster(actors, rebuilder, sc.config.clone()).expect("valid config");
        observe(&report, &sc.faults, decided)
    };
    (run(false), run(true))
}

fn adapter<P: SubProtocol>(a: &dyn AnyActor<Msg = P::Msg>) -> &P {
    a.as_any().downcast_ref::<LockstepAdapter<P>>().expect("fault-free actors are adapters").inner()
}

proptest! {
    // BB is the fully hinted stack (its own hint, then weak BA's), so it
    // gets the acceptance criterion's 256 scenarios.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // Sparse virtual time is invisible: for every hazard the DES models,
    // BB actors that hint their silent rounds away produce the same
    // bytes of metrics, the same round count and verdict, and the same
    // decisions at the same steps as the same actors ticked every round.
    #[test]
    fn sparse_schedule_is_invisible_bb(seed in any::<u64>(), input in 1u64..1_000_000) {
        let sc = scenario(seed);
        let sender = (seed % sc.faults.len() as u64) as u32;
        let faults = sc.faults.clone();
        let (hinted, dense) = hinted_and_dense(
            &sc,
            move || bb_actors(sender, input, &faults),
            &|a| {
                let bb = adapter::<BbProc>(a);
                format!("{:?}@{:?}", bb.output(), bb.decided_at())
            },
        );
        prop_assert_eq!(hinted, dense);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn sparse_schedule_is_invisible_weak_ba(seed in any::<u64>(), split in any::<bool>()) {
        let sc = scenario(seed);
        let faults = sc.faults.clone();
        // Unanimous inputs decide in phase 1; split inputs exercise the
        // commit-relay and help paths.
        let inputs: Vec<u64> =
            (0..faults.len() as u64).map(|i| if split { 1 + i % 3 } else { 7 }).collect();
        let (hinted, dense) = hinted_and_dense(
            &sc,
            move || weak_ba_actors(&inputs, &faults),
            &|a| {
                let wba = adapter::<WbaProc>(a);
                format!("{:?}@{:?}", wba.output(), wba.decided_at())
            },
        );
        prop_assert_eq!(hinted, dense);
    }

    // Strong BA keeps the default hint; what this pins is the adapter
    // reading its step off the round number instead of counting calls.
    #[test]
    fn sparse_schedule_is_invisible_strong_ba(seed in any::<u64>(), input_bits in any::<u64>()) {
        let sc = scenario(seed);
        let faults = sc.faults.clone();
        let inputs: Vec<bool> = (0..faults.len()).map(|i| input_bits >> (i % 64) & 1 == 1).collect();
        let (hinted, dense) = hinted_and_dense(
            &sc,
            move || strong_ba_actors(StrongBa::new, &inputs, &faults),
            &|a| {
                let sba = adapter::<SbaProc>(a);
                format!("{:?}@{:?}", sba.output(), sba.decided_at())
            },
        );
        prop_assert_eq!(hinted, dense);
    }
}

proptest! {
    // A log runs up to three BBs per case: 64 cases take ~22 s in a
    // debug build.
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // The log's hint is the minimum over its live slots' BB hints, their
    // cap rounds and the next slot opening; a slot's step is read off
    // the round. Pipelined or not, skipping the rounds it declares
    // silent changes no byte, no committed entry and no round count.
    #[test]
    fn sparse_schedule_is_invisible_log(seed in any::<u64>(), slots in 1u64..=3, window in 1u64..=3) {
        let mut sc = scenario(seed);
        let n = sc.faults.len();
        // A log needs a budget per slot; keep the scenario's short one.
        if sc.config.max_rounds == round_budget(n) {
            sc.config.max_rounds = log_round_budget(n, slots);
        }
        let faults = sc.faults.clone();
        let (hinted, dense) = hinted_and_dense(
            &sc,
            move || log_actors(slots, window, &faults),
            &|a| format!("{:?}", a.as_any().downcast_ref::<LogProc>().expect("a log").log()),
        );
        prop_assert_eq!(hinted, dense);
    }
}

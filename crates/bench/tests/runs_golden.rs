//! Golden table for the experiment runners: the exact numbers one run of
//! every lockstep runner in [`meba_bench::runs`] produces at small `n`.
//! The benches assert shapes (who wins, by what order); this pins the
//! totals, so a change to how a cluster is built, run or read back shows
//! up as a number. Recorded before the runners moved onto the testkit's
//! one cluster builder; none may move with it.

use meba_adversary::{DsEquivocatingSender, EquivocatingStrongLeader, GaSplitEchoer};
use meba_bench::runs::*;
use meba_core::{LockstepAdapter, StrongBa};
use meba_crypto::{Digest, ProcessId};
use meba_engine::{run_des_cluster, ClusterReport, DesConfig, LinkPolicyFactory};
use meba_fallback::{DolevStrongBb, DsBbMsg, InstanceId, RecBaMsg, RecursiveBa, Scope};
use meba_sim::faults::{
    BernoulliDrop, Link, LinkFate, LinkPolicy, PolicyStack, RandomDelay, SeverAt,
};
use meba_sim::{AnyActor, Metrics};
use meba_testkit::{
    bb_actors, cluster, crashes_at, des, round_budget, strong_ba_actors, weak_ba_actors, Family,
    Fault, SbaM, Timing,
};
use std::sync::Arc;

/// `(f, words, messages, constituent_sigs, rounds, decided_first,
/// decided_last, fallback_used, nonsilent_leaders, agreement,
/// by_component)`.
fn row(s: &RunStats) -> String {
    format!(
        "{:?}",
        (
            s.f,
            s.words,
            s.messages,
            s.constituent_sigs,
            s.rounds,
            s.decided_first,
            s.decided_last,
            s.fallback_used,
            s.nonsilent_leaders,
            s.agreement,
            &s.by_component,
        )
    )
}

/// `(committed, rounds, words, session_words, agreement)`.
fn smr_row(s: &SmrRunStats) -> String {
    format!("{:?}", (s.committed, s.rounds, s.words, &s.session_words, s.agreement))
}

/// `want` holds one `label: value` line per entry of `got`, in order.
fn check(want: &str, got: &[(&str, String)]) {
    let want: Vec<&str> = want.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert_eq!(want.len(), got.len(), "one recorded line per run");
    for ((label, got), want) in got.iter().zip(want) {
        assert_eq!(format!("{label}: {got}"), want);
    }
}

#[test]
fn bb_runs_match_the_recorded_totals() {
    use BbAdversary::*;
    check(
        r#"
        BB n=5 failure-free: (0, 64, 24, 44, 49, 21, 21, false, 0, true, {"bb/dissemination": 8, "weak-ba/phases": 56})
        BB n=5 crash 2: (2, 440, 160, 342, 87, 86, 86, true, 0, true, {"bb/dissemination": 8, "fallback": 366, "weak-ba/help": 24, "weak-ba/phases": 42})
        BB n=5 wasteful 1: (1, 78, 30, 50, 49, 26, 26, false, 0, true, {"bb/dissemination": 8, "bb/vetting": 8, "weak-ba/phases": 62})
        BB n=9 failure-free: (0, 128, 48, 136, 81, 33, 33, false, 0, true, {"bb/dissemination": 16, "weak-ba/phases": 112})
        BB n=9 crash 2: (2, 116, 44, 132, 81, 43, 43, false, 0, true, {"bb/dissemination": 16, "weak-ba/phases": 100})
        BB n=9 crash 4: (4, 1582, 570, 1766, 157, 156, 156, true, 0, true, {"bb/dissemination": 16, "fallback": 1346, "weak-ba/help": 80, "weak-ba/phases": 140})
        BB n=9 wasteful 2: (2, 186, 72, 160, 81, 43, 43, false, 0, true, {"bb/dissemination": 16, "bb/vetting": 28, "weak-ba/phases": 142})
        BB n=9 silent sender: (1, 91, 61, 173, 81, 33, 33, false, 1, true, {"bb/vetting": 23, "weak-ba/phases": 68})
        BB n=9 equivocating sender: (1, 106, 38, 126, 81, 33, 33, false, 0, true, {"weak-ba/phases": 106})"#,
        &[
            ("BB n=5 failure-free", row(&run_bb(5, FailureFree))),
            ("BB n=5 crash 2", row(&run_bb(5, CrashFollowers(2)))),
            ("BB n=5 wasteful 1", row(&run_bb(5, WastefulLeaders(1)))),
            ("BB n=9 failure-free", row(&run_bb(9, FailureFree))),
            ("BB n=9 crash 2", row(&run_bb(9, CrashFollowers(2)))),
            ("BB n=9 crash 4", row(&run_bb(9, CrashFollowers(4)))),
            ("BB n=9 wasteful 2", row(&run_bb(9, WastefulLeaders(2)))),
            ("BB n=9 silent sender", row(&run_bb(9, SilentSender))),
            ("BB n=9 equivocating sender", row(&run_bb(9, EquivocatingSender))),
        ],
    );
}

#[test]
fn weak_ba_runs_match_the_recorded_totals() {
    use WbaAdversary::*;
    check(
        r#"
        weak BA n=9 failure-free: (0, 72, 40, 128, 53, 5, 5, false, 1, true, {"weak-ba/phases": 72})
        weak BA n=9 crash 1: (1, 68, 38, 126, 53, 10, 10, false, 1, true, {"weak-ba/phases": 68})
        weak BA n=9 crash 4: (4, 1084, 562, 1758, 129, 128, 128, true, 5, true, {"fallback": 924, "weak-ba/help": 80, "weak-ba/phases": 80})
        weak BA n=9 wasteful 2: (2, 92, 50, 138, 53, 15, 15, false, 1, true, {"weak-ba/phases": 92})
        weak BA n=17 wasteful 2: (2, 196, 106, 474, 93, 15, 15, false, 1, true, {"weak-ba/phases": 196})"#,
        &[
            ("weak BA n=9 failure-free", row(&run_weak_ba(9, FailureFree))),
            ("weak BA n=9 crash 1", row(&run_weak_ba(9, CrashFollowers(1)))),
            ("weak BA n=9 crash 4", row(&run_weak_ba(9, CrashFollowers(4)))),
            ("weak BA n=9 wasteful 2", row(&run_weak_ba(9, WastefulLeaders(2)))),
            ("weak BA n=17 wasteful 2", row(&run_weak_ba(17, WastefulLeaders(2)))),
        ],
    );
}

#[test]
fn strong_ba_runs_match_the_recorded_totals() {
    check(
        r#"
        strong BA n=9 f=0: (0, 64, 32, 128, 12, 4, 4, false, 0, true, {"strong-ba/fast-path": 64})
        strong BA n=9 f=0 (leader flag): (0, 64, 32, 128, 12, 4, 4, false, 0, true, {"strong-ba/fast-path": 64})
        strong BA n=9 f=1 follower: (1, 1828, 866, 2764, 87, 86, 86, true, 0, true, {"fallback": 1720, "strong-ba/fallback-coord": 64, "strong-ba/fast-path": 44})
        strong BA n=9 f=1 leader: (1, 1800, 852, 2718, 87, 86, 86, true, 0, true, {"fallback": 1720, "strong-ba/fallback-coord": 64, "strong-ba/fast-path": 16})
        rotating n=9 f=0: (0, 64, 32, 112, 29, 4, 4, false, 0, true, {"strong-ba/fast-path": 64})
        rotating n=9 f=2: (2, 84, 42, 122, 29, 12, 12, false, 0, true, {"strong-ba/fast-path": 84})
        rotating n=9 f=4: (4, 1034, 497, 1565, 104, 103, 103, true, 0, true, {"fallback": 922, "strong-ba/fallback-coord": 40, "strong-ba/fast-path": 72})"#,
        &[
            ("strong BA n=9 f=0", row(&run_strong_ba(9, 0, false))),
            ("strong BA n=9 f=0 (leader flag)", row(&run_strong_ba(9, 0, true))),
            ("strong BA n=9 f=1 follower", row(&run_strong_ba(9, 1, false))),
            ("strong BA n=9 f=1 leader", row(&run_strong_ba(9, 1, true))),
            ("rotating n=9 f=0", row(&run_rotating_strong(9, 0))),
            ("rotating n=9 f=2", row(&run_rotating_strong(9, 2))),
            ("rotating n=9 f=4", row(&run_rotating_strong(9, 4))),
        ],
    );
}

#[test]
fn smr_runs_match_the_recorded_totals() {
    check(
        r#"
        log n=5 W=1 f=0: (5, 437, 320, [64, 64, 64, 64, 64], true)
        log n=5 W=3 f=0: (5, 181, 320, [64, 64, 64, 64, 64], true)
        log n=5 W=1 f=1: (4, 437, 275, [58, 43, 58, 58, 58], true)
        log n=5 W=3 f=1: (4, 181, 275, [58, 43, 58, 58, 58], true)"#,
        &[
            ("log n=5 W=1 f=0", smr_row(&run_smr(5, 5, 1, 0))),
            ("log n=5 W=3 f=0", smr_row(&run_smr(5, 5, 3, 0))),
            ("log n=5 W=1 f=1", smr_row(&run_smr(5, 5, 1, 1))),
            ("log n=5 W=3 f=1", smr_row(&run_smr(5, 5, 3, 1))),
        ],
    );
}

#[test]
fn baseline_runs_match_the_recorded_totals() {
    let base_scope = |n, base, crashes| {
        let (s, decided_input) = run_base_scope(n, base, crashes);
        format!("{:?}", (s.words, s.rounds, decided_input))
    };
    check(
        r#"
        Dolev-Strong n=9 f=0: (0, 144, 72, 136, 6, 5, 5, false, 0, true, {"dolev-strong": 144})
        Dolev-Strong n=9 f=2: (2, 112, 56, 104, 6, 5, 5, false, 0, true, {"dolev-strong": 112})
        recursive BA n=9 f=0: (0, 1980, 898, 3100, 41, 0, 0, false, 0, true, {"fallback": 1980})
        recursive BA n=9 f=2: (2, 1474, 669, 2333, 41, 0, 0, false, 0, true, {"fallback": 1474})
        recursive BA n=17 f=8: (8, 4178, 1893, 10323, 79, 0, 0, false, 0, true, {"fallback": 4178})
        base scope n=17 B=2 f=0: (9304, 139, true)
        base scope n=17 B=2 f=8: (4292, 139, true)
        base scope n=17 B=8 f=0: (8072, 49, true)
        base scope n=17 B=8 f=8: (4000, 49, true)"#,
        &[
            ("Dolev-Strong n=9 f=0", row(&run_dolev_strong(9, 0))),
            ("Dolev-Strong n=9 f=2", row(&run_dolev_strong(9, 2))),
            ("recursive BA n=9 f=0", row(&run_recursive_ba(9, 0))),
            ("recursive BA n=9 f=2", row(&run_recursive_ba(9, 2))),
            ("recursive BA n=17 f=8", row(&run_recursive_ba(17, 8))),
            ("base scope n=17 B=2 f=0", base_scope(17, 2, 0)),
            ("base scope n=17 B=2 f=8", base_scope(17, 2, 8)),
            ("base scope n=17 B=8 f=0", base_scope(17, 8, 0)),
            ("base scope n=17 B=8 f=8", base_scope(17, 8, 8)),
        ],
    );
}

#[test]
fn attack_runs_match_the_recorded_decisions() {
    let attack = |(s, decisions): (RunStats, _)| format!("{:?}", (s.agreement, decisions));
    check(
        r#"
        split vote, naive quorum: (false, [Decision(100), Decision(100), Decision(200), Decision(200)])
        split vote, paper quorum: (true, [Decision(7), Decision(7), Decision(7), Decision(7)])
        late help, no window: (false, [Decision(20), Decision(10), Decision(10), Decision(10)])
        late help, 2δ window: (true, [Decision(20), Decision(20), Decision(20), Decision(20)])"#,
        &[
            ("split vote, naive quorum", attack(run_split_vote_attack(true))),
            ("split vote, paper quorum", attack(run_split_vote_attack(false))),
            ("late help, no window", attack(run_late_help_attack(false))),
            ("late help, 2δ window", attack(run_late_help_attack(true))),
        ],
    );
}

#[test]
fn des_runs_match_the_recorded_totals() {
    let des = |n, f| {
        let s = run_des_bb(n, f, 0xe15);
        format!("{:?}", (s.words, s.messages, s.rounds, s.agreement))
    };
    let sweep = |factor, full| {
        let s = run_timing_sweep(factor, full, 0xe17);
        format!(
            "{:?}",
            (
                s.completed,
                s.agreement,
                s.decided_input,
                s.rounds,
                s.words,
                s.baseline_words,
                s.quorum_advances,
                s.timeout_advances,
            )
        )
    };
    check(
        r#"
        DES BB n=9 f=0: (128, 48, 81, true)
        DES BB n=9 f=2: (116, 44, 81, true)
        timing 0.25x n-t quorum: (true, true, false, 108, 536, 64, 153, 326)
        timing 1x full inbox: (true, true, true, 49, 64, 64, 2, 238)"#,
        &[
            ("DES BB n=9 f=0", des(9, 0)),
            ("DES BB n=9 f=2", des(9, 2)),
            ("timing 0.25x n-t quorum", sweep(0.25, false)),
            ("timing 1x full inbox", sweep(1.0, true)),
        ],
    );
}

/// E18, the one lockstep service runner: `(accepted, rejected,
/// committed_ops, rounds, words, latency_p50_rounds, latency_p99_rounds,
/// session_collisions, agreement)`. Recorded before the service's slot
/// path was collapsed onto one `apply`; none may move with it. The
/// n = 5 row oversubscribes each port (8 offered against a queue of 6).
#[test]
fn service_runs_match_the_recorded_totals() {
    let service = |n, total_ops, batch, window, capacity| {
        let s = run_service_throughput(n, total_ops, batch, window, capacity);
        format!(
            "{:?}",
            (
                s.accepted,
                s.rejected,
                s.committed_ops,
                s.rounds,
                s.words,
                s.latency_p50_rounds,
                s.latency_p99_rounds,
                s.session_collisions,
                s.agreement,
            )
        )
    };
    check(
        r#"
        service n=3 ops=24 batch=4 W=2: (24, 0, 24, 153, 1272, 128, 256, 0, true)
        service n=5 ops=40 batch=4 W=4 cap=6: (30, 10, 30, 274, 3280, 128, 512, 0, true)"#,
        &[
            ("service n=3 ops=24 batch=4 W=2", service(3, 24, 4, 2, 64)),
            ("service n=5 ops=40 batch=4 W=4 cap=6", service(5, 40, 4, 4, 6)),
        ],
    );
}

/// The first 16 hex digits of the SHA-256 of a lockstep run's whole
/// ledger (its `{:?}` rendering — every field, as the JSON has), so a
/// change anywhere in how the simulator executes, delivers or bills
/// shows up. A run without a link policy is digested with `per_link`
/// cleared: that map is the one part of the ledger such a run did not
/// always keep.
///
/// `advance` is cleared on every row: the discrete-event backend tallies
/// each process's advance causes, and the lockstep wave loop these rows
/// were recorded on never did, so the field says how a run was clocked,
/// not what it decided, sent or delivered.
fn ledger(metrics: &Metrics, link_policy: bool) -> String {
    let mut m = metrics.clone();
    m.advance = Default::default();
    if !link_policy {
        m.per_link.clear();
    }
    Digest::of(format!("{m:?}").as_bytes()).to_hex()[..16].to_string()
}

/// Every lockstep row above, digested whole. Recorded before the
/// lockstep simulator moved onto the engine's round body; none may move
/// with it. (The four DES rows have no lockstep ledger.)
#[test]
fn runner_ledgers_match_the_recorded_digests() {
    use BbAdversary::*;
    use WbaAdversary as W;
    let run = |s: RunStats| ledger(&s.metrics, false);
    let smr = |s: SmrRunStats| ledger(&s.metrics, false);
    let service = |s: ServiceRunStats| ledger(&s.metrics, false);
    check(
        r#"
        BB n=5 failure-free: ebbdee2cb4fc260b
        BB n=5 crash 2: c6e4910c947026ff
        BB n=5 wasteful 1: 08f22d41c94b3e5a
        BB n=9 failure-free: 727d897f39b02c42
        BB n=9 crash 2: 9bc93c705e82002c
        BB n=9 crash 4: 2a763d4896c780bd
        BB n=9 wasteful 2: 0df13648cbe537c8
        BB n=9 silent sender: dce0c4e32717f914
        BB n=9 equivocating sender: 2dfeb6a6c927711e
        weak BA n=9 failure-free: 3b8867e8ddb0dea3
        weak BA n=9 crash 1: dcdf84079278ffdd
        weak BA n=9 crash 4: cbcfcbe7035aceaf
        weak BA n=9 wasteful 2: b8670de4510d66de
        weak BA n=17 wasteful 2: 41f9a7b0d1707af6
        strong BA n=9 f=0: 2be6701ec685a321
        strong BA n=9 f=0 (leader flag): 2be6701ec685a321
        strong BA n=9 f=1 follower: d2df6aee66541458
        strong BA n=9 f=1 leader: 9495a42af0048ed4
        rotating n=9 f=0: 50671bceec713035
        rotating n=9 f=2: 47d6affd83bfda24
        rotating n=9 f=4: cbd2bd2460045092
        log n=5 W=1 f=0: 0884aa1624e360da
        log n=5 W=3 f=0: 38de06919915b192
        log n=5 W=1 f=1: b5ca91bcb6fe93d2
        log n=5 W=3 f=1: e8456b1881a76d14
        Dolev-Strong n=9 f=0: 8022ab74033e6695
        Dolev-Strong n=9 f=2: cd145ff5802f1274
        recursive BA n=9 f=0: 9c09da0ebe3b7176
        recursive BA n=9 f=2: 8bcb7a5d785221ed
        recursive BA n=17 f=8: 6d4293bf405abe0e
        base scope n=17 B=2 f=0: 881f67e9f6dfec49
        base scope n=17 B=2 f=8: b5d9efce4556521c
        base scope n=17 B=8 f=0: 72af6bf5fa9634eb
        base scope n=17 B=8 f=8: 7b07a3a54e9d6301
        split vote, naive quorum: 1481b30f932c55b0
        split vote, paper quorum: b848e4b0816de084
        late help, no window: a4da1851def7a7fd
        late help, 2δ window: 5e6ed5fd80696cd8
        service n=3 ops=24 batch=4 W=2: 1b1ae17a5952da31
        service n=5 ops=40 batch=4 W=4 cap=6: b9154ae57633e754"#,
        &[
            ("BB n=5 failure-free", run(run_bb(5, FailureFree))),
            ("BB n=5 crash 2", run(run_bb(5, CrashFollowers(2)))),
            ("BB n=5 wasteful 1", run(run_bb(5, WastefulLeaders(1)))),
            ("BB n=9 failure-free", run(run_bb(9, FailureFree))),
            ("BB n=9 crash 2", run(run_bb(9, CrashFollowers(2)))),
            ("BB n=9 crash 4", run(run_bb(9, CrashFollowers(4)))),
            ("BB n=9 wasteful 2", run(run_bb(9, WastefulLeaders(2)))),
            ("BB n=9 silent sender", run(run_bb(9, SilentSender))),
            ("BB n=9 equivocating sender", run(run_bb(9, EquivocatingSender))),
            ("weak BA n=9 failure-free", run(run_weak_ba(9, W::FailureFree))),
            ("weak BA n=9 crash 1", run(run_weak_ba(9, W::CrashFollowers(1)))),
            ("weak BA n=9 crash 4", run(run_weak_ba(9, W::CrashFollowers(4)))),
            ("weak BA n=9 wasteful 2", run(run_weak_ba(9, W::WastefulLeaders(2)))),
            ("weak BA n=17 wasteful 2", run(run_weak_ba(17, W::WastefulLeaders(2)))),
            ("strong BA n=9 f=0", run(run_strong_ba(9, 0, false))),
            ("strong BA n=9 f=0 (leader flag)", run(run_strong_ba(9, 0, true))),
            ("strong BA n=9 f=1 follower", run(run_strong_ba(9, 1, false))),
            ("strong BA n=9 f=1 leader", run(run_strong_ba(9, 1, true))),
            ("rotating n=9 f=0", run(run_rotating_strong(9, 0))),
            ("rotating n=9 f=2", run(run_rotating_strong(9, 2))),
            ("rotating n=9 f=4", run(run_rotating_strong(9, 4))),
            ("log n=5 W=1 f=0", smr(run_smr(5, 5, 1, 0))),
            ("log n=5 W=3 f=0", smr(run_smr(5, 5, 3, 0))),
            ("log n=5 W=1 f=1", smr(run_smr(5, 5, 1, 1))),
            ("log n=5 W=3 f=1", smr(run_smr(5, 5, 3, 1))),
            ("Dolev-Strong n=9 f=0", run(run_dolev_strong(9, 0))),
            ("Dolev-Strong n=9 f=2", run(run_dolev_strong(9, 2))),
            ("recursive BA n=9 f=0", run(run_recursive_ba(9, 0))),
            ("recursive BA n=9 f=2", run(run_recursive_ba(9, 2))),
            ("recursive BA n=17 f=8", run(run_recursive_ba(17, 8))),
            ("base scope n=17 B=2 f=0", run(run_base_scope(17, 2, 0).0)),
            ("base scope n=17 B=2 f=8", run(run_base_scope(17, 2, 8).0)),
            ("base scope n=17 B=8 f=0", run(run_base_scope(17, 8, 0).0)),
            ("base scope n=17 B=8 f=8", run(run_base_scope(17, 8, 8).0)),
            ("split vote, naive quorum", run(run_split_vote_attack(true).0)),
            ("split vote, paper quorum", run(run_split_vote_attack(false).0)),
            ("late help, no window", run(run_late_help_attack(false).0)),
            ("late help, 2δ window", run(run_late_help_attack(true).0)),
            ("service n=3 ops=24 batch=4 W=2", service(run_service_throughput(3, 24, 4, 2, 64))),
            (
                "service n=5 ops=40 batch=4 W=4 cap=6",
                service(run_service_throughput(5, 40, 4, 4, 6)),
            ),
        ],
    );
}

/// `(completed, correct words, rounds, ledger)` of one lockstep run.
fn scenario<M: meba_sim::Message>(run: &ClusterReport<M>, link_policy: bool) -> String {
    let m = &run.metrics;
    format!("{} {} {} {}", run.completed, m.correct.words, m.rounds, ledger(m, link_policy))
}

/// `actors` run on the lockstep DES under `faults`' engine settings.
fn faulted<M: meba_sim::Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    faults: &[Fault],
) -> String {
    scenario(&des(actors, faults, 0, &Timing::lockstep()), false)
}

/// A failure-free n = 5 run of `actors` behind `policy`, one instance per
/// sender.
fn linked<M: meba_sim::Message>(
    actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    policy: impl Fn() -> Box<dyn LinkPolicy> + Send + Sync + 'static,
) -> String {
    let policy: LinkPolicyFactory = Arc::new(move |_| policy());
    let config = DesConfig {
        max_rounds: round_budget(5),
        link_policy: Some(policy),
        ..DesConfig::default()
    };
    scenario(&run_des_cluster(actors, None, config).expect("valid config"), true)
}

/// The cross-runtime link plan: p3's outbound links jittered past δ with
/// p3 → p0 severed in round 10, p4's outbound links cut.
fn link_plan() -> Box<dyn LinkPolicy> {
    let mut jitter = RandomDelay::new(0xd3, 0.8, 3);
    let by_sender = move |l: Link, r: u64| match l.from.0 {
        3 => jitter.fate(l, r),
        4 => LinkFate::Drop,
        _ => LinkFate::Deliver,
    };
    let sever = SeverAt::new(Link { from: ProcessId(3), to: ProcessId(0) }, 10);
    Box::new(PolicyStack::new().with(Box::new(sever)).with(Box::new(by_sender)))
}

/// What the runner rows do not reach: every link-fault plan (ledger
/// whole, `per_link` included), a `process_fate`, the three
/// stock faults that are more than silence (`Chaos`, and the engine
/// settings `Lossy` and `CrashAt`), and the rushing
/// attackers no runner uses (`EquivocatingSender`, `SplitVoteLeader`,
/// `LateHelperLeader` and the two `Wasteful*` leaders are pinned by the
/// runner rows above). A `Lossy` process's link layer bills the words it
/// drops to `byzantine`, where they were sent; the correct words and
/// rounds of its row are those of a sender that never spent them.
#[test]
fn fault_plan_ledgers_match_the_recorded_digests() {
    let clean = |n| vec![Fault::None; n];
    let with = |n, at: &[(usize, Fault)]| {
        let mut faults = vec![Fault::None; n];
        for &(i, f) in at {
            faults[i] = f;
        }
        faults
    };

    let drop =
        linked(weak_ba_actors(&[7; 5], &clean(5)), || Box::new(BernoulliDrop::new(0xb0, 0.05)));
    let delay =
        linked(weak_ba_actors(&[7; 5], &clean(5)), || Box::new(RandomDelay::new(0xde, 0.3, 3)));
    let sever_at = SeverAt::new(Link { from: ProcessId(0), to: ProcessId(1) }, 0);
    let sever = linked(bb_actors(0, 7, &clean(5)), move || Box::new(sever_at));
    let stack = linked(weak_ba_actors(&[7; 5], &clean(5)), link_plan);

    let fate = Some(crashes_at(&[(1, 3), (4, 12)]));
    let config =
        DesConfig { max_rounds: round_budget(7), process_fate: fate, ..DesConfig::default() };
    let crash = run_des_cluster(bb_actors(0, 7, &clean(7)), None, config).expect("valid config");
    let crash = scenario(&crash, false);

    let faults = with(7, &[(2, Fault::Chaos(0xc4))]);
    let chaos = faulted(bb_actors(0, 7, &faults), &faults);
    let faults = with(5, &[(3, Fault::Lossy(0x10))]);
    let lossy =
        scenario(&des(weak_ba_actors(&[7; 5], &faults), &faults, 0, &Timing::lockstep()), true);
    let faults = with(5, &[(1, Fault::CrashAt(3))]);
    let crash_actor = faulted(strong_ba_actors(StrongBa::new, &[true; 5], &faults), &faults);

    check(
        r#"
        weak BA n=5 BernoulliDrop: true 72 33 d5d3d6a135302b8e
        weak BA n=5 RandomDelay: true 74 33 2912f8c0a39bf002
        BB n=5 SeverAt p0->p1 r0: true 84 49 1d414bc30b34f604
        weak BA n=5 PolicyStack: true 528 71 bc143e54161ea60d
        BB n=7 crash_at p1@3 p4@12: true 1167 107 4320ae37eee7e26d
        BB n=7 Chaos: true 90 65 d285302866e44025
        weak BA n=5 Lossy: true 38 33 e21436fed2d984b2
        strong BA n=5 CrashAt(3): true 380 49 61e77e074cc81e70
        strong BA n=7 EquivocatingStrongLeader: true 618 53 b85e6da3366582f7
        recursive BA n=7 GaSplitEchoer: true 256 24 5b4ea63bb91eaeb3
        Dolev-Strong n=7 DsEquivocatingSender: true 144 5 652b989cc63500ac"#,
        &[
            ("weak BA n=5 BernoulliDrop", drop),
            ("weak BA n=5 RandomDelay", delay),
            ("BB n=5 SeverAt p0->p1 r0", sever),
            ("weak BA n=5 PolicyStack", stack),
            ("BB n=7 crash_at p1@3 p4@12", crash),
            ("BB n=7 Chaos", chaos),
            ("weak BA n=5 Lossy", lossy),
            ("strong BA n=5 CrashAt(3)", crash_actor),
            ("strong BA n=7 EquivocatingStrongLeader", equivocating_strong_leader()),
            ("recursive BA n=7 GaSplitEchoer", ga_split_echoer()),
            ("Dolev-Strong n=7 DsEquivocatingSender", ds_equivocating_sender()),
        ],
    );
}

/// Strong BA, n = 7: the Byzantine leader p0 certifies `true` to
/// {p1, p2, p3} and `false` to {p4, p5, p6}, whose inputs split the same
/// way.
fn equivocating_strong_leader() -> String {
    let n = 7;
    let faults = idle(n, &[0]);
    let actors = cluster(
        Family::STRONG_BA.config(n),
        Family::STRONG_BA.key_seed,
        &faults,
        |p| {
            let (factory, input) = (p.factory(), p.id.0 <= 3);
            LockstepAdapter::new(p.id, StrongBa::new(p.cfg, p.id, p.key, p.pki, factory, input))
        },
        |p, _| {
            let (a, b) = ((1..4).map(ProcessId).collect(), (4..7).map(ProcessId).collect());
            let leader = EquivocatingStrongLeader::new(
                p.cfg,
                p.id,
                p.pki.clone(),
                vec![p.key.clone()],
                a,
                b,
            );
            Some(Box::new(leader) as Box<dyn AnyActor<Msg = SbaM>>)
        },
    );
    faulted(actors, &faults)
}

/// The recursive fallback BA, n = 7, Byzantine {p1, p3, p5}: p1 echoes
/// split input certificates into the first graded agreement, signing
/// with the whole cohort, while p3 and p5 stay silent.
fn ga_split_echoer() -> String {
    let n = 7;
    let faults = idle(n, &[1, 3, 5]);
    let inputs = [10u64, 0, 10, 0, 20, 0, 20];
    let cfg = Family::STRONG_BA.config(n);
    let actors = cluster(
        cfg,
        Family::STRONG_BA.key_seed,
        &faults,
        |p| {
            let input = inputs[p.id.index()];
            LockstepAdapter::new(p.id, RecursiveBa::new(p.cfg, p.id, p.key, p.pki, input))
        },
        |p, keys| {
            let cohort = [1, 3, 5].map(|i: usize| keys[i].clone()).to_vec();
            let (a, b) = (vec![ProcessId(0), ProcessId(2)], vec![ProcessId(4), ProcessId(6)]);
            let inst = InstanceId::new(Scope::full(n), 0);
            let echoer = || {
                GaSplitEchoer::<u64, RecBaMsg<u64>>::new(
                    p.cfg,
                    p.id,
                    p.pki.clone(),
                    cohort,
                    inst,
                    10,
                    20,
                    a,
                    b,
                )
            };
            (p.id.0 == 1).then(|| Box::new(echoer()) as Box<dyn AnyActor<Msg = RecBaMsg<u64>>>)
        },
    );
    faulted(actors, &faults)
}

/// Dolev–Strong BB, n = 7: the Byzantine sender p0 signs 1 for
/// {p1, p2, p3} and 2 for {p4, p5, p6}.
fn ds_equivocating_sender() -> String {
    let n = 7;
    let (cfg, sender) = (Family::BB.config(n), ProcessId(0));
    let faults = idle(n, &[0]);
    let actors = cluster(
        cfg,
        Family::BB.key_seed,
        &faults,
        |p| {
            let ds = DolevStrongBb::<u64>::new(&p.cfg, sender, p.id, p.key, p.pki, None);
            LockstepAdapter::new(p.id, ds)
        },
        |p, _| {
            let (a, b) = ((1..4).map(ProcessId).collect(), (4..7).map(ProcessId).collect());
            let equivocator =
                DsEquivocatingSender::new(p.cfg, p.key.clone(), p.pki.clone(), 1u64, 2u64, a, b);
            Some(Box::new(equivocator) as Box<dyn AnyActor<Msg = DsBbMsg<u64>>>)
        },
    );
    faulted(actors, &faults)
}

/// An `n`-process fault vector with the processes in `byz` silent.
fn idle(n: usize, byz: &[usize]) -> Vec<Fault> {
    (0..n).map(|i| if byz.contains(&i) { Fault::Idle } else { Fault::None }).collect()
}

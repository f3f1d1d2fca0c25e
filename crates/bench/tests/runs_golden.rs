//! Golden table for the experiment runners: the exact numbers one run of
//! every lockstep runner in [`meba_bench::runs`] produces at small `n`.
//! The benches assert shapes (who wins, by what order); this pins the
//! totals, so a change to how a cluster is built, run or read back shows
//! up as a number. Recorded before the runners moved onto the testkit's
//! one cluster builder; none may move with it.

use meba_bench::runs::*;

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
    let base_scope = |n, base, crashes| format!("{:?}", run_base_scope(n, base, crashes));
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
    check(
        r#"
        split vote, naive quorum: (false, [Decision(100), Decision(100), Decision(200), Decision(200)])
        split vote, paper quorum: (true, [Decision(7), Decision(7), Decision(7), Decision(7)])
        late help, no window: (false, [Decision(20), Decision(10), Decision(10), Decision(10)])
        late help, 2δ window: (true, [Decision(20), Decision(20), Decision(20), Decision(20)])"#,
        &[
            ("split vote, naive quorum", format!("{:?}", run_split_vote_attack(true))),
            ("split vote, paper quorum", format!("{:?}", run_split_vote_attack(false))),
            ("late help, no window", format!("{:?}", run_late_help_attack(false))),
            ("late help, 2δ window", format!("{:?}", run_late_help_attack(true))),
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

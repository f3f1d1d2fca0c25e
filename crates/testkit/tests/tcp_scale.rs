//! Large-n BB over *real loopback sockets*: the readiness-driven mesh
//! must carry cluster sizes the thread-per-link design could not.
//!
//! The thread math is the whole point. An n-process in-host cluster on
//! the old mesh cost `n × (2(n-1) + 1)` I/O threads (a reader and a
//! writer per directed link, plus an acceptor) — about 20,000 threads at
//! n = 101, beyond practical limits. The reactor mesh costs one I/O
//! thread per process; with the engine's one protocol thread per
//! process, the whole cluster is O(n) OS threads, and these tests
//! *assert* that budget from `/proc/self/status` while the run is live.
//!
//! Word totals must match the deterministic DES backend exactly: moving
//! the same scenario onto sockets changes the transport, not what the
//! protocol pays (`docs/CORRECTNESS.md` §9–§11).
//!
//! Ignored in the default (debug) suite; `scripts/check.sh` runs them in
//! release, where an n = 101 run finishes in a few seconds.

use meba_core::SystemConfig;
use meba_engine::{ClusterConfig, ClusterReport};
use meba_testkit::{
    bb_actors, des, oracle, overrun_free, round_budget, with_thread_peak, BbProc, Fault, Timing,
};
use meba_wire::{raise_nofile_limit, run_tcp_cluster, TcpClusterConfig};
use std::sync::Mutex;
use std::time::Duration;

/// One scale run at a time: the harness runs this file's tests on
/// parallel threads of one process, and two meshes together need more
/// descriptors than a 20,000 nofile limit grants.
static ONE_MESH_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Descriptors an n-process in-host cluster holds: every directed link
/// is a socket on both ends (`2n(n-1)`), plus a listener and a wake pipe
/// per process and harness slack.
fn fds_needed(n: usize) -> u64 {
    (2 * n * (n - 1) + 4 * n + 512) as u64
}

fn scale_run(target_n: usize, floor_n: usize, delta: Duration, seed: u64) {
    // A failed run poisons the lock; the other run is still worth having.
    let _serial = ONE_MESH_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Ask for the full target; some sandboxes cap the *hard* nofile
    // limit below `2n(n-1)`, in which case the run sizes itself down to
    // the largest odd n the grant covers (still well past the old
    // thread-per-link mesh's reach) instead of failing on a limit the
    // test cannot change.
    let got = raise_nofile_limit(fds_needed(target_n));
    let mut n = target_n;
    while n > floor_n && fds_needed(n) > got {
        n -= 2;
    }
    assert!(
        fds_needed(n) <= got,
        "need {} file descriptors for even the n={floor_n} floor but only got {got}; \
         raise the nofile limit to run this test",
        fds_needed(floor_n),
    );
    if n < target_n {
        eprintln!(
            "tcp_scale: nofile limit {got} cannot hold n={target_n} \
             ({} descriptors); running n={n} instead",
            fds_needed(target_n),
        );
    }

    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 7u64);
    let des = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
    assert!(des.completed, "n={n} DES reference run must decide");
    let des = oracle::decided::<BbProc>(&des.actors, &des.metrics, &faults);
    des.assert_in_model();

    let system = SystemConfig::new(n, 0x5ca1e).unwrap();
    let decided = |r: &ClusterReport<_>| oracle::decided::<BbProc>(&r.actors, &r.metrics, &faults);
    let (tcp, peak_threads) = with_thread_peak(|| {
        overrun_free("scale BB", delta, |delta| {
            let config = TcpClusterConfig {
                cluster: ClusterConfig {
                    delta,
                    max_rounds: round_budget(n),
                    ..ClusterConfig::default()
                },
                dial_timeout: Duration::from_secs(120),
                ..TcpClusterConfig::default()
            };
            let tcp = run_tcp_cluster(bb_actors(sender, input, &faults), &system, config)
                .expect("loopback mesh establishes");
            decided(&tcp.report).assert_safe();
            tcp
        })
        .report
    });

    // An overrun-free run held the synchrony bound: it is inside the model.
    let socket = decided(&tcp.report);
    assert_eq!(
        socket, des,
        "decisions or correct word totals diverge between TCP and DES at n={n}"
    );
    assert_eq!(tcp.frames_dropped, 0, "a healthy run drops nothing");

    // The O(n) thread budget: engine thread + reactor thread per
    // process, plus coordinator/monitor/harness slack. The retired
    // thread-per-link mesh needed ~2n² threads and could not pass this.
    if peak_threads > 0 {
        let budget = 4 * n + 64;
        assert!(
            peak_threads <= budget,
            "n={n}: peak {peak_threads} OS threads exceeds O(n) budget {budget} \
             (thread-per-link regression?)"
        );
    }
}

/// Release-mode CI smoke: n = 65 over real sockets, word totals equal to
/// DES, O(n) threads.
#[test]
#[ignore = "release-mode scale smoke; executed by scripts/check.sh with --include-ignored"]
fn tcp_bb_n65_matches_des_with_linear_threads() {
    scale_run(65, 65, Duration::from_millis(25), 0x65);
}

/// The acceptance run: n = 101 (100+ real-socket processes in one host)
/// failure-free BB to decision, word totals equal to DES, O(n) threads.
/// On hosts whose hard nofile limit cannot hold `2n(n-1)` sockets the
/// run sizes itself down (largest odd n the grant covers, ≥ 65).
#[test]
#[ignore = "large-n acceptance run; executed in release by scripts/check.sh"]
fn tcp_bb_n101_matches_des_with_linear_threads() {
    scale_run(101, 65, Duration::from_millis(50), 0x101);
}

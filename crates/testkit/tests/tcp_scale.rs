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
use meba_engine::ClusterConfig;
use meba_testkit::{bb_actors, des, oracle, round_budget, BbProc, Fault, Timing};
use meba_wire::{raise_nofile_limit, run_tcp_cluster, TcpClusterConfig, TcpClusterReport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One scale run at a time: the harness runs this file's tests on
/// parallel threads of one process, and two meshes together need more
/// descriptors than a 20,000 nofile limit grants.
static ONE_MESH_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Current OS thread count of this process (Linux: authoritative from
/// procfs; elsewhere: 0, which disables the budget assertions).
fn current_threads() -> usize {
    if cfg!(target_os = "linux") {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Threads:").map(|v| v.trim().parse().ok()))
                    .flatten()
            })
            .unwrap_or(0)
    } else {
        0
    }
}

/// Samples the process's thread count every few milliseconds while `f`
/// runs and returns `(f's result, peak thread count observed)`.
fn with_thread_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(current_threads()));
    let monitor = {
        let stop = stop.clone();
        let peak = peak.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(current_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let out = f();
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("thread monitor");
    (out, peak.load(Ordering::Relaxed))
}

/// Retries a wall-clock TCP run with a widening δ until it completes
/// overrun-free (word equality with DES is only promised while the
/// synchrony assumption held — see `cross_runtime.rs`).
fn clean_tcp_run(
    label: &str,
    n: usize,
    sender: u32,
    input: u64,
    mut delta: Duration,
) -> TcpClusterReport<meba_testkit::BbM> {
    let faults = vec![Fault::None; n];
    let system = SystemConfig::new(n, 0x5ca1e).unwrap();
    for _ in 0..5 {
        let config = TcpClusterConfig {
            cluster: ClusterConfig {
                delta,
                max_rounds: round_budget(n),
                ..ClusterConfig::default()
            },
            dial_timeout: Duration::from_secs(120),
            ..TcpClusterConfig::default()
        };
        let report = run_tcp_cluster(bb_actors(sender, input, &faults), &system, config)
            .expect("loopback mesh establishes");
        if report.report.completed && report.report.overruns == 0 {
            return report;
        }
        delta *= 4;
    }
    panic!("{label}: no overrun-free run within the attempt budget");
}

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

    let (tcp, peak_threads) =
        with_thread_peak(|| clean_tcp_run("scale BB", n, sender, input, delta));

    let socket = oracle::decided::<BbProc>(&tcp.report.actors, &tcp.report.metrics, &faults);
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

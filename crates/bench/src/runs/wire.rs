//! E13 and E16: adaptive BB over real loopback TCP sockets — the byte
//! cost of the word-level protocol, and the thread/throughput profile of
//! the reactor mesh.

use super::idle_at;
use meba_core::SystemConfig;
use meba_engine::{ClusterConfig, OverrunAction};
use meba_testkit::{
    bb_actors, corrupt_ids, des, oracle, round_budget, BbProc, Family, Fault, Timing,
};
use meba_wire::{raise_nofile_limit, run_tcp_cluster, TcpClusterConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one loopback-TCP run (experiment E13).
#[derive(Clone, Debug)]
pub struct WireRunStats {
    /// System size.
    pub n: usize,
    /// Crashed processes.
    pub f: usize,
    /// Words sent by correct processes.
    pub words: u64,
    /// Canonical-codec bytes those words encoded to.
    pub bytes: u64,
    /// Frames that actually crossed sockets (self-delivery excluded).
    pub frames: u64,
    /// Bytes written to sockets, length prefixes included.
    pub socket_bytes: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Whether all correct decisions were equal.
    pub agreement: bool,
}

impl WireRunStats {
    /// Codec bytes per correct word.
    pub fn bytes_per_word(&self) -> f64 {
        self.bytes as f64 / self.words.max(1) as f64
    }

    /// Socket frames per executed round.
    pub fn frames_per_round(&self) -> f64 {
        self.frames as f64 / self.rounds.max(1) as f64
    }
}

/// Runs adaptive BB (sender `p0`, value 7) over real loopback TCP
/// sockets with `f` crashed followers, measuring the byte-level cost of
/// the word-level protocol (experiment E13).
pub fn run_wire_bb(n: usize, f: usize, delta: Duration) -> WireRunStats {
    let cfg = Family::BB.config(n);
    assert!(f <= cfg.t(), "f={f} exceeds t={}", cfg.t());
    let faults = idle_at(n, 1..=f);
    let config = TcpClusterConfig {
        cluster: ClusterConfig {
            delta,
            max_rounds: round_budget(n),
            corrupt: corrupt_ids(&faults),
            overrun_action: OverrunAction::Escalate {
                multiplier: 2,
                max_delta: Duration::from_millis(250),
            },
            ..ClusterConfig::default()
        },
        ..TcpClusterConfig::default()
    };
    let tcp = run_tcp_cluster(bb_actors(0, 7, &faults), &cfg, config)
        .expect("loopback TCP cluster established");
    let report = &tcp.report;
    assert!(report.completed, "wire run terminated");
    // δ escalates rather than overrunning, so the run stays in the model.
    oracle::decided::<BbProc>(&report.actors, &report.metrics, &faults).assert_in_model();
    WireRunStats {
        n,
        f,
        words: report.metrics.correct.words,
        bytes: report.metrics.correct.bytes,
        frames: tcp.frames_sent,
        socket_bytes: tcp.socket_bytes,
        rounds: report.rounds,
        agreement: true,
    }
}

/// Outcome of one reactor-mesh scale run (experiment E16: the thread and
/// throughput profile of the readiness-driven mesh over real loopback
/// sockets, against the analytic cost of the retired thread-per-link
/// design).
#[derive(Clone, Debug)]
pub struct MeshScaleStats {
    /// System size.
    pub n: usize,
    /// Words sent by correct processes over TCP.
    pub words: u64,
    /// Words sent by correct processes on the DES reference run (must
    /// equal `words` — same protocol, different transport).
    pub des_words: u64,
    /// Rounds executed by the TCP run.
    pub rounds: u64,
    /// Protocol rounds per wall-clock second of the TCP run.
    pub rounds_per_sec: f64,
    /// The δ of the reported run, in milliseconds: the requested δ, times
    /// 4 for each earlier attempt that overran or did not complete.
    pub delta_ms: u64,
    /// Runs it took to get one that completed overrun-free (1 = the
    /// requested δ held).
    pub attempts: u32,
    /// Peak OS threads observed in this process while the cluster was
    /// live (0 when procfs is unavailable).
    pub peak_threads: usize,
    /// Threads the retired thread-per-link mesh would have needed for the
    /// same in-host cluster: per process, a reader + writer per remote
    /// peer plus an acceptor, plus the engine thread.
    pub old_design_threads: usize,
    /// Whether every process decided the sender's value.
    pub agreement: bool,
}

serde::impl_serde_struct!(MeshScaleStats {
    n,
    words,
    des_words,
    rounds,
    rounds_per_sec,
    delta_ms,
    attempts,
    peak_threads,
    old_design_threads,
    agreement,
});

/// Current OS thread count of this process (Linux procfs; 0 elsewhere).
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

/// Runs failure-free adaptive BB (sender `p0`, value 7) over real
/// loopback TCP sockets on the readiness-driven mesh, sampling the
/// process's peak OS thread count while the cluster is live (experiment
/// E16). The DES reference run with the same scenario provides the word
/// total the socket run must reproduce.
///
/// Wall-clock runs retry with δ × 4 until one completes overrun-free,
/// since word equality is only promised while the synchrony assumption
/// held; the stats name the δ and attempt count of the reported run.
///
/// # Panics
///
/// Panics if the mesh cannot establish or no overrun-free run completes
/// within the attempt budget.
pub fn run_mesh_scale_bb(n: usize, delta: Duration, seed: u64) -> MeshScaleStats {
    // Every directed link is a socket on both ends, plus a listener and
    // a wake pipe per process and harness slack.
    raise_nofile_limit((2 * n * (n - 1) + 4 * n + 512) as u64);

    let faults = vec![Fault::None; n];
    let (sender, input) = (0u32, 7u64);
    let des = des(bb_actors(sender, input, &faults), &faults, seed, &Timing::lockstep());
    assert!(des.completed, "E16 n={n}: DES reference run must terminate");
    oracle::decided::<BbProc>(&des.actors, &des.metrics, &faults).assert_in_model();

    let system = SystemConfig::new(n, 0xe16).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(current_threads()));
    let monitor = {
        let (stop, peak) = (stop.clone(), peak.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(current_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let mut delta = delta;
    let mut outcome = None;
    for attempt in 1..=5u32 {
        let config = TcpClusterConfig {
            cluster: ClusterConfig {
                delta,
                max_rounds: round_budget(n),
                ..ClusterConfig::default()
            },
            dial_timeout: Duration::from_secs(120),
            ..TcpClusterConfig::default()
        };
        let started = Instant::now();
        let tcp = run_tcp_cluster(bb_actors(sender, input, &faults), &system, config)
            .expect("loopback mesh establishes");
        let elapsed = started.elapsed();
        if tcp.report.completed && tcp.report.overruns == 0 {
            outcome = Some((tcp, elapsed, delta, attempt));
            break;
        }
        delta *= 4;
    }
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("thread monitor");
    let (tcp, elapsed, delta, attempts) =
        outcome.unwrap_or_else(|| panic!("E16 n={n}: no overrun-free run in the attempt budget"));

    // An overrun-free run held the synchrony bound: it is inside the model,
    // where BB's validity rule is "every process decides the sender's
    // value".
    oracle::decided::<BbProc>(&tcp.report.actors, &tcp.report.metrics, &faults).assert_in_model();
    MeshScaleStats {
        n,
        words: tcp.report.metrics.correct.words,
        des_words: des.metrics.correct.words,
        rounds: tcp.report.rounds,
        rounds_per_sec: tcp.report.rounds as f64 / elapsed.as_secs_f64().max(1e-9),
        delta_ms: delta.as_millis() as u64,
        attempts,
        peak_threads: peak.load(Ordering::Relaxed),
        old_design_threads: n * (2 * (n - 1) + 1) + n,
        agreement: true,
    }
}

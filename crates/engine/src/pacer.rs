//! Wall-clock round pacing: when a round begins and whether it overran.
//!
//! The engine separates *what happens in a round* (the per-process driver
//! in [`crate::process`]) from *when rounds happen*. On the wall clock
//! that is a [`DeadlinePacer`]: δ-pacing with escalation, shared by the
//! threaded and TCP backends. Rounds start at real instants; processing
//! past a deadline is a synchrony overrun. (The discrete-event backend,
//! lockstep runs included, owns a virtual clock instead — nothing there
//! sleeps or overruns.)

use parking_lot::RwLock;
use std::fmt;
use std::time::{Duration, Instant};

/// Why a run was aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// Processing overran δ for `consecutive` coordinator rounds, meeting
    /// the configured `window`.
    SustainedOverruns {
        /// Consecutive overrunning rounds observed.
        consecutive: u32,
        /// The configured [`crate::ClusterConfig::overrun_window`].
        window: u32,
    },
    /// A worker thread waited unreasonably long for the coordinator to
    /// approve its next round — the coordinator stalled or died.
    CoordinatorStalled,
}

/// Structured diagnostic attached to an aborted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterDiagnostic {
    /// What went wrong.
    pub reason: AbortReason,
    /// Last round that was executed before the stop.
    pub round: u64,
    /// Total overruns observed at the time of the abort.
    pub overruns: u64,
    /// Effective δ when the run stopped.
    pub delta: Duration,
}

impl fmt::Display for ClusterDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            AbortReason::SustainedOverruns { consecutive, window } => write!(
                f,
                "aborted at round {}: {} consecutive overrunning rounds (window {}), \
                 {} total overruns, δ = {:?}",
                self.round, consecutive, window, self.overruns, self.delta
            ),
            AbortReason::CoordinatorStalled => write!(
                f,
                "aborted at round {}: coordinator stalled (δ = {:?}, {} overruns)",
                self.round, self.delta, self.overruns
            ),
        }
    }
}

/// One pacing regime: rounds from `from_round` on start at
/// `offset_ns + (r - from_round) · delta_ns` nanoseconds past the cluster
/// epoch. All arithmetic is `u128`, so no round index can truncate or
/// wrap the schedule.
#[derive(Clone, Copy)]
struct Segment {
    from_round: u64,
    offset_ns: u128,
    delta_ns: u128,
}

/// Wall-clock deadline schedule shared by all threads of a paced run;
/// escalations append segments.
pub struct DeadlinePacer {
    epoch: Instant,
    segments: RwLock<Vec<Segment>>,
}

impl DeadlinePacer {
    /// A schedule whose round 0 starts at `epoch`, with uniform δ until
    /// the first escalation.
    pub fn new(epoch: Instant, delta: Duration) -> Self {
        let seg = Segment { from_round: 0, offset_ns: 0, delta_ns: delta.as_nanos().max(1) };
        DeadlinePacer { epoch, segments: RwLock::new(vec![seg]) }
    }

    fn segment_for(&self, round: u64) -> Segment {
        let segments = self.segments.read();
        *segments.iter().rev().find(|s| s.from_round <= round).unwrap_or(&segments[0])
    }

    /// The wall-clock instant `ns` nanoseconds past the epoch.
    pub fn instant_at(&self, ns: u128) -> Instant {
        self.epoch + Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Nanoseconds elapsed since the epoch (0 while it is still ahead).
    pub fn elapsed_ns(&self) -> u128 {
        Instant::now().saturating_duration_since(self.epoch).as_nanos()
    }

    /// Wall-clock start of `round` (== deadline of `round - 1`).
    pub fn round_start(&self, round: u64) -> Instant {
        let s = self.segment_for(round);
        self.instant_at(s.offset_ns + u128::from(round - s.from_round) * s.delta_ns)
    }

    /// Re-paces rounds from `from_round` on with `new_delta`. Rounds
    /// before `from_round` keep their schedule, so already-approved
    /// deadlines never move.
    pub fn escalate(&self, from_round: u64, new_delta: Duration) {
        let mut segments = self.segments.write();
        let last = *segments.last().expect("pacer always has a segment");
        debug_assert!(from_round >= last.from_round);
        let offset_ns = last.offset_ns + u128::from(from_round - last.from_round) * last.delta_ns;
        segments.push(Segment { from_round, offset_ns, delta_ns: new_delta.as_nanos().max(1) });
    }

    /// Effective δ for `round`.
    pub fn delta_at(&self, round: u64) -> Duration {
        let ns = self.segment_for(round).delta_ns;
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Blocks the caller until `round` may begin.
    pub fn wait_for_round(&self, round: u64) {
        let start = self.round_start(round);
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
    }

    /// Whether the current moment is already past the deadline of
    /// `round` — i.e. a synchrony overrun.
    pub fn overran(&self, round: u64) -> bool {
        Instant::now() > self.round_start(round + 1)
    }
}

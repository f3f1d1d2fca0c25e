//! Wall-clock round pacing: when a round begins and whether it overran.
//!
//! The engine separates *what happens in a round* (the per-process driver
//! in [`crate::process`]) from *when rounds happen*. On the wall clock
//! that is a [`DeadlinePacer`]: one fixed δ, shared by the threaded and
//! TCP backends. Rounds start at real instants; processing past a
//! deadline is a synchrony overrun, which the run counts and never
//! repairs: a run with any overrun left Lemma 18's `delay + skew <
//! round`, and only a rerun at a wider δ is back inside the model (see
//! `meba_testkit::overrun_free`). (The discrete-event backend,
//! lockstep runs included, owns a virtual clock instead — nothing there
//! sleeps or overruns.)

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
    /// The run's δ.
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

/// Wall-clock deadline schedule shared by all threads of a paced run:
/// round `r` starts `r · δ` past the epoch, in `u128` nanoseconds, so no
/// round index can truncate or wrap the schedule.
pub struct DeadlinePacer {
    epoch: Instant,
    delta: Duration,
}

impl DeadlinePacer {
    /// A schedule whose round 0 starts at `epoch`, one round every
    /// `delta` (at least 1 ns).
    pub fn new(epoch: Instant, delta: Duration) -> Self {
        DeadlinePacer { epoch, delta: delta.max(Duration::from_nanos(1)) }
    }

    /// The round duration δ.
    pub fn delta(&self) -> Duration {
        self.delta
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
        self.instant_at(u128::from(round) * self.delta.as_nanos())
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

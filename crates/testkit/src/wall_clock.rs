//! The one way a wall-clock run claims to be inside the model.
//!
//! The paper's word bounds and validity hold only under Lemma 18's
//! `delay + skew < round`. δ is fixed for a whole threaded or TCP run, so
//! a run the engine counted one overrun in ([`ClusterReport::overruns`])
//! is outside the model for good. [`overrun_free`] reruns it at 4δ. The
//! `run` closure checks safety (`Decided::assert_safe`, or
//! [`crate::oracle::service`]'s checks) on every attempt, discarded ones
//! included; in-model checks — `assert_in_model`, `fell_back`, words equal
//! to the DES, a ⊥-free prefix — are the caller's, on the kept run only.

use meba_engine::ClusterReport;
use meba_sim::Message;
use meba_wire::TcpClusterReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs [`overrun_free`] makes before it gives up.
const ATTEMPTS: u32 = 5;

/// What the `run` closure of [`overrun_free`] returns: a threaded or TCP
/// cluster report, or either paired with what the attempt's checks found.
pub trait WallClockRun {
    /// The run's message type.
    type Msg: Message;
    /// The engine's report of the run.
    fn cluster_report(&self) -> &ClusterReport<Self::Msg>;
}

impl<M: Message> WallClockRun for ClusterReport<M> {
    type Msg = M;
    fn cluster_report(&self) -> &ClusterReport<M> {
        self
    }
}

impl<M: Message> WallClockRun for TcpClusterReport<M> {
    type Msg = M;
    fn cluster_report(&self) -> &ClusterReport<M> {
        &self.report
    }
}

impl<R: WallClockRun, X> WallClockRun for (R, X) {
    type Msg = R::Msg;
    fn cluster_report(&self) -> &ClusterReport<R::Msg> {
        self.0.cluster_report()
    }
}

/// The run [`overrun_free`] kept, with the δ it ran at and the attempt
/// that produced it (1 = the requested δ held).
#[derive(Debug)]
pub struct OverrunFree<R> {
    /// What the kept attempt's `run` returned.
    pub report: R,
    /// The δ the kept attempt ran at.
    pub delta: Duration,
    /// Attempts made, the kept one included.
    pub attempts: u32,
}

/// Runs `run(δ)` and keeps the first attempt the engine counted no
/// overrun in; an attempt that overran is discarded and rerun at δ × 4, up
/// to 5 attempts. Only a counted overrun earns a rerun.
///
/// # Panics
///
/// Panics, naming `label`, if an overrun-free attempt did not complete or
/// no attempt was overrun-free. A panic of `run` — a safety check failing
/// on an attempt about to be discarded included — is raised again at once,
/// its message prefixed with `label`, the attempt number and δ.
pub fn overrun_free<R: WallClockRun>(
    label: &str,
    mut delta: Duration,
    mut run: impl FnMut(Duration) -> R,
) -> OverrunFree<R> {
    for attempts in 1..=ATTEMPTS {
        let report = match catch_unwind(AssertUnwindSafe(|| run(delta))) {
            Ok(report) => report,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("(a non-string panic)");
                panic!("{label}: attempt {attempts} at δ = {delta:?} panicked: {msg}");
            }
        };
        let r = report.cluster_report();
        if r.overruns == 0 {
            assert!(r.completed, "{label}: an overrun-free run at δ = {delta:?} did not complete");
            return OverrunFree { report, delta, attempts };
        }
        delta *= 4;
    }
    panic!("{label}: no overrun-free run in {ATTEMPTS} attempts (last δ = {:?})", delta / 4);
}

/// Runs `f` while sampling this process's OS thread count every 5 ms, and
/// returns its result with the peak count seen (0 where procfs is
/// unavailable, which disables any thread budget).
pub fn with_thread_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    fn current_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let count = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        count.and_then(|v| v.trim().parse().ok()).unwrap_or(0)
    }
    // Not a scoped thread: if `f` panics, the monitor is left running and
    // the panic propagates, where a scope would wait for it forever.
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
    let out = f();
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("thread monitor");
    (out, peak.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BbM;
    use meba_sim::Metrics;

    const BASE: Duration = Duration::from_millis(2);

    /// A report the fake `run` closures return: no actors, no traffic.
    fn report(completed: bool, overruns: u64) -> ClusterReport<BbM> {
        ClusterReport {
            metrics: Metrics::default(),
            rounds: 40,
            actors: Vec::new(),
            completed,
            overruns,
            backpressure: 0,
            aborted: None,
        }
    }

    /// Runs [`overrun_free`] over `attempt`'s fake runs until it panics:
    /// the attempts it made, and the panic message.
    fn panics(label: &str, mut attempt: impl FnMut() -> ClusterReport<BbM>) -> (u32, String) {
        let mut calls = 0;
        let run = || {
            overrun_free(label, BASE, |_| {
                calls += 1;
                attempt()
            })
        };
        let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
        let msg = err.downcast_ref::<&str>().map(|s| s.to_string());
        (calls, msg.or_else(|| err.downcast_ref::<String>().cloned()).unwrap_or_default())
    }

    #[test]
    fn overrunning_attempts_rerun_at_four_delta_until_one_is_clean() {
        let mut asked = Vec::new();
        let kept = overrun_free("fake", BASE, |delta| {
            asked.push(delta);
            let overruns = [3, 1, 0][asked.len() - 1];
            (report(true, overruns), asked.len())
        });
        assert_eq!(asked, [BASE, BASE * 4, BASE * 16]);
        assert_eq!((kept.attempts, kept.delta, kept.report.1), (3, BASE * 16, 3));
    }

    #[test]
    fn a_safety_violation_on_a_discarded_attempt_panics_at_once() {
        let (calls, msg) = panics("fake", || {
            let attempt = report(true, 2);
            // The closure's safety check fails on a run the helper would
            // discard for its overruns.
            let agreed = false;
            assert!(agreed, "agreement: p0 and p2 decided differently");
            attempt
        });
        assert_eq!(
            (calls, msg.as_str()),
            (1, "fake: attempt 1 at δ = 2ms panicked: agreement: p0 and p2 decided differently")
        );
    }

    #[test]
    fn a_panicking_attempt_is_named_by_its_label_number_and_delta() {
        let mut overruns = [5, 2].into_iter();
        let (calls, msg) = panics("E99 n=5", || {
            let Some(overruns) = overruns.next() else {
                panic!("slot {} diverges: replica 2 applied another value than 1", 3)
            };
            report(true, overruns)
        });
        assert_eq!(calls, 3);
        assert_eq!(
            msg,
            "E99 n=5: attempt 3 at δ = 32ms panicked: slot 3 diverges: replica 2 applied \
             another value than 1"
        );
    }

    #[test]
    fn an_exhausted_budget_panics_with_the_label() {
        let (calls, msg) = panics("E99 n=5", || report(true, 1));
        assert_eq!(calls, ATTEMPTS);
        assert!(msg.starts_with("E99 n=5: no overrun-free run in 5 attempts"), "{msg}");
    }

    #[test]
    fn an_overrun_free_run_that_did_not_complete_is_not_rerun() {
        let (calls, msg) = panics("stuck", || report(false, 0));
        assert_eq!(calls, 1);
        assert!(msg.starts_with("stuck: an overrun-free run"), "{msg}");
    }
}

//! Round drivers: *why* a process advances into its next round.
//!
//! Each process owns a [`RoundDriver`] and advances from round `r` to
//! `r + 1` when the **first** of two local events fires:
//!
//! * **Quorum** — deliveries from at least `quorum()` distinct senders
//!   carrying `sent_round ≥ r` have arrived (self-delivery counts). The
//!   process has everything the protocol's quorum logic can use from
//!   round `r`, so waiting out the timer only adds latency.
//! * **Timeout** — the local round timer (the configured δ-estimate)
//!   expires. This is the synchrony fallback, and the only trigger in
//!   silent rounds, where fewer than a quorum of processes send at all —
//!   the common case for the adaptive protocols, whose whole point is
//!   rounds with `O(1)` senders.
//!
//! [`RoundDriverConfig::Lockstep`] is plain synchrony: the deadline is
//! the *global* schedule `r · δ` (not relative to the process's own
//! progress) and no quorum advancement happens.
//! [`RoundDriverConfig::QuorumOrTimeout`] is the partial-synchrony mode;
//! its `timeout_factor` expresses a *mis-*estimated δ (the E17 sweep
//! runs it from 0.25× to 4× of the true network δ). Every backend — the
//! threaded cluster, the standalone TCP mesh drive, and the
//! discrete-event loop — applies the rule through the one
//! [`RoundDriver`] state machine below; only the clock differs.
//!
//! Safety note (argued in `docs/CORRECTNESS.md` §12): early advancement
//! never forges or drops information. A message sent in round `r`
//! becomes admissible the moment its receiver's round counter exceeds
//! `r` — the `sent_round < round` admission rule of
//! [`EngineProcess::step`](crate::EngineProcess::step) buffers early arrivals and admits late
//! ones, independent of *when* either process's clock said the round
//! happened. Quorum intersection arguments therefore survive unchanged;
//! what degrades under a wrong δ-estimate is performance (help traffic,
//! fallback activation), which is exactly what E17 measures.

use crate::pacer::DeadlinePacer;
use meba_sim::metrics::AdvanceStats;
use std::time::{Duration, Instant};

/// Why a process advanced into a round. Recorded per advance in
/// [`AdvanceStats`] (surfaced in `Metrics::advance`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceCause {
    /// A quorum of distinct prior-round senders had already arrived.
    QuorumReached,
    /// The local round timer fired without quorum.
    TimeoutFired,
}

impl AdvanceCause {
    /// Tallies this advance into a run's [`AdvanceStats`].
    pub fn record(self, stats: &mut AdvanceStats) {
        self.record_many(stats, 1);
    }

    /// Tallies `count` advances with this cause at once — the rounds a
    /// sparse schedule jumped over, which all advanced the same way.
    pub fn record_many(self, stats: &mut AdvanceStats, count: u64) {
        match self {
            AdvanceCause::QuorumReached => stats.quorum += count,
            AdvanceCause::TimeoutFired => stats.timeout += count,
        }
    }
}

/// Serializable description of a round driver, carried by
/// [`crate::ClusterConfig`] and [`crate::DesConfig`]. Resolved against
/// `n` and the backend's δ at run start.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RoundDriverConfig {
    /// Every process advances exactly at the global schedule `r · δ`
    /// (wall clock or virtual). No quorum advancement; advance causes
    /// are still *recorded* (was quorum satisfied at the deadline?) but
    /// never change the schedule.
    #[default]
    Lockstep,
    /// Event-driven partial synchrony: advance on quorum or local
    /// timeout, whichever fires first.
    QuorumOrTimeout {
        /// Distinct senders (including self) required for early
        /// advancement. `None` resolves to [`default_quorum`]`(n)` =
        /// `n - t` with `t = ⌊(n-1)/2⌋`.
        quorum: Option<usize>,
        /// The δ-estimate as a multiple of the backend's configured δ.
        /// `1.0` is a perfect estimate; `0.5` and `2.0` are the
        /// mis-estimation bounds of the acceptance criteria; the E17
        /// sweep runs 0.25–4.0.
        timeout_factor: f64,
    },
}

impl RoundDriverConfig {
    /// The partial-synchrony driver with defaults: protocol quorum,
    /// perfect δ-estimate.
    pub fn quorum_or_timeout() -> Self {
        RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 1.0 }
    }

    /// Whether this is the lockstep (global-schedule) driver.
    pub fn is_lockstep(&self) -> bool {
        matches!(self, RoundDriverConfig::Lockstep)
    }

    /// The effective quorum for cause *recording* and (in
    /// `QuorumOrTimeout` mode) early advancement.
    pub fn effective_quorum(&self, n: usize) -> usize {
        match self {
            RoundDriverConfig::Lockstep => default_quorum(n),
            RoundDriverConfig::QuorumOrTimeout { quorum, .. } => {
                quorum.unwrap_or_else(|| default_quorum(n))
            }
        }
    }

    /// The local round-timer length in nanoseconds for a backend whose
    /// true δ is `delta_ns` (≥ 1 so virtual time always progresses).
    pub fn timeout_ns(&self, delta_ns: u64) -> u64 {
        match self {
            RoundDriverConfig::Lockstep => delta_ns,
            RoundDriverConfig::QuorumOrTimeout { timeout_factor, .. } => {
                ((delta_ns as f64 * timeout_factor).clamp(1.0, u64::MAX as f64)) as u64
            }
        }
    }

    /// Validates the knobs that no backend can honor, for a cluster of
    /// `n` processes.
    ///
    /// # Errors
    ///
    /// * [`DriverConfigError::TimeoutFactorInvalid`] — a `timeout_factor`
    ///   that is not a finite positive number has no timer schedule at
    ///   all.
    /// * [`DriverConfigError::QuorumOutOfRange`] — an explicit `quorum`
    ///   that is ≤ 1 when `n > 1` (the process satisfies it alone, since
    ///   self always counts, and sprints through every round at one
    ///   instant) or `> n` (it can never fire, silently degrading to
    ///   timeout-only).
    pub fn validate(&self, n: usize) -> Result<(), DriverConfigError> {
        let RoundDriverConfig::QuorumOrTimeout { quorum, timeout_factor } = *self else {
            return Ok(());
        };
        if !(timeout_factor.is_finite() && timeout_factor > 0.0) {
            return Err(DriverConfigError::TimeoutFactorInvalid { timeout_factor });
        }
        match quorum {
            Some(quorum) if (quorum <= 1 && n > 1) || quorum > n => {
                Err(DriverConfigError::QuorumOutOfRange { quorum, n })
            }
            _ => Ok(()),
        }
    }
}

/// A [`RoundDriverConfig`] no backend can honor.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverConfigError {
    /// `timeout_factor` must be a finite number `> 0` — the local round
    /// timer is `timeout_factor · δ`, and a zero, negative, or NaN
    /// timer has no meaning on any timeline.
    TimeoutFactorInvalid {
        /// The rejected value.
        timeout_factor: f64,
    },
    /// An explicit `quorum` must lie in `2..=n` (or be exactly 1 when
    /// `n = 1`): the process itself always counts toward it.
    QuorumOutOfRange {
        /// The rejected value.
        quorum: usize,
        /// The cluster size it was checked against.
        n: usize,
    },
}

impl std::fmt::Display for DriverConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverConfigError::TimeoutFactorInvalid { timeout_factor } => write!(
                f,
                "timeout_factor = {timeout_factor} is invalid: the local round timer \
                 is timeout_factor \u{b7} \u{3b4} and must be a finite positive length"
            ),
            DriverConfigError::QuorumOutOfRange { quorum, n } => write!(
                f,
                "quorum = {quorum} is out of range for n = {n}: a process counts itself, \
                 so a quorum \u{2264} 1 is met alone and one > n is never met"
            ),
        }
    }
}

impl std::error::Error for DriverConfigError {}

/// Cap on late-delivery backoff doublings: a timer already 2¹⁶ × the
/// δ-estimate has exhausted any plausible mis-estimate, and capping the
/// shift keeps the `u64` arithmetic saturating instead of wrapping.
const SHIFT_CAP: u32 = 16;

/// Sleep between readiness polls while a wall-clock process waits for
/// quorum or its deadline.
const POLL_GRANULE: Duration = Duration::from_micros(100);

/// One process's quorum-or-timeout state machine over a `u128`
/// nanosecond timeline: the effective quorum, the late-delivery backoff
/// shift, and the scheduled-deadline anchor of its local round grid.
/// Virtual-time backends call [`Self::next_deadline`], [`Self::cause`]
/// and [`Self::observe`] from their event loop; wall-clock backends call
/// [`Self::wait_for_round`], which wraps the same three around a sleep.
#[derive(Clone, Debug)]
pub struct RoundDriver {
    config: RoundDriverConfig,
    quorum: usize,
    decay: bool,
    shift: u32,
    anchor_ns: u128,
}

impl RoundDriver {
    fn new(config: &RoundDriverConfig, n: usize, start_ns: u128, decay: bool) -> Self {
        let quorum = config.effective_quorum(n);
        RoundDriver { config: *config, quorum, decay, shift: 0, anchor_ns: start_ns }
    }

    /// A driver on a virtual timeline whose round 0 starts at
    /// `start_ns`. Backoff only ratchets up (see [`Self::observe`]).
    pub fn virtual_time(config: &RoundDriverConfig, n: usize, start_ns: u128) -> Self {
        Self::new(config, n, start_ns, false)
    }

    /// A driver on the wall clock, in nanoseconds since its
    /// [`DeadlinePacer`]'s epoch. Backoff ratchets up and decays (see
    /// [`Self::observe`]).
    pub fn wall_clock(config: &RoundDriverConfig, n: usize) -> Self {
        Self::new(config, n, 0, true)
    }

    /// Why a process holding deliveries from `ready_senders()` distinct
    /// senders (see [`crate::EngineProcess::ready_senders`]) may enter
    /// `round` right now. Round 0 has no prior round to hold a quorum
    /// from, so the count is not even taken there.
    pub fn cause(&self, round: u64, ready_senders: impl FnOnce() -> usize) -> AdvanceCause {
        if round >= 1 && ready_senders() >= self.quorum {
            AdvanceCause::QuorumReached
        } else {
            AdvanceCause::TimeoutFired
        }
    }

    /// The local-timer deadline of the round after the one executing at
    /// `now`, for a backend whose current δ is `delta_ns`: one
    /// (backed-off) timeout after the executing round's *scheduled*
    /// deadline — not after `now` — clamped to at most one timeout ahead
    /// of `now`. Anchoring on the schedule keeps quorum advancement from
    /// compressing the local grid (an early execution must not steal the
    /// margin the next round's timer needed); the clamp re-paces a
    /// process that just quorum-caught-up through a backlog or ran a
    /// slow round (its stale grid would otherwise stall it).
    pub fn next_deadline(&mut self, now: u128, delta_ns: u64) -> u128 {
        let timeout = u128::from(self.config.timeout_ns(delta_ns).saturating_mul(1 << self.shift));
        self.anchor_ns = self.anchor_ns.max(now).min(now + timeout) + timeout;
        self.anchor_ns
    }

    /// Adapts the backoff shift after one executed round that admitted
    /// `late_admitted` deliveries which had already missed their
    /// intended round (`sent_round + 1 < round`, see
    /// [`crate::StepStatus::late_admitted`]). Late
    /// traffic proves the local timer outpaced the network — the
    /// δ-estimate is too small, quorum advancement drifted this process
    /// ahead of a peer, or GST has not been reached — so the timer
    /// doubles (once per such round, up to 2¹⁶×) and any finite
    /// underestimate self-corrects after `O(log(δ/estimate))` rounds.
    ///
    /// What a *clean* round does differs by clock, deliberately:
    ///
    /// * **Wall clock: decay.** The shift walks back down one doubling
    ///   per clean round. A replica restarted as a fresh OS process
    ///   re-enters at round 0, and until it reaches the frontier every
    ///   message it sends is admitted late at its peers; without decay
    ///   that one rejoin burst pins every peer's timer at the cap for
    ///   good. Persistent lateness still holds the shift up.
    /// * **Virtual time: ratchet only.** With decay, the DES's 4×
    ///   overestimate scenario (`timing_chaos`) no longer completes.
    ///
    /// Neither rule is known to be right for both; the real fix is to
    /// characterise the liveness envelope, starting from E17's
    /// non-monotone completion (EXPERIMENTS.md, E17, measured by
    /// `crates/bench/benches/timing_sweep.rs`). Until then the rule is
    /// chosen here, by constructor, and nowhere else. (Under lockstep
    /// the shift is inert: nothing asks for a local deadline, because
    /// lateness against the global schedule is the scenario under test,
    /// not a pacing error.)
    pub fn observe(&mut self, late_admitted: u64) {
        if late_admitted > 0 {
            self.shift = (self.shift + 1).min(SHIFT_CAP);
        } else if self.decay {
            self.shift = self.shift.saturating_sub(1);
        }
    }

    /// Blocks a wall-clock process until it may enter `round` and says
    /// why. Lockstep: until `pacer`'s global schedule. Event-driven:
    /// until `ready_senders()` reaches the quorum or the local
    /// [`Self::next_deadline`] passes, polling every 100 µs.
    ///
    /// (Polling `ready_senders` drains the transport early, which is
    /// safe: admission partitions by `sent_round` inside the round
    /// step, so *when* a delivery is pulled off the transport never
    /// changes *what* is admitted.)
    pub fn wait_for_round(
        &mut self,
        pacer: &DeadlinePacer,
        round: u64,
        mut ready_senders: impl FnMut() -> usize,
    ) -> AdvanceCause {
        if self.config.is_lockstep() {
            pacer.wait_for_round(round);
            return self.cause(round, ready_senders);
        }
        let delta_ns = u64::try_from(pacer.delta().as_nanos()).unwrap_or(u64::MAX);
        let deadline = pacer.instant_at(self.next_deadline(pacer.elapsed_ns(), delta_ns));
        loop {
            if self.cause(round, &mut ready_senders) == AdvanceCause::QuorumReached {
                return AdvanceCause::QuorumReached;
            }
            let now = Instant::now();
            if now >= deadline {
                return AdvanceCause::TimeoutFired;
            }
            std::thread::sleep((deadline - now).min(POLL_GRANULE));
        }
    }
}

/// The paper's quorum: `n - t` with `t = ⌊(n-1)/2⌋`. Since `n ≥ 2t + 1`
/// this gives `n - t ≥ t + 1`, so every quorum contains at least one
/// correct process and any two quorums intersect (in `≥ n - 2t ≥ 1`
/// processes — the honest-majority intersection the paper's certificate
/// arguments rest on). For n = 1 this is 1 — a process alone is its own
/// quorum.
pub fn default_quorum(n: usize) -> usize {
    n - n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quorum_contains_a_correct_process_and_intersects() {
        for n in 1..=257usize {
            let t = n.saturating_sub(1) / 2;
            let q = default_quorum(n);
            assert_eq!(q, n - t);
            // Every quorum outnumbers the faulty processes…
            assert!(q > t, "quorum majority-correct at n = {n}");
            // …and any two quorums overlap in ≥ 2q - n ≥ 1 processes.
            assert!(2 * q > n, "quorum intersection at n = {n}");
        }
    }

    #[test]
    fn lockstep_timeout_is_the_backend_delta() {
        assert_eq!(RoundDriverConfig::Lockstep.timeout_ns(1_000_000), 1_000_000);
        assert_eq!(RoundDriverConfig::Lockstep.effective_quorum(7), 4);
        assert!(RoundDriverConfig::Lockstep.validate(7).is_ok());
    }

    #[test]
    fn quorum_or_timeout_scales_the_timer_and_resolves_quorum() {
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 0.5 };
        assert_eq!(d.timeout_ns(1_000_000), 500_000);
        assert_eq!(d.effective_quorum(7), 4);
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: Some(7), timeout_factor: 4.0 };
        assert_eq!(d.timeout_ns(1_000_000), 4_000_000);
        assert_eq!(d.effective_quorum(7), 7);
        // Tiny factors clamp to ≥ 1 ns so virtual time always advances.
        let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: 1e-12 };
        assert_eq!(d.timeout_ns(10), 1);
    }

    /// One row of the driver table: the backoff observation fed in
    /// before the round executing at `now` asks for its successor's
    /// deadline (`None` = the round did not execute, e.g. the first).
    struct Row {
        late: Option<u64>,
        now: u128,
        shift: u32,
        deadline: u128,
        why: &'static str,
    }

    fn row(late: Option<u64>, now: u128, shift: u32, deadline: u128, why: &'static str) -> Row {
        Row { late, now, shift, deadline, why }
    }

    fn check(mut driver: RoundDriver, delta_ns: u64, rows: &[Row]) {
        for (i, r) in rows.iter().enumerate() {
            if let Some(late) = r.late {
                driver.observe(late);
            }
            assert_eq!(driver.shift, r.shift, "row {i} shift: {}", r.why);
            assert_eq!(driver.next_deadline(r.now, delta_ns), r.deadline, "row {i}: {}", r.why);
        }
    }

    #[test]
    fn round_driver_table_anchor_clamp_and_both_backoff_rules() {
        let cfg = RoundDriverConfig::quorum_or_timeout();
        // Timer 1000 ns, first round scheduled at 500 (a skewed start).
        // The grid and clamp are clock-independent, so the wall-clock
        // constructor (start 0) is not re-run on these rows.
        check(
            RoundDriver::virtual_time(&cfg, 5, 500),
            1_000,
            &[
                row(None, 500, 0, 1_500, "on schedule: one timeout after the anchor"),
                row(Some(0), 900, 0, 2_500, "early quorum advance keeps the grid"),
                row(Some(0), 2_700, 0, 3_700, "slow round re-anchors on now"),
                row(Some(0), 2_800, 0, 4_700, "grid again"),
                row(Some(0), 2_800, 0, 4_800, "catch-up burst: at most one timeout ahead of now"),
                row(Some(0), 2_800, 0, 4_800, "…and stays clamped"),
            ],
        );
        // Ratchet-only (virtual time): late rounds double, clean rounds hold.
        check(
            RoundDriver::virtual_time(&cfg, 5, 0),
            1_000,
            &[
                row(Some(3), 0, 1, 2_000, "late traffic doubles the timer"),
                row(Some(1), 2_000, 2, 6_000, "once per late round, however many arrivals"),
                row(Some(0), 6_000, 2, 10_000, "a clean round does not decay on virtual time"),
                row(Some(0), 10_000, 2, 14_000, "…ever"),
            ],
        );
        // Ratchet + decay (wall clock): clean rounds walk it back down.
        check(
            RoundDriver::wall_clock(&cfg, 5),
            1_000,
            &[
                row(Some(3), 0, 1, 2_000, "late traffic doubles the timer"),
                row(Some(1), 2_000, 2, 6_000, "and again"),
                row(Some(0), 6_000, 1, 8_000, "a clean round halves it"),
                row(Some(0), 8_000, 0, 9_000, "back to the estimate"),
                row(Some(0), 9_000, 0, 10_000, "and saturates at zero"),
                row(Some(1), 10_000, 1, 12_000, "alternating lateness oscillates…"),
                row(Some(0), 12_000, 0, 13_000, "…instead of ratcheting"),
            ],
        );
    }

    #[test]
    fn backoff_shift_caps_and_the_multiply_saturates() {
        for mut driver in [
            RoundDriver::virtual_time(&RoundDriverConfig::quorum_or_timeout(), 5, 0),
            RoundDriver::wall_clock(&RoundDriverConfig::quorum_or_timeout(), 5),
        ] {
            for _ in 0..SHIFT_CAP + 40 {
                driver.observe(1);
            }
            assert_eq!(driver.shift, SHIFT_CAP, "persistent lateness holds at the cap");
            assert_eq!(driver.next_deadline(0, 1_000), 65_536_000);
            // u64::MAX / 2 · 2¹⁶ saturates to u64::MAX instead of wrapping.
            let now = u128::from(u64::MAX);
            assert_eq!(driver.next_deadline(now, u64::MAX / 2), 2 * now);
        }
    }

    #[test]
    fn cause_needs_a_prior_round_and_the_effective_quorum() {
        let cfg = RoundDriverConfig::QuorumOrTimeout { quorum: Some(3), timeout_factor: 1.0 };
        let driver = RoundDriver::virtual_time(&cfg, 5, 0);
        let mut stats = AdvanceStats::default();
        for (round, ready, want) in [
            (0, 5, AdvanceCause::TimeoutFired), // nothing precedes round 0
            (1, 2, AdvanceCause::TimeoutFired),
            (1, 3, AdvanceCause::QuorumReached),
            (9, 5, AdvanceCause::QuorumReached),
        ] {
            let cause = driver.cause(round, || ready);
            assert_eq!(cause, want, "round {round}, {ready} ready senders");
            cause.record(&mut stats);
        }
        assert_eq!(stats, AdvanceStats { quorum: 2, timeout: 2 });
        // Lockstep records against the protocol quorum n − t.
        let lockstep = RoundDriver::wall_clock(&RoundDriverConfig::Lockstep, 7);
        assert_eq!(lockstep.cause(1, || 3), AdvanceCause::TimeoutFired);
        assert_eq!(lockstep.cause(1, || 4), AdvanceCause::QuorumReached);
    }

    #[test]
    fn wall_clock_wait_returns_on_quorum_or_at_the_deadline() {
        let delta = Duration::from_millis(20);
        let started = Instant::now();
        let pacer = DeadlinePacer::new(started, delta);
        let mut driver = RoundDriver::wall_clock(&RoundDriverConfig::quorum_or_timeout(), 3);
        assert_eq!(driver.wait_for_round(&pacer, 1, || 2), AdvanceCause::QuorumReached);
        assert_eq!(driver.wait_for_round(&pacer, 2, || 1), AdvanceCause::TimeoutFired);
        // Round 1 was scheduled at δ; its successor's timer runs to 2δ.
        assert!(started.elapsed() >= 2 * delta, "timeout waited out the local grid");
    }

    #[test]
    fn invalid_factors_and_degenerate_quorums_are_rejected_typed() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let d = RoundDriverConfig::QuorumOrTimeout { quorum: None, timeout_factor: bad };
            let err = d.validate(5).unwrap_err();
            match err {
                DriverConfigError::TimeoutFactorInvalid { timeout_factor } => {
                    assert!(timeout_factor.is_nan() || timeout_factor == bad);
                }
                ref other => panic!("unexpected error {other:?}"),
            }
            assert!(err.to_string().contains("timeout_factor"));
        }
        let with = |q| RoundDriverConfig::QuorumOrTimeout { quorum: Some(q), timeout_factor: 1.0 };
        for (quorum, n) in [(0, 5), (1, 5), (6, 5), (1, 2), (2, 1)] {
            let err = with(quorum).validate(n).unwrap_err();
            assert_eq!(err, DriverConfigError::QuorumOutOfRange { quorum, n });
            assert!(err.to_string().contains(&format!("quorum = {quorum}")));
        }
        for (quorum, n) in [(2, 5), (5, 5), (2, 2), (1, 1)] {
            assert!(with(quorum).validate(n).is_ok(), "quorum {quorum} is legal at n = {n}");
        }
    }
}

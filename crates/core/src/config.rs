//! System configuration: `n`, `t`, thresholds and leader rotation.

use meba_crypto::ProcessId;
use std::error::Error;
use std::fmt;

/// Error constructing a [`SystemConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `n` must satisfy `n >= 2t + 1` with `t >= 1`.
    BadResilience {
        /// Requested system size.
        n: usize,
        /// Requested fault threshold.
        t: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadResilience { n, t } => {
                write!(f, "resilience requires n >= 2t + 1 and t >= 1, got n={n}, t={t}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Static parameters of one protocol instance.
///
/// The paper's protocols assume optimal resilience `n = 2t + 1`
/// ([`SystemConfig::new`]); configurations with slack (`n > 2t + 1`) are
/// also accepted ([`SystemConfig::with_resilience`]) since every bound in
/// the protocols is written in terms of `n` and `t`.
///
/// `session` domain-separates signatures across protocol instances so a
/// certificate from one run cannot be replayed into another.
///
/// # Examples
///
/// ```
/// use meba_core::SystemConfig;
///
/// let cfg = SystemConfig::new(7, 0)?;
/// assert_eq!(cfg.t(), 3);
/// assert_eq!(cfg.quorum(), 6);           // ⌈(n+t+1)/2⌉
/// assert_eq!(cfg.idk_threshold(), 4);    // t + 1
/// assert_eq!(cfg.adaptive_fault_bound(), 1); // (n-t-1)/2 exclusive bound
/// # Ok::<(), meba_core::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    n: usize,
    t: usize,
    session: u64,
    quorum_override: Option<usize>,
}

impl SystemConfig {
    /// Creates a configuration with optimal resilience: odd `n = 2t + 1`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadResilience`] if `n` is even or below 3.
    pub fn new(n: usize, session: u64) -> Result<Self, ConfigError> {
        if n < 3 || n.is_multiple_of(2) {
            return Err(ConfigError::BadResilience { n, t: n.saturating_sub(1) / 2 });
        }
        Self::with_resilience(n, (n - 1) / 2, session)
    }

    /// Creates a configuration with explicit `t` (requires `n >= 2t + 1`).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadResilience`] if `t = 0` or `n < 2t + 1`.
    pub fn with_resilience(n: usize, t: usize, session: u64) -> Result<Self, ConfigError> {
        if t == 0 || n < 2 * t + 1 {
            return Err(ConfigError::BadResilience { n, t });
        }
        Ok(SystemConfig { n, t, session, quorum_override: None })
    }

    /// **Ablation only (experiment E8):** replaces the safety quorum
    /// `⌈(n+t+1)/2⌉` with an arbitrary threshold. Setting it to the naive
    /// `t + 1` demonstrates the agreement violation the paper's threshold
    /// choice prevents (§6: a `t + 1` certificate "is not very useful as
    /// it does not guarantee the desired intersection property").
    pub fn unsafe_with_quorum(mut self, quorum: usize) -> Self {
        self.quorum_override = Some(quorum);
        self
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault threshold `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Session identifier mixed into all signed messages.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Returns a copy with a different session id — used by multi-shot
    /// drivers to domain-separate each protocol instance's signatures.
    pub fn with_session(mut self, session: u64) -> Self {
        self.session = session;
        self
    }

    /// The safety quorum `⌈(n + t + 1)/2⌉` (§6): two quorums of this size
    /// intersect in at least one correct process.
    pub fn quorum(&self) -> usize {
        self.quorum_override.unwrap_or_else(|| meba_crypto::quorum_threshold(self.n, self.t))
    }

    /// The `t + 1` threshold (idk certificates, fallback certificates,
    /// propose certificates): at least one contributor is correct.
    pub fn idk_threshold(&self) -> usize {
        self.t + 1
    }

    /// Exclusive bound on `f` below which the adaptive path is guaranteed
    /// to decide without the fallback: `f < (n - t - 1)/2` (Lemma 6).
    pub fn adaptive_fault_bound(&self) -> usize {
        (self.n - self.t - 1) / 2
    }

    /// Leader of phase `j` (1-based), rotating round-robin: `p_{j mod n}`.
    pub fn leader_of_phase(&self, j: u32) -> ProcessId {
        ProcessId(j % self.n as u32)
    }

    /// The one phase in `1..=n` that `p` leads — the inverse of
    /// [`Self::leader_of_phase`] over one full rotation.
    pub fn phase_led_by(&self, p: ProcessId) -> u32 {
        if p.0 == 0 {
            self.n as u32
        } else {
            p.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_resilience() {
        let cfg = SystemConfig::new(9, 1).unwrap();
        assert_eq!(cfg.n(), 9);
        assert_eq!(cfg.t(), 4);
        assert_eq!(cfg.session(), 1);
        assert_eq!(cfg.quorum(), 7);
        assert_eq!(cfg.idk_threshold(), 5);
        assert_eq!(cfg.adaptive_fault_bound(), 2);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(SystemConfig::new(4, 0).is_err());
        assert!(SystemConfig::new(1, 0).is_err());
        assert!(SystemConfig::with_resilience(4, 2, 0).is_err());
        assert!(SystemConfig::with_resilience(5, 0, 0).is_err());
    }

    #[test]
    fn slack_resilience_allowed() {
        let cfg = SystemConfig::with_resilience(10, 3, 0).unwrap();
        assert_eq!(cfg.quorum(), 7);
        assert_eq!(cfg.adaptive_fault_bound(), 3);
    }

    #[test]
    fn leader_rotation_covers_all() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let leaders: Vec<_> = (1..=5).map(|j| cfg.leader_of_phase(j)).collect();
        let mut sorted: Vec<_> = leaders.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        for j in 1..=5 {
            assert_eq!(cfg.phase_led_by(cfg.leader_of_phase(j)), j);
        }
    }

    #[test]
    fn quorum_reachable_below_adaptive_bound() {
        for t in 1..60usize {
            let n = 2 * t + 1;
            let cfg = SystemConfig::new(n, 0).unwrap();
            for f in 0..cfg.adaptive_fault_bound() {
                assert!(n - f >= cfg.quorum(), "n={n} f={f}");
            }
        }
    }
}

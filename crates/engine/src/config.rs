//! Backend-agnostic run configuration and report types, shared verbatim
//! by the threaded, TCP, and discrete-event backends.

use crate::driver::RoundDriverConfig;
use crate::fate::ProcessFateFactory;
use crate::pacer::ClusterDiagnostic;
use meba_crypto::ProcessId;
use meba_sim::faults::LinkPolicy;
use meba_sim::{AnyActor, Message, Metrics};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Per-sender factory for [`LinkPolicy`] instances: called once per
/// process with that process's id; the returned policy governs all of
/// its outbound links.
pub type LinkPolicyFactory = Arc<dyn Fn(ProcessId) -> Box<dyn LinkPolicy> + Send + Sync>;

/// Depth of every bounded link queue on the wall-clock backends: each
/// process's inbound channel ([`channel_mesh`](crate::channel_mesh) and
/// the TCP mesh) and each outbound socket queue. A full queue blocks the
/// sender (counted as backpressure) rather than dropping or buffering
/// without bound; 1024 comfortably exceeds `n ×` the per-round message
/// volume of the protocols in this workspace.
pub const LINK_CAPACITY: usize = 1024;

/// What the coordinator does about sustained synchrony overruns (see
/// [`ClusterConfig::overrun_window`]). Neither action repairs a run: δ
/// never changes mid-run, and a run with any overrun is outside the
/// model whichever action it ran under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverrunAction {
    /// Keep running and only count overruns (the default).
    Count,
    /// Stop the run and report a [`ClusterDiagnostic`].
    Abort,
}

/// Outcome of a cluster run.
pub struct ClusterReport<M: Message> {
    /// Accumulated communication metrics (same word accounting as the
    /// simulator), including the per-round processing-latency histogram
    /// ([`Metrics::round_latency`]) and per-link delivery counters
    /// ([`Metrics::per_link`]).
    pub metrics: Metrics,
    /// Rounds executed before the cluster stopped.
    pub rounds: u64,
    /// The actors, returned for decision inspection.
    pub actors: Vec<Box<dyn AnyActor<Msg = M>>>,
    /// Whether every correct actor reported done before the round budget
    /// ran out — the coordinator's recorded stop verdict.
    pub completed: bool,
    /// Rounds in which some thread finished its processing *after* the
    /// round's deadline — synchrony-assumption violations. A non-zero
    /// count means δ is tight for this machine/protocol. Always zero on
    /// the discrete-event backend (virtual time cannot overrun).
    pub overruns: u64,
    /// Times a sender blocked on a full link (bounded-channel or socket
    /// outbox backpressure).
    pub backpressure: u64,
    /// Present iff the run was stopped early by the overrun policy or a
    /// coordinator stall.
    pub aborted: Option<ClusterDiagnostic>,
}

impl<M: Message> fmt::Debug for ClusterReport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterReport")
            .field("rounds", &self.rounds)
            .field("completed", &self.completed)
            .field("correct_words", &self.metrics.correct.words)
            .field("overruns", &self.overruns)
            .field("backpressure", &self.backpressure)
            .field("aborted", &self.aborted)
            .finish_non_exhaustive()
    }
}

/// Configuration of a cluster run (threaded, TCP, or discrete-event).
#[derive(Clone)]
pub struct ClusterConfig {
    /// Round duration δ.
    pub delta: Duration,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Byzantine identities (excluded from correct-word accounting and
    /// from the done-check).
    pub corrupt: Vec<ProcessId>,
    /// Link-fault injection: each sender instantiates one policy for its
    /// outbound links. `None` means reliable links.
    ///
    /// Stock policies and determinism guarantees live in
    /// [`meba_sim::faults`]. Self-links are never consulted.
    pub link_policy: Option<LinkPolicyFactory>,
    /// Number of consecutive overrunning coordinator rounds that triggers
    /// [`ClusterConfig::overrun_action`].
    pub overrun_window: u32,
    /// Reaction to sustained overruns.
    pub overrun_action: OverrunAction,
    /// Process-level fault injection (crash-restart). `None` means every
    /// process runs for the whole run. Restarts additionally need an
    /// [`ActorRebuilder`](crate::ActorRebuilder); without one the restart
    /// half of the fate is rejected up front (see
    /// [`resolve_fate`](crate::resolve_fate)).
    pub process_fate: Option<ProcessFateFactory>,
    /// Upper bound on the TCP mesh's exponential reconnect backoff
    /// (ignored by the in-memory runtimes; `meba-wire` threads it into
    /// its dialer). Crash-restart tests lower it so rejoining processes
    /// re-establish links quickly; the default matches the mesh's
    /// long-standing hard-coded cap.
    pub reconnect_backoff_cap: Duration,
    /// Maximum deterministic jitter added per reconnect attempt (TCP
    /// runtime only). Spreads simultaneous redials after a restart;
    /// zero (the default) preserves the historical behaviour.
    pub reconnect_jitter: Duration,
    /// How each process decides to advance into its next round:
    /// [`RoundDriverConfig::Lockstep`] (default — the shared
    /// [`DeadlinePacer`](crate::DeadlinePacer) schedule) or
    /// [`RoundDriverConfig::QuorumOrTimeout`] (event-driven — a quorum
    /// of prior-round senders or a local `timeout_factor · δ` timer,
    /// whichever fires first).
    pub driver: RoundDriverConfig,
}

impl fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("delta", &self.delta)
            .field("max_rounds", &self.max_rounds)
            .field("corrupt", &self.corrupt)
            .field("link_policy", &self.link_policy.as_ref().map(|_| "<factory>"))
            .field("overrun_window", &self.overrun_window)
            .field("overrun_action", &self.overrun_action)
            .field("process_fate", &self.process_fate.as_ref().map(|_| "<factory>"))
            .field("reconnect_backoff_cap", &self.reconnect_backoff_cap)
            .field("reconnect_jitter", &self.reconnect_jitter)
            .field("driver", &self.driver)
            .finish()
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            delta: Duration::from_millis(2),
            max_rounds: 10_000,
            corrupt: Vec::new(),
            link_policy: None,
            overrun_window: 3,
            overrun_action: OverrunAction::Count,
            process_fate: None,
            reconnect_backoff_cap: Duration::from_millis(250),
            reconnect_jitter: Duration::ZERO,
            driver: RoundDriverConfig::Lockstep,
        }
    }
}

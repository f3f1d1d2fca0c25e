//! Process-level fault injection: crash and crash-restart fates, and the
//! rebuilder hook that restores a crashed process from its durable
//! journal.
//!
//! Every backend resolves each process's [`ProcessFate`] **exactly once**,
//! before the run starts, via [`resolve_fates`]: the historical bug class
//! where each runtime independently defaulted missing fates (and only
//! discovered a missing rebuilder mid-run) cannot recur, because the
//! per-round driver only ever sees a [`ResolvedFate`].

use meba_crypto::ProcessId;
use meba_sim::{AnyActor, Message};
use std::sync::Arc;

/// Process-level fault injection: what happens to one process over the
/// run (see `ClusterConfig::process_fate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessFate {
    /// Run normally for the whole run (the default).
    Run,
    /// Correct until the start of round `at_round`, then down for good:
    /// from that round on the process neither sends nor drains, and
    /// fault-delayed copies it had not yet released die with it. This is
    /// the adaptive adversary corrupting a process mid-run by crashing it,
    /// with honest scheduling up to the crash. The words it sent before
    /// count toward correct-process complexity (it *was* correct then),
    /// no backend waits for it to finish, and it is not a restart, so
    /// `recovery.crash_restarts` does not count it.
    Crash {
        /// First round the process is down for.
        at_round: u64,
    },
    /// Crash at the start of round `at_round`: all in-memory state and
    /// buffered messages are lost and inbound traffic is discarded while
    /// down. After `rejoin_after` dead rounds the process restarts via
    /// the run's [`ActorRebuilder`] (replaying its durable journal) and
    /// rejoins live. Without a rebuilder the crash is permanent — the
    /// process behaves like a crash-faulty one from `at_round` on.
    CrashRestart {
        /// First round the process is down for.
        at_round: u64,
        /// Dead rounds before the restart attempt.
        rejoin_after: u64,
    },
}

/// Per-process factory assigning each process its [`ProcessFate`].
pub type ProcessFateFactory = Arc<dyn Fn(ProcessId) -> ProcessFate + Send + Sync>;

/// A restarted actor as rebuilt from its durable journal, plus the
/// recovery statistics the runtime folds into
/// [`meba_sim::metrics::RecoveryStats`].
pub struct RebuiltActor<M: Message> {
    /// The reconstructed actor (e.g. a `LockstepAdapter` over
    /// `meba-core`'s `Recoverable` wrapper recovered from its journal).
    pub actor: Box<dyn AnyActor<Msg = M>>,
    /// First step the actor will execute live; everything below was
    /// reconstructed by journal replay.
    pub resume_step: u64,
    /// Journal records replayed during reconstruction.
    pub replayed_records: u64,
    /// fsync batches the journal had performed pre-crash.
    pub journal_fsyncs: u64,
}

/// Rebuilds a crashed process from its durable state. Called once per
/// rejoin, on the process's own thread.
pub type ActorRebuilder<M> = Arc<dyn Fn(ProcessId) -> RebuiltActor<M> + Send + Sync>;

/// A [`ProcessFate`] after up-front resolution against the run's actual
/// recovery capability: the restart half of a
/// [`ProcessFate::CrashRestart`] either has a concrete rejoin round or
/// was rejected (downgraded to a permanent crash) because the run has no
/// rebuilder. The per-round driver never consults the rebuilder's
/// presence mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedFate {
    /// Run normally for the whole run.
    Run,
    /// [`ProcessFate::Crash`]: down for good from the start of `at_round`.
    Crash {
        /// First round the process is down for.
        at_round: u64,
    },
    /// Crash at the start of `at_round`; rejoin at the start of
    /// `rejoin_at` (`None` = never — the crash is permanent).
    CrashRestart {
        /// First round the process is down for.
        at_round: u64,
        /// First round at which the restart fires, if the run can
        /// rebuild the process at all.
        rejoin_at: Option<u64>,
    },
}

/// Resolves one fate against the run's recovery capability. A
/// `CrashRestart` without a rebuilder resolves to a permanent crash —
/// decided here, up front, not discovered mid-run. The rejoin round
/// saturates: `rejoin_after: u64::MAX` is the idiom for "crash and never
/// come back" even when a rebuilder exists.
pub fn resolve_fate(fate: ProcessFate, has_rebuilder: bool) -> ResolvedFate {
    match fate {
        ProcessFate::Run => ResolvedFate::Run,
        ProcessFate::Crash { at_round } => ResolvedFate::Crash { at_round },
        ProcessFate::CrashRestart { at_round, rejoin_after } => ResolvedFate::CrashRestart {
            at_round,
            rejoin_at: has_rebuilder.then(|| at_round.saturating_add(rejoin_after)),
        },
    }
}

impl ResolvedFate {
    /// Whether the run waits for this process to finish: every process
    /// except a [`ProcessFate::Crash`] victim, which is a fault of the run.
    pub fn awaited(&self) -> bool {
        !matches!(self, ResolvedFate::Crash { .. })
    }

    /// The round the fate takes the process down in, and the round it
    /// rejoins in, where there is one.
    pub(crate) fn down_at(&self) -> (Option<u64>, Option<u64>) {
        match *self {
            ResolvedFate::Run => (None, None),
            ResolvedFate::Crash { at_round } => (Some(at_round), None),
            ResolvedFate::CrashRestart { at_round, rejoin_at } => (Some(at_round), rejoin_at),
        }
    }

    /// Whether `round` is one of the process's dead rounds: at or after
    /// its crash and before its rejoin.
    pub(crate) fn dead_in(&self, round: u64) -> bool {
        let (Some(at_round), rejoin_at) = self.down_at() else { return false };
        at_round <= round && rejoin_at.is_none_or(|rj| round < rj)
    }
}

/// Resolves every process's fate exactly once, before the run starts.
/// Processes the factory does not cover (or all of them, when there is no
/// factory) default to [`ResolvedFate::Run`] — one defaulting site for
/// every backend.
pub fn resolve_fates(
    n: usize,
    factory: Option<&ProcessFateFactory>,
    has_rebuilder: bool,
) -> Vec<ResolvedFate> {
    (0..n)
        .map(|i| {
            let fate = factory.map_or(ProcessFate::Run, |f| f(ProcessId(i as u32)));
            resolve_fate(fate, has_rebuilder)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_resolves_to_run() {
        assert_eq!(resolve_fate(ProcessFate::Run, true), ResolvedFate::Run);
        assert_eq!(resolve_fate(ProcessFate::Run, false), ResolvedFate::Run);
    }

    #[test]
    fn crash_restart_without_rebuilder_is_rejected_up_front() {
        let fate = ProcessFate::CrashRestart { at_round: 3, rejoin_after: 2 };
        assert_eq!(
            resolve_fate(fate, false),
            ResolvedFate::CrashRestart { at_round: 3, rejoin_at: None }
        );
        assert_eq!(
            resolve_fate(fate, true),
            ResolvedFate::CrashRestart { at_round: 3, rejoin_at: Some(5) }
        );
        assert!(resolve_fate(fate, false).awaited(), "a restart victim is still awaited");
    }

    #[test]
    fn crash_is_never_a_restart_and_never_awaited() {
        for has_rebuilder in [false, true] {
            let fate = resolve_fate(ProcessFate::Crash { at_round: 4 }, has_rebuilder);
            assert_eq!(fate, ResolvedFate::Crash { at_round: 4 });
            assert!(!fate.awaited());
        }
    }

    #[test]
    fn missing_factory_defaults_every_process_to_run() {
        assert_eq!(resolve_fates(3, None, true), vec![ResolvedFate::Run; 3]);
    }
}

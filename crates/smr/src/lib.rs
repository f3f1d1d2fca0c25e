//! State-machine replication over repeated adaptive Byzantine Broadcast.
//!
//! The paper's introduction motivates adaptive BA precisely for "many
//! distributed systems" that run agreement continuously and whose runs
//! are usually failure-free. This crate is that downstream consumer: a
//! replicated log where slot `k` is one adaptive BB instance with
//! rotating proposer `p_{k mod n}`. Clean slots cost the adaptive
//! `O(n(f+1))` price; a faulty proposer merely yields a `⊥` (no-op) slot.
//!
//! [`ReplicatedLog`] owns its slots' instances, each tagged with its slot
//! number on the wire ([`SmrMsg`]). The log is **pipelined**:
//! slot `k + 1` opens a fixed stride of rounds after slot `k`
//! (configurable window `W`, [`ReplicatedLog::with_window`]), and a slot
//! retires as soon as its instance finishes instead of burning the
//! worst-case schedule — so clean slots are not just cheap in words but
//! fast in rounds, realizing the paper's adaptivity end-to-end. The
//! session id of slot `k` domain-separates its signatures from every
//! other slot, which is what makes the concurrent instances safe.
//!
//! # Examples
//!
//! See `examples/replicated_log.rs` at the workspace root and the tests
//! in this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod log;

pub use log::{
    slot_config, verify_slot_evidence, CommitEvidence, LogEntry, ReplicatedLog, SessionSpawnError,
    SmrMsg,
};

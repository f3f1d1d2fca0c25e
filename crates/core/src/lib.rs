//! The paper's primary contribution: adaptive Byzantine agreement
//! protocols with `O(n(f+1))` communication at resilience `n = 2t + 1`
//! (Cohen, Keidar, Spiegelman — "Make Every Word Count", PODC 2022).
//!
//! * [`weak_ba`] — adaptive weak BA with unique validity (Algorithms 3–4);
//! * [`bb`] — adaptive Byzantine Broadcast via the weak-BA reduction
//!   (Algorithms 1–2);
//! * [`strong_ba`] — binary strong BA, linear words when failure-free
//!   (Algorithm 5), and — as [`StrongBa::rotating`], the same state
//!   machine on a longer schedule — an extension toward §8's open
//!   question: rotating leaders + the §6 quorum keep strong BA linear in
//!   more runs;
//! * [`subprotocol`] — black-box composition (Figure 1), including the
//!   `δ' = 2δ` skewed fallback embedding;
//! * [`recovery`] — crash-recovery wrapper: write-ahead journaling and
//!   non-equivocating restart for any sub-protocol;
//! * [`validity`] — the unique-validity predicate framework;
//! * [`fallback`] — the `A_fallback` abstraction.
//!
//! See the workspace `DESIGN.md` for the experiment index and
//! `meba-fallback` for the quadratic fallback implementation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bb;
pub mod config;
pub mod decision;
pub mod fallback;
mod message_costs;
pub mod recovery;
pub mod schema;
pub mod signing;
pub mod strong_ba;
pub mod subprotocol;
pub mod validity;
pub mod value;
pub mod weak_ba;

pub use bb::{Bb, BbBaValue, BbMsg, BbValidity};
pub use config::{ConfigError, SystemConfig};
pub use decision::Decision;
pub use fallback::{EchoFallback, EchoFallbackFactory};
pub use recovery::Recoverable;
pub use signing::{CommitProof, DecideProof};
pub use strong_ba::{StrongBa, StrongBaMsg};
pub use subprotocol::{FallbackFactory, LockstepAdapter, SkewAdapter, SkewEnvelope, SubProtocol};
pub use validity::{AlwaysValid, FnValidity, Validity};
pub use value::Value;
pub use weak_ba::{WeakBa, WeakBaMsg};

//! Byzantine strategy library for the `meba` workspace.
//!
//! Every adversary is an ordinary [`meba_sim::Actor`]: it holds the secret
//! keys of the corrupted processes (and nothing more), sees its inbox
//! (correct processes' traffic in the round it is sent, under the
//! lockstep schedule's rushing), and may send
//! arbitrary well-typed messages. Unforgeability is enforced by the crypto
//! API, so these strategies express exactly the power the paper's
//! adversary has.
//!
//! A correct machine that crashes, restarts without its journal, or sits
//! behind lossy links is not a behaviour and has no actor here: those are
//! engine fates and link policies (`meba_engine::ProcessFate`,
//! [`meba_sim::faults::LinkPolicy`]), which every backend honours.
//!
//! * [`chaos`] — a seeded replay fuzzer for property tests;
//! * [`weak_ba_attacks`] — vote-splitting (E8) and late-help (E9) leaders;
//! * [`bb_attacks`] — the equivocating designated sender;
//! * [`fallback_attacks`] — Dolev–Strong equivocation, graded-agreement
//!   certificate splits;
//! * [`strong_ba_attacks`] — the equivocating strong-BA leader;
//! * [`transfer_attacks`] — the lying state-transfer donor (forged
//!   commit certificates, fabricated uncertified claims, unsolicited
//!   spam) against recovering replicas.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bb_attacks;
pub mod chaos;
pub mod fallback_attacks;
pub mod smr_attacks;
pub mod strong_ba_attacks;
pub mod transfer_attacks;
pub mod wasteful;
pub mod weak_ba_attacks;

pub use bb_attacks::EquivocatingSender;
pub use chaos::ChaosActor;
pub use fallback_attacks::{DsEquivocatingSender, GaSplitEchoer};
pub use smr_attacks::{MuxHelpRequester, SessionReplayer};
pub use strong_ba_attacks::EquivocatingStrongLeader;
pub use transfer_attacks::LyingDonor;
pub use wasteful::{WastefulBbLeader, WastefulWeakLeader};
pub use weak_ba_attacks::{LateHelperLeader, SplitVoteLeader};

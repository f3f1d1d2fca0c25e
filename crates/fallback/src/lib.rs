//! Quadratic synchronous strong BA substrate for the `meba` workspace.
//!
//! The adaptive protocols of `meba-core` delegate to a strong BA
//! (`A_fallback`, Momose–Ren in the paper) whenever the actual fault count
//! is high enough that quadratic communication is within budget. This
//! crate provides:
//!
//! * [`RecursiveBa`] — the production fallback: recursive halving over
//!   [`GaInstance`] graded agreements with [`IcInstance`]
//!   (Dolev–Strong interactive consistency) base cases; `O(n²)`-shaped
//!   words, strong unanimity, agreement and termination at `n = 2t + 1`;
//! * [`DolevStrongBb`] — the classic `t + 1`-round authenticated
//!   broadcast, used as the non-adaptive baseline in the Table 1
//!   experiments;
//! * the signed-payload and instance-scoping machinery that makes shares
//!   from different subsets and iterations non-replayable.
//!
//! See `DESIGN.md` §6 for why this substitution preserves everything the
//! reproduced paper needs from Momose–Ren's black box.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ds;
pub mod ga;
pub mod instance;
pub mod messages;
pub mod recursive;

pub use ds::{ic_steps, DolevStrongBb, DsCore, IcInstance};
pub use ga::{GaInstance, GA_STEPS};
pub use instance::{InstanceId, Scope};
pub use messages::{DsBbMsg, RecBaMsg};
pub use recursive::{
    recursive_ba_steps, recursive_ba_steps_with_base, RecursiveBa, RecursiveBaFactory, BASE_SCOPE,
};

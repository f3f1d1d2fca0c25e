//! Round arithmetic for the synchronous model.
//!
//! The network guarantees a known bound `δ` on message delays; the
//! simulator normalizes `δ` to exactly one round: a message sent at the
//! beginning of round `r` is in its destination's inbox at round `r + 1`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A synchronous round number (starting at 0).
///
/// # Examples
///
/// ```
/// use meba_sim::Round;
///
/// let r = Round(3) + 2;
/// assert_eq!(r, Round(5));
/// assert_eq!(r - Round(3), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(pub u64);

serde::impl_serde_newtype!(Round);

impl Round {
    /// "No round": the [`crate::Actor::next_wakeup`] answer of an actor
    /// that will never act again unless a delivery reaches it.
    pub const NEVER: Round = Round(u64::MAX);

    /// The following round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Underlying counter, usable as an index.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        Round(self.0 + rhs)
    }
}

impl AddAssign<u64> for Round {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u64;
    fn sub(self, rhs: Round) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut r = Round(0);
        r += 4;
        assert_eq!(r, Round(4));
        assert_eq!(r.next(), Round(5));
        assert_eq!(Round(9) - Round(4), 5);
        assert_eq!(Round(2).as_u64(), 2);
    }

    #[test]
    fn formatting() {
        assert_eq!(Round(7).to_string(), "r7");
        assert_eq!(format!("{:?}", Round(7)), "r7");
    }
}

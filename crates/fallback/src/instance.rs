//! Instance identifiers and participant scopes for the recursive BA.
//!
//! The recursion always splits a *contiguous range* of process indices, so
//! a participant set is a half-open range [`Scope`]; an [`InstanceId`]
//! names one component run (a graded agreement, a base-case interactive
//! consistency, or a certificate exchange) within the recursion tree.
//! Every signature binds its instance id, so shares from one subset or
//! iteration cannot be replayed in another.

use meba_core::schema::{Field, Meta};
use meba_crypto::encoding::len;
use meba_crypto::{DecodeError, Decoder, Encoder, ProcessId, WireCodec};
use std::fmt;

/// A contiguous, half-open range of process indices `[lo, hi)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scope {
    /// First member index.
    pub lo: u32,
    /// One past the last member index.
    pub hi: u32,
}

impl Scope {
    /// The full system scope.
    pub fn full(n: usize) -> Scope {
        Scope { lo: 0, hi: n as u32 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the scope is empty.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.0 >= self.lo && p.0 < self.hi
    }

    /// Iterates over the members.
    pub fn members(&self) -> impl Iterator<Item = ProcessId> {
        (self.lo..self.hi).map(ProcessId)
    }

    /// Splits into two halves (left gets the extra element for odd sizes).
    ///
    /// # Panics
    ///
    /// Panics if the scope has fewer than 2 members.
    pub fn split(&self) -> (Scope, Scope) {
        assert!(self.len() >= 2, "cannot split scope of {} members", self.len());
        let mid = self.lo + self.len().div_ceil(2) as u32;
        (Scope { lo: self.lo, hi: mid }, Scope { lo: mid, hi: self.hi })
    }

    /// Honest-majority threshold `⌊len/2⌋ + 1`: when the scope has an
    /// honest majority, this many distinct members must include one honest
    /// process, and the honest members alone can reach it.
    pub fn majority(&self) -> usize {
        self.len() / 2 + 1
    }

    /// Canonical encoding for signed payloads.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.lo);
        enc.put_u32(self.hi);
    }
}

impl WireCodec for Scope {
    fn encode_wire(&self, enc: &mut Encoder) {
        self.encode(enc);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let lo = dec.get_u32()?;
        let hi = dec.get_u32()?;
        Ok(Scope { lo, hi })
    }
}

impl fmt::Debug for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// Names one component instance inside the recursion tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// The participant scope of the component.
    pub scope: Scope,
    /// Disambiguates repeated components over the same scope (e.g. the
    /// first vs. second graded agreement of a level).
    pub seq: u8,
}

impl InstanceId {
    /// Creates an id.
    pub fn new(scope: Scope, seq: u8) -> Self {
        InstanceId { scope, seq }
    }

    /// Canonical encoding for signed payloads.
    pub fn encode(&self, enc: &mut Encoder) {
        self.scope.encode(enc);
        enc.put_u32(self.seq as u32);
    }
}

impl WireCodec for InstanceId {
    fn encode_wire(&self, enc: &mut Encoder) {
        self.encode(enc);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let scope = Scope::decode_wire(dec)?;
        let seq = dec.get_u32()?;
        let seq =
            u8::try_from(seq).map_err(|_| DecodeError::Invalid { what: "instance seq > 255" })?;
        Ok(InstanceId { scope, seq })
    }
}

/// An instance id names a component run, as a phase names a round: in a
/// message it costs no word.
impl Field<Meta> for InstanceId {
    fn put_field(&self, enc: &mut Encoder) {
        self.encode(enc);
    }
    fn get_field(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_wire(dec)
    }
    fn field_len(&self) -> u64 {
        3 * len::U32
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.scope, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_halves_cover() {
        let s = Scope::full(7);
        let (l, r) = s.split();
        assert_eq!(l, Scope { lo: 0, hi: 4 });
        assert_eq!(r, Scope { lo: 4, hi: 7 });
        assert_eq!(l.len() + r.len(), s.len());
    }

    #[test]
    fn membership_and_majority() {
        let s = Scope { lo: 2, hi: 6 };
        assert!(s.contains(ProcessId(2)));
        assert!(s.contains(ProcessId(5)));
        assert!(!s.contains(ProcessId(6)));
        assert_eq!(s.len(), 4);
        assert_eq!(s.majority(), 3);
        assert_eq!(s.members().count(), 4);
    }

    #[test]
    fn at_least_one_half_keeps_honest_majority() {
        // The recursion's pigeonhole: if a scope has an honest majority,
        // at most one half can be Byzantine-majority. Check exhaustively
        // for sizes up to 33 and all fault counts below half.
        for m in 2..=33u32 {
            let s = Scope { lo: 0, hi: m };
            let (l, r) = s.split();
            for f in 0..s.majority() as u32 {
                // Worst case: pack faults into one half first.
                let fl = f.min(l.hi - l.lo);
                let fr = f - fl;
                let l_bad = fl as usize >= l.majority();
                let r_bad = fr as usize >= r.majority();
                assert!(!(l_bad && r_bad), "m={m} f={f}");
            }
        }
    }

    #[test]
    fn instance_ids_encode_distinctly() {
        fn bytes(i: InstanceId) -> Vec<u8> {
            let mut e = Encoder::new();
            i.encode(&mut e);
            e.into_bytes()
        }
        let a = InstanceId::new(Scope { lo: 0, hi: 4 }, 0);
        let b = InstanceId::new(Scope { lo: 0, hi: 4 }, 1);
        let c = InstanceId::new(Scope { lo: 0, hi: 5 }, 0);
        assert_ne!(bytes(a), bytes(b));
        assert_ne!(bytes(a), bytes(c));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_singleton_panics() {
        let _ = Scope { lo: 0, hi: 1 }.split();
    }
}

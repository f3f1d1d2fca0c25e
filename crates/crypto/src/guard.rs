//! The never-re-sign-conflicting guard for crash-recovering processes.
//!
//! A restarted process with amnesia can sign a second, different payload
//! in a signing slot it already used before the crash — equivocation
//! manufactured out of a benign crash. The guard closes this: every
//! signature is recorded under its *equivocation context* (domain tag
//! plus slot-identifying fields such as session and phase, but **not**
//! the value being signed), and a second signature in the same context
//! is only permitted when it signs the exact same preimage. Because the
//! PKI signs deterministically, re-signing the same preimage yields the
//! byte-identical signature — harmless retransmission, not equivocation.
//!
//! The guard, [`SignRegistry`], is pure bookkeeping over `(context →
//! preimage digest)` pairs; durability of those pairs across a crash is
//! the journal's job (`meba-journal`). `meba-core`'s `Recoverable`
//! wrapper steps its protocol into a staging sink, which keeps every
//! signature the protocol reports there (`meba-sim`'s `Sink::signed`);
//! it records each into one registry and journals it before the step's
//! messages leave the process, and on restart rebuilds the registry
//! from the journal.

use crate::encoding::{Encoder, Signable};
use crate::sha256::Digest;
use std::collections::BTreeMap;
use std::fmt;

/// A signing attempt that would contradict a previously recorded
/// signature: same context, different preimage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivocationError {
    /// The shared equivocation context.
    pub context: Vec<u8>,
    /// Digest of the preimage signed first (and journaled).
    pub recorded: Digest,
    /// Digest of the conflicting preimage whose signing was refused.
    pub attempted: Digest,
}

impl fmt::Display for EquivocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refusing to equivocate: context already bound to {:?}, attempted {:?}",
            self.recorded, self.attempted
        )
    }
}

impl std::error::Error for EquivocationError {}

/// A signable payload that also names the signing *slot* it occupies.
///
/// [`SignContext::context_bytes`] must encode everything that identifies
/// the slot — the domain tag and fields like session or phase — and must
/// **exclude** the free choice (the value): two payloads that differ only
/// in value share a context, which is exactly what makes signing both of
/// them equivocation.
pub trait SignContext: Signable {
    /// Canonical encoding of the signing slot. The default is the domain
    /// tag alone (correct for payload types whose domain admits only one
    /// signature per instance); types with per-phase or per-session slots
    /// override it.
    fn context_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(Self::DOMAIN.as_bytes());
        enc.into_bytes()
    }
}

/// The `(context → preimage digest)` table behind the guard.
///
/// Recording is idempotent — the same pair can be inserted any number of
/// times (journal replay does exactly that) — and conflicting pairs are
/// refused and counted.
///
/// # Examples
///
/// ```
/// use meba_crypto::{Digest, SignRegistry};
///
/// let mut reg = SignRegistry::new();
/// assert!(reg.record(b"slot", Digest::of(b"v1")).unwrap());
/// // Idempotent re-record: fine, reports "already present".
/// assert!(!reg.record(b"slot", Digest::of(b"v1")).unwrap());
/// // Conflicting preimage in the same slot: refused and counted.
/// assert!(reg.record(b"slot", Digest::of(b"v2")).is_err());
/// assert_eq!(reg.refused(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SignRegistry {
    map: BTreeMap<Vec<u8>, Digest>,
    refused: u64,
}

impl SignRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `context → digest`. Returns `Ok(true)` when newly bound,
    /// `Ok(false)` when the identical pair was already present.
    ///
    /// # Errors
    ///
    /// [`EquivocationError`] when the context is already bound to a
    /// *different* digest; the conflict is counted in
    /// [`SignRegistry::refused`].
    pub fn record(&mut self, context: &[u8], digest: Digest) -> Result<bool, EquivocationError> {
        match self.map.get(context) {
            None => {
                self.map.insert(context.to_vec(), digest);
                Ok(true)
            }
            Some(existing) if *existing == digest => Ok(false),
            Some(existing) => {
                self.refused += 1;
                Err(EquivocationError {
                    context: context.to_vec(),
                    recorded: *existing,
                    attempted: digest,
                })
            }
        }
    }

    /// The digest bound to `context`, if any.
    pub fn lookup(&self, context: &[u8]) -> Option<Digest> {
        self.map.get(context).copied()
    }

    /// Number of refused (conflicting) record attempts.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Number of distinct contexts bound.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no context has been bound yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_idempotent_and_refuses_conflicts() {
        let mut reg = SignRegistry::new();
        let d1 = Digest::of(b"a");
        let d2 = Digest::of(b"b");
        assert!(reg.record(b"c1", d1).unwrap());
        assert!(!reg.record(b"c1", d1).unwrap());
        assert!(!reg.record(b"c1", d1).unwrap());
        assert_eq!(reg.len(), 1);
        let err = reg.record(b"c1", d2).unwrap_err();
        assert_eq!(err.recorded, d1);
        assert_eq!(err.attempted, d2);
        assert_eq!(reg.refused(), 1);
        // The original binding is untouched.
        assert_eq!(reg.lookup(b"c1"), Some(d1));
        assert!(reg.record(b"c2", d2).unwrap());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn default_context_is_domain_only() {
        struct Once(u64);
        impl Signable for Once {
            const DOMAIN: &'static str = "test/once";
            fn encode_fields(&self, enc: &mut Encoder) {
                enc.put_u64(self.0);
            }
        }
        impl SignContext for Once {}
        let mut reg = SignRegistry::new();
        reg.record(&Once(1).context_bytes(), Once(1).signing_digest()).unwrap();
        // Any second value under the same domain conflicts.
        assert!(reg.record(&Once(2).context_bytes(), Once(2).signing_digest()).is_err());
    }
}

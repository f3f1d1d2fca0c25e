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
//! The guard is pure bookkeeping over `(context → preimage digest)`
//! pairs; durability of those pairs across a crash is the journal's job
//! (`meba-journal`), and wiring the two together is the `Recoverable`
//! wrapper's job (`meba-core`).

use crate::encoding::{Encoder, Signable};
use crate::pki::{SecretKey, Signature};
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

    /// Iterates over all `(context, digest)` bindings.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], Digest)> {
        self.map.iter().map(|(k, v)| (k.as_slice(), *v))
    }
}

/// A [`SecretKey`] wrapped with a [`SignRegistry`]: the signing-guard
/// hook the crash-recovery stack builds on.
///
/// # Examples
///
/// ```
/// use meba_crypto::{trusted_setup, Encoder, GuardedKey, Signable, SignContext};
///
/// struct Vote { phase: u32, value: u64 }
/// impl Signable for Vote {
///     const DOMAIN: &'static str = "example/vote";
///     fn encode_fields(&self, enc: &mut Encoder) {
///         enc.put_u32(self.phase);
///         enc.put_u64(self.value);
///     }
/// }
/// impl SignContext for Vote {
///     fn context_bytes(&self) -> Vec<u8> {
///         let mut enc = Encoder::new();
///         enc.put_bytes(Self::DOMAIN.as_bytes());
///         enc.put_u32(self.phase); // slot = (domain, phase); value excluded
///         enc.into_bytes()
///     }
/// }
///
/// let (_, keys) = trusted_setup(3, 1);
/// let mut guarded = GuardedKey::new(keys[0].clone());
/// let s1 = guarded.try_sign(&Vote { phase: 1, value: 5 }).unwrap();
/// // Deterministic re-sign of the same payload: identical signature.
/// assert_eq!(guarded.try_sign(&Vote { phase: 1, value: 5 }).unwrap(), s1);
/// // A different value in the same phase is equivocation: refused.
/// assert!(guarded.try_sign(&Vote { phase: 1, value: 6 }).is_err());
/// // A different phase is a fresh slot: fine.
/// assert!(guarded.try_sign(&Vote { phase: 2, value: 6 }).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct GuardedKey {
    key: SecretKey,
    registry: SignRegistry,
}

impl GuardedKey {
    /// Wraps `key` with an empty registry (fresh process, no history).
    pub fn new(key: SecretKey) -> Self {
        Self::with_registry(key, SignRegistry::new())
    }

    /// Wraps `key` with a pre-populated registry (recovered from a
    /// journal replay).
    pub fn with_registry(key: SecretKey, registry: SignRegistry) -> Self {
        GuardedKey { key, registry }
    }

    /// The identity this key signs for.
    pub fn id(&self) -> crate::ids::ProcessId {
        self.key.id()
    }

    /// Signs `payload` if doing so cannot equivocate: the payload's
    /// context is recorded first, and signing proceeds only when the
    /// context is fresh or already bound to this exact preimage. The
    /// digest recorded is the digest signed.
    ///
    /// # Errors
    ///
    /// [`EquivocationError`] when the context is bound to a different
    /// preimage; no signature is produced.
    pub fn try_sign<S: SignContext>(
        &mut self,
        payload: &S,
    ) -> Result<Signature, EquivocationError> {
        let digest = payload.signing_digest();
        self.registry.record(&payload.context_bytes(), digest)?;
        Ok(self.key.sign_digest(&digest))
    }

    /// The guard's registry.
    pub fn registry(&self) -> &SignRegistry {
        &self.registry
    }

    /// The guard's registry, mutably (journal replay populates it here).
    pub fn registry_mut(&mut self) -> &mut SignRegistry {
        &mut self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::trusted_setup;

    struct Slot {
        slot: u64,
        value: u64,
    }
    impl Signable for Slot {
        const DOMAIN: &'static str = "test/slot";
        fn encode_fields(&self, enc: &mut Encoder) {
            enc.put_u64(self.slot);
            enc.put_u64(self.value);
        }
    }
    impl SignContext for Slot {
        fn context_bytes(&self) -> Vec<u8> {
            let mut enc = Encoder::new();
            enc.put_bytes(Self::DOMAIN.as_bytes());
            enc.put_u64(self.slot);
            enc.into_bytes()
        }
    }

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
    fn guarded_key_signs_like_the_raw_key() {
        let (pki, keys) = trusted_setup(3, 7);
        let mut guarded = GuardedKey::new(keys[1].clone());
        let payload = Slot { slot: 4, value: 9 };
        let sig = guarded.try_sign(&payload).unwrap();
        assert_eq!(sig, keys[1].sign(&payload.signing_bytes()));
        assert!(pki.verify(&payload.signing_bytes(), &sig).is_ok());
        assert_eq!(guarded.id(), keys[1].id());
    }

    #[test]
    fn guarded_key_refuses_cross_restart_equivocation() {
        // Simulate: sign before crash, replay registry into a new key
        // wrapper, attempt a conflicting sign after restart.
        let (_, keys) = trusted_setup(3, 7);
        let mut before = GuardedKey::new(keys[0].clone());
        before.try_sign(&Slot { slot: 1, value: 10 }).unwrap();

        let recovered_registry = before.registry().clone();
        let mut after = GuardedKey::with_registry(keys[0].clone(), recovered_registry);
        // Same payload re-signs identically.
        assert!(after.try_sign(&Slot { slot: 1, value: 10 }).is_ok());
        // Conflicting payload is refused and counted.
        assert!(after.try_sign(&Slot { slot: 1, value: 11 }).is_err());
        assert_eq!(after.registry().refused(), 1);
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

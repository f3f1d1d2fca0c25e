//! Signed payloads and quorum-certificate proofs used by the protocols.
//!
//! Every signature in Algorithms 1–5 binds a domain tag, the session id,
//! and the semantic fields the correctness proofs rely on:
//!
//! * weak BA votes bind `(value, level)` so a commit certificate proves
//!   its `commit_level` (Alg 4 line 43, "level is valid according to
//!   `QC_commit(v)`");
//! * weak BA decide shares bind `(value, phase)` so at most one finalize
//!   certificate exists per phase value (Lemma 15);
//! * BB idk shares bind the phase so stale certificates cannot be
//!   replayed as fresh ones.

use crate::config::SystemConfig;
use crate::value::Value;
use meba_crypto::{
    Combiner, CryptoError, Encoder, Pki, ProcessId, SignContext, Signable, Signature,
    ThresholdSignature,
};

/// Builds an equivocation context (see [`SignContext`]): the domain tag
/// plus the slot-identifying fields, excluding the value being signed.
macro_rules! context {
    ($domain:expr $(, $put:ident($field:expr))*) => {{
        let mut enc = Encoder::new();
        enc.put_bytes($domain.as_bytes());
        $( enc.$put($field); )*
        enc.into_bytes()
    }};
}

/// `⟨vote, v, level⟩` — weak BA vote share (Alg 4 line 34).
#[derive(Debug)]
pub struct VoteSig<'a, V> {
    /// Session id from [`SystemConfig::session`].
    pub session: u64,
    /// The proposed value.
    pub value: &'a V,
    /// The phase that will become the commit level.
    pub level: u32,
}

impl<V: Value> Signable for VoteSig<'_, V> {
    const DOMAIN: &'static str = "meba/weakba/vote";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.value.encode_value(enc);
        enc.put_u32(self.level);
    }
}

impl<V: Value> SignContext for VoteSig<'_, V> {
    // One vote slot per (session, level): voting two values at the same
    // level is equivocation.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session), put_u32(self.level))
    }
}

/// `⟨decide, v, j⟩` — weak BA decide share (Alg 4 line 44).
#[derive(Debug)]
pub struct DecideSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// The value being finalized.
    pub value: &'a V,
    /// The phase forming the finalize certificate.
    pub phase: u32,
}

impl<V: Value> Signable for DecideSig<'_, V> {
    const DOMAIN: &'static str = "meba/weakba/decide";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.value.encode_value(enc);
        enc.put_u32(self.phase);
    }
}

impl<V: Value> SignContext for DecideSig<'_, V> {
    // One decide-share slot per (session, phase).
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session), put_u32(self.phase))
    }
}

/// `⟨help_req⟩` — weak BA help request (Alg 3 line 6).
#[derive(Debug)]
pub struct HelpReqSig {
    /// Session id.
    pub session: u64,
}

impl Signable for HelpReqSig {
    const DOMAIN: &'static str = "meba/weakba/help_req";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
    }
}

impl SignContext for HelpReqSig {
    // One help-request slot per session; the payload carries no free
    // choice, so re-signing is always the identical preimage.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session))
    }
}

/// `⟨v⟩_sender` — the BB sender's signed input (Alg 1 line 2).
#[derive(Debug)]
pub struct BbValueSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// The broadcast value.
    pub value: &'a V,
}

impl<V: Value> Signable for BbValueSig<'_, V> {
    const DOMAIN: &'static str = "meba/bb/value";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.value.encode_value(enc);
    }
}

impl<V: Value> SignContext for BbValueSig<'_, V> {
    // The BB sender signs exactly one value per session; two signed
    // values is the classic sender equivocation.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session))
    }
}

/// `⟨idk, j⟩_p` — BB vetting "I don't know" share (Alg 2 line 21).
#[derive(Debug)]
pub struct BbIdkSig {
    /// Session id.
    pub session: u64,
    /// Vetting phase.
    pub phase: u32,
}

impl Signable for BbIdkSig {
    const DOMAIN: &'static str = "meba/bb/idk";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        enc.put_u32(self.phase);
    }
}

impl SignContext for BbIdkSig {
    // One idk slot per (session, phase); no free choice in the payload.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session), put_u32(self.phase))
    }
}

/// `⟨v⟩_p` — strong BA input share (Alg 5 line 2).
#[derive(Debug)]
pub struct StrongInputSig {
    /// Session id.
    pub session: u64,
    /// The binary input.
    pub value: bool,
}

impl Signable for StrongInputSig {
    const DOMAIN: &'static str = "meba/strongba/input";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        enc.put_bool(self.value);
    }
}

impl SignContext for StrongInputSig {
    // A process's binary input is fixed per session: signing both `true`
    // and `false` is equivocation.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session))
    }
}

/// `⟨decide, v⟩_p` — strong BA decide share (Alg 5 line 8).
#[derive(Debug)]
pub struct StrongDecideSig {
    /// Session id.
    pub session: u64,
    /// The binary value.
    pub value: bool,
}

impl Signable for StrongDecideSig {
    const DOMAIN: &'static str = "meba/strongba/decide";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        enc.put_bool(self.value);
    }
}

impl SignContext for StrongDecideSig {
    // A correct process signs a decide share for at most one binary
    // value per session.
    fn context_bytes(&self) -> Vec<u8> {
        context!(Self::DOMAIN, put_u64(self.session))
    }
}

crate::wire_schema! {
    /// A weak BA commit certificate: `⌈(n+t+1)/2⌉` votes on `(value, level)`
    /// (Alg 4 lines 40–42).
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct CommitProof: WordCost {
        /// The phase in which the votes were cast (the commit level).
        pub level: u32 as Meta,
        /// Quorum certificate over [`VoteSig`] with the quorum threshold.
        pub qc: ThresholdSignature,
    }
}

impl CommitProof {
    /// Verifies that this proof commits `value` at its level.
    pub fn verify<V: Value>(&self, cfg: &SystemConfig, pki: &Pki, value: &V) -> bool {
        self.qc.threshold() == cfg.quorum()
            && pki
                .verify_threshold(
                    &VoteSig { session: cfg.session(), value, level: self.level }.signing_bytes(),
                    &self.qc,
                )
                .is_ok()
    }
}

crate::wire_schema! {
    /// A weak BA finalize certificate: `⌈(n+t+1)/2⌉` decide shares on
    /// `(value, phase)` (Alg 4 lines 49–51). Stored as `decide_proof`.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct DecideProof: WordCost {
        /// The phase that finalized.
        pub phase: u32 as Meta,
        /// Quorum certificate over [`DecideSig`].
        pub qc: ThresholdSignature,
    }
}

impl DecideProof {
    /// Verifies that this proof finalizes `value`.
    pub fn verify<V: Value>(&self, cfg: &SystemConfig, pki: &Pki, value: &V) -> bool {
        self.qc.threshold() == cfg.quorum()
            && pki
                .verify_threshold(
                    &DecideSig { session: cfg.session(), value, phase: self.phase }.signing_bytes(),
                    &self.qc,
                )
                .is_ok()
    }
}

/// Certificate formation: the one place signed shares on a payload become
/// a `(k, n)` threshold certificate — `k = t+1` (idk quorum, help and
/// propose certificates), `k = ⌈(n+t+1)/2⌉` (commit, finalize and the
/// rotating decide certificate), `k = n` (Alg 5's decide certificate),
/// `k = maj` (graded agreement). Callers keep only their own admission
/// guards (phase, value, scope) and decide what to do with the result.
#[derive(Debug)]
pub struct ShareCollector {
    combiner: Combiner,
}

impl ShareCollector {
    /// A collector for `threshold` shares on `payload`.
    ///
    /// # Panics
    ///
    /// If `threshold` is not in `1..=n`: no certificate of this system has
    /// such a threshold.
    pub fn new(pki: &Pki, payload: &impl Signable, threshold: usize) -> Self {
        let combiner = payload
            .with_signing_bytes(|preimage| pki.combiner(threshold, preimage))
            .expect("certificate threshold is within 1..=n");
        ShareCollector { combiner }
    }

    /// Admits `sig` iff it is `from`'s own share (a relayed signature
    /// does not count for its relayer) and it verifies over the payload's
    /// digest, taken once in [`ShareCollector::new`] — the one
    /// verification it gets: the certificate is minted from the
    /// admitted signers without a second pass. Returns whether it was
    /// admissible; a signer counts once however often it is offered.
    pub fn offer(&mut self, from: ProcessId, sig: &Signature) -> bool {
        sig.signer() == from
            && matches!(self.combiner.offer(sig), Ok(()) | Err(CryptoError::DuplicateSigner { .. }))
    }

    /// How many distinct signers have been admitted so far.
    pub fn admitted(&self) -> usize {
        self.combiner.admitted()
    }

    /// The certificate, once at least `threshold` distinct signers were
    /// admitted.
    pub fn certificate(self) -> Option<ThresholdSignature> {
        self.combiner.finish().ok()
    }
}

/// Convenience: sign a [`Signable`] with a secret key.
pub fn sign_payload<S: Signable>(key: &meba_crypto::SecretKey, payload: &S) -> Signature {
    key.sign_digest(&payload.signing_digest())
}

/// Convenience: verify an individual signature over a [`Signable`].
pub fn verify_payload<S: Signable>(pki: &Pki, payload: &S, sig: &Signature) -> bool {
    pki.verify_digest(&payload.signing_digest(), sig).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::trusted_setup;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn cfg() -> SystemConfig {
        SystemConfig::new(7, 99).unwrap()
    }

    #[test]
    fn vote_binds_value_and_level() {
        let a = VoteSig { session: 1, value: &7u64, level: 2 }.signing_bytes();
        let b = VoteSig { session: 1, value: &7u64, level: 3 }.signing_bytes();
        let c = VoteSig { session: 1, value: &8u64, level: 2 }.signing_bytes();
        let d = VoteSig { session: 2, value: &7u64, level: 2 }.signing_bytes();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn vote_and_decide_domains_differ() {
        let v = VoteSig { session: 1, value: &7u64, level: 2 }.signing_bytes();
        let d = DecideSig { session: 1, value: &7u64, phase: 2 }.signing_bytes();
        assert_ne!(v, d);
    }

    #[test]
    fn commit_proof_roundtrip() {
        let cfg = cfg();
        let (pki, keys) = trusted_setup(cfg.n(), 5);
        let value = 42u64;
        let payload = VoteSig { session: cfg.session(), value: &value, level: 3 };
        let shares: Vec<_> =
            keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
        let qc = pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).unwrap();
        let proof = CommitProof { level: 3, qc };
        assert!(proof.verify(&cfg, &pki, &value));
        assert!(!proof.verify(&cfg, &pki, &43u64));
        // Tampering with the level breaks verification.
        let bad = CommitProof { level: 4, qc: proof.qc };
        assert!(!bad.verify(&cfg, &pki, &value));
    }

    #[test]
    fn commit_proof_rejects_wrong_threshold() {
        let cfg = cfg();
        let (pki, keys) = trusted_setup(cfg.n(), 5);
        let value = 1u64;
        let payload = VoteSig { session: cfg.session(), value: &value, level: 1 };
        // t+1 = 4 < quorum = 6: a certificate with a lower threshold is
        // not a commit proof even though it verifies as a (4, n) cert.
        let shares: Vec<_> = keys.iter().take(4).map(|k| sign_payload(k, &payload)).collect();
        let qc = pki.combine(4, &payload.signing_bytes(), &shares).unwrap();
        assert!(!CommitProof { level: 1, qc }.verify(&cfg, &pki, &value));
    }

    #[test]
    fn decide_proof_roundtrip() {
        let cfg = cfg();
        let (pki, keys) = trusted_setup(cfg.n(), 5);
        let value = 9u64;
        let payload = DecideSig { session: cfg.session(), value: &value, phase: 2 };
        let shares: Vec<_> =
            keys.iter().skip(1).take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
        let qc = pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).unwrap();
        let proof = DecideProof { phase: 2, qc };
        assert!(proof.verify(&cfg, &pki, &value));
        assert!(!DecideProof { phase: 3, qc: proof.qc }.verify(&cfg, &pki, &value));
    }

    #[test]
    fn collector_admits_only_the_senders_own_share_on_its_payload() {
        let cfg = cfg();
        let (pki, keys) = trusted_setup(cfg.n(), 5);
        let payload = BbIdkSig { session: cfg.session(), phase: 4 };
        let mut shares = ShareCollector::new(&pki, &payload, 2);
        let own = sign_payload(&keys[2], &payload);
        assert!(!shares.offer(keys[3].id(), &own), "relayed by p3: signer != sender");
        let other = sign_payload(&keys[3], &BbIdkSig { session: cfg.session(), phase: 5 });
        assert!(!shares.offer(keys[3].id(), &other), "another phase's share");
        assert!(shares.offer(keys[2].id(), &own));
        assert!(shares.offer(keys[2].id(), &own), "a repeat is admissible");
        assert!(shares.certificate().is_none(), "but p2 counts once: 1 < 2");
    }

    /// `Pki::combine` as it was before the combiner existed — verify each
    /// share, then reject a repeated signer, then count — kept here as the
    /// reference the differential test compares against. `Ok` says a
    /// certificate would be minted.
    fn reference_combine(
        pki: &Pki,
        k: usize,
        msg: &[u8],
        shares: &[Signature],
    ) -> Result<(), CryptoError> {
        if k == 0 || k > pki.n() {
            return Err(CryptoError::BadThreshold { k, n: pki.n() });
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in shares {
            pki.verify(msg, s)?;
            if !seen.insert(s.signer()) {
                return Err(CryptoError::DuplicateSigner { signer: s.signer() });
            }
        }
        if seen.len() < k {
            return Err(CryptoError::InsufficientShares { needed: k, got: seen.len() });
        }
        Ok(())
    }

    proptest! {
        // Whatever is offered, in whatever order and however often —
        // valid shares, repeats, shares on another message, shares relayed
        // by someone else, shares of a signer outside the system:
        // `Pki::combine` and a `Combiner` fed one share at a time fail
        // where the reference fails, with the same error; and the
        // collector admits exactly the senders' own valid shares, its
        // certificate exists iff `threshold` distinct signers were
        // admitted, verifies, and is what `Pki::combine` makes of one
        // share per admitted signer.
        #[test]
        fn collector_and_combiner_are_the_reference_combine(
            threshold in 1usize..=7,
            // One draw per offer: kind (5) x signer (7) x relay shift (6).
            offers in proptest::collection::vec(0usize..5 * 7 * 6, 0..20),
        ) {
            let cfg = cfg();
            let (pki, keys) = trusted_setup(cfg.n(), 5);
            let (_, outside) = trusted_setup(2 * cfg.n(), 5);
            let value = 3u64;
            let payload = VoteSig { session: cfg.session(), value: &value, level: 1 };
            let other = VoteSig { session: cfg.session(), value: &value, level: 2 };
            let msg = payload.signing_bytes();

            // (claimed sender, share, whether the collector should admit it)
            let offers: Vec<(ProcessId, Signature, bool)> = offers
                .into_iter()
                .map(|x| (x % 5, x / 5 % 7, 1 + x / 35))
                .map(|(kind, i, shift)| match kind {
                    0 | 1 => (keys[i].id(), sign_payload(&keys[i], &payload), true),
                    2 => (keys[i].id(), sign_payload(&keys[i], &other), false),
                    3 => (keys[(i + shift) % 7].id(), sign_payload(&keys[i], &payload), false),
                    _ => (outside[7 + i].id(), sign_payload(&outside[7 + i], &payload), false),
                })
                .collect();
            let shares: Vec<Signature> = offers.iter().map(|(_, sig, _)| sig.clone()).collect();

            let reference = reference_combine(&pki, threshold, &msg, &shares);
            let combined = pki.combine(threshold, &msg, &shares);
            prop_assert_eq!(combined.as_ref().map(|_| ()), reference.as_ref().map(|_| ()));
            let mut combiner = pki.combiner(threshold, &msg).unwrap();
            let stepwise = shares.iter().try_for_each(|s| combiner.offer(s));
            let stepwise = stepwise.and_then(|()| combiner.finish());
            prop_assert_eq!(&stepwise, &combined);

            let mut collector = ShareCollector::new(&pki, &payload, threshold);
            let mut admitted = BTreeMap::new();
            for (from, sig, admissible) in offers {
                prop_assert_eq!(collector.offer(from, &sig), admissible);
                if admissible {
                    admitted.insert(from, sig);
                }
            }
            let distinct: Vec<Signature> = admitted.into_values().collect();
            match collector.certificate() {
                None => prop_assert!(distinct.len() < threshold),
                Some(qc) => {
                    prop_assert!(distinct.len() >= threshold);
                    prop_assert_eq!(qc.threshold(), threshold);
                    prop_assert!(pki.verify_threshold(&msg, &qc).is_ok());
                    prop_assert_eq!(qc, pki.combine(threshold, &msg, &distinct).unwrap());
                }
            }
        }
    }

    #[test]
    fn individual_payload_sign_verify() {
        let cfg = cfg();
        let (pki, keys) = trusted_setup(cfg.n(), 5);
        let payload = BbIdkSig { session: cfg.session(), phase: 4 };
        let sig = sign_payload(&keys[2], &payload);
        assert!(verify_payload(&pki, &payload, &sig));
        assert!(!verify_payload(&pki, &BbIdkSig { session: cfg.session(), phase: 5 }, &sig));
    }
}

//! Trusted public-key infrastructure with ideal signature schemes.
//!
//! The paper (§2) "abstracts away the details of cryptography and
//! assumes the threshold signature schemes are ideal". This module
//! realizes that abstraction inside the simulation:
//!
//! * Every process holds a [`SecretKey`] only the trusted setup can mint.
//! * [`Signature`], [`ThresholdSignature`] and [`AggregateSignature`] have
//!   **private constructors** — the only way to obtain one is to hold the
//!   relevant secret keys and call the signing/combining API. A Byzantine
//!   process in the simulation therefore cannot forge a certificate it
//!   could not forge under an ideal scheme.
//! * A threshold certificate is minted in one place, [`Combiner::finish`],
//!   from `k` distinct signers whose shares each passed
//!   [`Pki::verify_digest`] when they were offered; [`Pki::combine`] is
//!   the loop over a [`Combiner`]. A decoded certificate is inert until
//!   [`Pki::verify_threshold`] accepts it.
//! * Signatures are hash-then-sign: a tag is HMAC-SHA256, under a
//!   per-process key derived from a master secret, over the domain tag and
//!   the message's SHA-256 [`Digest`] — never over the message itself. So
//!   a share costs the same fixed MAC whatever the message length: one
//!   inner and one outer compression once the message is digested.
//!   [`Pki::verify`] / [`SecretKey::sign`] digest their message and call
//!   [`Pki::verify_digest`] / [`SecretKey::sign_digest`]; a [`Combiner`]
//!   digests its message once, when it is created, and checks every share
//!   against that digest. The [`Pki`] verification handle exposes no key
//!   material.
//!
//! Word accounting follows the paper's model: each signature object —
//! individual, threshold, or aggregate — costs **one word** (see
//! [`crate::words::WordCost`]), while its *constituent* signature count
//! (used by experiment E4 to reproduce the Dolev–Reischuk `Ω(nt)`
//! signature bound) is `1`, `k`, and `|signers|` respectively.

use crate::encoding::len;
use crate::error::{CryptoError, DecodeError};
use crate::hmac::{ct_eq, hmac_sha256, HmacSha256};
use crate::ids::ProcessId;
use crate::sha256::Digest;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Domain-separation tags for the three schemes. `DOM_SIGN` is `v2` since
/// individual tags MAC the message digest rather than the message.
const DOM_SIGN: &[u8] = b"meba/sig/v2";
const DOM_THRESH: &[u8] = b"meba/thresh/v1";
const DOM_AGG: &[u8] = b"meba/agg/v1";
const DOM_SK: &[u8] = b"meba/sk/v1";

thread_local! {
    static SHARE_VERIFIES: Cell<u64> = const { Cell::new(0) };
    static CERT_VERIFIES: Cell<u64> = const { Cell::new(0) };
}

/// The individual-signature tag: `primed` is a signer's MAC state with its
/// key pads and `DOM_SIGN` absorbed, so this is the one MAC both
/// [`SecretKey::sign_digest`] and [`Pki::verify_digest`] compute.
fn sig_tag(primed: &HmacSha256, digest: &Digest) -> [u8; 32] {
    let mut mac = primed.clone();
    mac.update(digest.as_bytes());
    mac.finalize()
}

/// How often the calling thread has run `(Pki::verify_digest,
/// Pki::verify_threshold)`, under any `Pki` (`Pki::verify` and
/// `Combiner::offer` each count once, through `verify_digest`). Test
/// instrumentation for "nothing is verified twice" assertions — difference
/// two readings taken around the code under test; it is not part of any
/// run's `Metrics`.
#[doc(hidden)]
pub fn verify_calls() -> (u64, u64) {
    (SHARE_VERIFIES.get(), CERT_VERIFIES.get())
}

/// Runs the trusted setup: generates a PKI for `n` processes and the
/// per-process secret keys.
///
/// The caller (the simulation harness) distributes each [`SecretKey`] to
/// its process; the [`Pki`] handle is public and may be cloned freely.
///
/// # Examples
///
/// ```
/// use meba_crypto::pki::trusted_setup;
///
/// let (pki, keys) = trusted_setup(4, 42);
/// let sig = keys[1].sign(b"hello");
/// assert!(pki.verify(b"hello", &sig).is_ok());
/// assert!(pki.verify(b"tampered", &sig).is_err());
/// ```
pub fn trusted_setup(n: usize, seed: u64) -> (Pki, Vec<SecretKey>) {
    assert!(n > 0, "a system needs at least one process");
    let master = hmac_sha256(&seed.to_be_bytes(), b"meba master secret");
    // Pre-absorb key pads and domain tags once per scheme so every
    // sign/verify afterwards clones a primed MAC state instead of
    // re-deriving the per-signer secret and re-running key setup. The
    // resulting tags are byte-identical to the unprimed construction.
    let primed = |domain: &[u8]| {
        let mut mac = HmacSha256::new(&master);
        mac.update(domain);
        mac
    };
    let sk_mac = primed(DOM_SK);
    // One secret and one key set-up per process: the verifier's primed
    // MAC is what the process's `SecretKey` signs with.
    let sig_macs: Vec<HmacSha256> = ProcessId::all(n)
        .map(|id| {
            let mut secret = sk_mac.clone();
            secret.update(&id.0.to_be_bytes());
            let mut mac = HmacSha256::new(&secret.finalize());
            mac.update(DOM_SIGN);
            mac
        })
        .collect();
    let keys = ProcessId::all(n)
        .zip(&sig_macs)
        .map(|(id, primed)| SecretKey { id, primed: primed.clone() })
        .collect();
    let inner = Arc::new(PkiInner {
        n,
        sig_macs,
        thresh_mac: primed(DOM_THRESH),
        agg_mac: primed(DOM_AGG),
    });
    (Pki { inner }, keys)
}

struct PkiInner {
    n: usize,
    /// Per-signer HMAC states with key pads + `DOM_SIGN` already absorbed.
    sig_macs: Vec<HmacSha256>,
    /// Master-keyed HMAC state with `DOM_THRESH` absorbed.
    thresh_mac: HmacSha256,
    /// Master-keyed HMAC state with `DOM_AGG` absorbed.
    agg_mac: HmacSha256,
}

/// Public verification handle for the system's signature schemes.
///
/// Cheap to clone (shared internals). Exposes *no* key material: holding a
/// `Pki` lets a process verify anything but sign nothing.
#[derive(Clone)]
pub struct Pki {
    inner: Arc<PkiInner>,
}

impl fmt::Debug for Pki {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pki").field("n", &self.inner.n).finish_non_exhaustive()
    }
}

impl Pki {
    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    fn check_signer(&self, signer: ProcessId) -> Result<(), CryptoError> {
        if signer.index() >= self.inner.n {
            Err(CryptoError::UnknownSigner { signer })
        } else {
            Ok(())
        }
    }

    /// Verifies an individual signature on `msg`: [`Pki::verify_digest`]
    /// over its digest.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownSigner`] if the claimed signer is outside the
    /// system, [`CryptoError::BadSignature`] if the tag does not verify.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        self.verify_digest(&Digest::of(msg), sig)
    }

    /// Verifies an individual signature on the message whose SHA-256 is
    /// `digest`: clones the signer's primed MAC state and absorbs the 32
    /// digest bytes, one inner and one outer compression.
    ///
    /// # Errors
    ///
    /// As [`Pki::verify`].
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> Result<(), CryptoError> {
        SHARE_VERIFIES.set(SHARE_VERIFIES.get() + 1);
        self.check_signer(sig.signer)?;
        if ct_eq(&sig_tag(&self.inner.sig_macs[sig.signer.index()], digest), &sig.tag) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature { signer: sig.signer })
        }
    }

    fn thresh_tag(&self, k: usize, digest: &Digest) -> [u8; 32] {
        let mut mac = self.inner.thresh_mac.clone();
        mac.update(&(k as u64).to_be_bytes());
        mac.update(digest.as_bytes());
        mac.finalize()
    }

    /// Batches `k` (or more) unique valid signatures on `msg` into a
    /// `(k, n)`-threshold signature — one word, per the paper's model.
    ///
    /// Invalid shares are rejected (not silently skipped) so a correct
    /// leader never wastes a round on a certificate that will not verify.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::BadThreshold`] — `k == 0` or `k > n`.
    /// * [`CryptoError::DuplicateSigner`] — two shares from one process.
    /// * [`CryptoError::BadSignature`] / [`CryptoError::UnknownSigner`] —
    ///   an invalid share.
    /// * [`CryptoError::InsufficientShares`] — fewer than `k` shares.
    ///
    /// # Examples
    ///
    /// ```
    /// use meba_crypto::pki::trusted_setup;
    ///
    /// let (pki, keys) = trusted_setup(5, 1);
    /// let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"v")).collect();
    /// let qc = pki.combine(3, b"v", &shares)?;
    /// assert!(pki.verify_threshold(b"v", &qc).is_ok());
    /// # Ok::<(), meba_crypto::CryptoError>(())
    /// ```
    pub fn combine(
        &self,
        k: usize,
        msg: &[u8],
        shares: &[Signature],
    ) -> Result<ThresholdSignature, CryptoError> {
        let mut combiner = self.combiner(k, msg)?;
        for s in shares {
            combiner.offer(s)?;
        }
        combiner.finish()
    }

    /// Starts a `(k, n)` certificate on `msg` whose shares arrive one at
    /// a time: [`Combiner::offer`] verifies and admits a share,
    /// [`Combiner::finish`] mints the certificate. [`Pki::combine`] is the
    /// loop over it, so a share is verified exactly once either way.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadThreshold`] — `k == 0` or `k > n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use meba_crypto::pki::trusted_setup;
    ///
    /// let (pki, keys) = trusted_setup(5, 1);
    /// let mut combiner = pki.combiner(2, b"v")?;
    /// assert!(combiner.offer(&keys[0].sign(b"w")).is_err());
    /// combiner.offer(&keys[0].sign(b"v"))?;
    /// combiner.offer(&keys[3].sign(b"v"))?;
    /// // The certificate does not depend on which `k` signers formed it.
    /// let others = [keys[1].sign(b"v"), keys[2].sign(b"v")];
    /// assert_eq!(combiner.finish()?, pki.combine(2, b"v", &others)?);
    /// # Ok::<(), meba_crypto::CryptoError>(())
    /// ```
    pub fn combiner(&self, k: usize, msg: &[u8]) -> Result<Combiner, CryptoError> {
        if k == 0 || k > self.inner.n {
            return Err(CryptoError::BadThreshold { k, n: self.inner.n });
        }
        Ok(Combiner { pki: self.clone(), k, digest: Digest::of(msg), signers: BTreeSet::new() })
    }

    /// Verifies that `ts` certifies `msg` under its `(k, n)` scheme.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageMismatch`] if the certificate was issued for a
    /// different message or its tag does not verify.
    pub fn verify_threshold(&self, msg: &[u8], ts: &ThresholdSignature) -> Result<(), CryptoError> {
        CERT_VERIFIES.set(CERT_VERIFIES.get() + 1);
        let digest = Digest::of(msg);
        if digest == ts.digest && ct_eq(&self.thresh_tag(ts.threshold, &digest), &ts.tag) {
            Ok(())
        } else {
            Err(CryptoError::MessageMismatch)
        }
    }

    fn agg_tag(&self, signers: &BTreeSet<ProcessId>, digest: &Digest) -> [u8; 32] {
        let mut mac = self.inner.agg_mac.clone();
        for s in signers {
            mac.update(&s.0.to_be_bytes());
        }
        mac.update(digest.as_bytes());
        mac.finalize()
    }

    /// Aggregates individual signatures on `msg` into a multi-signature
    /// with an explicit signer set (BLS-style; one word plus the signer
    /// bitmap, which the word model also counts as one word).
    ///
    /// # Errors
    ///
    /// Same share-validation errors as [`Pki::combine`]; an empty share
    /// list yields [`CryptoError::InsufficientShares`].
    pub fn aggregate(
        &self,
        msg: &[u8],
        shares: &[Signature],
    ) -> Result<AggregateSignature, CryptoError> {
        if shares.is_empty() {
            return Err(CryptoError::InsufficientShares { needed: 1, got: 0 });
        }
        let digest = Digest::of(msg);
        let mut signers = BTreeSet::new();
        for s in shares {
            self.verify_digest(&digest, s)?;
            if !signers.insert(s.signer) {
                return Err(CryptoError::DuplicateSigner { signer: s.signer });
            }
        }
        let tag = self.agg_tag(&signers, &digest);
        Ok(AggregateSignature { signers, digest, tag })
    }

    /// Extends an aggregate with one more signature on the same message
    /// (used by Dolev–Strong style forwarding chains).
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageMismatch`] if `agg` does not certify `msg`;
    /// [`CryptoError::DuplicateSigner`] if the signer already contributed;
    /// plus individual-signature errors for `extra`.
    pub fn extend_aggregate(
        &self,
        msg: &[u8],
        agg: &AggregateSignature,
        extra: &Signature,
    ) -> Result<AggregateSignature, CryptoError> {
        let digest = Digest::of(msg);
        self.verify_aggregate_digest(&digest, agg)?;
        self.verify_digest(&digest, extra)?;
        if agg.signers.contains(&extra.signer) {
            return Err(CryptoError::DuplicateSigner { signer: extra.signer });
        }
        let mut signers = agg.signers.clone();
        signers.insert(extra.signer);
        let tag = self.agg_tag(&signers, &agg.digest);
        Ok(AggregateSignature { signers, digest: agg.digest, tag })
    }

    /// Verifies an aggregate signature on `msg`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageMismatch`] on digest or tag mismatch;
    /// [`CryptoError::UnknownSigner`] if the signer set leaves the system.
    pub fn verify_aggregate(
        &self,
        msg: &[u8],
        agg: &AggregateSignature,
    ) -> Result<(), CryptoError> {
        self.verify_aggregate_digest(&Digest::of(msg), agg)
    }

    fn verify_aggregate_digest(
        &self,
        digest: &Digest,
        agg: &AggregateSignature,
    ) -> Result<(), CryptoError> {
        for &s in &agg.signers {
            self.check_signer(s)?;
        }
        if *digest != agg.digest {
            return Err(CryptoError::MessageMismatch);
        }
        if ct_eq(&self.agg_tag(&agg.signers, digest), &agg.tag) {
            Ok(())
        } else {
            Err(CryptoError::MessageMismatch)
        }
    }
}

/// A `(k, n)` threshold certificate in formation ([`Pki::combiner`]).
///
/// Holds the message's digest, taken once when the combiner is created,
/// and the signers whose shares verified against it — never an unverified
/// share, so [`Combiner::finish`] has nothing left to check but the count.
#[derive(Debug)]
pub struct Combiner {
    pki: Pki,
    k: usize,
    digest: Digest,
    signers: BTreeSet<ProcessId>,
}

impl Combiner {
    /// Verifies `share` over the message's digest and counts its signer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownSigner`] / [`CryptoError::BadSignature`] if the
    /// share does not verify; otherwise [`CryptoError::DuplicateSigner`] if
    /// its signer already counts. A rejected share changes nothing.
    pub fn offer(&mut self, share: &Signature) -> Result<(), CryptoError> {
        self.pki.verify_digest(&self.digest, share)?;
        if !self.signers.insert(share.signer) {
            return Err(CryptoError::DuplicateSigner { signer: share.signer });
        }
        Ok(())
    }

    /// How many distinct signers have been admitted so far.
    pub fn admitted(&self) -> usize {
        self.signers.len()
    }

    /// Mints the certificate.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InsufficientShares`] — fewer than `k` signers admitted.
    pub fn finish(self) -> Result<ThresholdSignature, CryptoError> {
        if self.signers.len() < self.k {
            return Err(CryptoError::InsufficientShares {
                needed: self.k,
                got: self.signers.len(),
            });
        }
        Ok(ThresholdSignature {
            threshold: self.k,
            digest: self.digest,
            tag: self.pki.thresh_tag(self.k, &self.digest),
        })
    }
}

/// Signing key of a single process.
///
/// Only the trusted setup can create one; the harness hands each process
/// (and the adversary, for corrupted processes) its key.
#[derive(Clone)]
pub struct SecretKey {
    id: ProcessId,
    /// HMAC state with the key pads and `DOM_SIGN` pre-absorbed; each
    /// signature clones it and absorbs only the message digest.
    primed: HmacSha256,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey({})", self.id)
    }
}

impl SecretKey {
    /// The identity this key signs for.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `msg`, producing `⟨msg⟩_p` in the paper's notation.
    ///
    /// # Examples
    ///
    /// ```
    /// use meba_crypto::pki::trusted_setup;
    ///
    /// let (pki, keys) = trusted_setup(3, 7);
    /// let sig = keys[0].sign(b"proposal");
    /// assert_eq!(sig.signer(), keys[0].id());
    /// assert!(pki.verify(b"proposal", &sig).is_ok());
    /// ```
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_digest(&Digest::of(msg))
    }

    /// Signs the message whose SHA-256 is `digest`: the same signature as
    /// [`SecretKey::sign`] on that message.
    ///
    /// # Examples
    ///
    /// ```
    /// use meba_crypto::{pki::trusted_setup, Digest};
    ///
    /// let (pki, keys) = trusted_setup(3, 7);
    /// let sig = keys[0].sign_digest(&Digest::of(b"proposal"));
    /// assert_eq!(sig, keys[0].sign(b"proposal"));
    /// assert!(pki.verify(b"proposal", &sig).is_ok());
    /// ```
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        Signature { signer: self.id, tag: sig_tag(&self.primed, digest) }
    }
}

/// An individual signature `⟨m⟩_p`. One word.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    signer: ProcessId,
    tag: [u8; 32],
}

impl Signature {
    /// The claimed signer (authenticated once [`Pki::verify`] succeeds).
    pub fn signer(&self) -> ProcessId {
        self.signer
    }

    /// Writes the signature's canonical wire encoding (signer + tag) into
    /// `enc`, so values embedding signatures hash deterministically.
    pub fn encode(&self, enc: &mut crate::encoding::Encoder) {
        enc.put_id(self.signer);
        enc.put_bytes(&self.tag);
    }

    /// Reads a signature from its canonical wire encoding.
    ///
    /// Decoding does **not** authenticate: the result carries whatever tag
    /// the bytes claimed and only [`Pki::verify`] decides whether it is
    /// genuine, so the ideal-scheme unforgeability argument is unchanged.
    pub fn decode(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        let signer = dec.get_id()?;
        let tag: [u8; 32] = dec
            .get_bytes_borrowed()?
            .try_into()
            .map_err(|_| DecodeError::Invalid { what: "signature tag length" })?;
        Ok(Signature { signer, tag })
    }
}

impl crate::encoding::WireCodec for Signature {
    fn encode_wire(&self, enc: &mut crate::encoding::Encoder) {
        self.encode(enc);
    }
    fn decode_wire(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        Signature::decode(dec)
    }
    fn wire_len(&self) -> u64 {
        len::ID + len::bytes(self.tag.len())
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig({})", self.signer)
    }
}

/// A `(k, n)`-threshold signature: `k` unique signatures batched into one
/// word. Does not reveal the signer set, matching real threshold schemes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThresholdSignature {
    threshold: usize,
    digest: Digest,
    tag: [u8; 32],
}

impl ThresholdSignature {
    /// The scheme threshold `k` this certificate proves.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Digest of the certified message.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Writes the certificate's canonical wire encoding into `enc`.
    pub fn encode(&self, enc: &mut crate::encoding::Encoder) {
        enc.put_u64(self.threshold as u64);
        enc.put_digest(&self.digest);
        enc.put_bytes(&self.tag);
    }

    /// Reads a threshold certificate from its canonical wire encoding.
    /// Unauthenticated until [`Pki::verify_threshold`] accepts it.
    pub fn decode(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        let threshold = dec.get_u64()?;
        let threshold = usize::try_from(threshold)
            .map_err(|_| DecodeError::Invalid { what: "threshold overflows usize" })?;
        let digest = dec.get_digest()?;
        let tag: [u8; 32] = dec
            .get_bytes_borrowed()?
            .try_into()
            .map_err(|_| DecodeError::Invalid { what: "certificate tag length" })?;
        Ok(ThresholdSignature { threshold, digest, tag })
    }
}

impl crate::encoding::WireCodec for ThresholdSignature {
    fn encode_wire(&self, enc: &mut crate::encoding::Encoder) {
        self.encode(enc);
    }
    fn decode_wire(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        ThresholdSignature::decode(dec)
    }
    fn wire_len(&self) -> u64 {
        len::U64 + len::DIGEST + len::bytes(self.tag.len())
    }
}

impl fmt::Debug for ThresholdSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThreshSig(k={}, {:?})", self.threshold, self.digest)
    }
}

/// A multi-signature with an explicit signer set. One word.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AggregateSignature {
    signers: BTreeSet<ProcessId>,
    digest: Digest,
    tag: [u8; 32],
}

impl AggregateSignature {
    /// Set of processes that signed.
    pub fn signers(&self) -> &BTreeSet<ProcessId> {
        &self.signers
    }

    /// Number of constituent signatures.
    pub fn len(&self) -> usize {
        self.signers.len()
    }

    /// Whether the signer set is empty (never true for a constructed
    /// aggregate, but required by convention alongside [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.signers.is_empty()
    }

    /// Digest of the certified message.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Whether `p` contributed to this aggregate.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.signers.contains(&p)
    }

    /// Writes the aggregate's canonical wire encoding into `enc`.
    pub fn encode(&self, enc: &mut crate::encoding::Encoder) {
        enc.put_u64(self.signers.len() as u64);
        for s in &self.signers {
            enc.put_id(*s);
        }
        enc.put_digest(&self.digest);
        enc.put_bytes(&self.tag);
    }

    /// Reads an aggregate from its canonical wire encoding.
    ///
    /// The signer list must be strictly ascending — the only order the
    /// encoder (iterating a `BTreeSet`) ever produces — so every aggregate
    /// has exactly one byte representation. Unauthenticated until
    /// [`Pki::verify_aggregate`] accepts it.
    pub fn decode(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.get_u64()?;
        let mut signers = BTreeSet::new();
        let mut prev: Option<ProcessId> = None;
        for _ in 0..len {
            let id = dec.get_id()?;
            if prev.is_some_and(|p| p >= id) {
                return Err(DecodeError::Invalid { what: "aggregate signer set not ascending" });
            }
            prev = Some(id);
            signers.insert(id);
        }
        let digest = dec.get_digest()?;
        let tag: [u8; 32] = dec
            .get_bytes_borrowed()?
            .try_into()
            .map_err(|_| DecodeError::Invalid { what: "aggregate tag length" })?;
        Ok(AggregateSignature { signers, digest, tag })
    }
}

impl crate::encoding::WireCodec for AggregateSignature {
    fn encode_wire(&self, enc: &mut crate::encoding::Encoder) {
        self.encode(enc);
    }
    fn decode_wire(dec: &mut crate::encoding::Decoder<'_>) -> Result<Self, DecodeError> {
        AggregateSignature::decode(dec)
    }
    fn wire_len(&self) -> u64 {
        len::U64 + len::ID * self.signers.len() as u64 + len::DIGEST + len::bytes(self.tag.len())
    }
}

impl fmt::Debug for AggregateSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AggSig({:?}, {:?})", self.signers, self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Pki, Vec<SecretKey>) {
        trusted_setup(n, 0xfeed)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (pki, keys) = setup(4);
        for k in &keys {
            let sig = k.sign(b"m");
            assert!(pki.verify(b"m", &sig).is_ok());
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let (pki, keys) = setup(3);
        let sig = keys[0].sign(b"m");
        assert_eq!(
            pki.verify(b"m2", &sig),
            Err(CryptoError::BadSignature { signer: ProcessId(0) })
        );
    }

    #[test]
    fn cross_seed_keys_do_not_verify() {
        let (pki_a, _) = trusted_setup(3, 1);
        let (_, keys_b) = trusted_setup(3, 2);
        let sig = keys_b[0].sign(b"m");
        assert!(pki_a.verify(b"m", &sig).is_err());
    }

    #[test]
    fn deterministic_setup() {
        let (pki1, keys1) = trusted_setup(3, 9);
        let (pki2, keys2) = trusted_setup(3, 9);
        let s1 = keys1[2].sign(b"x");
        let s2 = keys2[2].sign(b"x");
        assert_eq!(s1, s2);
        assert!(pki1.verify(b"x", &s2).is_ok());
        assert!(pki2.verify(b"x", &s1).is_ok());
    }

    #[test]
    fn tags_match_an_independent_hmac() {
        // Computed outside this crate (Python `hmac` / `hashlib`) from the
        // construction in the module docs: neither the outer-midstate MAC
        // nor the single key derivation may move a tag. The share is
        // `HMAC(sk_2, b"meba/sig/v2" + sha256(b"v"))`; the certificate is
        // `HMAC(master, b"meba/thresh/v1" + be64(3) + sha256(b"v"))`.
        fn hex(tag: &[u8; 32]) -> String {
            tag.iter().map(|b| format!("{b:02x}")).collect()
        }
        let (pki, keys) = setup(5);
        assert_eq!(
            hex(&keys[2].sign(b"v").tag),
            "aa9ded0f81d9c239fe4c7a60961e76e77fa80cc3845a66f72ae259f9a728482c"
        );
        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"v")).collect();
        assert_eq!(
            hex(&pki.combine(3, b"v", &shares).unwrap().tag),
            "e7a5d9fc8ccbc0650837e8c494e4b701c591a0b842e51d16a4ba0192c8d31ef2"
        );
    }

    #[test]
    fn combiner_counts_only_verified_distinct_signers() {
        let (pki, keys) = setup(5);
        let (_, outside) = trusted_setup(8, 0xfeed);
        let mut combiner = pki.combiner(3, b"v").unwrap();
        assert_eq!(
            combiner.offer(&keys[0].sign(b"w")),
            Err(CryptoError::BadSignature { signer: ProcessId(0) })
        );
        assert_eq!(
            combiner.offer(&outside[6].sign(b"v")),
            Err(CryptoError::UnknownSigner { signer: ProcessId(6) })
        );
        combiner.offer(&keys[0].sign(b"v")).unwrap();
        assert_eq!(
            combiner.offer(&keys[0].sign(b"v")),
            Err(CryptoError::DuplicateSigner { signer: ProcessId(0) })
        );
        combiner.offer(&keys[1].sign(b"v")).unwrap();
        // Five offers, two signers admitted: a rejected share never counts.
        assert_eq!(combiner.finish(), Err(CryptoError::InsufficientShares { needed: 3, got: 2 }));
        assert!(matches!(pki.combiner(0, b"v"), Err(CryptoError::BadThreshold { .. })));
        assert!(matches!(pki.combiner(6, b"v"), Err(CryptoError::BadThreshold { .. })));
    }

    #[test]
    fn combine_happy_path() {
        let (pki, keys) = setup(7);
        let shares: Vec<_> = keys.iter().take(4).map(|k| k.sign(b"v")).collect();
        let qc = pki.combine(4, b"v", &shares).unwrap();
        assert_eq!(qc.threshold(), 4);
        assert!(pki.verify_threshold(b"v", &qc).is_ok());
        assert!(pki.verify_threshold(b"w", &qc).is_err());
    }

    #[test]
    fn combine_accepts_surplus_shares() {
        let (pki, keys) = setup(5);
        let shares: Vec<_> = keys.iter().map(|k| k.sign(b"v")).collect();
        assert!(pki.combine(3, b"v", &shares).is_ok());
    }

    #[test]
    fn combine_rejects_duplicates() {
        let (pki, keys) = setup(5);
        let s = keys[0].sign(b"v");
        let shares = vec![s.clone(), s, keys[1].sign(b"v")];
        assert_eq!(
            pki.combine(3, b"v", &shares),
            Err(CryptoError::DuplicateSigner { signer: ProcessId(0) })
        );
    }

    #[test]
    fn combine_rejects_insufficient() {
        let (pki, keys) = setup(5);
        let shares: Vec<_> = keys.iter().take(2).map(|k| k.sign(b"v")).collect();
        assert_eq!(
            pki.combine(3, b"v", &shares),
            Err(CryptoError::InsufficientShares { needed: 3, got: 2 })
        );
    }

    #[test]
    fn combine_rejects_mixed_messages() {
        let (pki, keys) = setup(5);
        let shares = vec![keys[0].sign(b"v"), keys[1].sign(b"w"), keys[2].sign(b"v")];
        assert!(matches!(pki.combine(3, b"v", &shares), Err(CryptoError::BadSignature { .. })));
    }

    #[test]
    fn combine_rejects_bad_threshold() {
        let (pki, keys) = setup(3);
        let shares: Vec<_> = keys.iter().map(|k| k.sign(b"v")).collect();
        assert!(matches!(pki.combine(0, b"v", &shares), Err(CryptoError::BadThreshold { .. })));
        assert!(matches!(pki.combine(4, b"v", &shares), Err(CryptoError::BadThreshold { .. })));
    }

    #[test]
    fn threshold_sig_binds_threshold_value() {
        // A (2,n) certificate must not verify as a (3,n) certificate.
        let (pki, keys) = setup(5);
        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"v")).collect();
        let qc2 = pki.combine(2, b"v", &shares).unwrap();
        let qc3 = pki.combine(3, b"v", &shares).unwrap();
        assert_ne!(qc2, qc3);
        assert_eq!(qc2.threshold(), 2);
    }

    #[test]
    fn aggregate_roundtrip_and_extend() {
        let (pki, keys) = setup(6);
        let shares: Vec<_> = keys.iter().take(2).map(|k| k.sign(b"v")).collect();
        let agg = pki.aggregate(b"v", &shares).unwrap();
        assert_eq!(agg.len(), 2);
        assert!(pki.verify_aggregate(b"v", &agg).is_ok());

        let extended = pki.extend_aggregate(b"v", &agg, &keys[4].sign(b"v")).unwrap();
        assert_eq!(extended.len(), 3);
        assert!(extended.contains(ProcessId(4)));
        assert!(pki.verify_aggregate(b"v", &extended).is_ok());

        // Extending with an existing signer fails.
        assert_eq!(
            pki.extend_aggregate(b"v", &extended, &keys[0].sign(b"v")),
            Err(CryptoError::DuplicateSigner { signer: ProcessId(0) })
        );
    }

    #[test]
    fn aggregate_rejects_empty_and_wrong_message() {
        let (pki, keys) = setup(3);
        assert!(matches!(pki.aggregate(b"v", &[]), Err(CryptoError::InsufficientShares { .. })));
        let agg = pki.aggregate(b"v", &[keys[0].sign(b"v")]).unwrap();
        assert_eq!(pki.verify_aggregate(b"w", &agg), Err(CryptoError::MessageMismatch));
    }

    #[test]
    fn unknown_signer_rejected() {
        let (pki_small, _) = trusted_setup(2, 5);
        let (_, keys_big) = trusted_setup(4, 5);
        let sig = keys_big[3].sign(b"m");
        assert_eq!(
            pki_small.verify(b"m", &sig),
            Err(CryptoError::UnknownSigner { signer: ProcessId(3) })
        );
    }
}

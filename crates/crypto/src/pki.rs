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
//! * Signatures are hash-then-sign: a tag is keyed SHA-256, under a
//!   per-process key derived from a master secret, over the domain tag and
//!   the message's SHA-256 [`Digest`] — never over the message itself. So
//!   a share costs the same fixed tag whatever the message length: one
//!   compression once the message is digested (see "One compression per
//!   tag" below). [`Pki::verify`] / [`SecretKey::sign`] digest their message and call
//!   [`Pki::verify_digest`] / [`SecretKey::sign_digest`]; a [`Combiner`]
//!   digests its message once, when it is created, and checks every share
//!   against that digest (see "One schedule per certificate" below). The
//!   [`Pki`] verification handle exposes no key material.
//!
//! Word accounting follows the paper's model: each signature object —
//! individual, threshold, or aggregate — costs **one word** (see
//! [`crate::words::WordCost`]), while its *constituent* signature count
//! (used by experiment E4 to reproduce the Dolev–Reischuk `Ω(nt)`
//! signature bound) is `1`, `k`, and `|signers|` respectively.
//!
//! # One compression per tag
//!
//! With `d` the message's digest, a share's tag is
//! `SHA-256((sk_p ⊕ ipad) ‖ "meba/sig/v3" ‖ d)` and a `(k, n)`
//! certificate's is `SHA-256((master ⊕ ipad) ‖ "meba/thresh/v2" ‖ be64(k) ‖ d)`:
//! HMAC's keyed inner hash, without its outer hash. [`trusted_setup`]
//! compresses each key block once and keeps the 8-word chaining value
//! (the midstate); what follows it is 43 or 54 bytes, which fits one
//! final block with its padding. So a sign or a verify builds that padded
//! block directly and runs it from the midstate: one compression where
//! HMAC takes two. Aggregate tags, whose input grows with the signer set,
//! and the key derivation stay full HMAC.
//!
//! Why this is as strong as HMAC here: HMAC's PRF proof (Bellare,
//! CRYPTO 2006) rests on SHA-256's compression function being a PRF when
//! keyed through its chaining value, and on the keyed midstate — the
//! compression of `key ⊕ ipad` — being pseudorandom. Under the same two
//! assumptions a tag is that PRF, keyed by the midstate, applied to one
//! block. The outer hash exists to stop length extension of a
//! multi-block, variable-length inner hash: from a tag anyone can compute
//! SHA-256 of the same keyed input continued by padding and more bytes.
//! That value verifies only where a verifier hashes the longer input, and
//! neither does: [`Pki::verify_digest`] hashes exactly a domain tag and a
//! 32-byte digest, [`Pki::verify_threshold`] exactly a domain tag, an
//! 8-byte threshold and a digest. Every input under one midstate starts
//! with its domain tag: the master key also keys the full-HMAC key
//! derivation (`meba/sk/v1`) and the aggregate tags (`meba/agg/v1`), so a
//! certificate tag is the PRF at a point no other computation evaluates,
//! and a share tag never verifies as a certificate, nor the reverse. The
//! domain tags moved from `meba/sig/v2` and `meba/thresh/v1`, so a tag
//! made by the two-compression MAC can never verify.
//!
//! # One schedule per certificate
//!
//! A compression is two steps: `Schedule::of` expands the block into
//! its 64 message words, and `Schedule::compress` runs the 64 rounds
//! over a chaining value. Every share of one certificate has the same
//! block — `DOM_SIGN ‖ d` padded — and differs only in its signer's
//! midstate, so a [`Combiner`] expands that block once, when it is
//! created, and each [`Combiner::offer`] runs only the rounds, about 40 %
//! of a share check saved. [`Pki::verify_digest`] and
//! [`SecretKey::sign_digest`] expand the block per call and run the same
//! one tag function. The schedule is a function of public bytes — domain
//! tag, digest, length — so sharing it changes no tag and reveals no key;
//! each offer still counts one share verify and one compression.

use crate::encoding::len;
use crate::error::{CryptoError, DecodeError};
use crate::hmac::{ct_eq, hmac_sha256, keyed_inner, HmacSha256};
use crate::ids::ProcessId;
use crate::sha256::{last_block, state_bytes, Digest, Schedule};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Domain-separation tags for the three schemes and the key derivation.
/// `DOM_SIGN` is `v3` and `DOM_THRESH` `v2` since their tags are the keyed
/// inner hash alone (see the module docs).
const DOM_SIGN: &[u8] = b"meba/sig/v3";
const DOM_THRESH: &[u8] = b"meba/thresh/v2";
const DOM_AGG: &[u8] = b"meba/agg/v1";
const DOM_SK: &[u8] = b"meba/sk/v1";

/// Both one-block inputs leave room for SHA-256's 9 bytes of padding.
const _: () = assert!(DOM_SIGN.len() + 32 <= 55 && DOM_THRESH.len() + 8 + 32 <= 55);

thread_local! {
    static SHARE_VERIFIES: Cell<u64> = const { Cell::new(0) };
    static CERT_VERIFIES: Cell<u64> = const { Cell::new(0) };
}

/// The schedule of a tag's one block: `parts` after the 64-byte key
/// block, then SHA-256's padding.
fn tag_schedule(parts: &[&[u8]]) -> Schedule {
    Schedule::of(&last_block(64, parts))
}

/// The schedule of every share over `digest`, whoever signs it.
fn share_schedule(digest: &Digest) -> Schedule {
    tag_schedule(&[DOM_SIGN, digest.as_bytes()])
}

/// Every share and certificate tag: the 64 rounds of its block's
/// `schedule` from a keyed `midstate`, one compression.
fn tag(midstate: &[u32; 8], schedule: &Schedule) -> [u8; 32] {
    let mut state = *midstate;
    schedule.compress(&mut state);
    state_bytes(&state)
}

/// How often the calling thread has run `(Pki::verify_digest,
/// Pki::verify_threshold_digest)`, under any `Pki` (`Pki::verify` and
/// `Combiner::offer` each count as one share verify,
/// `Pki::verify_threshold` as one certificate verify). Test
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
    let mut sk_mac = HmacSha256::new(&master);
    sk_mac.update(DOM_SK);
    // Compress each key block once, so every sign/verify afterwards runs
    // one block from its midstate instead of re-deriving the per-signer
    // secret. The verifier's midstate is what the process's `SecretKey`
    // signs with.
    let sig_keys: Vec<[u32; 8]> = ProcessId::all(n)
        .map(|id| {
            let mut secret = sk_mac.clone();
            secret.update(&id.0.to_be_bytes());
            keyed_inner(&secret.finalize())
        })
        .collect();
    let keys = ProcessId::all(n)
        .zip(&sig_keys)
        .map(|(id, &midstate)| SecretKey { id, midstate })
        .collect();
    let mut agg_mac = HmacSha256::new(&master);
    agg_mac.update(DOM_AGG);
    let inner = Arc::new(PkiInner { n, sig_keys, thresh_key: keyed_inner(&master), agg_mac });
    (Pki { inner }, keys)
}

struct PkiInner {
    n: usize,
    /// Per-signer keyed midstates: SHA-256's chaining value after
    /// `sk_p ⊕ ipad`.
    sig_keys: Vec<[u32; 8]>,
    /// The master key's midstate.
    thresh_key: [u32; 8],
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
    /// `digest`: expands the share block over `digest` and runs it from
    /// the signer's midstate, one compression.
    ///
    /// # Errors
    ///
    /// As [`Pki::verify`].
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> Result<(), CryptoError> {
        self.verify_share(&share_schedule(digest), sig)
    }

    /// The one share check, against the share block's `schedule`:
    /// [`Pki::verify_digest`] expands it per call, a [`Combiner`] once.
    fn verify_share(&self, schedule: &Schedule, sig: &Signature) -> Result<(), CryptoError> {
        SHARE_VERIFIES.set(SHARE_VERIFIES.get() + 1);
        self.check_signer(sig.signer)?;
        if ct_eq(&tag(&self.inner.sig_keys[sig.signer.index()], schedule), &sig.tag) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature { signer: sig.signer })
        }
    }

    /// The certificate tag: `DOM_THRESH ‖ be64(k) ‖ digest` from the
    /// master midstate, one compression.
    fn thresh_tag(&self, k: usize, digest: &Digest) -> [u8; 32] {
        let be_k = (k as u64).to_be_bytes();
        tag(&self.inner.thresh_key, &tag_schedule(&[DOM_THRESH, &be_k, digest.as_bytes()]))
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
        let digest = Digest::of(msg);
        let schedule = share_schedule(&digest);
        Ok(Combiner { pki: self.clone(), k, digest, schedule, signers: BTreeSet::new() })
    }

    /// Verifies that `ts` certifies `msg` under its `(k, n)` scheme:
    /// [`Pki::verify_threshold_digest`] over its digest.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageMismatch`] if the certificate was issued for a
    /// different message or its tag does not verify.
    pub fn verify_threshold(&self, msg: &[u8], ts: &ThresholdSignature) -> Result<(), CryptoError> {
        self.verify_threshold_digest(&Digest::of(msg), ts)
    }

    /// Verifies that `ts` certifies the message whose SHA-256 is `digest`
    /// under its `(k, n)` scheme, one compression: the certificate check
    /// for a caller that already holds the digest.
    ///
    /// # Errors
    ///
    /// As [`Pki::verify_threshold`].
    pub fn verify_threshold_digest(
        &self,
        digest: &Digest,
        ts: &ThresholdSignature,
    ) -> Result<(), CryptoError> {
        CERT_VERIFIES.set(CERT_VERIFIES.get() + 1);
        if *digest == ts.digest && ct_eq(&self.thresh_tag(ts.threshold, digest), &ts.tag) {
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
/// Holds the message's digest and its share block's schedule, both taken
/// once when the combiner is created, and the signers whose shares
/// verified against them — never an unverified share, so
/// [`Combiner::finish`] has nothing left to check but the count.
#[derive(Debug)]
pub struct Combiner {
    pki: Pki,
    k: usize,
    digest: Digest,
    /// Every share's block is the same, `DOM_SIGN ‖ digest` padded; only
    /// the signer's midstate differs.
    schedule: Schedule,
    signers: BTreeSet<ProcessId>,
}

impl Combiner {
    /// Verifies `share` over the message's digest — [`Pki::verify_digest`]
    /// without re-expanding the share block — and counts its signer.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownSigner`] / [`CryptoError::BadSignature`] if the
    /// share does not verify; otherwise [`CryptoError::DuplicateSigner`] if
    /// its signer already counts. A rejected share changes nothing.
    pub fn offer(&mut self, share: &Signature) -> Result<(), CryptoError> {
        self.pki.verify_share(&self.schedule, share)?;
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
    /// Keyed midstate; each signature runs the share block over the
    /// message digest from it.
    midstate: [u32; 8],
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
        Signature { signer: self.id, tag: tag(&self.midstate, &share_schedule(digest)) }
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
    use crate::sha256::Sha256;

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
    fn tags_match_an_independent_sha256() {
        // Computed outside this crate from the construction in the module
        // docs, hashing the exact preimage with Python's `hashlib`:
        //
        //   import hashlib, hmac
        //   H = lambda b: hashlib.sha256(b).digest()
        //   ipad = lambda k: bytes(b ^ 0x36 for b in k.ljust(64, b"\0"))
        //   master = hmac.new((0xfeed).to_bytes(8, "big"),
        //                     b"meba master secret", "sha256").digest()
        //   sk2 = hmac.new(master, b"meba/sk/v1" + (2).to_bytes(4, "big"),
        //                  "sha256").digest()
        //   d = H(b"v")
        //   H(ipad(sk2) + b"meba/sig/v3" + d).hex()
        //   H(ipad(master) + b"meba/thresh/v2" + (3).to_bytes(8, "big") + d).hex()
        fn hex(tag: &[u8; 32]) -> String {
            tag.iter().map(|b| format!("{b:02x}")).collect()
        }
        let (pki, keys) = setup(5);
        assert_eq!(
            hex(&keys[2].sign(b"v").tag),
            "d732be5e54009e1bae69bfac88fda75289fa761ab96bf10c7422b4eccbf5a788"
        );
        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"v")).collect();
        assert_eq!(
            hex(&pki.combine(3, b"v", &shares).unwrap().tag),
            "50139e1eea37f3b71e442f399e1a3b2bf72f094c73651d5e2c7486d954f9d8cc"
        );
    }

    #[test]
    fn a_tag_is_one_compression_equal_to_streaming_its_preimage() {
        // The whole preimage hashed from scratch: the padded key block,
        // the domain tag and the fixed tail.
        fn streamed(key: &[u8; 32], tail: &[&[u8]]) -> [u8; 32] {
            let mut block = [0x36u8; 64];
            for (b, k) in block.iter_mut().zip(key) {
                *b ^= k;
            }
            let mut h = Sha256::new();
            h.update(&block);
            for part in tail {
                h.update(part);
            }
            h.finalize().0
        }
        let master = hmac_sha256(&0xfeed_u64.to_be_bytes(), b"meba master secret");
        let (pki, keys) = setup(5);
        let digest = Digest::of(b"v");
        for key in &keys {
            let mut secret = DOM_SK.to_vec();
            secret.extend_from_slice(&key.id().0.to_be_bytes());
            let before = crate::sha256::compressions();
            let share = key.sign_digest(&digest);
            assert_eq!(crate::sha256::compressions() - before, 1);
            let sk = hmac_sha256(&master, &secret);
            assert_eq!(share.tag, streamed(&sk, &[DOM_SIGN, digest.as_bytes()]));
        }
        for k in 1..=5 {
            let before = crate::sha256::compressions();
            let tag = pki.thresh_tag(k, &digest);
            assert_eq!(crate::sha256::compressions() - before, 1);
            let be_k = (k as u64).to_be_bytes();
            assert_eq!(tag, streamed(&master, &[DOM_THRESH, &be_k, digest.as_bytes()]));
        }
    }

    #[test]
    fn a_share_tag_never_verifies_as_a_certificate_nor_the_reverse() {
        let (pki, keys) = setup(5);
        let digest = Digest::of(b"v");
        let shares: Vec<_> = keys.iter().map(|k| k.sign_digest(&digest)).collect();
        let qc = pki.combine(3, b"v", &shares).unwrap();
        for share in &shares {
            for threshold in 1..=5 {
                let posed = ThresholdSignature { threshold, digest, tag: share.tag };
                assert_eq!(pki.verify_threshold(b"v", &posed), Err(CryptoError::MessageMismatch));
            }
        }
        for signer in ProcessId::all(5) {
            let posed = Signature { signer, tag: qc.tag };
            assert_eq!(
                pki.verify_digest(&digest, &posed),
                Err(CryptoError::BadSignature { signer })
            );
        }
    }

    /// SHA-256's padding of a `len`-byte input: `0x80`, zeros, the bit
    /// length.
    fn md_padding(len: u64) -> Vec<u8> {
        let mut pad = vec![0x80];
        pad.resize(1 + (119 - len % 64) as usize % 64, 0);
        pad.extend_from_slice(&(len * 8).to_be_bytes());
        pad
    }

    #[test]
    fn a_tag_continued_past_its_fixed_length_is_refused() {
        let (pki, keys) = setup(5);
        let digest = Digest::of(b"v");
        let extension = b"appended without the key";
        // A length extension: the tag as a chaining value after its key
        // block and its one padded block, continued over more bytes.
        let extend = |tag: &[u8; 32]| {
            let mut h = Sha256::resume(&Digest(*tag), 128);
            h.update(extension);
            h.finalize().0
        };

        let share = keys[2].sign_digest(&digest);
        let forged = extend(&share.tag);
        // It is a genuine extension — the keyed hash of the padded share
        // input followed by the extension — ...
        let mut keyed = Sha256::resume(&Digest(state_bytes(&keys[2].midstate)), 64);
        keyed.update(DOM_SIGN);
        keyed.update(digest.as_bytes());
        keyed.update(&md_padding(64 + 43));
        keyed.update(extension);
        assert_eq!(keyed.finalize().0, forged);
        // ... and no verifier hashes that longer input.
        for msg in [&b"v"[..], extension] {
            for signer in ProcessId::all(5) {
                assert!(pki.verify(msg, &Signature { signer, tag: forged }).is_err());
            }
            let posed = ThresholdSignature { threshold: 3, digest: Digest::of(msg), tag: forged };
            assert!(pki.verify_threshold(msg, &posed).is_err());
        }

        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign_digest(&digest)).collect();
        let forged = extend(&pki.combine(3, b"v", &shares).unwrap().tag);
        let mut keyed = Sha256::resume(&Digest(state_bytes(&pki.inner.thresh_key)), 64);
        keyed.update(DOM_THRESH);
        keyed.update(&3u64.to_be_bytes());
        keyed.update(digest.as_bytes());
        keyed.update(&md_padding(64 + 54));
        keyed.update(extension);
        assert_eq!(keyed.finalize().0, forged);
        for threshold in 1..=5 {
            let posed = ThresholdSignature { threshold, digest, tag: forged };
            assert_eq!(pki.verify_threshold(b"v", &posed), Err(CryptoError::MessageMismatch));
        }
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

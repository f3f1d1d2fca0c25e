//! Cryptographic substrate for the `meba` workspace.
//!
//! The paper ("Make Every Word Count", PODC 2022) assumes a trusted PKI and
//! *ideal* threshold signature schemes (§2). This crate provides that
//! substrate from scratch:
//!
//! * [`sha256`] — pure-Rust SHA-256 (FIPS 180-4, NIST-vector tested);
//! * [`hmac`] — HMAC-SHA256 (RFC 2104/4231);
//! * [`pki`] — trusted setup, individual signatures, `(k, n)`-threshold
//!   signatures, and aggregate multi-signatures, with ideality enforced by
//!   the type system (private constructors);
//! * [`words`] — the paper's word-complexity accounting model;
//! * [`encoding`] — canonical byte encoding for signable messages;
//! * [`guard`] — the never-re-sign-conflicting signing guard
//!   ([`SignRegistry`]) that keeps a crash-restarted process from
//!   equivocating (used by `meba-core`'s `Recoverable`).
//!
//! # Examples
//!
//! Form the paper's key certificate, a `⌈(n+t+1)/2⌉`-threshold quorum:
//!
//! ```
//! use meba_crypto::{trusted_setup, WordCost};
//!
//! let (n, t) = (7usize, 3usize);
//! let quorum = meba_crypto::quorum_threshold(n, t); // ⌈(n+t+1)/2⌉ = 6
//! let (pki, keys) = trusted_setup(n, 42);
//! let shares: Vec<_> = keys.iter().take(quorum).map(|k| k.sign(b"commit v")).collect();
//! let qc = pki.combine(quorum, b"commit v", &shares)?;
//! assert_eq!(qc.words(), 1);              // one word on the wire...
//! assert_eq!(qc.constituent_sigs(), 6);   // ...carrying six signatures
//! # Ok::<(), meba_crypto::CryptoError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod encoding;
pub mod error;
pub mod guard;
pub mod hmac;
pub mod ids;
pub mod pki;
pub mod sha256;
pub mod words;

pub use encoding::{with_scratch_encoder, Decoder, Encoder, Signable, WireCodec};
pub use error::{CryptoError, DecodeError};
pub use guard::{EquivocationError, SignContext, SignRegistry};
pub use ids::ProcessId;
pub use pki::{
    trusted_setup, AggregateSignature, Combiner, Pki, SecretKey, Signature, ThresholdSignature,
};
pub use sha256::Digest;
pub use words::WordCost;

/// The paper's quorum threshold `⌈(n+t+1)/2⌉` (§6).
///
/// Two certificates with this many unique signatures out of `n = 2t + 1`
/// processes intersect in at least one *correct* process, which is the key
/// safety observation of the adaptive weak BA.
///
/// # Examples
///
/// ```
/// assert_eq!(meba_crypto::quorum_threshold(7, 3), 6);
/// assert_eq!(meba_crypto::quorum_threshold(9, 4), 7);
/// ```
pub fn quorum_threshold(n: usize, t: usize) -> usize {
    (n + t + 1).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_intersection_property() {
        // For every n = 2t+1 up to 201: two quorums of size q intersect in
        // at least t+1 processes, hence at least one correct one.
        for t in 1..100usize {
            let n = 2 * t + 1;
            let q = quorum_threshold(n, t);
            assert!(2 * q - n > t, "n={n} t={t} q={q}");
            // And the threshold is reachable when f < (n-t-1)/2:
            // n - f >= q for f < (n-t-1)/2.
            let f_max_adaptive = (n - t - 1) / 2;
            if f_max_adaptive > 0 {
                assert!(n - (f_max_adaptive - 1) >= q);
            }
        }
    }
}

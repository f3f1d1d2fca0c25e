//! HMAC-SHA256 (RFC 2104), used as the MAC underlying the simulated
//! signature schemes in [`crate::pki`].
//!
//! # Examples
//!
//! ```
//! use meba_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! assert_ne!(tag, hmac_sha256(b"key", b"other message"));
//! ```

use crate::sha256::Sha256;

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// SHA-256 with the block `key ⊕ pad` absorbed: one compression. `key` is
/// zero-padded to a block, or hashed first if it is longer (RFC 2104).
fn keyed(key: &[u8], pad: u8) -> Sha256 {
    let mut block = [0u8; BLOCK];
    if key.len() > BLOCK {
        block[..32].copy_from_slice(crate::sha256::Digest::of(key).as_bytes());
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    for b in &mut block {
        *b ^= pad;
    }
    let mut h = Sha256::new();
    h.update(&block);
    h
}

/// HMAC's keyed inner midstate alone: SHA-256's chaining value after
/// `key ⊕ ipad`. [`crate::pki`] runs one fixed-length block from it to
/// tag a share or a certificate, where the outer hash would add a
/// compression and no security (see that module's docs).
pub(crate) fn keyed_inner(key: &[u8]) -> [u32; 8] {
    keyed(key, IPAD).midstate()
}

/// Computes `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Streaming HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use meba_crypto::hmac::{hmac_sha256, HmacSha256};
///
/// let mut mac = HmacSha256::new(b"k");
/// mac.update(b"ab");
/// mac.update(b"c");
/// assert_eq!(mac.finalize(), hmac_sha256(b"k", b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash with `key ^ opad` already absorbed, so a clone of a
    /// primed MAC pays one outer compression in `finalize`, not two.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key` (any length; longer than one block is
    /// hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        HmacSha256 { inner: keyed(key, IPAD), outer: keyed(key, OPAD) }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, msg: &[u8]) {
        self.inner.update(msg);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_bytes());
        *outer.finalize().as_bytes()
    }
}

/// Constant-time comparison of two 32-byte tags.
///
/// The simulator does not face real timing adversaries, but verification
/// code should still model good practice.
pub fn ct_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for i in 0..32 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(tag: &[u8]) -> String {
        tag.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b_u8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa_u8; 20];
        let msg = [0xdd_u8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(hex(&tag), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: key longer than one block.
        let key = [0xaa_u8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&tag), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut mac = HmacSha256::new(b"secret");
        mac.update(b"split ");
        mac.update(b"message");
        assert_eq!(mac.finalize(), hmac_sha256(b"secret", b"split message"));
    }

    #[test]
    fn the_keyed_inner_hash_is_hmac_without_its_outer_hash() {
        let midstate = crate::sha256::Digest(crate::sha256::state_bytes(&keyed_inner(b"secret")));
        let mut inner = Sha256::resume(&midstate, 64);
        inner.update(b"message");
        let mut outer = keyed(b"secret", OPAD);
        outer.update(inner.finalize().as_bytes());
        assert_eq!(*outer.finalize().as_bytes(), hmac_sha256(b"secret", b"message"));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn ct_eq_works() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(ct_eq(&a, &b));
        b[31] ^= 1;
        assert!(!ct_eq(&a, &b));
    }
}

//! Pure-Rust SHA-256 (FIPS 180-4).
//!
//! Implemented from the specification so the workspace has no external
//! cryptographic dependencies. Verified against the NIST test vectors in
//! this module's unit tests.
//!
//! # Examples
//!
//! ```
//! use meba_crypto::sha256::Digest;
//!
//! let d = Digest::of(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::cell::Cell;
use std::fmt;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many SHA-256 compressions the calling thread has run, under any
/// hasher. Test instrumentation next to [`crate::pki::verify_calls`]: the
/// work a run does in hashing, which no output shows — difference two
/// readings taken around the code under test.
#[doc(hidden)]
pub fn compressions() -> u64 {
    COMPRESSIONS.get()
}

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use meba_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, meba_crypto::sha256::Digest::of(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256").field("total_len", &self.total_len).finish_non_exhaustive()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length. `update` leaves
        // `buf_len < 64`, so the 0x80 always fits; the length spills into
        // a second block when fewer than 8 bytes remain after it.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        Digest(state_bytes(&self.state))
    }

    /// The chaining value after the whole blocks absorbed so far — a
    /// keyed midstate, when they are a key block.
    ///
    /// # Panics
    ///
    /// If a partial block is buffered: the state does not cover it yet.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "a midstate follows whole blocks");
        self.state
    }

    /// A hasher resumed from a digest as its chaining value, as if
    /// `absorbed` bytes (a whole number of blocks) had produced it — the
    /// starting point of a length-extension attack.
    #[cfg(test)]
    pub(crate) fn resume(digest: &Digest, absorbed: u64) -> Sha256 {
        assert_eq!(absorbed % 64, 0, "a chaining value follows whole blocks");
        let mut state = [0u32; 8];
        for (word, bytes) in state.iter_mut().zip(digest.0.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        Sha256 { state, buf: [0u8; 64], buf_len: 0, total_len: absorbed }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        Schedule::of(block).compress(&mut self.state);
    }
}

/// A block's message schedule: its 64 expanded words, each with its round
/// constant already added. It is everything a compression takes from the
/// block, so one block hashed from many chaining values — a certificate's
/// shares, each from its signer's keyed midstate — is expanded once and
/// [`Schedule::compress`]ed from each. It is a function of the block's
/// bytes alone. [`Sha256`] compresses every block through it.
#[derive(Clone)]
pub(crate) struct Schedule([u32; 64]);

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Schedule(..)")
    }
}

impl Schedule {
    /// Expands `block`.
    pub(crate) fn of(block: &[u8; 64]) -> Schedule {
        let mut w = [0u32; 64];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        for (word, k) in w.iter_mut().zip(K) {
            *word = word.wrapping_add(k);
        }
        Schedule(w)
    }

    /// One compression: the 64 rounds over the chaining value `state`,
    /// then the feed-forward into it. The rounds are unrolled, each one
    /// naming the eight working variables in rotated order instead of
    /// shifting them.
    pub(crate) fn compress(&self, state: &mut [u32; 8]) {
        COMPRESSIONS.set(COMPRESSIONS.get() + 1);
        let w = &self.0;
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(w[$i]);
                $d = $d.wrapping_add(t1);
                $h = t1
                    .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            };
        }
        macro_rules! eight_rounds {
            ($($i:expr),*) => {$(
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            )*};
        }
        eight_rounds!(0, 8, 16, 24, 32, 40, 48, 56);
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The padded block that ends a message of `absorbed` bytes — whole
/// blocks, already in a chaining value — followed by `tail`: the tail's
/// bytes, `0x80`, zeros and the message's bit length.
///
/// # Panics
///
/// If `tail` is longer than 55 bytes and its padding would spill into a
/// second block.
pub(crate) fn last_block(absorbed: u64, tail: &[&[u8]]) -> [u8; 64] {
    let mut block = [0u8; 64];
    let mut len = 0;
    for part in tail {
        block[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    assert!(len <= 55, "a {len}-byte tail does not fit one block with its padding");
    block[len] = 0x80;
    block[56..].copy_from_slice(&((absorbed + len as u64) * 8).to_be_bytes());
    block
}

/// A chaining value as SHA-256 outputs it: its words, big-endian.
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A 256-bit SHA-256 digest.
///
/// `Digest` is the canonical commitment to a message inside the workspace:
/// protocols sign digests of canonically-encoded messages.
///
/// # Examples
///
/// ```
/// use meba_crypto::sha256::Digest;
///
/// let a = Digest::of(b"value");
/// let b = Digest::of_parts(&[b"val", b"ue"]);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

serde::impl_serde_newtype!(Digest);

impl Digest {
    /// Hashes a single byte slice.
    pub fn of(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of `parts`, length-prefixing each part so
    /// that distinct splits of the same bytes hash identically but moving a
    /// boundary cannot produce a collision across *domains* (callers should
    /// still include a domain tag as the first part).
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty() {
        assert_eq!(
            Digest::of(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            Digest::of(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            Digest::of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn padding_boundaries() {
        // 55 bytes is the longest message whose padding fits its block;
        // from 56 the length spills into a second one; 64 leaves the
        // buffer empty.
        for (len, hex) in [
            (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
            (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
        ] {
            assert_eq!(Digest::of(&vec![b'a'; len]).to_hex(), hex, "{len} bytes");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_all_splits() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let oneshot = Digest::of(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn digest_orderings_and_hex() {
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert_ne!(a, b);
        assert_eq!(a.to_hex().len(), 64);
        assert_eq!(format!("{a}"), a.to_hex());
        assert!(format!("{a:?}").starts_with("Digest("));
    }

    #[test]
    fn of_parts_matches_concatenation() {
        let whole = Digest::of(b"hello world");
        let parts = Digest::of_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }
}

//! Canonical byte encoding for signable protocol messages.
//!
//! Every signed protocol message implements [`Signable`]: a domain tag plus
//! a canonical field encoding. The encoding is length- and type-prefixed so
//! no two distinct messages share bytes, which is what makes signatures
//! transferable evidence in the protocols.
//!
//! # Examples
//!
//! ```
//! use meba_crypto::encoding::{Encoder, Signable};
//!
//! struct Vote { value: u64, phase: u32 }
//!
//! impl Signable for Vote {
//!     const DOMAIN: &'static str = "example/vote";
//!     fn encode_fields(&self, enc: &mut Encoder) {
//!         enc.put_u64(self.value);
//!         enc.put_u32(self.phase);
//!     }
//! }
//!
//! let a = Vote { value: 1, phase: 2 }.signing_bytes();
//! let b = Vote { value: 1, phase: 3 }.signing_bytes();
//! assert_ne!(a, b);
//! ```

use crate::error::DecodeError;
use crate::ids::ProcessId;
use crate::sha256::Digest;
use std::borrow::Cow;
use std::cell::Cell;

/// Canonical, unambiguous byte encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Wraps an existing buffer, clearing its contents but keeping its
    /// capacity. This is the reuse entry point: callers that encode in a
    /// loop hand the same `Vec` back in and steady-state encoding stops
    /// allocating.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder { buf }
    }

    /// Clears the encoded bytes, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a fixed-width big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.push(b'4');
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a fixed-width big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.push(b'8');
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(b'b');
        self.buf.push(v as u8);
    }

    /// Appends a process identity.
    pub fn put_id(&mut self, id: ProcessId) {
        self.buf.push(b'p');
        self.buf.extend_from_slice(&id.0.to_be_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.buf.push(b's');
        self.buf.extend_from_slice(&(data.len() as u64).to_be_bytes());
        self.buf.extend_from_slice(data);
    }

    /// Appends a digest.
    pub fn put_digest(&mut self, d: &Digest) {
        self.buf.push(b'd');
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Appends an optional value via a presence byte and a closure.
    pub fn put_option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Encoder, &T)) {
        match v {
            None => self.buf.push(0),
            Some(inner) => {
                self.buf.push(1);
                f(self, inner);
            }
        }
    }

    /// Finishes encoding, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Encoded lengths of the [`Encoder`]'s fields, type tag included, so a
/// codec can size a message without encoding it.
pub mod len {
    /// [`Encoder::put_u32`](super::Encoder::put_u32).
    pub const U32: u64 = 5;
    /// [`Encoder::put_u64`](super::Encoder::put_u64).
    pub const U64: u64 = 9;
    /// [`Encoder::put_bool`](super::Encoder::put_bool).
    pub const BOOL: u64 = 2;
    /// [`Encoder::put_id`](super::Encoder::put_id).
    pub const ID: u64 = 5;
    /// [`Encoder::put_digest`](super::Encoder::put_digest).
    pub const DIGEST: u64 = 33;
    /// An option's presence byte ([`Encoder::put_option`](super::Encoder::put_option)).
    pub const PRESENCE: u64 = 1;

    /// [`Encoder::put_bytes`](super::Encoder::put_bytes) of `n` bytes.
    pub const fn bytes(n: usize) -> u64 {
        9 + n as u64
    }
}

thread_local! {
    /// Per-thread scratch buffer behind [`with_scratch_encoder`]. A `Cell`
    /// (not `RefCell`) so reentrant use degrades to a fresh allocation
    /// instead of a panic: an inner call takes an empty `Vec`, and the
    /// outer call's buffer wins the final `set`.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with a thread-local scratch [`Encoder`] whose allocation is
/// reused across calls. After warm-up this encodes without touching the
/// heap, which is what lets `wire_len` / `signing_digest` sit on hot
/// paths without a per-call `Vec`.
pub fn with_scratch_encoder<R>(f: impl FnOnce(&mut Encoder) -> R) -> R {
    SCRATCH.with(|slot| {
        let mut enc = Encoder::from_vec(slot.take());
        let out = f(&mut enc);
        slot.set(enc.into_bytes());
        out
    })
}

/// Bounds-checked reader for the [`Encoder`]'s canonical format.
///
/// Each `get_*` mirrors the corresponding `put_*` byte-for-byte: the same
/// type-prefix tag, the same fixed-width big-endian payload. Decoding is
/// strict — a presence byte other than `0`/`1`, a wrong tag, or a length
/// prefix exceeding the remaining input all return a typed
/// [`DecodeError`] instead of panicking, which makes the decoder a safe
/// surface for attacker-controlled network bytes.
///
/// # Examples
///
/// ```
/// use meba_crypto::encoding::{Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.put_u32(7);
/// enc.put_bool(true);
/// let bytes = enc.into_bytes();
///
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert!(dec.get_bool().unwrap());
/// dec.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn tag(&mut self, expected: u8) -> Result<(), DecodeError> {
        let found = self.take(1)?[0];
        if found != expected {
            return Err(DecodeError::TypeTag { expected, found });
        }
        Ok(())
    }

    /// Reads a fixed-width big-endian `u32` (counterpart of
    /// [`Encoder::put_u32`]).
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.tag(b'4')?;
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a fixed-width big-endian `u64` (counterpart of
    /// [`Encoder::put_u64`]).
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.tag(b'8')?;
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a boolean, rejecting any payload byte other than `0`/`1` so
    /// the encoding stays canonical.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        self.tag(b'b')?;
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid { what: "boolean byte not 0/1" }),
        }
    }

    /// Reads a process identity (counterpart of [`Encoder::put_id`]).
    pub fn get_id(&mut self) -> Result<ProcessId, DecodeError> {
        self.tag(b'p')?;
        let b = self.take(4)?;
        Ok(ProcessId(u32::from_be_bytes(b.try_into().expect("4 bytes"))))
    }

    /// Reads a length-prefixed byte string as a borrowed view into the
    /// input buffer (zero-copy counterpart of [`Encoder::put_bytes`]).
    /// The length prefix is validated against the remaining input, so a
    /// forged length cannot read past the buffer or trigger an
    /// out-of-memory. Consumes and validates exactly the same bytes as
    /// [`Decoder::get_bytes`] and fails with the same errors.
    pub fn get_bytes_borrowed(&mut self) -> Result<&'a [u8], DecodeError> {
        self.tag(b's')?;
        let len = u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes"));
        let len = usize::try_from(len)
            .map_err(|_| DecodeError::Invalid { what: "byte-string length overflows usize" })?;
        self.take(len)
    }

    /// Reads a length-prefixed byte string into an owned `Vec<u8>`. This
    /// is the owned escape hatch over [`Decoder::get_bytes_borrowed`] for
    /// decoded values that must outlive the frame buffer.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        Ok(self.get_bytes_borrowed()?.to_vec())
    }

    /// Reads a length-prefixed byte string as a [`Cow`] borrowing from
    /// the input. Call `.into_owned()` only on values that escape the
    /// frame's lifetime.
    pub fn get_bytes_cow(&mut self) -> Result<Cow<'a, [u8]>, DecodeError> {
        Ok(Cow::Borrowed(self.get_bytes_borrowed()?))
    }

    /// Reads a digest (counterpart of [`Encoder::put_digest`]).
    pub fn get_digest(&mut self) -> Result<Digest, DecodeError> {
        self.tag(b'd')?;
        let b = self.take(32)?;
        Ok(Digest(b.try_into().expect("32 bytes")))
    }

    /// Reads an optional value via its presence byte (counterpart of
    /// [`Encoder::put_option`]); presence bytes other than `0`/`1` are
    /// rejected to keep the encoding canonical.
    pub fn get_option<T>(
        &mut self,
        f: impl FnOnce(&mut Decoder<'a>) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(DecodeError::Invalid { what: "option presence byte not 0/1" }),
        }
    }

    /// Asserts the input is fully consumed; top-level decodes call this
    /// so no two distinct byte strings decode to the same value.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes { count: self.remaining() });
        }
        Ok(())
    }
}

/// A value with a canonical, self-contained wire encoding: encoding then
/// decoding is the identity, and decoding then encoding reproduces the
/// exact input bytes.
///
/// The second direction is what makes the codec safe to combine with
/// signatures: a decoded message re-encodes to the very bytes that were
/// signed, so verification on the receiving side checks the same preimage
/// the sender committed to (docs/CORRECTNESS.md §9).
pub trait WireCodec: Sized {
    /// Writes the canonical encoding of `self` into `enc`.
    fn encode_wire(&self, enc: &mut Encoder);

    /// Reads one value from `dec`, leaving any following bytes in place.
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// The canonical encoding as a standalone byte string.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode_wire(&mut enc);
        enc.into_bytes()
    }

    /// Writes the canonical encoding into a reusable encoder, replacing
    /// its previous contents. Looping callers that keep the encoder
    /// around reuse its allocation and produce bytes identical to
    /// [`WireCodec::to_wire_bytes`] without a fresh `Vec` per message.
    fn encode_wire_into(&self, enc: &mut Encoder) {
        enc.clear();
        self.encode_wire(enc);
    }

    /// Decodes a standalone byte string, rejecting trailing bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode_wire(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    /// Length of the canonical encoding in bytes. The default measures
    /// by encoding into the thread-local scratch buffer, so it does not
    /// allocate after warm-up.
    fn wire_len(&self) -> u64 {
        with_scratch_encoder(|enc| {
            self.encode_wire(enc);
            enc.len() as u64
        })
    }
}

impl WireCodec for ProcessId {
    fn encode_wire(&self, enc: &mut Encoder) {
        enc.put_id(*self);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_id()
    }
}

impl WireCodec for Digest {
    fn encode_wire(&self, enc: &mut Encoder) {
        enc.put_digest(self);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_digest()
    }
}

/// A message with a canonical signed representation.
pub trait Signable {
    /// Domain-separation tag; must be unique per message type.
    const DOMAIN: &'static str;

    /// Writes the message fields into `enc`.
    fn encode_fields(&self, enc: &mut Encoder);

    /// Writes the exact signed byte string (domain tag + fields) into a
    /// reusable encoder, replacing its previous contents. Byte-identical
    /// to [`Signable::signing_bytes`] without the fresh `Vec`.
    fn encode_signing(&self, enc: &mut Encoder) {
        enc.clear();
        enc.put_bytes(Self::DOMAIN.as_bytes());
        self.encode_fields(enc);
    }

    /// The exact bytes that are signed / verified for this message.
    fn signing_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode_signing(&mut enc);
        enc.into_bytes()
    }

    /// Digest of the signing bytes, computed in the thread-local scratch
    /// buffer without the encode-to-temporary round trip.
    fn signing_digest(&self) -> Digest {
        with_scratch_encoder(|enc| {
            self.encode_signing(enc);
            Digest::of(enc.as_bytes())
        })
    }

    /// Runs `f` over the signing bytes assembled in the thread-local
    /// scratch buffer — the zero-allocation path for sign/verify call
    /// sites that only need a transient view of the preimage.
    fn with_signing_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        with_scratch_encoder(|enc| {
            self.encode_signing(enc);
            f(enc.as_bytes())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_type_prefixed() {
        let mut a = Encoder::new();
        a.put_u32(1);
        let mut b = Encoder::new();
        b.put_u64(1);
        assert_ne!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut a = Encoder::new();
        a.put_bytes(b"ab");
        a.put_bytes(b"c");
        let mut b = Encoder::new();
        b.put_bytes(b"a");
        b.put_bytes(b"bc");
        assert_ne!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn option_encoding_distinguishes_none() {
        let mut a = Encoder::new();
        a.put_option(&None::<u32>, |e, v| e.put_u32(*v));
        let mut b = Encoder::new();
        b.put_option(&Some(0u32), |e, v| e.put_u32(*v));
        assert_ne!(a.into_bytes(), b.into_bytes());
    }

    struct M(u32);
    impl Signable for M {
        const DOMAIN: &'static str = "test/m";
        fn encode_fields(&self, enc: &mut Encoder) {
            enc.put_u32(self.0);
        }
    }

    struct N(u32);
    impl Signable for N {
        const DOMAIN: &'static str = "test/n";
        fn encode_fields(&self, enc: &mut Encoder) {
            enc.put_u32(self.0);
        }
    }

    #[test]
    fn domain_separates_identical_fields() {
        assert_ne!(M(5).signing_bytes(), N(5).signing_bytes());
        assert_ne!(M(5).signing_digest(), N(5).signing_digest());
    }

    #[test]
    fn decoder_mirrors_every_encoder_field() {
        let mut enc = Encoder::new();
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 3);
        enc.put_bool(true);
        enc.put_id(ProcessId(9));
        enc.put_bytes(b"payload");
        enc.put_digest(&Digest::of(b"x"));
        enc.put_option(&Some(11u32), |e, v| e.put_u32(*v));
        enc.put_option(&None::<u32>, |e, v| e.put_u32(*v));
        let bytes = enc.into_bytes();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 3);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_id().unwrap(), ProcessId(9));
        assert_eq!(dec.get_bytes().unwrap(), b"payload");
        assert_eq!(dec.get_digest().unwrap(), Digest::of(b"x"));
        assert_eq!(dec.get_option(|d| d.get_u32()).unwrap(), Some(11));
        assert_eq!(dec.get_option(|d| d.get_u32()).unwrap(), None);
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_wrong_tag() {
        let mut enc = Encoder::new();
        enc.put_u64(5);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u32(), Err(DecodeError::TypeTag { expected: b'4', found: b'8' }));
    }

    #[test]
    fn decoder_rejects_truncation_at_every_prefix() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"hello");
        enc.put_u32(1);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            let r = dec.get_bytes().and_then(|_| dec.get_u32());
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn forged_length_prefix_is_rejected_without_allocation() {
        // Claim a 2^63-byte string backed by 2 bytes of input.
        let mut bytes = vec![b's'];
        bytes.extend_from_slice(&(1u64 << 63).to_be_bytes());
        bytes.extend_from_slice(b"ab");
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_bytes(), Err(DecodeError::UnexpectedEnd { .. })));
    }

    #[test]
    fn non_canonical_presence_bytes_rejected() {
        let mut dec = Decoder::new(&[b'b', 2]);
        assert_eq!(dec.get_bool(), Err(DecodeError::Invalid { what: "boolean byte not 0/1" }));
        let mut dec = Decoder::new(&[7]);
        assert_eq!(
            dec.get_option(|d| d.get_u32()),
            Err(DecodeError::Invalid { what: "option presence byte not 0/1" })
        );
    }

    #[test]
    fn borrowed_bytes_match_owned_bytes() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"zero-copy");
        let bytes = enc.into_bytes();

        let mut owned = Decoder::new(&bytes);
        let mut borrowed = Decoder::new(&bytes);
        let mut cow = Decoder::new(&bytes);
        assert_eq!(owned.get_bytes().unwrap(), b"zero-copy");
        assert_eq!(borrowed.get_bytes_borrowed().unwrap(), b"zero-copy");
        assert!(matches!(cow.get_bytes_cow().unwrap(), Cow::Borrowed(b"zero-copy")));
        assert_eq!(owned.remaining(), borrowed.remaining());
        assert_eq!(owned.remaining(), cow.remaining());
    }

    #[test]
    fn borrowed_bytes_fail_like_owned_bytes() {
        // Truncated at every prefix, the borrowed getter must consume and
        // reject exactly as the owned one does.
        let mut enc = Encoder::new();
        enc.put_bytes(b"hello");
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut owned = Decoder::new(&bytes[..cut]);
            let mut borrowed = Decoder::new(&bytes[..cut]);
            let o = owned.get_bytes();
            let b = borrowed.get_bytes_borrowed();
            assert_eq!(o.err(), b.err(), "divergent errors at cut {cut}");
            assert_eq!(owned.remaining(), borrowed.remaining());
        }
    }

    #[test]
    fn encoder_reuse_keeps_capacity_and_bytes() {
        let mut enc = Encoder::with_capacity(64);
        enc.put_id(ProcessId(1));
        let first = enc.as_bytes().to_vec();
        let cap = enc.into_bytes().capacity();

        let mut enc = Encoder::from_vec(Vec::with_capacity(cap));
        for _ in 0..100 {
            ProcessId(1).encode_wire_into(&mut enc);
            assert_eq!(enc.as_bytes(), &first[..]);
        }
        assert_eq!(enc.into_bytes().capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn scratch_encoder_is_reentrancy_safe() {
        let outer = with_scratch_encoder(|enc| {
            enc.put_u32(7);
            let inner = with_scratch_encoder(|enc2| {
                enc2.put_u64(9);
                enc2.as_bytes().to_vec()
            });
            assert_eq!(inner, {
                let mut e = Encoder::new();
                e.put_u64(9);
                e.into_bytes()
            });
            enc.as_bytes().to_vec()
        });
        assert_eq!(outer, {
            let mut e = Encoder::new();
            e.put_u32(7);
            e.into_bytes()
        });
    }

    #[test]
    fn wire_len_matches_full_encoding() {
        let d = Digest::of(b"x");
        assert_eq!(d.wire_len(), d.to_wire_bytes().len() as u64);
        assert_eq!(ProcessId(3).wire_len(), ProcessId(3).to_wire_bytes().len() as u64);
    }

    #[test]
    fn signing_helpers_agree_with_signing_bytes() {
        let m = M(5);
        let via_scratch = m.with_signing_bytes(|b| b.to_vec());
        assert_eq!(via_scratch, m.signing_bytes());
        assert_eq!(m.signing_digest(), Digest::of(&m.signing_bytes()));
        let mut enc = Encoder::from_vec(vec![1, 2, 3]);
        m.encode_signing(&mut enc);
        assert_eq!(enc.as_bytes(), &m.signing_bytes()[..]);
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        let mut bytes = enc.into_bytes();
        bytes.push(0);
        let mut dec = Decoder::new(&bytes);
        dec.get_u32().unwrap();
        assert_eq!(dec.finish(), Err(DecodeError::TrailingBytes { count: 1 }));
    }
}

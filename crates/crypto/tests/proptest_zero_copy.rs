//! Equivalence property for the zero-copy refactor: **borrowed ≡ owned
//! decoding.** The pre-refactor owned byte-string decoder is
//! reimplemented here verbatim as an independent reference
//! (`reference_owned_get_bytes`). Over valid encodings, truncations,
//! mutations, and raw junk, the current `get_bytes`,
//! `get_bytes_borrowed`, and `get_bytes_cow` must return exactly the
//! same bytes on accepts, exactly the same [`DecodeError`] on rejects,
//! and consume exactly the same number of input bytes.

use meba_crypto::{DecodeError, Decoder, Encoder};
use proptest::prelude::*;
use std::borrow::Cow;

/// Cursor-advancing slice read, as the pre-refactor decoder performed it.
fn ref_take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], DecodeError> {
    let remaining = buf.len() - *pos;
    if remaining < n {
        return Err(DecodeError::UnexpectedEnd { needed: n, remaining });
    }
    let out = &buf[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

/// The old owned byte-string decoder, reimplemented independently of
/// `Decoder` so the property is an external check, not a tautology:
/// tag `b's'`, 8-byte big-endian length validated against the remaining
/// input, then an owned copy of the payload.
fn reference_owned_get_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, DecodeError> {
    let found = ref_take(buf, pos, 1)?[0];
    if found != b's' {
        return Err(DecodeError::TypeTag { expected: b's', found });
    }
    let len = u64::from_be_bytes(ref_take(buf, pos, 8)?.try_into().expect("8 bytes"));
    let len = usize::try_from(len)
        .map_err(|_| DecodeError::Invalid { what: "byte-string length overflows usize" })?;
    Ok(ref_take(buf, pos, len)?.to_vec())
}

/// Builds one input that exercises an accept/reject path of the
/// byte-string decoder, selected by `mode`: a canonical encoding (with
/// trailing bytes left for the cursor checks), a truncated canonical
/// encoding, a canonical encoding with one byte mutated anywhere (tag,
/// length prefix, or payload), or raw junk.
fn byte_string_input(
    data: &[u8],
    junk: Vec<u8>,
    mode: u8,
    cut: usize,
    at: usize,
    x: u8,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(data);
    let mut out = enc.into_bytes();
    match mode {
        0 => out.extend_from_slice(&junk),
        1 => out.truncate(cut % (out.len() + 1)),
        2 => {
            let at = at % out.len();
            out[at] ^= x;
        }
        _ => out = junk,
    }
    out
}

proptest! {
    #[test]
    fn borrowed_owned_and_cow_decoders_are_equivalent(
        data in proptest::collection::vec(any::<u8>(), 0..48),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        mode in 0u8..4,
        cut in any::<usize>(),
        at in any::<usize>(),
        x in 1u8..=255u8,
    ) {
        let input = byte_string_input(&data, junk, mode, cut, at, x);
        let mut ref_pos = 0usize;
        let reference = reference_owned_get_bytes(&input, &mut ref_pos);

        let mut owned = Decoder::new(&input);
        let mut borrowed = Decoder::new(&input);
        let mut cow = Decoder::new(&input);
        let o = owned.get_bytes();
        let b = borrowed.get_bytes_borrowed();
        let c = cow.get_bytes_cow();

        if let Ok(view) = &c {
            prop_assert!(
                matches!(view, Cow::Borrowed(_)),
                "cow getter must borrow, never copy"
            );
        }

        // Same accept/reject, same bytes, same error.
        let b_owned = b.map(<[u8]>::to_vec);
        let c_owned = c.map(Cow::into_owned);
        prop_assert_eq!(&o, &reference, "owned getter diverged from reference");
        prop_assert_eq!(&b_owned, &reference, "borrowed getter diverged from reference");
        prop_assert_eq!(&c_owned, &reference, "cow getter diverged from reference");

        // Same cursor advance — a decoder that consumed different bytes
        // would desynchronize every field that follows.
        prop_assert_eq!(input.len() - owned.remaining(), ref_pos);
        prop_assert_eq!(owned.remaining(), borrowed.remaining());
        prop_assert_eq!(owned.remaining(), cow.remaining());
    }
}

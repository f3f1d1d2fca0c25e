//! Agreement values.
//!
//! Protocols are generic over the proposed value type. A [`Value`] must be
//! canonically encodable (so signatures over it are well-defined words) and
//! totally ordered (for deterministic tie-breaking in baselines).

use meba_crypto::encoding::len;
use meba_crypto::{with_scratch_encoder, DecodeError, Decoder, Encoder};
use std::fmt::Debug;
use std::hash::Hash;

/// A value processes can propose, sign, and decide. `Sync` because the
/// messages carrying it are (`meba_sim::Message`).
pub trait Value: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// Writes the canonical encoding used inside signed messages.
    fn encode_value(&self, enc: &mut Encoder);

    /// Reads a value back from its canonical encoding — the exact inverse
    /// of [`Value::encode_value`], so a decoded value re-encodes to the
    /// bytes that were signed (codec canonicality, docs/CORRECTNESS.md §9).
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Words the value occupies on the wire. The paper assumes values from
    /// a finite domain, i.e. one word; variable-size payloads may override.
    fn value_words(&self) -> u64 {
        1
    }

    /// Length of [`Value::encode_value`]'s output in bytes. The default
    /// encodes into the thread-local scratch buffer to measure; the
    /// values here compute it.
    fn value_len(&self) -> u64 {
        with_scratch_encoder(|enc| {
            self.encode_value(enc);
            enc.len() as u64
        })
    }
}

/// Fixed-size values, one encoder field each.
macro_rules! fixed_value {
    ($($t:ty: $put:ident, $get:ident, $len:expr;)*) => {$(
        impl Value for $t {
            fn encode_value(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$get()
            }
            fn value_len(&self) -> u64 {
                $len
            }
        }
    )*};
}

fixed_value! {
    bool: put_bool, get_bool, len::BOOL;
    u32: put_u32, get_u32, len::U32;
    u64: put_u64, get_u64, len::U64;
}

impl Value for String {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(dec.get_bytes()?)
            .map_err(|_| DecodeError::Invalid { what: "string not UTF-8" })
    }
    fn value_words(&self) -> u64 {
        // One word per 8 bytes of payload, at least one.
        (self.len() as u64).div_ceil(8).max(1)
    }
    fn value_len(&self) -> u64 {
        len::bytes(self.len())
    }
}

impl Value for Vec<u8> {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bytes()
    }
    fn value_words(&self) -> u64 {
        (self.len() as u64).div_ceil(8).max(1)
    }
    fn value_len(&self) -> u64 {
        len::bytes(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<V: Value>(v: &V) -> Vec<u8> {
        let mut e = Encoder::new();
        v.encode_value(&mut e);
        e.into_bytes()
    }

    #[test]
    fn scalar_encodings_distinguish_values() {
        assert_ne!(enc(&1u64), enc(&2u64));
        assert_ne!(enc(&true), enc(&false));
        assert_ne!(enc(&1u32), enc(&1u64));
    }

    #[test]
    fn scalar_values_cost_one_word() {
        assert_eq!(42u64.value_words(), 1);
        assert_eq!(true.value_words(), 1);
    }

    #[test]
    fn values_round_trip_through_decode() {
        fn rt<V: Value>(v: &V) {
            let bytes = enc(v);
            assert_eq!(v.value_len(), bytes.len() as u64);
            let mut dec = Decoder::new(&bytes);
            let back = V::decode_value(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(&back, v);
        }
        rt(&true);
        rt(&7u32);
        rt(&u64::MAX);
        rt(&String::from("hello"));
        rt(&vec![1u8, 2, 3]);
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(String::decode_value(&mut dec).is_err());
    }

    #[test]
    fn string_words_scale_with_length() {
        assert_eq!(String::from("x").value_words(), 1);
        assert_eq!("x".repeat(8).value_words(), 1);
        assert_eq!("x".repeat(9).value_words(), 2);
        assert_eq!(Vec::from([0u8; 17]).value_words(), 3);
    }
}

//! Agreement values.
//!
//! Protocols are generic over the proposed value type. A [`Value`] must be
//! canonically encodable (so signatures over it are well-defined words) and
//! totally ordered (for deterministic tie-breaking in baselines).

use meba_crypto::{DecodeError, Decoder, Encoder};
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
}

impl Value for bool {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_bool()
    }
}

impl Value for u32 {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u32()
    }
}

impl Value for u64 {
    fn encode_value(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64()
    }
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

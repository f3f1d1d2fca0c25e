//! Wire messages and signed payloads of the fallback protocols.

use crate::instance::InstanceId;
use meba_core::Value;
use meba_crypto::{
    AggregateSignature, DecodeError, Decoder, Encoder, ProcessId, Signable, Signature,
    ThresholdSignature, WireCodec, WordCost,
};
use meba_sim::Message;

/// Signed payload of a graded-agreement input share.
#[derive(Debug)]
pub struct GaInputSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// Component instance.
    pub inst: InstanceId,
    /// The input value.
    pub value: &'a V,
}

impl<V: Value> Signable for GaInputSig<'_, V> {
    const DOMAIN: &'static str = "meba/fallback/ga-input";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.inst.encode(enc);
        self.value.encode_value(enc);
    }
}

/// Signed payload of a graded-agreement vote share.
#[derive(Debug)]
pub struct GaVoteSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// Component instance.
    pub inst: InstanceId,
    /// The voted value.
    pub value: &'a V,
}

impl<V: Value> Signable for GaVoteSig<'_, V> {
    const DOMAIN: &'static str = "meba/fallback/ga-vote";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.inst.encode(enc);
        self.value.encode_value(enc);
    }
}

/// Signed payload of a Dolev–Strong forwarding chain: the instance, the
/// designated sender, and the value.
#[derive(Debug)]
pub struct DsValSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// Component instance.
    pub inst: InstanceId,
    /// The Dolev–Strong designated sender.
    pub ds_sender: ProcessId,
    /// The value being broadcast.
    pub value: &'a V,
}

impl<V: Value> Signable for DsValSig<'_, V> {
    const DOMAIN: &'static str = "meba/fallback/ds-val";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.inst.encode(enc);
        enc.put_id(self.ds_sender);
        self.value.encode_value(enc);
    }
}

/// Signed payload of a recursive-BA decision share for a child scope.
#[derive(Debug)]
pub struct RecDecideSig<'a, V> {
    /// Session id.
    pub session: u64,
    /// The *child* instance whose decision is being attested.
    pub inst: InstanceId,
    /// The decided value.
    pub value: &'a V,
}

impl<V: Value> Signable for RecDecideSig<'_, V> {
    const DOMAIN: &'static str = "meba/fallback/rec-decide";
    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_u64(self.session);
        self.inst.encode(enc);
        self.value.encode_value(enc);
    }
}

/// Wire messages of the recursive fallback BA.
#[derive(Clone, Debug)]
pub enum RecBaMsg<V> {
    /// GA round 1: signed input broadcast.
    GaInput {
        /// Instance.
        inst: InstanceId,
        /// Input value.
        value: V,
        /// Signature over [`GaInputSig`].
        sig: Signature,
    },
    /// GA round 2: echo of a first-round certificate `C1(v)`.
    GaEcho {
        /// Instance.
        inst: InstanceId,
        /// Certified value.
        value: V,
        /// `(maj, n)`-threshold certificate over [`GaInputSig`].
        c1: ThresholdSignature,
    },
    /// GA round 3: vote, carrying the unique `C1` the voter saw.
    GaVote {
        /// Instance.
        inst: InstanceId,
        /// Voted value.
        value: V,
        /// Signature over [`GaVoteSig`].
        sig: Signature,
        /// The certificate justifying the vote.
        c1: ThresholdSignature,
    },
    /// GA: evidence of two conflicting first-round certificates.
    GaConflict {
        /// Instance.
        inst: InstanceId,
        /// First certified value.
        v1: V,
        /// Its certificate.
        c1a: ThresholdSignature,
        /// Second certified value (≠ `v1`).
        v2: V,
        /// Its certificate.
        c1b: ThresholdSignature,
    },
    /// GA round 4: second-level certificate `C2(v)` broadcast.
    GaCert2 {
        /// Instance.
        inst: InstanceId,
        /// Certified value.
        value: V,
        /// `(maj, n)`-threshold certificate over [`GaVoteSig`].
        c2: ThresholdSignature,
    },
    /// Dolev–Strong forwarding message inside an interactive-consistency
    /// base case.
    DsForward {
        /// Instance.
        inst: InstanceId,
        /// Which member's broadcast this chain belongs to.
        ds_sender: ProcessId,
        /// The forwarded value.
        value: V,
        /// Aggregate signature chain over [`DsValSig`].
        agg: AggregateSignature,
    },
    /// A child-scope member's signed decision share.
    CertShare {
        /// The child instance.
        inst: InstanceId,
        /// The decided value.
        value: V,
        /// Signature over [`RecDecideSig`].
        sig: Signature,
    },
}

impl<V: Value> Message for RecBaMsg<V> {
    fn words(&self) -> u64 {
        match self {
            RecBaMsg::GaInput { value, sig, .. } => value.value_words() + sig.words(),
            RecBaMsg::GaEcho { value, c1, .. } => value.value_words() + c1.words(),
            RecBaMsg::GaVote { value, sig, c1, .. } => {
                value.value_words() + sig.words() + c1.words()
            }
            RecBaMsg::GaConflict { v1, c1a, v2, c1b, .. } => {
                v1.value_words() + c1a.words() + v2.value_words() + c1b.words()
            }
            RecBaMsg::GaCert2 { value, c2, .. } => value.value_words() + c2.words(),
            RecBaMsg::DsForward { value, agg, .. } => value.value_words() + agg.words(),
            RecBaMsg::CertShare { value, sig, .. } => value.value_words() + sig.words(),
        }
    }

    fn constituent_sigs(&self) -> u64 {
        match self {
            RecBaMsg::GaInput { sig, .. } | RecBaMsg::CertShare { sig, .. } => {
                sig.constituent_sigs()
            }
            RecBaMsg::GaEcho { c1, .. } => c1.constituent_sigs(),
            RecBaMsg::GaVote { sig, c1, .. } => sig.constituent_sigs() + c1.constituent_sigs(),
            RecBaMsg::GaConflict { c1a, c1b, .. } => {
                c1a.constituent_sigs() + c1b.constituent_sigs()
            }
            RecBaMsg::GaCert2 { c2, .. } => c2.constituent_sigs(),
            RecBaMsg::DsForward { agg, .. } => agg.constituent_sigs(),
        }
    }

    fn component(&self) -> &'static str {
        "fallback"
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_len()
    }
}

impl<V: Value> WireCodec for RecBaMsg<V> {
    fn encode_wire(&self, enc: &mut Encoder) {
        match self {
            RecBaMsg::GaInput { inst, value, sig } => {
                enc.put_u32(0);
                inst.encode(enc);
                value.encode_value(enc);
                sig.encode(enc);
            }
            RecBaMsg::GaEcho { inst, value, c1 } => {
                enc.put_u32(1);
                inst.encode(enc);
                value.encode_value(enc);
                c1.encode(enc);
            }
            RecBaMsg::GaVote { inst, value, sig, c1 } => {
                enc.put_u32(2);
                inst.encode(enc);
                value.encode_value(enc);
                sig.encode(enc);
                c1.encode(enc);
            }
            RecBaMsg::GaConflict { inst, v1, c1a, v2, c1b } => {
                enc.put_u32(3);
                inst.encode(enc);
                v1.encode_value(enc);
                c1a.encode(enc);
                v2.encode_value(enc);
                c1b.encode(enc);
            }
            RecBaMsg::GaCert2 { inst, value, c2 } => {
                enc.put_u32(4);
                inst.encode(enc);
                value.encode_value(enc);
                c2.encode(enc);
            }
            RecBaMsg::DsForward { inst, ds_sender, value, agg } => {
                enc.put_u32(5);
                inst.encode(enc);
                enc.put_id(*ds_sender);
                value.encode_value(enc);
                agg.encode(enc);
            }
            // Tag 6 is retired and must not be reused: a frame from a
            // build that still had it decodes to a typed error.
            RecBaMsg::CertShare { inst, value, sig } => {
                enc.put_u32(7);
                inst.encode(enc);
                value.encode_value(enc);
                sig.encode(enc);
            }
        }
    }

    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u32()? {
            0 => Ok(RecBaMsg::GaInput {
                inst: InstanceId::decode_wire(dec)?,
                value: V::decode_value(dec)?,
                sig: Signature::decode(dec)?,
            }),
            1 => Ok(RecBaMsg::GaEcho {
                inst: InstanceId::decode_wire(dec)?,
                value: V::decode_value(dec)?,
                c1: ThresholdSignature::decode(dec)?,
            }),
            2 => Ok(RecBaMsg::GaVote {
                inst: InstanceId::decode_wire(dec)?,
                value: V::decode_value(dec)?,
                sig: Signature::decode(dec)?,
                c1: ThresholdSignature::decode(dec)?,
            }),
            3 => Ok(RecBaMsg::GaConflict {
                inst: InstanceId::decode_wire(dec)?,
                v1: V::decode_value(dec)?,
                c1a: ThresholdSignature::decode(dec)?,
                v2: V::decode_value(dec)?,
                c1b: ThresholdSignature::decode(dec)?,
            }),
            4 => Ok(RecBaMsg::GaCert2 {
                inst: InstanceId::decode_wire(dec)?,
                value: V::decode_value(dec)?,
                c2: ThresholdSignature::decode(dec)?,
            }),
            5 => Ok(RecBaMsg::DsForward {
                inst: InstanceId::decode_wire(dec)?,
                ds_sender: dec.get_id()?,
                value: V::decode_value(dec)?,
                agg: AggregateSignature::decode(dec)?,
            }),
            7 => Ok(RecBaMsg::CertShare {
                inst: InstanceId::decode_wire(dec)?,
                value: V::decode_value(dec)?,
                sig: Signature::decode(dec)?,
            }),
            _ => Err(DecodeError::Invalid { what: "RecBaMsg variant tag" }),
        }
    }
}

/// Wire message of the standalone Dolev–Strong Byzantine Broadcast
/// baseline.
#[derive(Clone, Debug)]
pub struct DsBbMsg<V> {
    /// The forwarded value.
    pub value: V,
    /// Aggregate signature chain over [`DsValSig`] (with the full-system
    /// instance).
    pub agg: AggregateSignature,
}

impl<V: Value> Message for DsBbMsg<V> {
    fn words(&self) -> u64 {
        self.value.value_words() + self.agg.words()
    }
    fn constituent_sigs(&self) -> u64 {
        self.agg.constituent_sigs()
    }
    fn component(&self) -> &'static str {
        "dolev-strong"
    }
    fn wire_bytes(&self) -> u64 {
        self.wire_len()
    }
}

impl<V: Value> WireCodec for DsBbMsg<V> {
    fn encode_wire(&self, enc: &mut Encoder) {
        self.value.encode_value(enc);
        self.agg.encode(enc);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let value = V::decode_value(dec)?;
        let agg = AggregateSignature::decode(dec)?;
        Ok(DsBbMsg { value, agg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Scope;
    use meba_crypto::Signable;

    #[test]
    fn payload_domains_are_disjoint() {
        let inst = InstanceId::new(Scope::full(4), 0);
        let a = GaInputSig { session: 1, inst, value: &5u64 }.signing_bytes();
        let b = GaVoteSig { session: 1, inst, value: &5u64 }.signing_bytes();
        let c = RecDecideSig { session: 1, inst, value: &5u64 }.signing_bytes();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn ds_payload_binds_sender() {
        let inst = InstanceId::new(Scope::full(4), 0);
        let a =
            DsValSig { session: 1, inst, ds_sender: ProcessId(0), value: &5u64 }.signing_bytes();
        let b =
            DsValSig { session: 1, inst, ds_sender: ProcessId(1), value: &5u64 }.signing_bytes();
        assert_ne!(a, b);
    }

    /// Tag 6 is retired: a frame carrying it is a typed unknown-tag
    /// error, and `CertShare` still travels as 7.
    #[test]
    fn retired_tag_six_is_a_typed_decode_error() {
        let inst = InstanceId::new(Scope::full(4), 0);
        let (_, keys) = meba_crypto::trusted_setup(4, 1);
        let sig = keys[0].sign(b"share");
        let share = RecBaMsg::CertShare { inst, value: 5u64, sig };
        let bytes = share.to_wire_bytes();
        let tag = |t: u32| {
            let mut enc = Encoder::new();
            enc.put_u32(t);
            enc.into_bytes()
        };
        assert!(bytes.starts_with(&tag(7)), "CertShare keeps wire tag 7");
        assert!(RecBaMsg::<u64>::from_wire_bytes(&bytes).is_ok());
        let retired = [tag(6), bytes[tag(7).len()..].to_vec()].concat();
        assert_eq!(
            RecBaMsg::<u64>::from_wire_bytes(&retired).unwrap_err(),
            DecodeError::Invalid { what: "RecBaMsg variant tag" }
        );
    }

    #[test]
    fn instance_separates_payloads() {
        let i1 = InstanceId::new(Scope { lo: 0, hi: 4 }, 0);
        let i2 = InstanceId::new(Scope { lo: 4, hi: 8 }, 0);
        let a = GaInputSig { session: 1, inst: i1, value: &5u64 }.signing_bytes();
        let b = GaInputSig { session: 1, inst: i2, value: &5u64 }.signing_bytes();
        assert_ne!(a, b);
    }
}

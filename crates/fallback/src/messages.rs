//! Wire messages and signed payloads of the fallback protocols.

use crate::instance::InstanceId;
use meba_core::{wire_schema, Value};
use meba_crypto::{
    AggregateSignature, Encoder, ProcessId, Signable, Signature, ThresholdSignature,
};

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

wire_schema! {
    /// Wire messages of the recursive fallback BA.
    #[derive(Clone, Debug)]
    pub enum RecBaMsg<V: Value>: Message {
        /// GA round 1: signed input broadcast.
        0 => GaInput {
            /// Instance.
            inst: InstanceId,
            /// Input value.
            value: V,
            /// Signature over [`GaInputSig`].
            sig: Signature,
        } in "fallback",
        /// GA round 2: echo of a first-round certificate `C1(v)`.
        1 => GaEcho {
            /// Instance.
            inst: InstanceId,
            /// Certified value.
            value: V,
            /// `(maj, n)`-threshold certificate over [`GaInputSig`].
            c1: ThresholdSignature,
        } in "fallback",
        /// GA round 3: vote, carrying the unique `C1` the voter saw.
        2 => GaVote {
            /// Instance.
            inst: InstanceId,
            /// Voted value.
            value: V,
            /// Signature over [`GaVoteSig`].
            sig: Signature,
            /// The certificate justifying the vote.
            c1: ThresholdSignature,
        } in "fallback",
        /// GA: evidence of two conflicting first-round certificates.
        3 => GaConflict {
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
        } in "fallback",
        /// GA round 4: second-level certificate `C2(v)` broadcast.
        4 => GaCert2 {
            /// Instance.
            inst: InstanceId,
            /// Certified value.
            value: V,
            /// `(maj, n)`-threshold certificate over [`GaVoteSig`].
            c2: ThresholdSignature,
        } in "fallback",
        /// Dolev–Strong forwarding message inside an interactive-consistency
        /// base case.
        5 => DsForward {
            /// Instance.
            inst: InstanceId,
            /// Which member's broadcast this chain belongs to.
            ds_sender: ProcessId,
            /// The forwarded value.
            value: V,
            /// Aggregate signature chain over [`DsValSig`].
            agg: AggregateSignature,
        } in "fallback",
        // Tag 6 is retired and must not be reused: a frame from a build
        // that still had it decodes to a typed error.
        /// A child-scope member's signed decision share.
        7 => CertShare {
            /// The child instance.
            inst: InstanceId,
            /// The decided value.
            value: V,
            /// Signature over [`RecDecideSig`].
            sig: Signature,
        } in "fallback",
    }
}

wire_schema! {
    /// Wire message of the standalone Dolev–Strong Byzantine Broadcast
    /// baseline.
    #[derive(Clone, Debug)]
    pub struct DsBbMsg<V: Value>: Message {
        /// The forwarded value.
        pub value: V,
        /// Aggregate signature chain over [`DsValSig`] (with the full-system
        /// instance).
        pub agg: AggregateSignature,
    } in "dolev-strong"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Scope;
    use meba_crypto::{DecodeError, Signable, WireCodec};
    use meba_sim::Message;

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

    /// Word-cost audit of every fallback wire variant, in the style of
    /// `meba-core`'s `message_costs`: each value, signature, threshold
    /// signature and aggregate costs one word, instance ids and process
    /// ids cost nothing, and a certificate counts its signers.
    #[test]
    fn fallback_message_costs() {
        use meba_core::fallback::EchoMsg;
        let inst = InstanceId::new(Scope::full(7), 0);
        let (pki, keys) = meba_crypto::trusted_setup(7, 1);
        let sig = keys[0].sign(b"m");
        let shares: Vec<_> = keys.iter().take(4).map(|k| k.sign(b"m")).collect();
        let qc = pki.combine(4, b"m", &shares).unwrap();
        let agg = pki.aggregate(b"m", &shares[..3]).unwrap();
        let v = 5u64;

        let cases: Vec<(RecBaMsg<u64>, u64, u64)> = vec![
            (RecBaMsg::GaInput { inst, value: v, sig: sig.clone() }, 2, 1),
            (RecBaMsg::GaEcho { inst, value: v, c1: qc.clone() }, 2, 4),
            (RecBaMsg::GaVote { inst, value: v, sig: sig.clone(), c1: qc.clone() }, 3, 5),
            (RecBaMsg::GaConflict { inst, v1: v, c1a: qc.clone(), v2: 6, c1b: qc.clone() }, 4, 8),
            (RecBaMsg::GaCert2 { inst, value: v, c2: qc }, 2, 4),
            (
                RecBaMsg::DsForward { inst, ds_sender: ProcessId(1), value: v, agg: agg.clone() },
                2,
                3,
            ),
            (RecBaMsg::CertShare { inst, value: v, sig }, 2, 1),
        ];
        for (msg, words, sigs) in cases {
            assert_eq!(msg.words(), words, "words of {msg:?}");
            assert_eq!(msg.constituent_sigs(), sigs, "sigs of {msg:?}");
            assert_eq!(msg.component(), "fallback", "component of {msg:?}");
        }

        let long = String::from("seventeen bytes!!");
        let ds = DsBbMsg { value: long.clone(), agg };
        assert_eq!((ds.words(), ds.constituent_sigs(), ds.component()), (4, 3, "dolev-strong"));
        let echo = EchoMsg(long);
        assert_eq!((echo.words(), echo.constituent_sigs(), echo.component()), (3, 0, "fallback"));
        let echo = EchoMsg(true);
        assert_eq!((echo.words(), echo.constituent_sigs()), (1, 0));
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

//! Property tests for the canonical codec's decode side.
//!
//! Three properties, over every protocol message family:
//!
//! 1. **Round-trip**: `decode(encode(m))` succeeds and re-encodes to the
//!    identical bytes (codecs have no `PartialEq`; byte equality is the
//!    stronger check anyway — it is what signatures are computed over).
//! 2. **Truncation is total**: every strict prefix of a valid encoding
//!    decodes to an error, never a panic.
//! 3. **Bit flips are total and canonical**: flipping any single bit
//!    either fails to decode, or decodes to a message whose re-encoding
//!    is exactly the mutated bytes — i.e. the decoder accepts *only*
//!    canonical encodings, so no two distinct byte strings decode to
//!    messages with the same encoding.
//! 4. **Borrowed ≡ owned**: decoding a message at an offset inside a
//!    shared frame buffer (the reactor's zero-copy path) accepts exactly
//!    the same byte strings as decoding it from a standalone owned
//!    buffer — same [`DecodeError`] on rejects, byte-identical
//!    re-encodes on accepts — over the full message-family corpus plus
//!    its truncations and mutations.
//!
//! A fifth, `wire_format_is_pinned`, fixes the bytes themselves: one
//! digest per family over the corpus at fixed scalars.

use meba_core::bb::{BbBaValue, BbMsg};
use meba_core::fallback::EchoMsg;
use meba_core::signing::*;
use meba_core::strong_ba::StrongBaMsg;
use meba_core::subprotocol::SkewEnvelope;
use meba_core::weak_ba::WeakBaMsg;
use meba_core::SystemConfig;
use meba_crypto::{trusted_setup, DecodeError, Decoder, Digest, Encoder, Signable, WireCodec};
use meba_fallback::{DsBbMsg, InstanceId, RecBaMsg, Scope};
use meba_sim::{SessionEnvelope, SessionId};
use meba_wire::Hello;
use proptest::prelude::*;
use std::sync::Arc;

type WbaM = WeakBaMsg<u64, EchoMsg<u64>>;
type BbM = BbMsg<u64, EchoMsg<BbBaValue<u64>>>;
type SbaM = StrongBaMsg<EchoMsg<bool>>;
type RecM = RecBaMsg<u64>;

/// One constructed instance of every message family, parameterized by
/// the generated scalars so the search space covers varying field
/// values, not just varying variants.
fn corpus(v: u64, phase: u32, session: u64) -> Vec<Vec<u8>> {
    sized_corpus(v, phase, session).into_iter().map(|(bytes, _)| bytes).collect()
}

/// A message's encoding and the length its `wire_len` reports.
fn sized<M: WireCodec>(m: &M) -> (Vec<u8>, u64) {
    (m.to_wire_bytes(), m.wire_len())
}

/// The [`corpus`], each encoding next to its message's `wire_len`.
fn sized_corpus(v: u64, phase: u32, session: u64) -> Vec<(Vec<u8>, u64)> {
    let cfg = SystemConfig::new(7, 1).unwrap();
    let (pki, keys) = trusted_setup(7, 1);
    let sig = sign_payload(&keys[0], &VoteSig { session, value: &v, level: 1 });
    let payload = VoteSig { session, value: &v, level: 1 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).unwrap();
    let commit = CommitProof { level: 1, qc: qc.clone() };
    let decide = DecideProof { phase, qc: qc.clone() };
    let agg_shares: Vec<_> =
        keys.iter().take(3).map(|k| k.sign(&payload.signing_bytes())).collect();
    let agg = pki.aggregate(&payload.signing_bytes(), &agg_shares).unwrap();
    let inst = InstanceId::new(Scope::full(7), (phase % 8) as u8);

    let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
    let wba: Vec<WbaM> = vec![
        WeakBaMsg::Propose { phase, value: v },
        WeakBaMsg::Vote { phase, value: v, sig: sig.clone() },
        WeakBaMsg::CommitReply { phase, value: v, proof: commit.clone() },
        WeakBaMsg::CommitCert { phase, value: v, proof: commit },
        WeakBaMsg::Decide { phase, value: v, sig: sig.clone() },
        WeakBaMsg::FinalizeCert { phase, value: v, proof: decide.clone() },
        WeakBaMsg::HelpReq { sig: sig.clone() },
        WeakBaMsg::Help { value: v, proof: decide.clone() },
        WeakBaMsg::FallbackCert { qc: qc.clone(), decision: None },
        WeakBaMsg::FallbackCert { qc: qc.clone(), decision: Some((v, decide)) },
        WeakBaMsg::Fallback(SkewEnvelope { vstep: session, msg: Arc::new(EchoMsg(v)) }),
    ];
    out.extend(wba.iter().map(sized));
    // Session multiplexing rides on the same codec.
    out.extend(
        wba.into_iter().map(|msg| sized(&SessionEnvelope { session: SessionId(session), msg })),
    );

    let signed = BbBaValue::Signed { value: v, sig: sig.clone() };
    let quorum_v = BbBaValue::<u64>::IdkQuorum { phase, qc: qc.clone() };
    let bb: Vec<BbM> = vec![
        BbMsg::SenderValue { value: v, sig: sig.clone() },
        BbMsg::VetHelpReq { phase },
        BbMsg::VetValue { phase, value: signed.clone() },
        BbMsg::VetIdk { phase, sig: sig.clone() },
        BbMsg::Vetted { phase, value: quorum_v },
        BbMsg::Ba(WeakBaMsg::Propose { phase, value: signed }),
    ];
    out.extend(bb.iter().map(sized));

    let sba: Vec<SbaM> = vec![
        StrongBaMsg::Input { value: v.is_multiple_of(2), sig: sig.clone() },
        StrongBaMsg::Propose { value: true, qc: qc.clone() },
        StrongBaMsg::DecideShare { value: false, sig: sig.clone() },
        StrongBaMsg::DecideCert { value: true, qc: qc.clone() },
        StrongBaMsg::Fallback { decision: None },
        StrongBaMsg::Fallback { decision: Some((v % 2 == 1, qc.clone())) },
    ];
    out.extend(sba.iter().map(sized));

    let rec: Vec<RecM> = vec![
        RecBaMsg::GaInput { inst, value: v, sig: sig.clone() },
        RecBaMsg::GaEcho { inst, value: v, c1: qc.clone() },
        RecBaMsg::GaVote { inst, value: v, sig: sig.clone(), c1: qc.clone() },
        RecBaMsg::GaConflict {
            inst,
            v1: v,
            c1a: qc.clone(),
            v2: v.wrapping_add(1),
            c1b: qc.clone(),
        },
        RecBaMsg::GaCert2 { inst, value: v, c2: qc },
        RecBaMsg::DsForward { inst, ds_sender: keys[1].id(), value: v, agg },
        RecBaMsg::CertShare { inst, value: v, sig },
    ];
    out.extend(rec.iter().map(sized));

    out.push(sized(&Hello {
        version: 1,
        id: keys[2].id(),
        config_digest: meba_wire::config_digest(&cfg),
        domain: session,
    }));
    out
}

/// Decodes `bytes` with the family that produced index `i` of the
/// corpus, returning the re-encoding if decoding succeeded.
fn redecode(i: usize, bytes: &[u8]) -> Option<Vec<u8>> {
    fn via<M: WireCodec>(bytes: &[u8]) -> Option<Vec<u8>> {
        M::from_wire_bytes(bytes).ok().map(|m| m.to_wire_bytes())
    }
    match i {
        0..=10 => via::<WbaM>(bytes),
        11..=21 => via::<SessionEnvelope<WbaM>>(bytes),
        22..=27 => via::<BbM>(bytes),
        28..=33 => via::<SbaM>(bytes),
        34..=40 => via::<RecM>(bytes),
        41 => via::<Hello>(bytes),
        _ => unreachable!("corpus has 42 entries"),
    }
}

/// Decodes `bytes` with the family that produced index `i` two ways —
/// standalone from an owned buffer (`from_wire_bytes`, the pre-refactor
/// shape) and embedded at an offset inside a larger frame via a shared
/// [`Decoder`] (the reactor's borrowed zero-copy path: `get_u64` round
/// header, `decode_wire`, `finish`) — returning `(owned, borrowed)`
/// results so properties can assert they are identical, errors included.
#[allow(clippy::type_complexity)]
fn redecode_both(
    i: usize,
    bytes: &[u8],
) -> (Result<Vec<u8>, DecodeError>, Result<Vec<u8>, DecodeError>) {
    fn standalone<M: WireCodec>(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        M::from_wire_bytes(bytes).map(|m| m.to_wire_bytes())
    }
    fn framed<M: WireCodec>(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut enc = Encoder::new();
        enc.put_u64(0x0dd_ba11);
        let mut frame = enc.into_bytes();
        frame.extend_from_slice(bytes);
        let mut dec = Decoder::new(&frame);
        dec.get_u64().expect("frame header decodes");
        let m = M::decode_wire(&mut dec)?;
        dec.finish()?;
        Ok(m.to_wire_bytes())
    }
    fn both<M: WireCodec>(
        bytes: &[u8],
    ) -> (Result<Vec<u8>, DecodeError>, Result<Vec<u8>, DecodeError>) {
        (standalone::<M>(bytes), framed::<M>(bytes))
    }
    match i {
        0..=10 => both::<WbaM>(bytes),
        11..=21 => both::<SessionEnvelope<WbaM>>(bytes),
        22..=27 => both::<BbM>(bytes),
        28..=33 => both::<SbaM>(bytes),
        34..=40 => both::<RecM>(bytes),
        41 => both::<Hello>(bytes),
        _ => unreachable!("corpus has 42 entries"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_message_round_trips_canonically(
        v in any::<u64>(),
        phase in 1u32..64,
        session in any::<u64>(),
    ) {
        let corpus = sized_corpus(v, phase, session);
        prop_assert_eq!(corpus.len(), 42);
        for (i, (bytes, wire_len)) in corpus.iter().enumerate() {
            let re = redecode(i, bytes);
            prop_assert_eq!(
                re.as_deref(),
                Some(&bytes[..]),
                "family {} must decode and re-encode to identical bytes",
                i
            );
            prop_assert_eq!(*wire_len, bytes.len() as u64, "family {}: wire_len", i);
        }
    }

    #[test]
    fn truncated_encodings_error_and_never_panic(
        v in any::<u64>(),
        phase in 1u32..64,
        session in any::<u64>(),
    ) {
        let corpus = corpus(v, phase, session);
        for (i, bytes) in corpus.iter().enumerate() {
            for cut in 0..bytes.len() {
                prop_assert!(
                    redecode(i, &bytes[..cut]).is_none(),
                    "family {}: prefix of {} / {} bytes must not decode",
                    i, cut, bytes.len()
                );
            }
        }
    }

    #[test]
    fn bit_flips_error_or_stay_canonical(
        v in any::<u64>(),
        phase in 1u32..64,
        session in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let corpus = corpus(v, phase, session);
        for (i, bytes) in corpus.iter().enumerate() {
            let mut mutated = bytes.clone();
            let bit = (flip as usize) % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
            if let Some(re) = redecode(i, &mutated) {
                prop_assert_eq!(
                    &re,
                    &mutated,
                    "family {}: an accepted mutation must still be canonical",
                    i
                );
            }
        }
    }

    #[test]
    fn borrowed_frame_decode_equals_owned_standalone_decode(
        v in any::<u64>(),
        phase in 1u32..64,
        session in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let corpus = corpus(v, phase, session);
        for (i, bytes) in corpus.iter().enumerate() {
            // Exact encodings: both paths accept with byte-identical
            // re-encodes.
            let (owned, borrowed) = redecode_both(i, bytes);
            prop_assert_eq!(
                owned.as_deref().ok(),
                Some(&bytes[..]),
                "family {}: owned decode of canonical bytes must round-trip",
                i
            );
            prop_assert_eq!(
                owned, borrowed,
                "family {}: borrowed decode diverged on canonical bytes",
                i
            );

            // Every truncation: both paths reject with the same error.
            for cut in 0..bytes.len() {
                let (o, b) = redecode_both(i, &bytes[..cut]);
                prop_assert!(o.is_err(), "family {}: prefix {} must not decode", i, cut);
                prop_assert_eq!(
                    o, b,
                    "family {}: divergent result at truncation {}",
                    i, cut
                );
            }

            // One bit flip: identical accept/reject decision, identical
            // error or identical re-encode.
            let mut mutated = bytes.clone();
            let bit = (flip as usize) % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
            let (o, b) = redecode_both(i, &mutated);
            prop_assert_eq!(
                o, b,
                "family {}: divergent result on bit-flip {}",
                i, bit
            );
        }
    }
}

/// Every wire byte of every family, pinned: one SHA-256 per family over
/// the concatenated encodings of its corpus entries at fixed scalars
/// (plus the Dolev–Strong baseline's message, which the corpus lacks).
/// A codec change that moves any byte fails here even when it still
/// round-trips.
#[test]
fn wire_format_is_pinned() {
    let corpus = corpus(0x0123_4567_89ab_cdef, 7, 42);
    let hex = |range: std::ops::RangeInclusive<usize>| Digest::of(&corpus[range].concat()).to_hex();
    let (pki, keys) = trusted_setup(7, 1);
    let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"ds")).collect();
    let ds = DsBbMsg { value: 9u64, agg: pki.aggregate(b"ds", &shares).unwrap() };
    // The five families that carry a share or certificate tag were
    // re-recorded when a tag became one keyed block: only their 32-byte
    // tag fields moved. `Hello` carries no tag, and `DsBbMsg`'s aggregate
    // tag is still a full HMAC.
    let pins = [
        (
            "WeakBaMsg",
            hex(0..=10),
            "4721c21017e12bb2b75e449b1be8fdcdf7e5c2bd0ba32383e4510b4ecfe98425",
        ),
        (
            "SessionEnvelope<WeakBaMsg>",
            hex(11..=21),
            "bc7ce459b10f0caa49f64c569a2879be46a3281756c6e55a3bc1694375ade7b2",
        ),
        ("BbMsg", hex(22..=27), "6bde93567d8d4a0e94fd7edb193b6304c3c5fccad9070523e3809504d50ee5d4"),
        (
            "StrongBaMsg",
            hex(28..=33),
            "2a12cb808e7c4231ffb5c47e1ed045f114247152701aa2ea8a94cf2171a6d266",
        ),
        (
            "RecBaMsg",
            hex(34..=40),
            "e1a12c616aa933c4f9add687f9f299e5dc6c8934f837eb5c598f7d97401ef81d",
        ),
        ("Hello", hex(41..=41), "52d708e06f38902d7b1aec179b9d74c54b2d063ef5b75340e5682fcf2ee4d7bc"),
        (
            "DsBbMsg",
            Digest::of(&ds.to_wire_bytes()).to_hex(),
            "d9faf2501d1c1f06da97659c5982194c2355dfea23d7f6cceecd221f3eee77da",
        ),
    ];
    for (family, got, pinned) in pins {
        assert_eq!(got, pinned, "{family}: wire bytes moved");
    }
}

/// Truncation totality at the raw decoder level too: every prefix of a
/// multi-field encoding errors cleanly.
#[test]
fn decoder_prefixes_are_total() {
    let cfg = SystemConfig::new(7, 1).unwrap();
    let hello = Hello {
        version: 1,
        id: meba_crypto::ProcessId(3),
        config_digest: meba_wire::config_digest(&cfg),
        domain: 7,
    };
    let bytes = hello.to_wire_bytes();
    for cut in 0..bytes.len() {
        let mut dec = Decoder::new(&bytes[..cut]);
        assert!(Hello::decode_wire(&mut dec).is_err());
    }
}

//! Property tests for the cryptographic substrate: streaming/oneshot
//! equivalence, signature unforgeability across messages and signers,
//! hash-then-sign equivalence (raw-message sign/verify ≡ their digest
//! forms), and certificate-assembly invariants.

use meba_crypto::hmac::hmac_sha256;
use meba_crypto::pki::verify_calls;
use meba_crypto::sha256::Sha256;
use meba_crypto::{
    trusted_setup, CryptoError, Decoder, Digest, Encoder, ProcessId, Signable, Signature,
    ThresholdSignature,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Digest::of(&data));
    }

    #[test]
    fn sha256_is_injective_on_samples(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(Digest::of(&a), Digest::of(&b));
        }
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        k1 in proptest::collection::vec(any::<u8>(), 1..48),
        k2 in proptest::collection::vec(any::<u8>(), 1..48),
        m in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        if k1 != k2 {
            prop_assert_ne!(hmac_sha256(&k1, &m), hmac_sha256(&k2, &m));
        }
    }

    #[test]
    fn signatures_bind_signer_and_message(
        n in 2usize..12,
        signer in 0u32..12,
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        other in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let signer = signer % n as u32;
        let (pki, keys) = trusted_setup(n, 7);
        let sig = keys[signer as usize].sign(&msg);
        prop_assert!(pki.verify(&msg, &sig).is_ok());
        prop_assert_eq!(sig.signer(), ProcessId(signer));
        if other != msg {
            prop_assert!(pki.verify(&other, &sig).is_err());
        }
    }

    #[test]
    fn sign_is_sign_digest_of_the_message(
        n in 1usize..12,
        signer in 0usize..12,
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (_, keys) = trusted_setup(n, 7);
        let key = &keys[signer % n];
        prop_assert_eq!(key.sign(&msg), key.sign_digest(&Digest::of(&msg)));
    }

    #[test]
    fn verify_and_verify_digest_agree(
        kind in 0usize..3,
        signer in 0u32..12,
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        other in proptest::collection::vec(any::<u8>(), 0..200),
        tag in proptest::collection::vec(any::<u8>(), 32..33),
    ) {
        // A genuine signature on `msg`, one on `other`, or arbitrary tag
        // bytes, claimed by a signer that may lie outside the system.
        let (pki, _) = trusted_setup(6, 7);
        let (_, wide) = trusted_setup(12, 7);
        let sig = match kind {
            0 => wide[signer as usize].sign(&msg),
            1 => wide[signer as usize].sign(&other),
            _ => decode_signature(ProcessId(signer), &tag),
        };
        prop_assert_eq!(pki.verify(&msg, &sig), pki.verify_digest(&Digest::of(&msg), &sig));
    }

    #[test]
    fn combiner_admits_exactly_what_verify_accepts(
        k in 1usize..=7,
        // One draw per offer: kind (4) x signer (14).
        offers in proptest::collection::vec(0usize..4 * 14, 0..24),
    ) {
        let n = 7;
        let (pki, _) = trusted_setup(n, 5);
        // Same master secret: ids below n sign as the system's keys, the
        // rest are signers outside it.
        let (_, wide) = trusted_setup(2 * n, 5);
        let msg = b"certified";
        let mut combiner = pki.combiner(k, msg).unwrap();
        let mut admitted = std::collections::BTreeSet::new();
        let mut last = None;
        for x in offers {
            let (kind, i) = (x % 4, x / 4 % 14);
            let share = match kind {
                0 => wide[i % n].sign(msg),
                1 => wide[i % n].sign(b"another message"),
                2 => wide[i].sign(msg),
                // A repeat of the previous offer, whatever it was.
                _ => last.clone().unwrap_or_else(|| wide[i % n].sign(msg)),
            };
            let expected = pki.verify(msg, &share).and_then(|()| {
                if admitted.insert(share.signer()) {
                    Ok(())
                } else {
                    Err(CryptoError::DuplicateSigner { signer: share.signer() })
                }
            });
            prop_assert_eq!(combiner.offer(&share), expected);
            prop_assert_eq!(combiner.admitted(), admitted.len());
            last = Some(share);
        }
        let finished = combiner.finish();
        if admitted.len() >= k {
            prop_assert!(pki.verify_threshold(msg, &finished.unwrap()).is_ok());
        } else {
            prop_assert_eq!(finished, Err(CryptoError::InsufficientShares { needed: k, got: admitted.len() }));
        }
    }

    #[test]
    fn combiner_offer_is_verify_digest_and_a_tag_streams_its_preimage(
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        other in proptest::collection::vec(any::<u8>(), 0..200),
        // One draw per offer: kind (4) x signer (14) x tag bit (256).
        offers in proptest::collection::vec(0usize..4 * 14 * 256, 1..24),
    ) {
        let (n, seed) = (7, 11);
        let (pki, _) = trusted_setup(n, seed);
        // Same master secret: ids below n sign as the system's keys, the
        // rest are signers outside it.
        let (_, wide) = trusted_setup(2 * n, seed);
        let digest = Digest::of(&msg);
        let mut combiner = pki.combiner(n, &msg).unwrap();
        let mut admitted = std::collections::BTreeSet::new();
        for x in offers {
            let (kind, i, bit) = (x % 4, x / 4 % 14, x / 56);
            let share = match kind {
                0 => wide[i % n].sign_digest(&digest),
                1 => wide[i % n].sign_digest(&Digest::of(&other)),
                2 => wide[i].sign_digest(&digest),
                _ => {
                    let mut tag = tag_of(&wide[i % n].sign_digest(&digest));
                    tag[bit / 8] ^= 1 << (bit % 8);
                    decode_signature(ProcessId((i % n) as u32), &tag)
                }
            };
            // The combiner's verdict is `verify_digest`'s, variant and
            // all; only a repeated signer adds its own error.
            let expected = pki.verify_digest(&digest, &share).and_then(|()| {
                if admitted.insert(share.signer()) {
                    Ok(())
                } else {
                    Err(CryptoError::DuplicateSigner { signer: share.signer() })
                }
            });
            prop_assert_eq!(combiner.offer(&share), expected);
            // A share's tag is SHA-256 streamed over `(sk ⊕ ipad) ‖
            // "meba/sig/v3" ‖ digest`, with `sk` derived as the trusted
            // setup documents it.
            let mut key_block = [0x36u8; 64];
            for (b, k) in key_block.iter_mut().zip(secret_key(seed, i as u32)) {
                *b ^= k;
            }
            let mut h = Sha256::new();
            h.update(&key_block);
            h.update(b"meba/sig/v3");
            h.update(digest.as_bytes());
            prop_assert_eq!(tag_of(&wide[i].sign_digest(&digest)), h.finalize().0);
        }
    }

    #[test]
    fn verify_threshold_digest_is_verify_threshold_over_the_digest(
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        other in proptest::collection::vec(any::<u8>(), 0..200),
        k in 1usize..=7,
        posed_k in 1usize..=7,
        kind in 0usize..4,
        bit in 0usize..256,
    ) {
        let (pki, keys) = trusted_setup(7, 11);
        let certify = |m: &[u8]| {
            let shares: Vec<_> = keys.iter().take(k).map(|key| key.sign(m)).collect();
            pki.combine(k, m, &shares).unwrap()
        };
        let genuine = certify(&msg);
        let mut tag = cert_tag_of(&genuine);
        let qc = match kind {
            0 => genuine.clone(),
            1 => certify(&other),
            2 => {
                tag[bit / 8] ^= 1 << (bit % 8);
                decode_certificate(k, genuine.digest(), &tag)
            }
            _ => decode_certificate(posed_k, genuine.digest(), &tag),
        };
        // Over the certified message's digest and another one, the
        // verdict is `verify_threshold`'s, and each call counts as one
        // certificate verify.
        for m in [&msg, &other] {
            let before = verify_calls().1;
            let by_digest = pki.verify_threshold_digest(&Digest::of(m), &qc);
            prop_assert_eq!(verify_calls().1 - before, 1);
            prop_assert_eq!(by_digest, pki.verify_threshold(m, &qc));
        }
        let certifies_msg = qc == genuine || (kind == 1 && other == msg);
        prop_assert_eq!(pki.verify_threshold_digest(&Digest::of(&msg), &qc).is_ok(), certifies_msg);
    }

    #[test]
    fn combine_threshold_boundary(n in 3usize..14, k in 1usize..14, have in 0usize..14) {
        let k = k.min(n);
        let have = have.min(n);
        let (pki, keys) = trusted_setup(n, 3);
        let msg = b"combine boundary";
        let shares: Vec<_> = keys.iter().take(have).map(|key| key.sign(msg)).collect();
        let result = pki.combine(k, msg, &shares);
        if have >= k {
            let qc = result.unwrap();
            prop_assert_eq!(qc.threshold(), k);
            prop_assert!(pki.verify_threshold(msg, &qc).is_ok());
        } else {
            prop_assert_eq!(result, Err(CryptoError::InsufficientShares { needed: k, got: have }));
        }
    }

    #[test]
    fn aggregates_grow_one_signer_at_a_time(n in 2usize..10, order in proptest::collection::vec(0u32..10, 1..10)) {
        let (pki, keys) = trusted_setup(n, 5);
        let msg = b"agg";
        let mut agg = None;
        let mut seen = std::collections::BTreeSet::new();
        for idx in order {
            let idx = (idx % n as u32) as usize;
            let sig = keys[idx].sign(msg);
            match &agg {
                None => {
                    agg = Some(pki.aggregate(msg, &[sig]).unwrap());
                    seen.insert(idx);
                }
                Some(a) => {
                    let r = pki.extend_aggregate(msg, a, &sig);
                    if seen.insert(idx) {
                        agg = Some(r.unwrap());
                    } else {
                        prop_assert!(r.is_err(), "duplicate signer must be rejected");
                    }
                }
            }
        }
        let agg = agg.unwrap();
        prop_assert_eq!(agg.len(), seen.len());
        prop_assert!(pki.verify_aggregate(msg, &agg).is_ok());
    }

    #[test]
    fn cross_setup_certificates_fail(seed_a in 0u64..1000, seed_b in 1000u64..2000, n in 3usize..8) {
        let (pki_a, _) = trusted_setup(n, seed_a);
        let (_, keys_b) = trusted_setup(n, seed_b);
        let msg = b"cross";
        let shares: Vec<_> = keys_b.iter().map(|k| k.sign(msg)).collect();
        // Shares from a different setup never verify, so no certificate
        // can be assembled against pki_a.
        prop_assert!(pki_a.combine(2, msg, &shares).is_err());
        prop_assert!(pki_a.aggregate(msg, &shares).is_err());
    }
}

/// A signature with arbitrary tag bytes, as a decoder would read it off the
/// wire: decoding never authenticates.
fn decode_signature(signer: ProcessId, tag: &[u8]) -> Signature {
    let mut enc = Encoder::new();
    enc.put_id(signer);
    enc.put_bytes(tag);
    let bytes = enc.into_bytes();
    Signature::decode(&mut Decoder::new(&bytes)).expect("a 32-byte tag decodes")
}

/// The tag bytes of `sig`: the last 32 bytes of its wire encoding.
fn tag_of(sig: &Signature) -> [u8; 32] {
    let mut enc = Encoder::new();
    sig.encode(&mut enc);
    enc.as_bytes()[enc.len() - 32..].try_into().expect("a signature ends in its tag")
}

/// A certificate with arbitrary threshold, digest and tag, as a decoder
/// would read it off the wire: decoding never authenticates.
fn decode_certificate(threshold: usize, digest: Digest, tag: &[u8]) -> ThresholdSignature {
    let mut enc = Encoder::new();
    enc.put_u64(threshold as u64);
    enc.put_digest(&digest);
    enc.put_bytes(tag);
    let bytes = enc.into_bytes();
    ThresholdSignature::decode(&mut Decoder::new(&bytes)).expect("a 32-byte tag decodes")
}

/// The tag bytes of `qc`: the last 32 bytes of its wire encoding.
fn cert_tag_of(qc: &ThresholdSignature) -> [u8; 32] {
    let mut enc = Encoder::new();
    qc.encode(&mut enc);
    enc.as_bytes()[enc.len() - 32..].try_into().expect("a certificate ends in its tag")
}

/// Process `id`'s signing key under `seed`, derived outside the crate:
/// `HMAC(master, "meba/sk/v1" ‖ be32(id))` with
/// `master = HMAC(be64(seed), "meba master secret")`.
fn secret_key(seed: u64, id: u32) -> [u8; 32] {
    let master = hmac_sha256(&seed.to_be_bytes(), b"meba master secret");
    let mut input = b"meba/sk/v1".to_vec();
    input.extend_from_slice(&id.to_be_bytes());
    hmac_sha256(&master, &input)
}

/// A signable with adversary-controlled fields: distinct field values must
/// produce distinct signing bytes (no encoding ambiguity).
struct Blob<'a> {
    a: &'a [u8],
    b: &'a [u8],
}

impl Signable for Blob<'_> {
    const DOMAIN: &'static str = "proptest/blob";
    fn encode_fields(&self, enc: &mut meba_crypto::Encoder) {
        enc.put_bytes(self.a);
        enc.put_bytes(self.b);
    }
}

proptest! {
    #[test]
    fn field_boundaries_are_unambiguous(
        a1 in proptest::collection::vec(any::<u8>(), 0..16),
        b1 in proptest::collection::vec(any::<u8>(), 0..16),
        a2 in proptest::collection::vec(any::<u8>(), 0..16),
        b2 in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let x = Blob { a: &a1, b: &b1 }.signing_bytes();
        let y = Blob { a: &a2, b: &b2 }.signing_bytes();
        if (a1, b1) != (a2, b2) {
            prop_assert_ne!(x, y, "moving a field boundary must change the bytes");
        } else {
            prop_assert_eq!(x, y);
        }
    }
}

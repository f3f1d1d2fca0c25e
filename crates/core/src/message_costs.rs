//! Word-cost audit tests for every wire-message variant.
//!
//! The complexity results live and die by the accounting: a message that
//! under-reports its words would fake the Table 1 shapes. This module
//! (test-only) constructs one of every message variant and checks its
//! cost against the §2 model: each value, signature, threshold signature
//! and aggregate costs one word; a message costs the sum (minimum 1,
//! enforced by the simulator).

#![cfg(test)]

use crate::bb::{BbBaValue, BbMsg};
use crate::fallback::EchoMsg;
use crate::signing::*;
use crate::strong_ba::StrongBaMsg;
use crate::subprotocol::SkewEnvelope;
use crate::weak_ba::WeakBaMsg;
use crate::SystemConfig;
use meba_crypto::{trusted_setup, Signable};
use meba_sim::Message;
use std::sync::Arc;

type WbaM = WeakBaMsg<u64, EchoMsg<u64>>;
type BbM = BbMsg<u64, EchoMsg<BbBaValue<u64>>>;
type SbaM = StrongBaMsg<EchoMsg<bool>>;

fn fixtures() -> (SystemConfig, meba_crypto::Pki, Vec<meba_crypto::SecretKey>) {
    let cfg = SystemConfig::new(7, 1).unwrap();
    let (pki, keys) = trusted_setup(7, 1);
    (cfg, pki, keys)
}

#[test]
fn weak_ba_message_costs() {
    let (cfg, pki, keys) = fixtures();
    let v = 5u64;
    let vote_sig = sign_payload(&keys[0], &VoteSig { session: 1, value: &v, level: 1 });
    let decide_sig = sign_payload(&keys[0], &DecideSig { session: 1, value: &v, phase: 1 });
    let vote_payload = VoteSig { session: 1, value: &v, level: 1 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &vote_payload)).collect();
    let qc = pki.combine(cfg.quorum(), &vote_payload.signing_bytes(), &shares).unwrap();
    let commit = CommitProof { level: 1, qc: qc.clone() };
    let decide = DecideProof { phase: 1, qc: qc.clone() };

    let cases: Vec<(WbaM, u64, u64)> = vec![
        (WeakBaMsg::Propose { phase: 1, value: v }, 1, 0),
        (WeakBaMsg::Vote { phase: 1, value: v, sig: vote_sig.clone() }, 2, 1),
        (
            WeakBaMsg::CommitReply { phase: 1, value: v, proof: commit.clone() },
            2,
            cfg.quorum() as u64,
        ),
        (WeakBaMsg::CommitCert { phase: 1, value: v, proof: commit }, 2, cfg.quorum() as u64),
        (WeakBaMsg::Decide { phase: 1, value: v, sig: decide_sig }, 2, 1),
        (
            WeakBaMsg::FinalizeCert { phase: 1, value: v, proof: decide.clone() },
            2,
            cfg.quorum() as u64,
        ),
        (WeakBaMsg::HelpReq { sig: vote_sig }, 1, 1),
        (WeakBaMsg::Help { value: v, proof: decide.clone() }, 2, cfg.quorum() as u64),
        (WeakBaMsg::FallbackCert { qc: qc.clone(), decision: None }, 1, cfg.quorum() as u64),
        (WeakBaMsg::FallbackCert { qc, decision: Some((v, decide)) }, 3, 2 * cfg.quorum() as u64),
        (WeakBaMsg::Fallback(SkewEnvelope { vstep: 0, msg: Arc::new(EchoMsg(9u64)) }), 1, 0),
    ];
    for (msg, words, sigs) in cases {
        assert_eq!(msg.words(), words, "words of {msg:?}");
        assert_eq!(msg.constituent_sigs(), sigs, "sigs of {msg:?}");
        assert!(!msg.component().is_empty());
    }
}

#[test]
fn bb_message_costs() {
    let (cfg, pki, keys) = fixtures();
    let sender_sig = sign_payload(&keys[0], &BbValueSig { session: 1, value: &9u64 });
    let idk_payload = BbIdkSig { session: 1, phase: 2 };
    let shares: Vec<_> =
        keys.iter().take(cfg.idk_threshold()).map(|k| sign_payload(k, &idk_payload)).collect();
    let idk_qc = pki.combine(cfg.idk_threshold(), &idk_payload.signing_bytes(), &shares).unwrap();
    let signed = BbBaValue::Signed { value: 9u64, sig: sender_sig.clone() };
    let quorum_v = BbBaValue::<u64>::IdkQuorum { phase: 2, qc: idk_qc };

    let cases: Vec<(BbM, u64, u64)> = vec![
        (BbMsg::SenderValue { value: 9, sig: sender_sig }, 2, 1),
        (BbMsg::VetHelpReq { phase: 2 }, 1, 0),
        (BbMsg::VetValue { phase: 2, value: signed.clone() }, 2, 1),
        (BbMsg::VetValue { phase: 2, value: quorum_v.clone() }, 1, cfg.idk_threshold() as u64),
        (BbMsg::Vetted { phase: 2, value: signed }, 2, 1),
        (BbMsg::Vetted { phase: 2, value: quorum_v }, 1, cfg.idk_threshold() as u64),
    ];
    for (msg, words, sigs) in cases {
        assert_eq!(msg.words(), words, "words of {msg:?}");
        assert_eq!(msg.constituent_sigs(), sigs, "sigs of {msg:?}");
    }
}

#[test]
fn strong_ba_message_costs() {
    let (cfg, pki, keys) = fixtures();
    let input_payload = StrongInputSig { session: 1, value: true };
    let sig = sign_payload(&keys[0], &input_payload);
    let shares: Vec<_> =
        keys.iter().take(cfg.idk_threshold()).map(|k| sign_payload(k, &input_payload)).collect();
    let propose_qc =
        pki.combine(cfg.idk_threshold(), &input_payload.signing_bytes(), &shares).unwrap();
    let decide_payload = StrongDecideSig { session: 1, value: true };
    let all: Vec<_> = keys.iter().map(|k| sign_payload(k, &decide_payload)).collect();
    let decide_qc = pki.combine(cfg.n(), &decide_payload.signing_bytes(), &all).unwrap();

    let cases: Vec<(SbaM, u64, u64)> = vec![
        (StrongBaMsg::Input { value: true, sig: sig.clone() }, 2, 1),
        (StrongBaMsg::Propose { value: true, qc: propose_qc }, 2, cfg.idk_threshold() as u64),
        (StrongBaMsg::DecideShare { value: true, sig }, 2, 1),
        (StrongBaMsg::DecideCert { value: true, qc: decide_qc.clone() }, 2, cfg.n() as u64),
        (StrongBaMsg::Fallback { decision: None }, 1, 0),
        (StrongBaMsg::Fallback { decision: Some((true, decide_qc)) }, 2, cfg.n() as u64),
    ];
    for (msg, words, sigs) in cases {
        assert_eq!(msg.words(), words, "words of {msg:?}");
        assert_eq!(msg.constituent_sigs(), sigs, "sigs of {msg:?}");
    }
}

#[test]
fn bb_ba_value_words() {
    use crate::value::Value;
    let (_, pki, keys) = fixtures();
    let sig = sign_payload(&keys[0], &BbValueSig { session: 1, value: &1u64 });
    let signed = BbBaValue::Signed { value: 1u64, sig };
    assert_eq!(signed.value_words(), 2);

    let payload = BbIdkSig { session: 1, phase: 1 };
    let shares: Vec<_> = keys.iter().take(4).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki.combine(4, &payload.signing_bytes(), &shares).unwrap();
    let quorum = BbBaValue::<u64>::IdkQuorum { phase: 1, qc };
    assert_eq!(quorum.value_words(), 1);
}

#[test]
fn every_variant_bills_its_component() {
    let (_, pki, keys) = fixtures();
    let sig = keys[0].sign(b"m");
    let shares: Vec<_> = keys.iter().take(4).map(|k| k.sign(b"m")).collect();
    let qc = pki.combine(4, b"m", &shares).unwrap();
    let decide = DecideProof { phase: 1, qc: qc.clone() };
    let commit = CommitProof { level: 1, qc: qc.clone() };
    fn echo<V>(v: V) -> SkewEnvelope<EchoMsg<V>> {
        SkewEnvelope { vstep: 0, msg: Arc::new(EchoMsg(v)) }
    }

    let wba: Vec<(WbaM, &str)> = vec![
        (WeakBaMsg::Propose { phase: 1, value: 5 }, "weak-ba/phases"),
        (WeakBaMsg::Vote { phase: 1, value: 5, sig: sig.clone() }, "weak-ba/phases"),
        (WeakBaMsg::CommitReply { phase: 1, value: 5, proof: commit.clone() }, "weak-ba/phases"),
        (WeakBaMsg::CommitCert { phase: 1, value: 5, proof: commit }, "weak-ba/phases"),
        (WeakBaMsg::Decide { phase: 1, value: 5, sig: sig.clone() }, "weak-ba/phases"),
        (WeakBaMsg::FinalizeCert { phase: 1, value: 5, proof: decide.clone() }, "weak-ba/phases"),
        (WeakBaMsg::HelpReq { sig: sig.clone() }, "weak-ba/help"),
        (WeakBaMsg::Help { value: 5, proof: decide }, "weak-ba/help"),
        (WeakBaMsg::FallbackCert { qc: qc.clone(), decision: None }, "weak-ba/help"),
        (WeakBaMsg::Fallback(echo(5)), "fallback"),
    ];
    for (msg, component) in wba {
        assert_eq!(msg.component(), component, "component of {msg:?}");
    }

    let signed = BbBaValue::Signed { value: 9u64, sig: sig.clone() };
    let bb: Vec<(BbM, &str)> = vec![
        (BbMsg::SenderValue { value: 9, sig: sig.clone() }, "bb/dissemination"),
        (BbMsg::VetHelpReq { phase: 2 }, "bb/vetting"),
        (BbMsg::VetValue { phase: 2, value: signed.clone() }, "bb/vetting"),
        (BbMsg::VetIdk { phase: 2, sig: sig.clone() }, "bb/vetting"),
        (BbMsg::Vetted { phase: 2, value: signed.clone() }, "bb/vetting"),
        (BbMsg::Ba(WeakBaMsg::Propose { phase: 1, value: signed.clone() }), "weak-ba/phases"),
        (BbMsg::Ba(WeakBaMsg::HelpReq { sig: sig.clone() }), "weak-ba/help"),
        (BbMsg::Ba(WeakBaMsg::Fallback(echo(signed))), "fallback"),
    ];
    for (msg, component) in bb {
        assert_eq!(msg.component(), component, "component of {msg:?}");
    }

    let sba: Vec<(SbaM, &str)> = vec![
        (StrongBaMsg::Input { value: true, sig: sig.clone() }, "strong-ba/fast-path"),
        (StrongBaMsg::Propose { value: true, qc: qc.clone() }, "strong-ba/fast-path"),
        (StrongBaMsg::DecideShare { value: true, sig }, "strong-ba/fast-path"),
        (StrongBaMsg::DecideCert { value: true, qc }, "strong-ba/fast-path"),
        (StrongBaMsg::Fallback { decision: None }, "strong-ba/fallback-coord"),
        (StrongBaMsg::Inner(echo(true)), "fallback"),
    ];
    for (msg, component) in sba {
        assert_eq!(msg.component(), component, "component of {msg:?}");
    }
}

/// A weak BA value that carries a signature is billed its words but not
/// its signature: a field of the generic value type counts
/// `value_words()` and no constituent signature, while BB's vetting
/// messages, typed with [`BbBaValue`], count the one inside.
#[test]
fn embedded_value_signatures_are_not_counted() {
    let (_, _, keys) = fixtures();
    let sig = keys[0].sign(b"m");
    let signed = BbBaValue::Signed { value: 9u64, sig: sig.clone() };
    let vote: BbM = BbMsg::Ba(WeakBaMsg::Vote { phase: 1, value: signed.clone(), sig });
    assert_eq!((vote.words(), vote.constituent_sigs()), (3, 1));
    let vetted: BbM = BbMsg::Vetted { phase: 1, value: signed };
    assert_eq!((vetted.words(), vetted.constituent_sigs()), (2, 1));
}

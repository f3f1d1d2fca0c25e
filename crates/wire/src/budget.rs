//! The byte budget behind the word model.
//!
//! The paper counts communication in *words*: a value, a signature, a
//! threshold signature each cost one word (§2). On a real wire a word is
//! bytes, and the complexity claims only survive the translation if the
//! byte cost of every message is bounded by a constant multiple of its
//! word cost — otherwise "O(n(f+1)) words" could hide unbounded bytes.
//! [`BYTES_PER_WORD`] is that constant for this codebase's canonical
//! codec, and the `budget` tests assert it against one constructed
//! instance of **every** protocol message variant — the same fixture set
//! as `meba-core`'s word-cost audit (`message_costs.rs`), so the two
//! accountings can never drift apart silently.

use meba_crypto::WireCodec;
use meba_sim::metrics::MessageCost;
use meba_sim::Message;

/// Upper bound on the canonical encoding of any protocol message, in
/// bytes per model word (including the message's variant tag and framing
/// fields, excluding the 4-byte frame length prefix).
///
/// The dominant contributions: a threshold signature encodes in 83 bytes
/// (1 word), an individual signature in 46 bytes (1 word), a `u64` value
/// in 9 bytes (1 word); enum tags and small scalar fields add single-digit
/// bytes amortized over the message's word count.
pub const BYTES_PER_WORD: u64 = 128;

/// The outcome of checking one message against the budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetCheck {
    /// Model-level cost as the runtimes bill it ([`MessageCost::words`]:
    /// [`Message::words`], floored at 1).
    pub words: u64,
    /// Canonical encoding length ([`WireCodec::wire_len`]).
    pub bytes: u64,
}

impl BudgetCheck {
    /// Whether the encoding fits `words × BYTES_PER_WORD`.
    pub fn within_budget(&self) -> bool {
        self.bytes <= self.words * BYTES_PER_WORD
    }

    /// Realized bytes-per-word ratio, rounded up.
    pub fn bytes_per_word(&self) -> u64 {
        self.bytes.div_ceil(self.words)
    }
}

/// Measures `msg` against the byte budget.
pub fn check<M: Message + WireCodec>(msg: &M) -> BudgetCheck {
    BudgetCheck { words: MessageCost::of(msg).words, bytes: msg.wire_len() }
}

/// Panics (with the message's debug form) unless `msg` encodes within
/// its word budget and reports that same length via
/// [`Message::wire_bytes`].
pub fn assert_within_budget<M: Message + WireCodec>(msg: &M) {
    let c = check(msg);
    assert_eq!(msg.wire_bytes(), c.bytes, "wire_bytes disagrees with the codec for {msg:?}");
    assert!(
        c.within_budget(),
        "{msg:?}: {} bytes exceeds {} words × {BYTES_PER_WORD} B/word",
        c.bytes,
        c.words
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_core::bb::{BbBaValue, BbMsg};
    use meba_core::fallback::EchoMsg;
    use meba_core::signing::*;
    use meba_core::strong_ba::StrongBaMsg;
    use meba_core::subprotocol::SkewEnvelope;
    use meba_core::weak_ba::WeakBaMsg;
    use meba_core::SystemConfig;
    use meba_crypto::{trusted_setup, Signable};
    use meba_sim::SessionEnvelope;
    use std::sync::Arc;

    type WbaM = WeakBaMsg<u64, EchoMsg<u64>>;
    type BbM = BbMsg<u64, EchoMsg<BbBaValue<u64>>>;
    type SbaM = StrongBaMsg<EchoMsg<bool>>;

    /// Same fixture parameters as `meba-core`'s word-cost audit.
    fn fixtures() -> (SystemConfig, meba_crypto::Pki, Vec<meba_crypto::SecretKey>) {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let (pki, keys) = trusted_setup(7, 1);
        (cfg, pki, keys)
    }

    #[test]
    fn every_weak_ba_variant_fits_the_budget() {
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

        let cases: Vec<WbaM> = vec![
            WeakBaMsg::Propose { phase: 1, value: v },
            WeakBaMsg::Vote { phase: 1, value: v, sig: vote_sig.clone() },
            WeakBaMsg::CommitReply { phase: 1, value: v, proof: commit.clone() },
            WeakBaMsg::CommitCert { phase: 1, value: v, proof: commit },
            WeakBaMsg::Decide { phase: 1, value: v, sig: decide_sig },
            WeakBaMsg::FinalizeCert { phase: 1, value: v, proof: decide.clone() },
            WeakBaMsg::HelpReq { sig: vote_sig },
            WeakBaMsg::Help { value: v, proof: decide.clone() },
            WeakBaMsg::FallbackCert { qc: qc.clone(), decision: None },
            WeakBaMsg::FallbackCert { qc, decision: Some((v, decide)) },
            WeakBaMsg::Fallback(SkewEnvelope { vstep: 0, msg: Arc::new(EchoMsg(9u64)) }),
        ];
        for msg in cases {
            assert_within_budget(&msg);
        }
    }

    #[test]
    fn every_bb_variant_fits_the_budget() {
        let (cfg, pki, keys) = fixtures();
        let sender_sig = sign_payload(&keys[0], &BbValueSig { session: 1, value: &9u64 });
        let idk_payload = BbIdkSig { session: 1, phase: 2 };
        let shares: Vec<_> =
            keys.iter().take(cfg.idk_threshold()).map(|k| sign_payload(k, &idk_payload)).collect();
        let idk_qc =
            pki.combine(cfg.idk_threshold(), &idk_payload.signing_bytes(), &shares).unwrap();
        let signed = BbBaValue::Signed { value: 9u64, sig: sender_sig.clone() };
        let quorum_v = BbBaValue::<u64>::IdkQuorum { phase: 2, qc: idk_qc };

        let cases: Vec<BbM> = vec![
            BbMsg::SenderValue { value: 9, sig: sender_sig },
            BbMsg::VetHelpReq { phase: 2 },
            BbMsg::VetValue { phase: 2, value: signed.clone() },
            BbMsg::VetValue { phase: 2, value: quorum_v.clone() },
            BbMsg::Vetted { phase: 2, value: signed.clone() },
            BbMsg::Vetted { phase: 2, value: quorum_v },
            BbMsg::VetIdk {
                phase: 2,
                sig: sign_payload(&keys[1], &BbIdkSig { session: 1, phase: 2 }),
            },
            BbMsg::Ba(WeakBaMsg::Propose { phase: 1, value: signed }),
        ];
        for msg in cases {
            assert_within_budget(&msg);
        }
    }

    #[test]
    fn every_strong_ba_variant_fits_the_budget() {
        let (cfg, pki, keys) = fixtures();
        let input_payload = StrongInputSig { session: 1, value: true };
        let sig = sign_payload(&keys[0], &input_payload);
        let shares: Vec<_> = keys
            .iter()
            .take(cfg.idk_threshold())
            .map(|k| sign_payload(k, &input_payload))
            .collect();
        let propose_qc =
            pki.combine(cfg.idk_threshold(), &input_payload.signing_bytes(), &shares).unwrap();
        let decide_payload = StrongDecideSig { session: 1, value: true };
        let all: Vec<_> = keys.iter().map(|k| sign_payload(k, &decide_payload)).collect();
        let decide_qc = pki.combine(cfg.n(), &decide_payload.signing_bytes(), &all).unwrap();

        let cases: Vec<SbaM> = vec![
            StrongBaMsg::Input { value: true, sig: sig.clone() },
            StrongBaMsg::Propose { value: true, qc: propose_qc },
            StrongBaMsg::DecideShare { value: true, sig },
            StrongBaMsg::DecideCert { value: true, qc: decide_qc.clone() },
            StrongBaMsg::Fallback { decision: None },
            StrongBaMsg::Fallback { decision: Some((true, decide_qc)) },
        ];
        for msg in cases {
            assert_within_budget(&msg);
        }
    }

    #[test]
    fn session_envelope_overhead_fits_the_budget() {
        let env = SessionEnvelope {
            session: meba_sim::SessionId(3),
            msg: WeakBaMsg::<u64, EchoMsg<u64>>::Propose { phase: 1, value: 7 },
        };
        assert_within_budget(&env);
    }
}

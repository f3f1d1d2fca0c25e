//! The journal's record vocabulary.
//!
//! A record is journaled *before* anything that depends on it leaves the
//! process (DESIGN.md §11), and every record is one a restart reads.
//! Records reuse the workspace's canonical [`WireCodec`] encoding, so the
//! journal inherits the codec's canonicality guarantees: one record, one
//! byte representation.

use meba_crypto::{DecodeError, Decoder, Digest, Encoder, ProcessId, WireCodec};

/// One durable journal entry.
///
/// A protocol instance's journal is [`Record::Step`] and
/// [`Record::Signed`] entries. The steps alone reconstruct a
/// deterministic protocol exactly (replaying the same inboxes through the
/// same state machine reproduces the same state *and the same
/// signatures*, since the PKI signs deterministically); the signatures
/// rebuild the never-re-sign-conflicting guard as the authoritative set
/// of what the process may have sent (docs/CORRECTNESS.md §10). The other
/// four records are the service layer's (`meba-service`), which replays
/// them itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// One protocol step and the exact inbox it consumed, with each
    /// message in its canonical wire encoding.
    Step {
        /// The step index the protocol executed.
        step: u64,
        /// `(sender, canonical message bytes)` pairs, in delivery order.
        inbox: Vec<(ProcessId, Vec<u8>)>,
    },
    /// A signature this process produced, journaled before the signed
    /// message may leave the process.
    Signed {
        /// Equivocation context: domain tag plus the slot-identifying
        /// fields (session, phase/level). Signing two *different*
        /// payloads with the same context is equivocation.
        context: Vec<u8>,
        /// Digest of the full signing preimage actually signed.
        digest: Digest,
    },
    /// A service-level proposal bound to a log slot, journaled before
    /// the slot's instance may externalize it (`meba-service`): after a
    /// crash the replica knows exactly which batch is in doubt for
    /// which slot, and an auditor can check that no replica ever bound
    /// two different values to one slot.
    Proposed {
        /// The log slot the value was bound to.
        slot: u64,
        /// Canonical encoding of the proposed value (batch).
        value: Vec<u8>,
    },
    /// A log slot's agreed value applied to the service state machine,
    /// journaled before client-visible `Committed` replies leave the
    /// process — replay rebuilds the `(client, seq)` dedup table and
    /// the applied state exactly.
    Committed {
        /// The applied slot.
        slot: u64,
        /// Canonical encoding of the slot's agreed value.
        value: Vec<u8>,
    },
    /// A slot adopted via certified state transfer rather than local
    /// agreement (DESIGN.md §16), journaled before the transferred value
    /// is applied — replay distinguishes "this replica decided" from
    /// "this replica caught up", and a restart mid-transfer resumes
    /// from the watermark instead of re-fetching.
    Transferred {
        /// The adopted slot.
        slot: u64,
        /// Canonical encoding of the slot's agreed value (empty = `⊥`).
        value: Vec<u8>,
    },
    /// Transferable commit evidence for a slot this replica holds
    /// (the encoded BA-level value plus its finalize certificate),
    /// journaled so a restarted replica can keep serving *certified*
    /// state transfer for slots it committed in a previous lifetime.
    Evidence {
        /// The certified slot.
        slot: u64,
        /// Canonical encoding of the slot's `CommitEvidence`.
        evidence: Vec<u8>,
    },
}

// Tags 2–4 and 9 are unassigned: replay ends at one, as at any
// undecodable frame.
const TAG_STEP: u32 = 0;
const TAG_SIGNED: u32 = 1;
const TAG_PROPOSED: u32 = 5;
const TAG_COMMITTED: u32 = 6;
const TAG_TRANSFERRED: u32 = 7;
const TAG_EVIDENCE: u32 = 8;

impl WireCodec for Record {
    fn encode_wire(&self, enc: &mut Encoder) {
        match self {
            Record::Step { step, inbox } => {
                enc.put_u32(TAG_STEP);
                enc.put_u64(*step);
                enc.put_u64(inbox.len() as u64);
                for (from, bytes) in inbox {
                    enc.put_id(*from);
                    enc.put_bytes(bytes);
                }
            }
            Record::Signed { context, digest } => {
                enc.put_u32(TAG_SIGNED);
                enc.put_bytes(context);
                enc.put_digest(digest);
            }
            Record::Proposed { slot, value } => {
                enc.put_u32(TAG_PROPOSED);
                enc.put_u64(*slot);
                enc.put_bytes(value);
            }
            Record::Committed { slot, value } => {
                enc.put_u32(TAG_COMMITTED);
                enc.put_u64(*slot);
                enc.put_bytes(value);
            }
            Record::Transferred { slot, value } => {
                enc.put_u32(TAG_TRANSFERRED);
                enc.put_u64(*slot);
                enc.put_bytes(value);
            }
            Record::Evidence { slot, evidence } => {
                enc.put_u32(TAG_EVIDENCE);
                enc.put_u64(*slot);
                enc.put_bytes(evidence);
            }
        }
    }

    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u32()? {
            TAG_STEP => {
                let step = dec.get_u64()?;
                let len = dec.get_u64()?;
                let len = usize::try_from(len)
                    .map_err(|_| DecodeError::Invalid { what: "inbox length overflows usize" })?;
                let mut inbox = Vec::new();
                for _ in 0..len {
                    let from = dec.get_id()?;
                    let bytes = dec.get_bytes()?;
                    inbox.push((from, bytes));
                }
                Ok(Record::Step { step, inbox })
            }
            TAG_SIGNED => {
                let context = dec.get_bytes()?;
                let digest = dec.get_digest()?;
                Ok(Record::Signed { context, digest })
            }
            TAG_PROPOSED => {
                let slot = dec.get_u64()?;
                let value = dec.get_bytes()?;
                Ok(Record::Proposed { slot, value })
            }
            TAG_COMMITTED => {
                let slot = dec.get_u64()?;
                let value = dec.get_bytes()?;
                Ok(Record::Committed { slot, value })
            }
            TAG_TRANSFERRED => {
                let slot = dec.get_u64()?;
                let value = dec.get_bytes()?;
                Ok(Record::Transferred { slot, value })
            }
            TAG_EVIDENCE => {
                let slot = dec.get_u64()?;
                let evidence = dec.get_bytes()?;
                Ok(Record::Evidence { slot, evidence })
            }
            _ => Err(DecodeError::Invalid { what: "unknown journal record tag" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Step { step: 0, inbox: vec![] },
            Record::Step {
                step: 7,
                inbox: vec![(ProcessId(1), vec![1, 2, 3]), (ProcessId(4), vec![])],
            },
            Record::Signed { context: b"meba/weakba/vote".to_vec(), digest: Digest::of(b"v") },
            Record::Proposed { slot: 4, value: vec![1, 2, 3, 4] },
            Record::Committed { slot: 4, value: vec![1, 2, 3, 4] },
            Record::Transferred { slot: 5, value: vec![7, 7] },
            Record::Transferred { slot: 6, value: vec![] },
            Record::Evidence { slot: 5, evidence: vec![0xC0; 40] },
        ]
    }

    #[test]
    fn records_roundtrip_canonically() {
        for rec in samples() {
            let bytes = rec.to_wire_bytes();
            let back = Record::from_wire_bytes(&bytes).unwrap();
            assert_eq!(back, rec);
            // Canonicality: re-encoding the decoded value reproduces the
            // exact input bytes.
            assert_eq!(back.to_wire_bytes(), bytes);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(99);
        assert!(Record::from_wire_bytes(&enc.into_bytes()).is_err());
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        let rec = Record::Step { step: 3, inbox: vec![(ProcessId(2), vec![9, 9])] };
        let bytes = rec.to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(Record::from_wire_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }
}

//! Certified state transfer: the anti-entropy protocol a restarted (or
//! stranded) replica uses to converge to the cluster's committed prefix
//! without waiting for client retries (DESIGN.md §16).
//!
//! A recovering replica broadcasts nothing: it asks one donor at a time
//! for a range of its applied prefix ([`TransferMsg::FetchCommitted`]),
//! and the donor answers with [`TransferMsg::CommittedBatch`] — per-slot
//! claimed decisions, each carrying the slot's quorum commit certificate
//! ([`CommitEvidence`]) when the donor holds one. The receiver trusts
//! **certificates, not donors**:
//!
//! * A certified entry is accepted iff the [`meba_smr::verify_slot_evidence`]
//!   re-derivation — threshold check, domain-separated session, and the
//!   `BB_valid` mapping — yields exactly the claimed decision. A forged,
//!   stale, or replayed-for-another-slot certificate is rejected and
//!   counted, never adopted.
//! * An uncertified entry (the slot settled through the fallback path,
//!   or the donor itself restarted and lost the certificate) is adopted
//!   only once `t + 1` *distinct* donors claim byte-identical decisions:
//!   any `t + 1` replicas include a correct one, so the matched value is
//!   the committed one.
//!
//! Either way the receiver journals [`meba_journal::Record::Transferred`]
//! before applying, preserving the WAL-before-externalize discipline.
//!
//! The word/byte cost of transfer is accounted under its own component
//! tag (`service/transfer`), so experiment E19 can check the property
//! that matters for an adaptive protocol: transfer traffic scales with
//! the *outage length* (the slots actually missed), not with the total
//! log length.

use crate::batch::Batch;
use meba_core::{wire_schema, Decision, SystemConfig};
use meba_crypto::{Pki, WireCodec};
use meba_smr::{verify_slot_evidence, CommitEvidence};

/// Default budget (maximum reply payload bytes) a recovering replica
/// grants per [`TransferMsg::FetchCommitted`].
pub const DEFAULT_FETCH_BUDGET: u64 = 64 * 1024;

wire_schema! {
    /// One slot of a donor's applied prefix. It costs a word for its value
    /// bytes' length, one per 8 of them, and its certificate's.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TransferEntry: WordCost {
        /// The slot.
        pub slot: u64 as Meta,
        /// The donor's claimed decision: canonical [`Batch`] bytes, empty
        /// for `⊥`.
        pub value: Vec<u8> as Bytes,
        /// The slot's commit certificate, when the donor holds one. `None`
        /// means the receiver must collect `t + 1` matching claims instead.
        pub cert: Option<CommitEvidence>,
    }
}

wire_schema! {
    /// The state-transfer message family, riding the same transport seams as
    /// the log traffic (wrapped in [`crate::replica::ReplicaMsg`]). Its
    /// slots and budget are billed as values, a word each, and a donor
    /// batch also costs its entries.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TransferMsg: Message {
        /// "Send me your applied prefix from `from_slot`, up to `budget`
        /// payload bytes." Sent by a recovering replica to one donor.
        0 => FetchCommitted {
            /// First slot the requester is missing.
            from_slot: u64 as Val,
            /// Maximum total payload bytes the donor may return.
            budget: u64 as Val,
        } in "service/transfer",
        /// A donor's answer: contiguous applied slots starting at
        /// `from_slot`, certificates attached where held.
        1 => CommittedBatch {
            /// Echo of the request's `from_slot`.
            from_slot: u64 as Val,
            /// Contiguous entries `from_slot, from_slot + 1, …`.
            entries: Vec<TransferEntry>,
        } in "service/transfer",
    }
}

/// The claimed decision of a [`TransferEntry`], decoded: empty bytes are
/// `⊥`, anything else must be a canonical [`Batch`].
///
/// Returns `None` for malformed (or non-canonical) value bytes — the
/// entry is then unusable whatever its certificate says.
pub fn claimed_decision(entry: &TransferEntry) -> Option<Decision<Batch>> {
    if entry.value.is_empty() {
        return Some(Decision::Bot);
    }
    let batch = Batch::from_wire_bytes(&entry.value).ok()?;
    if batch.to_wire_bytes() != entry.value {
        return None;
    }
    Some(Decision::Value(batch))
}

/// Verifies a *certified* transfer entry: the certificate must re-derive
/// (under `slot`'s domain-separated session and the `BB_valid` mapping)
/// exactly the decision the donor claims. Returns the decision on
/// success, `None` on any forgery: bad value bytes, bad certificate, a
/// certificate for another slot, or a genuine certificate attached to a
/// different claimed value.
pub fn verify_certified(
    cfg: &SystemConfig,
    pki: &Pki,
    entry: &TransferEntry,
) -> Option<Decision<Batch>> {
    let cert = entry.cert.as_ref()?;
    let claimed = claimed_decision(entry)?;
    let derived = verify_slot_evidence::<Batch>(cfg, pki, entry.slot, cert)?;
    (derived == claimed).then_some(claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_core::DecideProof;
    use meba_crypto::trusted_setup;

    /// A structurally valid certificate that certifies nothing relevant:
    /// a real quorum signature over an unrelated message.
    fn fake_cert() -> CommitEvidence {
        let (pki, keys) = trusted_setup(5, 0x99);
        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"unrelated")).collect();
        let qc = pki.combine(3, b"unrelated", &shares).unwrap();
        CommitEvidence { ba_value: vec![1, 2, 3], proof: DecideProof { phase: 1, qc } }
    }

    fn samples() -> Vec<TransferMsg> {
        vec![
            TransferMsg::FetchCommitted { from_slot: 3, budget: 4096 },
            TransferMsg::CommittedBatch { from_slot: 0, entries: vec![] },
            TransferMsg::CommittedBatch {
                from_slot: 2,
                entries: vec![
                    TransferEntry { slot: 2, value: vec![], cert: None },
                    TransferEntry { slot: 3, value: vec![9, 9, 9], cert: Some(fake_cert()) },
                ],
            },
        ]
    }

    #[test]
    fn transfer_msgs_roundtrip_canonically() {
        for m in samples() {
            let bytes = m.to_wire_bytes();
            let back = TransferMsg::from_wire_bytes(&bytes).unwrap();
            assert_eq!(back, m);
            assert_eq!(back.to_wire_bytes(), bytes);
        }
    }

    #[test]
    fn truncation_rejected() {
        for m in samples() {
            let bytes = m.to_wire_bytes();
            for cut in 0..bytes.len() {
                assert!(TransferMsg::from_wire_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
            }
        }
    }

    #[test]
    fn forged_cert_is_rejected() {
        let n = 5;
        let cfg = SystemConfig::new(n, 0x77).unwrap();
        let (pki, _) = trusted_setup(n, 0x88);
        let entry = TransferEntry { slot: 0, value: vec![], cert: Some(fake_cert()) };
        assert!(verify_certified(&cfg, &pki, &entry).is_none());
        // Uncertified entries are never "verified certified".
        let bare = TransferEntry { slot: 0, value: vec![], cert: None };
        assert!(verify_certified(&cfg, &pki, &bare).is_none());
        // But their claimed decision still parses (⊥ here) for vouching.
        assert_eq!(claimed_decision(&bare), Some(Decision::Bot));
    }
}

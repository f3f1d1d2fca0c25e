//! Property tests for the client protocol's canonical codec, mirroring
//! `meba-wire`'s `proptest_codec`:
//!
//! 1. **Round-trip**: `decode(encode(m))` succeeds and re-encodes to the
//!    identical bytes.
//! 2. **Truncation is total**: every strict prefix errors, never panics.
//! 3. **Bit flips are total and canonical**: a mutated encoding either
//!    errors or decodes to a message that re-encodes to exactly the
//!    mutated bytes — the decoder accepts only canonical encodings.
//! 4. **Sizing without encoding is exact**: every message's `wire_len`
//!    is the length of its encoding.

use meba_core::DecideProof;
use meba_crypto::{trusted_setup, Digest, ProcessId, WireCodec};
use meba_service::{
    Batch, ClientHello, ClientRequest, Op, ReadMode, ReplicaMsg, ServiceReply, ServiceSnapshot,
    TransferEntry, TransferMsg, SERVICE_VERSION,
};
use meba_smr::CommitEvidence;
use proptest::prelude::*;

/// A structurally valid commit certificate over `value`'s bytes (a real
/// threshold signature under a throwaway setup — the codec does not
/// verify, it only round-trips the structure).
fn dummy_cert(value: u64) -> CommitEvidence {
    let n = 3;
    let (pki, keys) = trusted_setup(n, 0x0dec);
    let bytes = value.to_le_bytes();
    let shares: Vec<_> = keys.iter().map(|k| k.sign(&bytes)).collect();
    let qc = pki.combine(n, &bytes, &shares).expect("shares combine");
    CommitEvidence { ba_value: bytes.to_vec(), proof: DecideProof { phase: 1, qc } }
}

/// One instance of every client-protocol frame family, parameterized by
/// the generated scalars.
fn corpus(client: u64, seq: u64, key: u64, value: u64, ops: usize) -> Vec<Vec<u8>> {
    let op = Op { client, seq, key, value };
    let batch = Batch(
        (0..ops as u64).map(|i| Op { client, seq: seq.wrapping_add(i), key, value }).collect(),
    );
    let mut out: Vec<Vec<u8>> = Vec::new();

    let hello = ClientHello {
        version: SERVICE_VERSION,
        client,
        config_digest: Digest::of(&key.to_le_bytes()),
    };
    out.push(hello.to_wire_bytes());

    let reqs = [
        ClientRequest::Submit { op },
        ClientRequest::Read { client, key, mode: ReadMode::Fast },
        ClientRequest::Read { client, key, mode: ReadMode::Confirmed },
    ];
    out.extend(reqs.iter().map(|m| m.to_wire_bytes()));

    let replies = [
        ServiceReply::HelloOk { replica: ProcessId((client % 7) as u32) },
        ServiceReply::Accepted { client, seq },
        ServiceReply::Overloaded { client, seq, queue_len: key, capacity: value },
        ServiceReply::Committed { client, seq, slot: key, batch_index: (value % 1024) as u32 },
        ServiceReply::ReadResult {
            client,
            key,
            value: Some(value),
            applied_slots: seq,
            mode: ReadMode::Confirmed,
        },
        ServiceReply::ReadResult {
            client,
            key,
            value: None,
            applied_slots: 0,
            mode: ReadMode::Fast,
        },
    ];
    out.extend(replies.iter().map(|m| m.to_wire_bytes()));

    out.push(batch.to_wire_bytes());

    // The anti-entropy (state transfer) frame families: the fetch
    // request, a donor batch mixing bare and certified entries, the two
    // entry shapes on their own, the journal-compaction snapshot, and
    // both arms of the replica envelope that multiplexes log and
    // transfer traffic over one link.
    let bare = TransferEntry { slot: key, value: batch.to_wire_bytes(), cert: None };
    let certified = TransferEntry {
        slot: key.wrapping_add(1),
        value: Vec::new(),
        cert: Some(dummy_cert(value)),
    };
    let fetch = TransferMsg::FetchCommitted { from_slot: key, budget: value };
    out.push(fetch.to_wire_bytes());
    let donor_batch = TransferMsg::CommittedBatch {
        from_slot: key,
        entries: vec![bare.clone(), certified.clone()],
    };
    out.push(donor_batch.to_wire_bytes());
    out.push(bare.to_wire_bytes());
    out.push(certified.to_wire_bytes());
    let snapshot = ServiceSnapshot {
        upto_slot: seq,
        applied: vec![(key, batch.to_wire_bytes()), (key.wrapping_add(1), Vec::new())],
        proposals: vec![(key, batch.to_wire_bytes())],
        evidence: vec![(key, dummy_cert(value))],
    };
    out.push(snapshot.to_wire_bytes());
    out.push(ReplicaMsg::Log(batch).to_wire_bytes());
    out.push(ReplicaMsg::<Batch>::Transfer(fetch).to_wire_bytes());
    out
}

const FAMILIES: usize = 18;

/// Decodes `bytes` with the family that produced corpus index `i`,
/// returning the re-encoding if decoding succeeded.
fn redecode(i: usize, bytes: &[u8]) -> Option<Vec<u8>> {
    read(i, bytes).map(|(re, _)| re)
}

/// Decodes `bytes` with the family that produced corpus index `i`,
/// returning the re-encoding and the length the message reports without
/// encoding, if decoding succeeded.
fn read(i: usize, bytes: &[u8]) -> Option<(Vec<u8>, u64)> {
    fn via<M: WireCodec>(bytes: &[u8]) -> Option<(Vec<u8>, u64)> {
        M::from_wire_bytes(bytes).ok().map(|m| (m.to_wire_bytes(), m.wire_len()))
    }
    match i {
        0 => via::<ClientHello>(bytes),
        1..=3 => via::<ClientRequest>(bytes),
        4..=9 => via::<ServiceReply>(bytes),
        10 => via::<Batch>(bytes),
        11 | 12 => via::<TransferMsg>(bytes),
        13 | 14 => via::<TransferEntry>(bytes),
        15 => via::<ServiceSnapshot>(bytes),
        16 | 17 => via::<ReplicaMsg<Batch>>(bytes),
        _ => unreachable!("corpus has {FAMILIES} entries"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_frame_round_trips_canonically(
        client in any::<u64>(),
        seq in any::<u64>(),
        key in any::<u64>(),
        value in any::<u64>(),
        ops in 0usize..16,
    ) {
        let corpus = corpus(client, seq, key, value, ops);
        prop_assert_eq!(corpus.len(), FAMILIES);
        for (i, bytes) in corpus.iter().enumerate() {
            let re = redecode(i, bytes);
            prop_assert_eq!(
                re.as_deref(),
                Some(&bytes[..]),
                "family {} must decode and re-encode to identical bytes",
                i
            );
        }
    }

    #[test]
    fn every_frame_reports_its_encoded_length(
        client in any::<u64>(),
        seq in any::<u64>(),
        key in any::<u64>(),
        value in any::<u64>(),
        ops in 0usize..16,
    ) {
        let corpus = corpus(client, seq, key, value, ops);
        for (i, bytes) in corpus.iter().enumerate() {
            let (_, wire_len) = read(i, bytes).expect("every corpus frame decodes");
            prop_assert_eq!(wire_len, bytes.len() as u64, "family {}", i);
        }
    }

    #[test]
    fn truncated_frames_error_and_never_panic(
        client in any::<u64>(),
        seq in any::<u64>(),
        key in any::<u64>(),
        value in any::<u64>(),
        ops in 0usize..16,
    ) {
        let corpus = corpus(client, seq, key, value, ops);
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
        client in any::<u64>(),
        seq in any::<u64>(),
        key in any::<u64>(),
        value in any::<u64>(),
        ops in 0usize..16,
        flip in any::<u64>(),
    ) {
        let corpus = corpus(client, seq, key, value, ops);
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
}

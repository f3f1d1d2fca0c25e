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
//!
//! Two pins fix what the properties cannot see: `service_wire_format_is_pinned`
//! holds one digest per family over the corpus at fixed scalars, and
//! `transfer_costs_are_pinned` prices every transfer and replica frame
//! of that corpus by the hand formula the transfer family was billed by.
//! Hostile frames close the file: a vector count read off the wire
//! (`u64::MAX`, 2⁴⁰) over a short body, an unknown variant tag, and an
//! instance `seq` above 255 each end in a typed `DecodeError`.

use meba_core::fallback::EchoMsg;
use meba_core::{DecideProof, Value};
use meba_crypto::{trusted_setup, DecodeError, Digest, Encoder, ProcessId, WireCodec, WordCost};
use meba_fallback::{InstanceId, Scope};
use meba_service::{
    Batch, ClientHello, ClientRequest, Op, ReadMode, ReplicaMsg, ServiceReply, TransferEntry,
    TransferMsg, SERVICE_VERSION,
};
use meba_sim::{Message, SessionEnvelope, SessionId};
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
    // entry shapes on their own, and both arms of the replica envelope that multiplexes log and
    // transfer traffic over one link. Its log traffic is a message, here
    // `EchoMsg<Batch>`, whose bytes are the batch's.
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
    out.push(ReplicaMsg::Log(EchoMsg(batch)).to_wire_bytes());
    out.push(ReplicaMsg::<EchoMsg<Batch>>::Transfer(fetch).to_wire_bytes());
    out
}

const FAMILIES: usize = 17;

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
        15 | 16 => via::<ReplicaMsg<EchoMsg<Batch>>>(bytes),
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

/// The corpus at the fixed scalars both pins read.
fn pinned_corpus() -> Vec<Vec<u8>> {
    corpus(0x0123_4567_89ab_cdef, 42, 0xfeed_f00d, 7, 5)
}

#[test]
fn service_wire_format_is_pinned() {
    let corpus = pinned_corpus();
    let hex = |range: std::ops::RangeInclusive<usize>| Digest::of(&corpus[range].concat()).to_hex();
    let pins = [
        (
            "ClientHello",
            hex(0..=0),
            "d188cca94f3909823bcbd4baefc27f73463622962ef49033d8735e3392ac00f1",
        ),
        (
            "ClientRequest",
            hex(1..=3),
            "446dacc71072f8463a3252973f757b6fdd2f70244f34a8ba8d152f742368f778",
        ),
        (
            "ServiceReply",
            hex(4..=9),
            "ba41f3681fcbdd4706774f6a91b9351a9042865fce95db59c86730c9d8a04f7e",
        ),
        ("Batch", hex(10..=10), "caaf6192d91dbb5ced367f57841cd3890710fbddb59dec9979ae517db3162e01"),
        (
            "TransferMsg",
            hex(11..=12),
            "8a37a49d3430a8b9a95965f830c402eed61a3f5d92312acb8808e3f2f7c7889b",
        ),
        (
            "TransferEntry",
            hex(13..=14),
            "fb5a6b543369dbd97d7f4bf1e5846cfcc3e309687cec76de5098a1d57cfae6d5",
        ),
        (
            "ReplicaMsg",
            hex(15..=16),
            "96b85b0f4e22adaeb2d78c49d3fccc4b4dc0df01152f3caa07a3e74df3b731d0",
        ),
    ];
    for (family, got, pinned) in pins {
        assert_eq!(got, pinned, "{family}: wire bytes moved");
    }
}

/// The words the transfer family was billed by before its cost came from
/// field roles: a word for `from_slot`, and per entry a word for its
/// length, one per 8 value bytes, and for a certificate one per 8 BA
/// value bytes plus one plus the certificate's words. A fetch is 2.
fn hand_words(m: &TransferMsg) -> u64 {
    match m {
        TransferMsg::FetchCommitted { .. } => 2,
        TransferMsg::CommittedBatch { entries, .. } => {
            1 + entries
                .iter()
                .map(|e| {
                    let cert = e.cert.as_ref().map_or(0, |c| {
                        (c.ba_value.len() as u64).div_ceil(8) + 1 + c.proof.qc.words()
                    });
                    1 + (e.value.len() as u64).div_ceil(8) + cert
                })
                .sum::<u64>()
        }
    }
}

/// The signatures the transfer family was billed: each certificate's.
fn hand_sigs(m: &TransferMsg) -> u64 {
    match m {
        TransferMsg::FetchCommitted { .. } => 0,
        TransferMsg::CommittedBatch { entries, .. } => entries
            .iter()
            .filter_map(|e| e.cert.as_ref())
            .map(|c| c.proof.qc.constituent_sigs())
            .sum(),
    }
}

#[test]
fn transfer_costs_are_pinned() {
    let corpus = pinned_corpus();
    // Log traffic here is `EchoMsg<Batch>`, whose bytes are the batch's:
    // the replica frames of the corpus decode as it.
    type Replica = ReplicaMsg<EchoMsg<Batch>>;
    let mut priced = 0;
    for i in [11, 12] {
        let m = TransferMsg::from_wire_bytes(&corpus[i]).expect("transfer frame decodes");
        assert_eq!(m.words(), hand_words(&m), "frame {i}: {m:?}");
        assert_eq!(m.constituent_sigs(), hand_sigs(&m), "frame {i}: {m:?}");
        assert_eq!((m.component(), m.session()), ("service/transfer", None), "frame {i}");
        assert_eq!(m.wire_bytes(), corpus[i].len() as u64, "frame {i}");
        let wrapped = Replica::Transfer(m.clone());
        assert_eq!(wrapped.words(), hand_words(&m), "frame {i} wrapped");
        assert_eq!(wrapped.constituent_sigs(), hand_sigs(&m), "frame {i} wrapped");
        assert_eq!(wrapped.component(), "service/transfer", "frame {i} wrapped");
        assert_eq!(wrapped.wire_bytes(), 5 + corpus[i].len() as u64, "frame {i} wrapped");
        priced += hand_words(&m);
    }
    // Fixed scalars give fixed prices: the fetch's 2 words, and the donor
    // batch's from_slot, a bare entry of 5 ops (189 value bytes) and a
    // certified entry with an 8-byte BA value.
    assert_eq!(priced, 2 + 1 + (1 + 24) + (1 + 1 + 1 + 1));
    for i in [15, 16] {
        let m = Replica::from_wire_bytes(&corpus[i]).expect("replica frame decodes");
        let (words, sigs, component) = match &m {
            ReplicaMsg::Log(EchoMsg(batch)) => (batch.value_words(), 0, "fallback"),
            ReplicaMsg::Transfer(t) => (hand_words(t), hand_sigs(t), "service/transfer"),
        };
        assert_eq!(m.words(), words, "frame {i}: {m:?}");
        assert_eq!(m.constituent_sigs(), sigs, "frame {i}: {m:?}");
        assert_eq!((m.component(), m.session()), (component, None), "frame {i}");
        assert_eq!(m.wire_bytes(), corpus[i].len() as u64, "frame {i}");
    }
    // A replica frame bills log traffic under its session, transfer
    // traffic under none.
    let fetch = TransferMsg::FetchCommitted { from_slot: 1, budget: 2 };
    let log = SessionEnvelope { session: SessionId(9), msg: fetch.clone() };
    assert_eq!(ReplicaMsg::Log(log).session(), Some(9));
    assert_eq!(ReplicaMsg::<SessionEnvelope<TransferMsg>>::Transfer(fetch).session(), None);
}

/// A frame that declares `count` vector entries after `head`, followed by
/// one well-formed entry and nothing else.
fn claims_entries(head: impl Fn(&mut Encoder), count: u64, entry: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    head(&mut enc);
    enc.put_u64(count);
    let mut bytes = enc.into_bytes();
    bytes.extend_from_slice(entry);
    bytes
}

#[test]
fn hostile_vector_counts_are_refused_without_reserving() {
    let entry = TransferEntry { slot: 3, value: vec![1, 2, 3], cert: None }.to_wire_bytes();
    for count in [u64::MAX, 1 << 40] {
        let batch = claims_entries(
            |e| {
                e.put_u32(1);
                e.put_u64(0);
            },
            count,
            &entry,
        );
        let err = TransferMsg::from_wire_bytes(&batch).expect_err("CommittedBatch");
        assert!(!matches!(err, DecodeError::TrailingBytes { .. }), "{count}: {err:?}");
    }
}

#[test]
fn unknown_tags_are_refused() {
    let mut enc = Encoder::new();
    enc.put_u32(99);
    let bytes = enc.into_bytes();
    assert!(ClientRequest::from_wire_bytes(&bytes).is_err());
    assert!(ServiceReply::from_wire_bytes(&bytes).is_err());
    assert!(ReadMode::from_wire_bytes(&bytes).is_err());
    assert!(TransferMsg::from_wire_bytes(&bytes).is_err());
    assert!(ReplicaMsg::<EchoMsg<Batch>>::from_wire_bytes(&bytes).is_err());
}

#[test]
fn an_instance_seq_above_255_is_refused() {
    let id = InstanceId::new(Scope { lo: 1, hi: 4 }, 255);
    let mut bytes = id.to_wire_bytes();
    assert_eq!(InstanceId::from_wire_bytes(&bytes), Ok(id));
    let mut enc = Encoder::new();
    enc.put_u32(256);
    let seq = enc.into_bytes();
    let at = bytes.len() - seq.len();
    bytes[at..].copy_from_slice(&seq);
    assert!(matches!(InstanceId::from_wire_bytes(&bytes), Err(DecodeError::Invalid { .. })));
}

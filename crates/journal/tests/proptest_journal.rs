//! Property tests for the write-ahead journal: replay is idempotent
//! (replay twice ≡ replay once), append-after-replay extends the same
//! history, and torn tails of any length never corrupt the intact prefix.

use meba_crypto::Digest;
use meba_journal::{Journal, MemBuffer, MemStorage, Record};
use proptest::prelude::*;

/// Decodes a compact `(kind, a)` generator pair into one of the six
/// record kinds, with a payload derived from `a` so two different pairs
/// yield two different records.
fn record_from(kind: u8, a: u64) -> Record {
    let bytes: Vec<u8> =
        a.to_be_bytes().iter().cycle().take(4 + (a % 13) as usize).copied().collect();
    match kind % 6 {
        0 => Record::Step {
            step: a,
            inbox: vec![(meba_crypto::ProcessId(u32::try_from(a % 7).unwrap()), bytes)],
        },
        1 => Record::Signed { context: bytes, digest: Digest::of(&a.to_be_bytes()) },
        2 => Record::Proposed { slot: a, value: bytes },
        3 => Record::Committed { slot: a, value: bytes },
        4 => Record::Transferred { slot: a, value: bytes },
        _ => Record::Evidence { slot: a, evidence: bytes },
    }
}

fn records_from(kinds: &[u8], nums: &[u64]) -> Vec<Record> {
    kinds.iter().zip(nums).map(|(&k, &a)| record_from(k, a)).collect()
}

proptest! {
    #[test]
    fn replay_twice_equals_replay_once(
        kinds in proptest::collection::vec(any::<u8>(), 0..32),
        nums in proptest::collection::vec(any::<u64>(), 32usize),
        sync_every in 1u64..8,
    ) {
        let records = records_from(&kinds, &nums);
        let buf = MemBuffer::new();
        let mut j = Journal::new(Box::new(MemStorage::new(buf.clone())), sync_every);
        for r in &records {
            j.append(r).unwrap();
        }
        j.flush().unwrap();

        let mut once = Journal::in_memory(buf.clone());
        let first = once.replay().unwrap();
        prop_assert_eq!(&first.records, &records);
        prop_assert_eq!(first.torn_bytes, 0);

        // Idempotence: a second replay — same handle or a fresh one —
        // sees the identical history.
        let again = once.replay().unwrap();
        prop_assert_eq!(&again.records, &records);
        let mut fresh = Journal::in_memory(buf);
        prop_assert_eq!(&fresh.replay().unwrap().records, &records);
    }

    #[test]
    fn append_after_replay_extends_history(
        kinds in proptest::collection::vec(any::<u8>(), 1..16),
        nums in proptest::collection::vec(any::<u64>(), 16usize),
        split in 0usize..16,
    ) {
        let records = records_from(&kinds, &nums);
        let split = split.min(records.len());
        let buf = MemBuffer::new();
        let mut j = Journal::in_memory(buf.clone());
        for r in &records[..split] {
            j.append(r).unwrap();
        }
        j.flush().unwrap();

        // A recovering process replays, then appends the rest of its life.
        let mut j2 = Journal::in_memory(buf.clone());
        prop_assert_eq!(&j2.replay().unwrap().records, &records[..split].to_vec());
        for r in &records[split..] {
            j2.append(r).unwrap();
        }
        j2.flush().unwrap();
        let mut j3 = Journal::in_memory(buf);
        prop_assert_eq!(&j3.replay().unwrap().records, &records);
    }

    #[test]
    fn torn_tail_of_any_length_preserves_prefix(
        kinds in proptest::collection::vec(any::<u8>(), 1..12),
        nums in proptest::collection::vec(any::<u64>(), 12usize),
        cut in 1usize..64,
    ) {
        let records = records_from(&kinds, &nums);
        let buf = MemBuffer::new();
        let mut j = Journal::in_memory(buf.clone());
        for r in &records {
            j.append(r).unwrap();
        }
        j.flush().unwrap();
        let full = buf.len();
        let cut = cut.min(full);
        buf.truncate(full - cut);

        let mut torn = Journal::in_memory(buf.clone());
        let report = torn.replay().unwrap();
        // Whatever survives is a strict prefix of the appended history,
        // and replaying the torn journal again is still idempotent.
        prop_assert!(report.records.len() <= records.len());
        prop_assert_eq!(&records[..report.records.len()], &report.records[..]);
        let mut torn2 = Journal::in_memory(buf);
        prop_assert_eq!(&torn2.replay().unwrap().records, &report.records);
    }
}

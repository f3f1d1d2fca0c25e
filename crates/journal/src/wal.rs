//! The write-ahead journal proper: framing, fsync batching, and replay.
//!
//! Layout is a flat sequence of frames, each
//! `[len: u32 BE][crc32(payload): u32 BE][payload]` where `payload` is a
//! canonical [`Record`] encoding. Appends are strictly ordered; replay
//! scans from the start and stops at the first torn or corrupt frame
//! (standard WAL semantics — everything before a valid frame boundary is
//! durable, a torn tail is the record that never finished committing).

use crate::crc32::crc32;
use crate::record::Record;
use meba_crypto::WireCodec;
use std::io::{self, Read, Seek, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Maximum accepted frame payload, guarding replay against a corrupt
/// length prefix committing us to a giant allocation.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Byte-level persistence backend for a [`Journal`].
///
/// Two implementations ship in-crate: [`MemStorage`] (shared buffer that
/// survives a simulated crash of its owner) and [`FileStorage`] (a real
/// append-only file with `fsync`).
pub trait Storage: Send {
    /// Appends raw bytes at the end.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every prior append durable (fsync or its in-memory stand-in).
    fn sync(&mut self) -> io::Result<()>;
    /// Reads the entire current contents.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Discards everything, leaving an empty log. The journal itself
    /// never calls it.
    fn reset(&mut self) -> io::Result<()>;
}

/// A shareable in-memory journal backing store.
///
/// Clones share the same bytes, which is what models durability across a
/// *simulated* crash: the actor (and its [`Journal`] handle) is dropped,
/// but the buffer — the "disk" — survives, and the restarted actor opens
/// a fresh `Journal` over a clone of the buffer.
#[derive(Clone, Debug, Default)]
pub struct MemBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.lock().expect("journal buffer poisoned").len()
    }

    /// Whether nothing has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the raw contents (test/diagnostic use).
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().expect("journal buffer poisoned").clone()
    }

    /// Truncates to `len` bytes — simulates a torn tail after a crash
    /// mid-append (test use).
    pub fn truncate(&self, len: usize) {
        self.bytes.lock().expect("journal buffer poisoned").truncate(len);
    }

    /// Flips one bit — simulates at-rest corruption (test use).
    pub fn corrupt_bit(&self, byte: usize, bit: u8) {
        let mut bytes = self.bytes.lock().expect("journal buffer poisoned");
        if let Some(b) = bytes.get_mut(byte) {
            *b ^= 1 << (bit & 7);
        }
    }
}

/// [`Storage`] over a [`MemBuffer`].
#[derive(Debug)]
pub struct MemStorage {
    buf: MemBuffer,
}

impl MemStorage {
    /// Opens storage over `buf`; appends go at its current end.
    pub fn new(buf: MemBuffer) -> Self {
        MemStorage { buf }
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.bytes.lock().expect("journal buffer poisoned").extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.buf.contents())
    }
    fn reset(&mut self) -> io::Result<()> {
        self.buf.bytes.lock().expect("journal buffer poisoned").clear();
        Ok(())
    }
}

/// [`Storage`] over an append-only file, with real `fsync`
/// (`File::sync_data`) on [`Storage::sync`].
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    /// Opens (creating if absent) the journal file at `path` for append.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file =
            std::fs::OpenOptions::new().read(true).create(true).append(true).open(path.as_ref())?;
        Ok(FileStorage { file })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.flush()?;
        let mut out = Vec::new();
        let pos = self.file.stream_position()?;
        self.file.seek(io::SeekFrom::Start(0))?;
        self.file.read_to_end(&mut out)?;
        self.file.seek(io::SeekFrom::Start(pos))?;
        Ok(out)
    }
    fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(io::SeekFrom::Start(0))?;
        Ok(())
    }
}

/// Append/sync counters for one journal handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended through this handle.
    pub appended: u64,
    /// Syncs issued (batched: one per [`Journal::sync_every`] appends,
    /// plus explicit flushes).
    pub fsyncs: u64,
}

/// What replay found in the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// Bytes after the last intact frame (a torn or corrupt tail from a
    /// crash mid-append); `0` for a cleanly closed journal.
    pub torn_bytes: u64,
}

/// An append-only, CRC-checked, fsync-batched write-ahead journal.
///
/// # Examples
///
/// ```
/// use meba_crypto::Digest;
/// use meba_journal::{Journal, MemBuffer, Record};
///
/// let disk = MemBuffer::new();
/// let mut j = Journal::in_memory(disk.clone());
/// let signed = Record::Signed { context: b"vote/1".to_vec(), digest: Digest::of(b"v") };
/// j.append(&signed).unwrap();
/// j.flush().unwrap();
///
/// // "Crash": drop the journal handle; the buffer (the disk) survives.
/// drop(j);
/// let mut j2 = Journal::in_memory(disk);
/// let replay = j2.replay().unwrap();
/// assert_eq!(replay.records, vec![signed]);
/// assert_eq!(replay.torn_bytes, 0);
/// ```
pub struct Journal {
    storage: Box<dyn Storage>,
    sync_every: u64,
    unsynced: u64,
    stats: JournalStats,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("sync_every", &self.sync_every)
            .field("unsynced", &self.unsynced)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Default append batch between syncs.
    pub const DEFAULT_SYNC_EVERY: u64 = 8;

    /// Wraps `storage`, syncing after every `sync_every` appended records
    /// (`0` is treated as `1`: sync on every append).
    pub fn new(storage: Box<dyn Storage>, sync_every: u64) -> Self {
        Journal {
            storage,
            sync_every: sync_every.max(1),
            unsynced: 0,
            stats: JournalStats::default(),
        }
    }

    /// An in-memory journal over `buf` with the default sync batching.
    pub fn in_memory(buf: MemBuffer) -> Self {
        Self::new(Box::new(MemStorage::new(buf)), Self::DEFAULT_SYNC_EVERY)
    }

    /// A file-backed journal at `path` with the default sync batching.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn open_file(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(Box::new(FileStorage::open(path)?), Self::DEFAULT_SYNC_EVERY))
    }

    /// Counters for this handle.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The configured append batch between syncs.
    pub fn sync_every(&self) -> u64 {
        self.sync_every
    }

    /// Appends one record, framed and CRC-stamped, syncing if the batch
    /// quota is reached.
    ///
    /// # Errors
    ///
    /// Propagates storage errors; on error the record must be considered
    /// not durable and nothing derived from it may be externalized.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let payload = rec.to_wire_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "record too large"));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.storage.append(&frame)?;
        self.stats.appended += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Forces a sync of any unsynced appends (no-op when none pending).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.storage.sync()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Scans the journal from the start, CRC-checking every frame, and
    /// returns the intact prefix. A truncated length/CRC header, a
    /// payload shorter than its length prefix, a CRC mismatch, or an
    /// undecodable record all end the scan there (torn tail).
    ///
    /// # Errors
    ///
    /// Propagates storage read errors only — a damaged tail is reported
    /// in [`ReplayReport::torn_bytes`], not as an error.
    pub fn replay(&mut self) -> io::Result<ReplayReport> {
        let bytes = self.storage.read_all()?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= 8 {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if len > MAX_FRAME as usize || bytes.len() - pos - 8 < len {
                break;
            }
            let payload = &bytes[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                break;
            }
            match Record::from_wire_bytes(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            pos += 8 + len;
        }
        Ok(ReplayReport { records, torn_bytes: (bytes.len() - pos) as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::{Digest, ProcessId};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Step { step: 0, inbox: vec![] },
            Record::Signed { context: b"ctx".to_vec(), digest: Digest::of(b"p") },
            Record::Step { step: 1, inbox: vec![(ProcessId(2), vec![7, 7])] },
            Record::Proposed { slot: 1, value: vec![42] },
            Record::Committed { slot: 1, value: vec![42] },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let disk = MemBuffer::new();
        let mut j = Journal::in_memory(disk.clone());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        j.flush().unwrap();
        let report = Journal::in_memory(disk).replay().unwrap();
        assert_eq!(report.records, sample_records());
        assert_eq!(report.torn_bytes, 0);
    }

    #[test]
    fn fsyncs_are_batched() {
        let mut j = Journal::new(Box::new(MemStorage::new(MemBuffer::new())), 4);
        for _ in 0..10 {
            j.append(&Record::Step { step: 0, inbox: vec![] }).unwrap();
        }
        // 10 appends at batch 4 → syncs after 4 and 8.
        assert_eq!(j.stats().appended, 10);
        assert_eq!(j.stats().fsyncs, 2);
        j.flush().unwrap();
        assert_eq!(j.stats().fsyncs, 3);
        // Idempotent when nothing is pending.
        j.flush().unwrap();
        assert_eq!(j.stats().fsyncs, 3);
    }

    #[test]
    fn torn_tail_is_cut_at_last_intact_frame() {
        let disk = MemBuffer::new();
        let mut j = Journal::in_memory(disk.clone());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        j.flush().unwrap();
        let full = disk.len();
        // Cut mid-way through the last frame.
        disk.truncate(full - 3);
        let report = Journal::in_memory(disk).replay().unwrap();
        assert_eq!(report.records.len(), sample_records().len() - 1);
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn corrupt_payload_fails_crc_and_ends_replay() {
        let disk = MemBuffer::new();
        let mut j = Journal::in_memory(disk.clone());
        for r in sample_records() {
            j.append(&r).unwrap();
        }
        j.flush().unwrap();
        // Flip a bit in the second frame's payload: first frame is
        // 8 bytes header + its payload; frame 2 payload starts at +8.
        let first_payload = sample_records()[0].to_wire_bytes().len();
        disk.corrupt_bit(8 + first_payload + 8 + 2, 0);
        let report = Journal::in_memory(disk).replay().unwrap();
        assert_eq!(report.records, sample_records()[..1].to_vec());
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn forged_giant_length_prefix_is_torn_not_oom() {
        let disk = MemBuffer::new();
        let mut s = MemStorage::new(disk.clone());
        s.append(&u32::MAX.to_be_bytes()).unwrap();
        s.append(&[0u8; 12]).unwrap();
        let report = Journal::in_memory(disk).replay().unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.torn_bytes, 16);
    }

    #[test]
    fn file_storage_roundtrips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("meba-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_file(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
            j.flush().unwrap();
        }
        let mut reopened = Journal::open_file(&path).unwrap();
        let report = reopened.replay().unwrap();
        assert_eq!(report.records, sample_records());
        // And appends after reopen land at the end.
        reopened.append(&Record::Step { step: 2, inbox: vec![] }).unwrap();
        reopened.flush().unwrap();
        let report = reopened.replay().unwrap();
        assert_eq!(report.records.len(), sample_records().len() + 1);
        let _ = std::fs::remove_file(&path);
    }
}

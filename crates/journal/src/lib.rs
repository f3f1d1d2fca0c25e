//! Durable write-ahead journal for crash-recovering `meba` processes.
//!
//! The paper's resilience accounting (`n = 2t + 1`) counts a process as
//! either correct or Byzantine — there is no third state for "crashed,
//! restarted, and forgot what it signed". A process that comes back with
//! empty state can sign a conflicting vote and silently *manufacture* a
//! Byzantine fault. This crate closes that gap:
//!
//! * [`Record`] — the journal vocabulary: per-step inboxes (sufficient to
//!   replay a deterministic protocol exactly), the signatures produced,
//!   and the service layer's slot bindings, applied slots and evidence;
//! * [`Journal`] — append-only, CRC-checked, fsync-batched framing over
//!   a pluggable [`Storage`] backend ([`MemBuffer`]/[`MemStorage`] for
//!   simulated crashes, [`FileStorage`] for real files);
//! * replay ([`Journal::replay`]) with torn-tail detection, feeding the
//!   `Recoverable` wrapper in `meba-core` and the signing guard in
//!   `meba-crypto`.
//!
//! The invariant the whole stack enforces (docs/CORRECTNESS.md §10): a
//! signature is journaled and synced *before* the message carrying it
//! may leave the process, so after any crash the restarted process knows
//! every signature it ever externalized and can refuse to contradict it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc32;
pub mod record;
pub mod wal;

pub use crc32::crc32;
pub use record::Record;
pub use wal::{FileStorage, Journal, JournalStats, MemBuffer, MemStorage, ReplayReport, Storage};

//! Crash-recovery wrapper: durable journaling and non-equivocating
//! restart for any [`SubProtocol`].
//!
//! A crash-recovery fault is *manufacturable* into a Byzantine fault: a
//! process that forgets it signed `⟨vote, v⟩`, restarts, and signs
//! `⟨vote, w⟩` for the same slot has equivocated — exactly what the
//! paper's `n = 2t + 1` quorum intersection cannot absorb beyond `t`
//! processes. [`Recoverable`] closes that hole with a write-ahead
//! discipline (DESIGN.md §11, docs/CORRECTNESS.md §10):
//!
//! 1. **Journal before externalize.** Each step, the wrapped protocol
//!    runs against its inbox into a *staging* sink, which holds its
//!    sends and the signatures it reported ([`Sink::signed`]). The
//!    step's inbox ([`Record::Step`]) and each of those signatures
//!    ([`Record::Signed`]) are appended to the [`Journal`] and flushed
//!    *before* any staged message is released. A crash between flush
//!    and send loses only messages, which the synchronous model already
//!    tolerates (it is indistinguishable from a link-level omission of
//!    one round).
//! 2. **Replay on restart.** [`Recoverable::recover`] rebuilds the exact
//!    pre-crash state by re-running the journaled inboxes through a
//!    fresh protocol instance. The protocols are deterministic and the
//!    PKI signs deterministically, so replay reproduces byte-identical
//!    signatures — re-signing the *same* preimage is harmless.
//! 3. **Never re-sign conflicting.** Every journaled and replayed
//!    signature is bound into a [`SignRegistry`] keyed by equivocation
//!    context (domain + slot, *excluding* the value). Any step whose
//!    signatures would contradict a recorded binding has its entire
//!    staged outbox suppressed: the conflicting signature never leaves
//!    the process, and the registry's original binding stays
//!    authoritative.
//!
//! # Examples
//!
//! ```ignore
//! let disk = MemBuffer::new();
//! let mut p = Recoverable::new(make_weak_ba(), Journal::in_memory(disk.clone()));
//! // ... crash at an arbitrary point ...
//! let mut p = Recoverable::recover(Journal::in_memory(disk), make_weak_ba)?;
//! assert_eq!(p.resume_step(), steps_executed_before_crash);
//! ```

use crate::subprotocol::SubProtocol;
use meba_crypto::{Digest, ProcessId, SignRegistry, WireCodec};
use meba_journal::{Journal, JournalStats, Record};
use meba_sim::{Inbox, Outbox, Recipients, Sink};

/// One step's sends and the signature bindings it reported, held back
/// until the bindings are checked and journaled (or, in replay, dropped
/// once the bindings are in the guard).
struct Staged<M> {
    sends: Outbox<M>,
    signed: Vec<(Vec<u8>, Digest)>,
}

impl<M> Staged<M> {
    fn new() -> Self {
        Staged { sends: Outbox::new(), signed: Vec::new() }
    }
}

impl<M> Sink<M> for Staged<M> {
    fn put(&mut self, to: Recipients, msg: M) {
        self.sends.put(to, msg);
    }

    fn signed(&mut self, context: &dyn Fn() -> Vec<u8>, digest: Digest) {
        self.signed.push((context(), digest));
    }
}

/// A [`SubProtocol`] wrapped with the write-ahead journal discipline
/// described in the [module docs](self).
///
/// `Recoverable<P>` is itself a `SubProtocol` with the same message and
/// output types, so it drops into [`crate::LockstepAdapter`], the
/// threaded cluster, and the TCP cluster unchanged.
pub struct Recoverable<P: SubProtocol> {
    inner: P,
    journal: Journal,
    registry: SignRegistry,
    /// Next step to execute live; steps below this were replayed.
    next_step: u64,
    /// Records replayed during [`Recoverable::recover`].
    replayed: u64,
    /// Torn bytes discarded at the journal tail during recovery.
    torn_bytes: u64,
    /// Set on journal I/O failure: externalization is suppressed from
    /// then on (fail-safe: an amnesiac process must stay silent).
    io_failed: bool,
}

impl<P: SubProtocol> Recoverable<P> {
    /// Wraps a fresh protocol instance over an empty (or new) journal.
    pub fn new(inner: P, journal: Journal) -> Self {
        Recoverable {
            inner,
            journal,
            registry: SignRegistry::new(),
            next_step: 0,
            replayed: 0,
            torn_bytes: 0,
            io_failed: false,
        }
    }

    /// Rebuilds the pre-crash state from `journal` by replaying it
    /// through a fresh instance built by `make`.
    ///
    /// `make` must construct the protocol exactly as it was constructed
    /// before the crash (same config, keys, and input) — determinism is
    /// what lets the journaled inboxes reconstruct both state and
    /// signatures. Replay stops at the first torn frame, then the
    /// journal continues appending after it.
    pub fn recover(journal: Journal, make: impl FnOnce() -> P) -> std::io::Result<Self> {
        let mut journal = journal;
        let report = journal.replay()?;
        let mut me = Recoverable {
            inner: make(),
            journal,
            registry: SignRegistry::new(),
            next_step: 0,
            replayed: 0,
            torn_bytes: report.torn_bytes,
            io_failed: false,
        };
        for rec in &report.records {
            me.replayed += 1;
            match rec {
                Record::Step { step, inbox } => {
                    let decoded: Vec<(ProcessId, P::Msg)> = inbox
                        .iter()
                        .filter_map(|(from, bytes)| {
                            // A frame that passed its CRC but fails to
                            // decode is a version skew; dropping the
                            // message degrades to an omission, which the
                            // model tolerates.
                            P::Msg::from_wire_bytes(bytes).ok().map(|m| (*from, m))
                        })
                        .collect();
                    // What the step sent left before the crash: dropped.
                    // Its re-derived signatures rebuild the guard;
                    // deterministic signing makes them idempotent with
                    // the journaled `Signed` records below.
                    let lent = decoded.iter().map(|(from, m)| (*from, m));
                    let mut staged = Staged::new();
                    me.inner.on_step(*step, lent, &mut staged);
                    for (context, digest) in &staged.signed {
                        let _ = me.registry.record(context, *digest);
                    }
                    me.next_step = step + 1;
                }
                Record::Signed { context, digest } => {
                    // Journaled bindings are authoritative: even if the
                    // replayed protocol were to diverge, the first-writer
                    // binding wins and conflicting re-signs are refused.
                    let _ = me.registry.record(context, *digest);
                }
                // The service layer's records, above the protocol
                // instance (`meba-service` replays them itself).
                Record::Proposed { .. }
                | Record::Committed { .. }
                | Record::Transferred { .. }
                | Record::Evidence { .. } => {}
            }
        }
        Ok(me)
    }

    /// First step this instance will execute live (everything below was
    /// reconstructed by replay).
    pub fn resume_step(&self) -> u64 {
        self.next_step
    }

    /// Number of journal records replayed by [`Recoverable::recover`].
    pub fn replayed_records(&self) -> u64 {
        self.replayed
    }

    /// Bytes discarded at the journal tail as a torn write.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// Append/fsync counters of the underlying journal.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// The signing guard (journaled + replayed signature bindings).
    pub fn registry(&self) -> &SignRegistry {
        &self.registry
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: SubProtocol> SubProtocol for Recoverable<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, Self::Msg>,
        out: &mut dyn Sink<Self::Msg>,
    ) {
        // Steps below the resume point were already applied by replay
        // (the runner drives a recovered actor from step 0 again). After
        // a journal I/O failure the inner state holds an inbox the
        // journal lacks, so nothing derived from it may leave.
        if step < self.next_step || self.io_failed {
            return;
        }
        self.next_step = step + 1;

        // 1. Run the inner protocol into the staging sink.
        let mut staged = Staged::new();
        self.inner.on_step(step, inbox.clone(), &mut staged);

        // 2. Enforce the never-re-sign-conflicting guard before anything
        //    is journaled or released. A conflict means this step's state
        //    contradicts a durable signature (e.g. a forged restart with
        //    a stale journal): the whole staged outbox is suppressed, so
        //    the conflicting signature never leaves the process.
        let mut equivocated = false;
        for (context, digest) in &staged.signed {
            if self.registry.record(context, *digest).is_err() {
                equivocated = true;
            }
        }
        if equivocated {
            return;
        }

        // 3. Write-ahead: journal the step's inbox and its signatures,
        //    flush, and only then release the staged messages. On I/O
        //    failure the process goes silent instead of externalizing
        //    unjournaled state.
        let step_rec = Record::Step {
            step,
            inbox: inbox.map(|(from, m)| (from, m.to_wire_bytes())).collect(),
        };
        let mut io = self.journal.append(&step_rec);
        for (context, digest) in staged.signed {
            if io.is_ok() {
                io = self.journal.append(&Record::Signed { context, digest });
            }
        }
        if io.is_ok() && !staged.sends.is_empty() {
            io = self.journal.flush();
        }
        if io.is_err() {
            self.io_failed = true;
            return;
        }
        staged.sends.into_iter().for_each(|(to, msg)| out.put(to, msg));
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn refused_equivocations(&self) -> u64 {
        self.registry.refused()
    }
}

impl<P: SubProtocol + std::fmt::Debug> std::fmt::Debug for Recoverable<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recoverable")
            .field("inner", &self.inner)
            .field("next_step", &self.next_step)
            .field("replayed", &self.replayed)
            .field("refused", &self.registry.refused())
            .field("io_failed", &self.io_failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::Encoder;
    use meba_journal::{MemBuffer, MemStorage, Storage};
    use meba_sim::Dest;

    crate::wire_schema! {
        #[derive(Clone, Debug, PartialEq)]
        struct Num(u64 as Meta): Message in "protocol";
    }

    /// Deterministic toy protocol: each step broadcasts `base + step +
    /// sum(inbox)`, "signs" its broadcast under a per-step context, and
    /// decides at step `DECIDE_AT` on its accumulated sum.
    const DECIDE_AT: u64 = 4;

    struct Toy {
        base: u64,
        acc: u64,
        decided: Option<u64>,
    }

    impl Toy {
        fn new(base: u64) -> Self {
            Toy { base, acc: 0, decided: None }
        }
        fn context(step: u64) -> Vec<u8> {
            let mut enc = Encoder::new();
            enc.put_bytes(b"toy/step");
            enc.put_u64(step);
            enc.into_bytes()
        }
    }

    impl SubProtocol for Toy {
        type Msg = Num;
        type Output = u64;

        fn on_step<'a>(&mut self, step: u64, inbox: impl Inbox<'a, Num>, out: &mut dyn Sink<Num>) {
            self.acc += inbox.map(|(_, m)| m.0).sum::<u64>();
            let v = self.base + step + self.acc;
            out.signed(&|| Toy::context(step), Digest::of(&v.to_be_bytes()));
            out.push(Dest::All, Num(v));
            if step == DECIDE_AT {
                self.decided = Some(self.acc);
            }
        }
        fn output(&self) -> Option<u64> {
            self.decided
        }
        fn done(&self) -> bool {
            self.decided.is_some()
        }
    }

    fn inbox_for(step: u64) -> Vec<(ProcessId, Num)> {
        (0..(step % 3)).map(|i| (ProcessId(i as u32), Num(step * 10 + i))).collect()
    }

    #[test]
    fn journal_holds_steps_and_signatures() {
        let disk = MemBuffer::new();
        let mut p = Recoverable::new(Toy::new(7), Journal::in_memory(disk.clone()));
        let mut out = Outbox::new();
        for step in 0..3 {
            p.on_step(step, inbox_for(step).iter().map(|(from, m)| (*from, m)), &mut out);
        }
        assert_eq!(out.len(), 3, "toy broadcasts once per step");
        let report = Journal::in_memory(disk).replay().unwrap();
        let steps = report.records.iter().filter(|r| matches!(r, Record::Step { .. })).count();
        let signed = report.records.iter().filter(|r| matches!(r, Record::Signed { .. })).count();
        assert_eq!(steps, 3);
        assert_eq!(signed, 3, "one signature journaled per step");
    }

    #[test]
    fn recover_reconstructs_exact_state_and_resumes() {
        let disk = MemBuffer::new();
        let mut p = Recoverable::new(Toy::new(3), Journal::in_memory(disk.clone()));
        let mut reference = Toy::new(3);
        let mut out = Outbox::new();
        for step in 0..3 {
            let owned = inbox_for(step);
            let inbox = owned.iter().map(|(from, m)| (*from, m));
            p.on_step(step, inbox.clone(), &mut out);
            reference.on_step(step, inbox, &mut out);
        }
        drop(p); // crash

        let mut r = Recoverable::recover(Journal::in_memory(disk), || Toy::new(3)).unwrap();
        assert_eq!(r.resume_step(), 3);
        assert!(r.replayed_records() >= 3);
        assert_eq!(r.inner().acc, reference.acc, "replay reconstructs state");

        // Steps below the resume point are ignored (already applied)...
        let mut out2 = Outbox::new();
        r.on_step(0, std::iter::empty(), &mut out2);
        assert!(out2.is_empty());
        assert_eq!(r.inner().acc, reference.acc);
        // ...and live execution continues where the crash left off.
        for step in 3..=DECIDE_AT {
            let owned = inbox_for(step);
            let inbox = owned.iter().map(|(from, m)| (*from, m));
            r.on_step(step, inbox.clone(), &mut out2);
            reference.on_step(step, inbox, &mut out2);
        }
        assert_eq!(r.output(), reference.output());
        assert!(r.output().is_some());
    }

    #[test]
    fn replay_is_idempotent() {
        let disk = MemBuffer::new();
        let mut p = Recoverable::new(Toy::new(1), Journal::in_memory(disk.clone()));
        let mut out = Outbox::new();
        for step in 0..4 {
            p.on_step(step, inbox_for(step).iter().map(|(from, m)| (*from, m)), &mut out);
        }
        drop(p);
        let once = Recoverable::recover(Journal::in_memory(disk.clone()), || Toy::new(1)).unwrap();
        // "Replay twice": recover, crash immediately without stepping,
        // recover again from the identical (unchanged) journal.
        let twice = {
            let r = Recoverable::recover(Journal::in_memory(disk.clone()), || Toy::new(1)).unwrap();
            drop(r);
            Recoverable::recover(Journal::in_memory(disk), || Toy::new(1)).unwrap()
        };
        assert_eq!(once.inner().acc, twice.inner().acc);
        assert_eq!(once.resume_step(), twice.resume_step());
        assert_eq!(once.replayed_records(), twice.replayed_records());
        assert_eq!(once.registry().len(), twice.registry().len());
    }

    #[test]
    fn conflicting_resign_suppresses_outbox() {
        // Pre-bind step 0's context to a digest the toy will NOT produce:
        // an amnesiac restart attempting a different value must be muted.
        let disk = MemBuffer::new();
        {
            let mut j = Journal::in_memory(disk.clone());
            j.append(&Record::Signed {
                context: Toy::context(0),
                digest: Digest::of(b"some other value"),
            })
            .unwrap();
            j.flush().unwrap();
        }
        let mut r = Recoverable::recover(Journal::in_memory(disk), || Toy::new(9)).unwrap();
        let mut out = Outbox::new();
        r.on_step(0, std::iter::empty(), &mut out);
        assert!(out.is_empty(), "conflicting signature must not be externalized");
        assert_eq!(r.refused_equivocations(), 1);
        // Non-conflicting later steps flow normally.
        r.on_step(1, std::iter::empty(), &mut out);
        assert_eq!(out.len(), 1);
    }

    /// In-memory storage whose append number `fail_at` (counting from
    /// 0) fails, once; every other call succeeds.
    struct FailOnce {
        inner: MemStorage,
        appends: u64,
        fail_at: u64,
    }
    impl Storage for FailOnce {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.appends += 1;
            if self.appends - 1 == self.fail_at {
                return Err(std::io::Error::other("disk full"));
            }
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn reset(&mut self) -> std::io::Result<()> {
            self.inner.reset()
        }
    }

    #[test]
    fn a_failed_journal_write_silences_every_later_step() {
        // Step 0 journals its `Step` and `Signed` records (appends 0 and
        // 1); append 2, step 1's `Step` record, fails.
        let storage = FailOnce { inner: MemStorage::new(MemBuffer::new()), appends: 0, fail_at: 2 };
        let mut p = Recoverable::new(Toy::new(5), Journal::new(Box::new(storage), 1));
        let mut out = Outbox::new();
        p.on_step(0, inbox_for(0).iter().map(|(from, m)| (*from, m)), &mut out);
        assert_eq!(out.len(), 1, "step 0 journaled and released");
        for step in 1..=DECIDE_AT {
            p.on_step(step, inbox_for(step).iter().map(|(from, m)| (*from, m)), &mut out);
        }
        assert_eq!(out.len(), 1, "nothing is sent after the failed write");
    }

    #[test]
    fn torn_tail_is_ignored_and_counted() {
        let disk = MemBuffer::new();
        let mut p = Recoverable::new(Toy::new(2), Journal::in_memory(disk.clone()));
        let mut out = Outbox::new();
        for step in 0..2 {
            p.on_step(step, inbox_for(step).iter().map(|(from, m)| (*from, m)), &mut out);
        }
        drop(p);
        // Simulate a torn final write: chop a few bytes off the tail.
        let len = disk.len();
        disk.truncate(len - 3);
        let r = Recoverable::recover(Journal::in_memory(disk), || Toy::new(2)).unwrap();
        assert!(r.torn_bytes() > 0);
        assert!(r.resume_step() >= 1, "intact prefix still replays");
    }
}

//! Crash-recovery test harness: journal-backed weak BA clusters and a
//! double-sign detector.
//!
//! [`WeakBaRecoveryHarness`] builds weak BA actors wrapped in
//! [`Recoverable`] with shared in-memory journal buffers
//! ([`MemBuffer`] survives the actor being dropped, modelling a disk
//! surviving a crash) and hands runtimes an [`ActorRebuilder`] that
//! replays the journal on rejoin. [`DoubleSignDetector`] then audits the
//! run: every signature observed on the wire and, through
//! [`crate::oracle::fold_journals`], every journaled binding goes into
//! one `(signer, context) → digest` map, and any conflict is reported —
//! the equivocation a crash-amnesiac restart would otherwise produce.

use crate::{Family, WbaM, WbaProc};
use meba_core::signing::{DecideSig, HelpReqSig, VoteSig};
use meba_core::{
    AlwaysValid, Decision, LockstepAdapter, Recoverable, SubProtocol, SystemConfig, WeakBa,
};
use meba_crypto::{trusted_setup, Digest, Pki, ProcessId, SecretKey, SignContext};
use meba_engine::{ActorRebuilder, RebuiltActor};
use meba_fallback::RecursiveBaFactory;
use meba_journal::{Journal, MemBuffer, Record};
use meba_sim::AnyActor;
use std::collections::HashMap;
use std::sync::Arc;

/// A [`WbaProc`] wrapped in the crash-recovery journal.
pub type RecWbaProc = Recoverable<WbaProc>;

/// Builds journal-backed weak BA actors over `u64` values with
/// [`AlwaysValid`], for crash-restart runs on any runtime.
///
/// Each process gets its own [`MemBuffer`] journal. [`Self::actor`]
/// builds the initial (empty-journal) actor; [`Self::rebuilder`] returns
/// the [`ActorRebuilder`] the cluster runtimes invoke at rejoin, which
/// replays that process's journal into a fresh state machine.
///
/// # Examples
///
/// ```
/// use meba_testkit::recovery::WeakBaRecoveryHarness;
/// use std::sync::Arc;
///
/// let h = Arc::new(WeakBaRecoveryHarness::new(&[7, 7, 7]));
/// let actors = h.actors();
/// let _rebuilder = h.rebuilder();
/// assert_eq!(actors.len(), 3);
/// ```
pub struct WeakBaRecoveryHarness {
    cfg: SystemConfig,
    pki: Pki,
    keys: Vec<SecretKey>,
    inputs: Vec<u64>,
    journals: Vec<MemBuffer>,
}

impl WeakBaRecoveryHarness {
    /// One journal-backed weak BA process per input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a valid system size (odd, ≥ 3).
    pub fn new(inputs: &[u64]) -> Self {
        let n = inputs.len();
        let cfg = Family::WEAK_BA.config(n);
        let (pki, keys) = trusted_setup(n, Family::WEAK_BA.key_seed);
        let journals = (0..n).map(|_| MemBuffer::new()).collect();
        WeakBaRecoveryHarness { cfg, pki, keys, inputs: inputs.to_vec(), journals }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// The system configuration the actors run under.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// Process `i`'s journal buffer — the "disk" that survives its crash.
    pub fn journal_buffer(&self, i: usize) -> &MemBuffer {
        &self.journals[i]
    }

    /// Every process's journal records, in id order — the input of
    /// [`crate::oracle::fold_journals`].
    pub fn journals(&self) -> Vec<Vec<Record>> {
        self.journals.iter().map(crate::oracle::records).collect()
    }

    fn proto(&self, i: usize) -> WbaProc {
        let key = self.keys[i].clone();
        let factory = RecursiveBaFactory::new(self.cfg, key.clone(), self.pki.clone());
        WeakBa::new(
            self.cfg,
            ProcessId(i as u32),
            key,
            self.pki.clone(),
            AlwaysValid,
            factory,
            self.inputs[i],
        )
    }

    /// The initial actor for process `i`: a fresh weak BA state machine
    /// journaling into [`Self::journal_buffer`]`(i)`.
    pub fn actor(&self, i: usize) -> Box<dyn AnyActor<Msg = WbaM>> {
        let journal = Journal::in_memory(self.journals[i].clone());
        let rec = Recoverable::new(self.proto(i), journal);
        Box::new(LockstepAdapter::new(ProcessId(i as u32), rec))
    }

    /// Initial actors for all processes, in id order.
    pub fn actors(&self) -> Vec<Box<dyn AnyActor<Msg = WbaM>>> {
        (0..self.n()).map(|i| self.actor(i)).collect()
    }

    /// The rebuilder a cluster runtime calls when a crashed process
    /// rejoins: replays the journal into a fresh state machine, so the
    /// restart cannot contradict anything the pre-crash incarnation
    /// signed.
    ///
    /// # Panics
    ///
    /// The returned closure panics if journal replay fails (in-memory
    /// buffers cannot fail I/O, so this indicates harness misuse).
    pub fn rebuilder(self: &Arc<Self>) -> ActorRebuilder<WbaM> {
        let h = self.clone();
        Arc::new(move |me: ProcessId| {
            let i = me.index();
            let journal = Journal::in_memory(h.journals[i].clone());
            let rec =
                Recoverable::recover(journal, || h.proto(i)).expect("in-memory replay cannot fail");
            let resume_step = rec.resume_step();
            let replayed_records = rec.replayed_records();
            let journal_fsyncs = rec.journal_stats().fsyncs;
            RebuiltActor {
                actor: Box::new(LockstepAdapter::new(me, rec)),
                resume_step,
                replayed_records,
                journal_fsyncs,
            }
        })
    }
}

/// Downcasts an actor built by [`WeakBaRecoveryHarness`] and returns its
/// decision, or `None` if it is a different actor type or undecided.
pub fn recoverable_decision(actor: &dyn AnyActor<Msg = WbaM>) -> Option<Decision<u64>> {
    let a: &LockstepAdapter<RecWbaProc> = actor.as_any().downcast_ref()?;
    a.inner().output()
}

/// One `(signer, equivocation context)` slot bound to two different
/// preimages — the safety violation crash recovery exists to prevent.
#[derive(Clone, Debug)]
pub struct DoubleSign {
    /// Who signed twice.
    pub signer: ProcessId,
    /// The context (domain + slot fields) that was double-bound.
    pub context: Vec<u8>,
    /// The first preimage digest bound to the slot.
    pub first: Digest,
    /// The conflicting digest.
    pub second: Digest,
}

/// Audits a run for equivocation: every signature — observed on the wire
/// by anyone, or journaled by the signer and folded in by
/// [`crate::oracle::fold_journals`] — goes into one `(signer, context) →
/// preimage digest` map. Two different digests in one slot is a
/// double-sign.
///
/// Re-signing the *same* preimage (the deterministic signer's behaviour
/// on replay) is not a conflict; only a differing digest is.
#[derive(Debug, Default)]
pub struct DoubleSignDetector {
    bindings: HashMap<(ProcessId, Vec<u8>), Digest>,
    conflicts: Vec<DoubleSign>,
}

impl DoubleSignDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one signature binding.
    pub fn observe(&mut self, signer: ProcessId, context: Vec<u8>, digest: Digest) {
        match self.bindings.get(&(signer, context.clone())) {
            None => {
                self.bindings.insert((signer, context), digest);
            }
            Some(first) if *first == digest => {}
            Some(first) => {
                self.conflicts.push(DoubleSign { signer, context, first: *first, second: digest });
            }
        }
    }

    /// Folds in a weak BA message observed on the wire from `from`, by
    /// the binding [`weak_ba_binding`] reconstructs from it.
    pub fn observe_weak_ba_msg(&mut self, session: u64, from: ProcessId, msg: &WbaM) {
        if let Some((context, digest)) = weak_ba_binding(session, msg) {
            self.observe(from, context, digest);
        }
    }

    /// The conflicts found.
    pub fn conflicts(&self) -> &[DoubleSign] {
        &self.conflicts
    }

    /// Asserts no double-sign was recorded.
    ///
    /// # Panics
    ///
    /// Panics with the conflict list if any slot was double-bound.
    pub fn assert_clean(&self) {
        assert!(self.conflicts.is_empty(), "double-sign detected: {:?}", self.conflicts);
    }
}

/// The `(context, preimage digest)` binding the sender of a weak BA
/// message must have signed, reconstructed from the message alone: votes,
/// decide shares and help requests carry an individual signature;
/// certificate messages aggregate shares already audited at their source
/// and yield `None`, as does every other message.
pub fn weak_ba_binding(session: u64, msg: &WbaM) -> Option<(Vec<u8>, Digest)> {
    fn bound(payload: &impl SignContext) -> (Vec<u8>, Digest) {
        (payload.context_bytes(), Digest::of(&payload.signing_bytes()))
    }
    match msg {
        meba_core::WeakBaMsg::Vote { phase, value, .. } => {
            Some(bound(&VoteSig { session, value, level: *phase }))
        }
        meba_core::WeakBaMsg::Decide { phase, value, .. } => {
            Some(bound(&DecideSig { session, value, phase: *phase }))
        }
        meba_core::WeakBaMsg::HelpReq { .. } => Some(bound(&HelpReqSig { session })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_reconstructs_wire_payloads() {
        let mut det = DoubleSignDetector::new();
        let (_pki, keys) = trusted_setup(3, 7);
        let sig = keys[0].sign(b"x");
        let vote = |v: u64| meba_core::WeakBaMsg::Vote { phase: 2, value: v, sig: sig.clone() };
        det.observe_weak_ba_msg(0x3a, ProcessId(0), &vote(5));
        det.observe_weak_ba_msg(0x3a, ProcessId(0), &vote(5));
        assert!(det.conflicts().is_empty());
        det.observe_weak_ba_msg(0x3a, ProcessId(0), &vote(6));
        assert_eq!(det.conflicts().len(), 1, "same (session, level), different value");
    }

    #[test]
    fn harness_journal_survives_actor_drop_and_rebuild() {
        use meba_sim::{Round, RoundCtx};
        let h = Arc::new(WeakBaRecoveryHarness::new(&[4, 4, 4]));
        let mut a0 = h.actor(0);
        for r in 0..3 {
            let inbox = Vec::new();
            let mut ctx = RoundCtx::new(Round(r), ProcessId(0), 3, &inbox);
            a0.on_round(&mut ctx);
            drop(ctx.take_outbox());
        }
        drop(a0); // crash: volatile state gone, journal buffer survives
        assert!(!h.journal_buffer(0).is_empty(), "steps were journaled");
        let rb = h.rebuilder()(ProcessId(0));
        assert_eq!(rb.resume_step, 3);
        assert!(rb.replayed_records > 0);
        let mut det = DoubleSignDetector::new();
        crate::oracle::fold_journals(&mut det, &h.journals());
        det.assert_clean();
    }
}

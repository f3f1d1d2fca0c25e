//! A serving replica: the replicated log plus the client-facing state
//! machine.
//!
//! [`ServiceReplica`] wraps a [`ReplicatedLog`] and runs, inside the same
//! round loop, the full client pipeline: admission (drain the bounded
//! [`ServicePort`] while the pipeline window has room), batching, the
//! write-ahead journal discipline, apply-with-dedup, and the read path.
//! It is an ordinary [`Actor`] over the same wire messages as the bare
//! log, so it runs unchanged on every backend (discrete-event — the
//! lockstep `Simulation` included — threaded, TCP).
//!
//! # Journal discipline
//!
//! Two service-level records extend the `meba-journal` vocabulary:
//!
//! * [`Record::Proposed`] — written (and flushed) *before* this replica
//!   binds a batch to one of its proposer slots, i.e. before the batch
//!   can leave in a signed `SenderValue`. On crash-restart the journaled
//!   bindings are replayed as the log's initial command queue, so the
//!   rebuilt replica re-binds byte-identical values to the same slots and
//!   the deterministic signer reproduces the same signatures — a restart
//!   can never equivocate about a slot binding.
//! * [`Record::Committed`] — written (and flushed) *before* the
//!   client-visible `Committed` ack leaves the process. Replay rebuilds
//!   the `(client, seq)` dedup table and the applied state exactly, so a
//!   restarted replica never acks the same op twice.
//! * [`Record::Transferred`] — written (and flushed) *before* a slot
//!   adopted via certified state transfer is applied, and
//!   [`Record::Evidence`] preserves the slot certificates this replica
//!   holds so it can keep serving certified transfer after a restart.
//!
//! The commit-side records are written in one place: every slot —
//! decided locally, adopted from a donor, or replayed from the journal —
//! becomes state through the private `apply`, which appends and flushes
//! first and only then touches the KV state, the dedup table, or the
//! client (DESIGN.md §15).
//!
//! # State transfer
//!
//! A slot whose critical rounds the replica missed while down may retire
//! as `⊥` locally even when the surviving quorum committed a value there
//! (the outage counts toward `f` for that instance). A rebuilt replica
//! therefore runs in *recovering* mode: it never applies a locally
//! `⊥`-retired slot on its own authority. Instead it fetches the slot
//! from a donor ([`TransferMsg::FetchCommitted`]) and adopts the donor's
//! claim only when the attached quorum commit certificate re-derives it
//! ([`crate::transfer::verify_certified`]), or when `t + 1` distinct
//! donors claim byte-identical decisions — so Byzantine donors cannot
//! forge history, and the applied prefix converges to the cluster's
//! committed prefix without waiting for client retries (DESIGN.md §16,
//! `docs/CORRECTNESS.md` §13).

use crate::admission::{ReadRequest, ServicePort};
use crate::batch::{Batch, BatchPolicy, Batcher, Op};
use crate::protocol::{ReadMode, ServiceReply};
use crate::transfer::{
    claimed_decision, verify_certified, ServiceSnapshot, TransferEntry, TransferMsg,
    DEFAULT_FETCH_BUDGET,
};
use meba_core::bb::BbBaValue;
use meba_core::{Decision, FallbackFactory, SubProtocol, SystemConfig};
use meba_crypto::{DecodeError, Decoder, Encoder, Pki, ProcessId, SecretKey, WireCodec};
use meba_journal::{Journal, Record};
use meba_sim::{Actor, Message, Round, RoundCtx, ServiceStats};
use meba_smr::{CommitEvidence, ReplicatedLog, SmrMsg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The fallback's wire-message type over [`Batch`] values.
pub type ServiceFbMsg<F> = <<F as FallbackFactory<BbBaValue<Batch>>>::Protocol as SubProtocol>::Msg;

/// A service replica's *log* wire-message type: identical to the bare
/// [`ReplicatedLog`]'s, so every backend and adversary that drives the
/// log drives the service.
pub type ServiceMsg<F> = SmrMsg<Batch, ServiceFbMsg<F>>;

/// The full wire-message type of a [`ServiceReplica`]: log traffic plus
/// the state-transfer family, multiplexed on the same transport seams —
/// both variants ride one mesh link / one channel, on every backend.
#[derive(Clone, Debug)]
pub enum ReplicaMsg<M> {
    /// Agreement traffic of the replicated log.
    Log(M),
    /// Anti-entropy state transfer (DESIGN.md §16).
    Transfer(TransferMsg),
}

impl<M: Message + WireCodec> Message for ReplicaMsg<M> {
    fn words(&self) -> u64 {
        match self {
            ReplicaMsg::Log(m) => m.words(),
            ReplicaMsg::Transfer(t) => t.words(),
        }
    }
    fn constituent_sigs(&self) -> u64 {
        match self {
            ReplicaMsg::Log(m) => m.constituent_sigs(),
            ReplicaMsg::Transfer(t) => t.constituent_sigs(),
        }
    }
    fn component(&self) -> &'static str {
        match self {
            ReplicaMsg::Log(m) => m.component(),
            ReplicaMsg::Transfer(t) => t.component(),
        }
    }
    fn session(&self) -> Option<u64> {
        match self {
            ReplicaMsg::Log(m) => m.session(),
            ReplicaMsg::Transfer(_) => None,
        }
    }
    fn wire_bytes(&self) -> u64 {
        self.wire_len()
    }
}

const REPLICA_MSG_LOG: u32 = 0;
const REPLICA_MSG_TRANSFER: u32 = 1;

/// Rounds between `FetchCommitted` probes while recovering: long enough
/// for a reply (request + reply is one round trip) plus the local apply,
/// short enough that catch-up latency stays a small multiple of the
/// outage.
const FETCH_INTERVAL_ROUNDS: u64 = 4;

impl<M: WireCodec> WireCodec for ReplicaMsg<M> {
    fn encode_wire(&self, enc: &mut Encoder) {
        match self {
            ReplicaMsg::Log(m) => {
                enc.put_u32(REPLICA_MSG_LOG);
                m.encode_wire(enc);
            }
            ReplicaMsg::Transfer(t) => {
                enc.put_u32(REPLICA_MSG_TRANSFER);
                t.encode_wire(enc);
            }
        }
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u32()? {
            REPLICA_MSG_LOG => Ok(ReplicaMsg::Log(M::decode_wire(dec)?)),
            REPLICA_MSG_TRANSFER => Ok(ReplicaMsg::Transfer(TransferMsg::decode_wire(dec)?)),
            _ => Err(DecodeError::Invalid { what: "unknown replica message tag" }),
        }
    }
}

/// Sizing of one service deployment.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Slots the log runs.
    pub total_slots: u64,
    /// Pipeline window `W`.
    pub window: u64,
    /// Batch close policy.
    pub batch: BatchPolicy,
    /// Admission-queue bound of the replica's [`ServicePort`].
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            total_slots: 8,
            window: 2,
            batch: BatchPolicy::default(),
            queue_capacity: 64,
        }
    }
}

/// Where a slot's decision reached [`ServiceReplica::apply`] from. The
/// origin selects the journal record written and whether clients hear
/// about the commit — nothing else; a live origin carries the round the
/// commit-latency sample is taken at.
#[derive(Clone, Copy)]
enum Origin {
    /// Retired by this replica's own log: [`Record::Committed`].
    Local(u64),
    /// Adopted from a donor by certificate or `t + 1` vouches:
    /// [`Record::Transferred`].
    Donor(u64),
    /// Read back from this replica's own journal by
    /// [`ServiceReplica::rebuild`]: nothing is written and no client is
    /// told — the pre-crash incarnation already did both.
    Replay,
}

/// One replica of the replicated service. See the module docs.
pub struct ServiceReplica<F>
where
    F: FallbackFactory<BbBaValue<Batch>>,
{
    cfg: SystemConfig,
    pki: Pki,
    log: ReplicatedLog<Batch, F>,
    port: Arc<ServicePort>,
    batcher: Batcher,
    journal: Option<Journal>,
    /// Replicated KV state: last committed write per key.
    kv: BTreeMap<u64, u64>,
    /// `(client, seq)` → `(slot, batch_index)` of its unique commit —
    /// the dedup table, authoritative at apply time.
    committed_at: BTreeMap<(u64, u64), (u64, u32)>,
    /// Next slot to apply; applies are strictly contiguous.
    apply_cursor: u64,
    /// In-flight admissions: `(client, seq)` → admit round.
    admitted: BTreeMap<(u64, u64), u64>,
    /// Slots whose binding this replica has already journaled, with the
    /// exact journaled bytes (carried into snapshots so compaction can
    /// never lose a binding and re-open the equivocation window).
    journaled_proposals: BTreeMap<u64, Vec<u8>>,
    pending_reads: Vec<(ReadRequest, u64)>,
    /// Canonical bytes of every applied slot's decision (empty = `⊥`),
    /// bound once, in [`Self::apply`] — its keys are the applied slots,
    /// and it is the donor-side source of truth for state transfer;
    /// rebuilt from the journal on restart.
    applied_values: BTreeMap<u64, Vec<u8>>,
    /// Commit certificates this replica holds, for serving *certified*
    /// transfer (journaled as [`Record::Evidence`] to survive restarts).
    evidence: BTreeMap<u64, CommitEvidence>,
    /// Whether this replica was rebuilt from a journal and must treat
    /// locally `⊥`-retired slots as suspect until donor-confirmed.
    recovering: bool,
    /// First slot whose opening round this replica observed after the
    /// restart (pinned on the first post-rebuild round). Slots below it
    /// may have had critical rounds eaten by the outage and need donor
    /// confirmation; slots at or above it are watched end-to-end, so
    /// once the cursor reaches the horizon recovering mode ends and the
    /// fetch cadence stops — transfer cost scales with the outage, not
    /// with how much log remains (E19).
    recovery_horizon: Option<u64>,
    /// Donor decisions adopted but not yet applied (waiting for the
    /// strict-order cursor), with the certificate that earned adoption.
    transferred: BTreeMap<u64, (Decision<Batch>, Option<CommitEvidence>)>,
    /// Uncertified donor claims: slot → claimed bytes → distinct donors.
    vouches: BTreeMap<u64, BTreeMap<Vec<u8>, BTreeSet<ProcessId>>>,
    /// Round of the last `FetchCommitted` this replica sent.
    last_fetch_round: Option<u64>,
    /// Apply cursor at the last fetch — no movement means the donor gave
    /// us nothing usable and we rotate.
    last_fetch_cursor: u64,
    /// Rotating donor index into the peer list.
    donor_cursor: u64,
    stats: ServiceStats,
}

impl<F> ServiceReplica<F>
where
    F: FallbackFactory<BbBaValue<Batch>>,
{
    /// A fresh replica. `journal` is the service-level write-ahead log
    /// (`None` disables crash durability; fine for lockstep tests).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        service: ServiceConfig,
        port: Arc<ServicePort>,
        journal: Option<Journal>,
    ) -> Self {
        Self::with_commands(cfg, me, key, pki, factory, service, port, journal, Vec::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn with_commands(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        service: ServiceConfig,
        port: Arc<ServicePort>,
        journal: Option<Journal>,
        commands: Vec<Batch>,
    ) -> Self {
        let log = ReplicatedLog::new(
            cfg,
            me,
            key,
            pki.clone(),
            factory,
            service.total_slots,
            commands,
            Batch::noop(),
        )
        .with_window(service.window);
        ServiceReplica {
            cfg,
            pki,
            log,
            port,
            batcher: Batcher::new(service.batch),
            journal,
            kv: BTreeMap::new(),
            committed_at: BTreeMap::new(),
            apply_cursor: 0,
            admitted: BTreeMap::new(),
            journaled_proposals: BTreeMap::new(),
            pending_reads: Vec::new(),
            applied_values: BTreeMap::new(),
            evidence: BTreeMap::new(),
            recovering: false,
            recovery_horizon: None,
            transferred: BTreeMap::new(),
            vouches: BTreeMap::new(),
            last_fetch_round: None,
            last_fetch_cursor: 0,
            donor_cursor: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Rebuilds a crashed replica from its journal: replays
    /// [`Record::Committed`] / [`Record::Transferred`] into the KV state
    /// and the dedup table, [`Record::Proposed`] into the log's initial
    /// command queue so fast-forward re-binds byte-identical values to
    /// the same slots, and [`Record::Evidence`] into the certificate
    /// store so this replica keeps serving certified transfer. A
    /// [`Record::Snapshot`] (written by [`Self::compact_journal`]) seeds
    /// all of the above before the remaining records replay on top.
    ///
    /// The rebuilt replica is in *recovering* mode: locally `⊥`-retired
    /// slots are held back until donor-confirmed (see module docs).
    /// Returns the rebuilt replica and the number of records replayed.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O or decode failures (a torn tail is fine —
    /// replay stops at the last intact record).
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        service: ServiceConfig,
        port: Arc<ServicePort>,
        mut journal: Journal,
    ) -> std::io::Result<(Self, u64)> {
        let bad = |what: &'static str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let report = journal.replay()?;
        let replayed = report.records.len() as u64;
        let mut proposals: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut applied: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut evidence: Vec<(u64, CommitEvidence)> = Vec::new();
        for rec in report.records {
            match rec {
                Record::Snapshot { upto_slot: _, state } => {
                    let snap = ServiceSnapshot::from_wire_bytes(&state)
                        .map_err(|_| bad("bad Snapshot state"))?;
                    proposals = snap.proposals;
                    applied = snap.applied;
                    evidence = snap.evidence;
                }
                Record::Proposed { slot, value } => proposals.push((slot, value)),
                Record::Committed { slot, value } | Record::Transferred { slot, value } => {
                    applied.push((slot, value));
                }
                Record::Evidence { slot, evidence: bytes } => {
                    let ev = CommitEvidence::from_wire_bytes(&bytes)
                        .map_err(|_| bad("bad Evidence record"))?;
                    evidence.push((slot, ev));
                }
                _ => {}
            }
        }
        let commands: Vec<Batch> = proposals
            .iter()
            .map(|(_, b)| Batch::from_wire_bytes(b).map_err(|_| bad("bad Proposed batch")))
            .collect::<Result<_, _>>()?;
        let mut replica =
            Self::with_commands(cfg, me, key, pki, factory, service, port, Some(journal), commands);
        replica.journaled_proposals = proposals.into_iter().collect();
        replica.evidence = evidence.into_iter().collect();
        for (slot, bytes) in applied {
            let decision = if bytes.is_empty() {
                Decision::Bot
            } else {
                Decision::Value(
                    Batch::from_wire_bytes(&bytes).map_err(|_| bad("bad Committed batch"))?,
                )
            };
            replica.apply(slot, &decision, None, Origin::Replay);
        }
        while replica.applied_values.contains_key(&replica.apply_cursor) {
            replica.apply_cursor += 1;
        }
        replica.recovering = true;
        Ok((replica, replayed))
    }

    /// Compacts the journal to a [`Record::Snapshot`] covering every
    /// applied slot (KV, dedup, applied decisions, slot bindings, and
    /// commit certificates all re-seed from it on the next rebuild). The
    /// per-slot records it subsumes are dropped; slot bindings are
    /// carried inside the snapshot, so compaction can never re-open the
    /// equivocation window.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors. No-op without a journal.
    pub fn compact_journal(&mut self) -> std::io::Result<()> {
        let snap = ServiceSnapshot {
            upto_slot: self.apply_cursor,
            applied: self.applied_values.iter().map(|(s, v)| (*s, v.clone())).collect(),
            proposals: self.journaled_proposals.iter().map(|(s, v)| (*s, v.clone())).collect(),
            evidence: self.evidence.iter().map(|(s, e)| (*s, e.clone())).collect(),
        };
        let rec = Record::Snapshot { upto_slot: self.apply_cursor, state: snap.to_wire_bytes() };
        match &mut self.journal {
            Some(j) => j.compact(&rec, &[]),
            None => Ok(()),
        }
    }

    /// The replica's port (the handle gateways and test drivers share).
    pub fn port(&self) -> &Arc<ServicePort> {
        &self.port
    }

    /// The underlying replicated log.
    pub fn log(&self) -> &ReplicatedLog<Batch, F> {
        &self.log
    }

    /// The applied KV state.
    pub fn kv(&self) -> &BTreeMap<u64, u64> {
        &self.kv
    }

    /// Where `(client, seq)` committed, if it has.
    pub fn committed_at(&self, client: u64, seq: u64) -> Option<(u64, u32)> {
        self.committed_at.get(&(client, seq)).copied()
    }

    /// Number of contiguously applied slots.
    pub fn applied_slots(&self) -> u64 {
        self.apply_cursor
    }

    /// Service metrics: the replica's pipeline counters merged with the
    /// port's front-door (submitted/accepted/rejected) counters.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.stats.clone();
        let c = self.port.counters();
        s.ops_submitted = c.submitted;
        s.ops_accepted = c.accepted;
        s.ops_rejected = c.rejected;
        for (client, pc) in c.per_client {
            let m = s.client_mut(client);
            m.submitted = pc.submitted;
            m.accepted = pc.accepted;
            m.rejected = pc.rejected;
        }
        s
    }

    fn journal_append(&mut self, rec: &Record) {
        if let Some(j) = &mut self.journal {
            j.append(rec).expect("service journal append");
            j.flush().expect("service journal flush");
        }
    }

    /// WAL discipline for slot bindings: if a slot opens this round with
    /// us as proposer, journal the exact value about to bind *before*
    /// the spawn can externalize it, then spawn through the
    /// collision-checked path.
    fn bind_due_slot(&mut self, round: u64) {
        let Some(slot) = self.log.due_slot(round) else { return };
        if self.log.proposer_of(slot) == self.log.id()
            && !self.journaled_proposals.contains_key(&slot)
        {
            // Don't waste our proposer slot on a no-op while ops sit in
            // the open batch: close it early so the slot carries them.
            if self.log.queued() == 0 {
                if let Some(batch) = self.batcher.close() {
                    self.enqueue_batch(batch);
                }
            }
            let value = self.log.queued_front().cloned().unwrap_or_else(Batch::noop);
            let bytes = value.to_wire_bytes();
            self.journal_append(&Record::Proposed { slot, value: bytes.clone() });
            self.journaled_proposals.insert(slot, bytes);
        }
        if self.log.spawn_due(round).is_err() {
            self.stats.session_collisions += 1;
        }
    }

    /// Drains the port while the pipeline window has room. Backpressure:
    /// once `W` batches sit unbound, draining stops, the bounded port
    /// fills, and clients get typed `Overloaded` rejections.
    fn drain_admissions(&mut self, round: u64) {
        while (self.log.queued() as u64) < self.log.window() {
            let ops = self.port.drain_submits(self.batcher.policy().max_batch_ops);
            if ops.is_empty() {
                break;
            }
            for op in ops {
                self.admit(op, round);
            }
        }
    }

    fn admit(&mut self, op: Op, round: u64) {
        let dedup = (op.client, op.seq);
        if let Some(&(slot, batch_index)) = self.committed_at.get(&dedup) {
            // Client retry of an already-committed op: idempotent re-ack.
            self.stats.ops_deduped += 1;
            self.port.push_event(ServiceReply::Committed {
                client: op.client,
                seq: op.seq,
                slot,
                batch_index,
            });
            return;
        }
        if self.admitted.contains_key(&dedup) {
            // Retry while the first copy is still in flight: the pending
            // copy's eventual commit acks both.
            self.stats.ops_deduped += 1;
            return;
        }
        self.admitted.insert(dedup, round);
        if let Some(batch) = self.batcher.push(op, round) {
            self.enqueue_batch(batch);
        }
    }

    fn enqueue_batch(&mut self, batch: Batch) {
        self.stats.batches_proposed += 1;
        self.stats.batched_ops += batch.len() as u64;
        self.log.enqueue(batch);
    }

    /// Applies newly committed slots in strict slot order. Locally
    /// decided slots apply directly — except a `⊥` retirement on a
    /// *recovering* replica, which is suspect (the outage may have eaten
    /// the slot's critical rounds) and waits for donor confirmation.
    /// Donor-confirmed slots fill the same cursor gap.
    fn apply_committed(&mut self, round: u64) {
        loop {
            let cursor = self.apply_cursor;
            if self.applied_values.contains_key(&cursor) {
                // Replayed from the journal by `rebuild`.
                self.apply_cursor += 1;
                continue;
            }
            let trusted = self
                .log
                .entry(cursor)
                .filter(|e| !self.recovering || matches!(e.entry, Decision::Value(_)));
            let (decision, cert, origin) = if let Some(local) = trusted {
                if self.transferred.get(&cursor).is_some_and(|(d, _)| *d != local.entry) {
                    // A certified donor decision disagreeing with our
                    // own retirement would be a safety violation —
                    // count it loudly (must stay zero in every run).
                    self.stats.applied_conflicts += 1;
                }
                (local.entry.clone(), self.log.evidence(cursor).cloned(), Origin::Local(round))
            } else if let Some((decision, cert)) = self.transferred.remove(&cursor) {
                // No trusted local decision: only a donor-confirmed
                // decision advances the cursor.
                (decision, cert, Origin::Donor(round))
            } else {
                break;
            };
            self.apply(cursor, &decision, cert, origin);
            self.apply_cursor += 1;
        }
        if self.recovering
            && self.apply_cursor >= self.recovery_horizon.unwrap_or(self.log.total_slots())
        {
            // Caught up past every slot the outage could have touched:
            // back to ordinary trust rules, and the fetch cadence stops.
            self.recovering = false;
        }
    }

    /// The one place a slot's decision becomes state — for a slot this
    /// replica decided, adopted from a donor, or wrote to its journal in
    /// an earlier life. In order: the origin's journal record (and the
    /// certificate, when one came along) is appended *and flushed*;
    /// only then is the value bound in `applied_values`, the donor
    /// bookkeeping for the slot dropped, `⊥` counted as skipped, and
    /// each op applied first-commit-wins — dedup table, KV write,
    /// per-client stats — with the client told (event + commit-latency
    /// sample) on a live origin and never on replay.
    fn apply(
        &mut self,
        slot: u64,
        decision: &Decision<Batch>,
        cert: Option<CommitEvidence>,
        origin: Origin,
    ) {
        let bytes = match decision {
            Decision::Value(batch) => batch.to_wire_bytes(),
            Decision::Bot => Vec::new(),
        };
        let heard_at = match origin {
            Origin::Local(round) => {
                self.journal_append(&Record::Committed { slot, value: bytes.clone() });
                Some(round)
            }
            Origin::Donor(round) => {
                self.journal_append(&Record::Transferred { slot, value: bytes.clone() });
                self.stats.slots_transferred += 1;
                Some(round)
            }
            Origin::Replay => None,
        };
        if let Some(ev) = cert {
            self.journal_append(&Record::Evidence { slot, evidence: ev.to_wire_bytes() });
            self.evidence.insert(slot, ev);
        }
        self.applied_values.insert(slot, bytes);
        self.transferred.remove(&slot);
        self.vouches.remove(&slot);
        let Decision::Value(batch) = decision else {
            self.stats.skipped_slots += 1;
            return;
        };
        for (batch_index, op) in (0u32..).zip(batch.ops()) {
            let dedup = (op.client, op.seq);
            if self.committed_at.contains_key(&dedup) {
                // The same (client, seq) landed in an earlier slot (e.g. a
                // resubmission accepted by another replica): first commit
                // wins, deterministically, on every replica.
                self.stats.ops_deduped += 1;
                continue;
            }
            self.committed_at.insert(dedup, (slot, batch_index));
            self.kv.insert(op.key, op.value);
            self.stats.ops_committed += 1;
            self.stats.client_mut(op.client).committed += 1;
            let Some(round) = heard_at else { continue };
            if let Some(admit_round) = self.admitted.remove(&dedup) {
                self.stats.commit_latency_rounds.record_us(round.saturating_sub(admit_round));
            }
            self.port.push_event(ServiceReply::Committed {
                client: op.client,
                seq: op.seq,
                slot,
                batch_index,
            });
        }
    }

    /// Serves a donor reply: contiguous applied slots from `from_slot`,
    /// certificates attached where held, bounded by `budget` payload
    /// bytes (always at least one entry when one exists, so progress
    /// never stalls on a tight budget). Empty when we have nothing past
    /// `from_slot` — the requester rotates to another donor.
    fn serve_fetch(&self, from_slot: u64, budget: u64) -> TransferMsg {
        let mut entries = Vec::new();
        let mut used = 0u64;
        let mut slot = from_slot;
        while slot < self.apply_cursor {
            let Some(value) = self.applied_values.get(&slot) else { break };
            let entry = TransferEntry {
                slot,
                value: value.clone(),
                cert: self.evidence.get(&slot).cloned(),
            };
            let cost = entry.to_wire_bytes().len() as u64;
            if !entries.is_empty() && used + cost > budget {
                break;
            }
            used += cost;
            entries.push(entry);
            slot += 1;
        }
        TransferMsg::CommittedBatch { from_slot, entries }
    }

    /// One round of the anti-entropy protocol: answer incoming fetches
    /// from our applied prefix, sift incoming donor batches through the
    /// certificate / `t + 1`-vouch filters, and (when recovering and
    /// stalled) ask the next donor for our missing range. Returns the
    /// outgoing transfer messages.
    fn on_transfer(
        &mut self,
        round: u64,
        inbox: &[(ProcessId, TransferMsg)],
    ) -> Vec<(ProcessId, TransferMsg)> {
        let mut out = Vec::new();
        for (from, msg) in inbox {
            match msg {
                TransferMsg::FetchCommitted { from_slot, budget } => {
                    out.push((*from, self.serve_fetch(*from_slot, *budget)));
                }
                TransferMsg::CommittedBatch { entries, .. } => {
                    for entry in entries {
                        self.sift_entry(*from, entry);
                    }
                }
            }
        }
        if self.recovering
            && self.apply_cursor < self.log.total_slots()
            && self.last_fetch_round.is_none_or(|r| round >= r + FETCH_INTERVAL_ROUNDS)
        {
            if self.last_fetch_round.is_some() && self.apply_cursor == self.last_fetch_cursor {
                // The last donor gave us nothing usable: rotate.
                self.donor_cursor += 1;
                self.stats.transfer_donor_retries += 1;
            }
            let me = self.log.id().0 as u64;
            let n = self.cfg.n() as u64;
            let peers = n - 1;
            let donor = ProcessId((((me + 1) + self.donor_cursor % peers) % n) as u32);
            debug_assert_ne!(donor, self.log.id());
            out.push((
                donor,
                TransferMsg::FetchCommitted {
                    from_slot: self.apply_cursor,
                    budget: DEFAULT_FETCH_BUDGET,
                },
            ));
            self.last_fetch_round = Some(round);
            self.last_fetch_cursor = self.apply_cursor;
        }
        out
    }

    /// Filters one donor-claimed slot. Certified claims are adopted iff
    /// the certificate re-derives the claim; uncertified claims are
    /// tallied per donor and adopted at `t + 1` byte-identical matches.
    /// Forgeries are counted and dropped.
    fn sift_entry(&mut self, from: ProcessId, entry: &TransferEntry) {
        if self.applied_values.contains_key(&entry.slot)
            || self.transferred.contains_key(&entry.slot)
        {
            return;
        }
        if entry.cert.is_some() {
            match verify_certified(&self.cfg, &self.pki, entry) {
                Some(decision) => {
                    self.stats.transfer_certs_verified += 1;
                    self.stats.transfer_bytes += entry.to_wire_bytes().len() as u64;
                    self.transferred.insert(entry.slot, (decision, entry.cert.clone()));
                }
                None => self.stats.transfer_certs_rejected += 1,
            }
            return;
        }
        let Some(decision) = claimed_decision(entry) else {
            self.stats.transfer_certs_rejected += 1;
            return;
        };
        let donors =
            self.vouches.entry(entry.slot).or_default().entry(entry.value.clone()).or_default();
        donors.insert(from);
        if donors.len() >= self.cfg.idk_threshold() {
            self.stats.transfer_vouches_accepted += 1;
            self.stats.transfer_bytes += entry.to_wire_bytes().len() as u64;
            self.transferred.insert(entry.slot, (decision, None));
        }
    }

    /// Whether this replica is still in post-restart recovering mode.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// The canonical bytes applied at `slot` (empty = `⊥`), if applied.
    pub fn applied_value(&self, slot: u64) -> Option<&[u8]> {
        self.applied_values.get(&slot).map(Vec::as_slice)
    }

    fn take_reads(&mut self, round: u64) {
        for req in self.port.drain_reads() {
            let barrier = match req.mode {
                ReadMode::Fast => 0,
                // Wait until the applied prefix covers every slot opened
                // by now.
                ReadMode::Confirmed => self.log.last_slot_opened_by(round),
            };
            self.pending_reads.push((req, barrier));
        }
    }

    fn serve_reads(&mut self) {
        let cursor = self.apply_cursor;
        let mut keep = Vec::new();
        for (req, barrier) in std::mem::take(&mut self.pending_reads) {
            let ready = matches!(req.mode, ReadMode::Fast) || cursor > barrier;
            if ready {
                self.port.push_event(ServiceReply::ReadResult {
                    client: req.client,
                    key: req.key,
                    value: self.kv.get(&req.key).copied(),
                    applied_slots: cursor,
                    mode: req.mode,
                });
            } else {
                keep.push((req, barrier));
            }
        }
        self.pending_reads = keep;
    }
}

impl<F> Actor for ServiceReplica<F>
where
    F: FallbackFactory<BbBaValue<Batch>>,
{
    type Msg = ReplicaMsg<ServiceMsg<F>>;

    fn id(&self) -> ProcessId {
        self.log.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let round = ctx.round().as_u64();
        self.drain_admissions(round);
        if let Some(batch) = self.batcher.tick(round) {
            self.enqueue_batch(batch);
        }
        self.bind_due_slot(round);
        // Demultiplex straight from the inbox: log traffic is routed to
        // its slot by reference (cloned once, where the instance buffers
        // it), transfer traffic feeds the anti-entropy path.
        let mut transfer_inbox: Vec<(ProcessId, TransferMsg)> = Vec::new();
        for env in ctx.inbox() {
            match &env.msg {
                ReplicaMsg::Log(m) => self.log.route(env.from, m),
                ReplicaMsg::Transfer(t) => transfer_inbox.push((env.from, t.clone())),
            }
        }
        let mut log_out = Vec::new();
        self.log.tick(round, &mut log_out);
        for (dest, msg) in log_out {
            ctx.push(dest, ReplicaMsg::Log(msg));
        }
        for (to, msg) in self.on_transfer(round, &transfer_inbox) {
            ctx.send(to, ReplicaMsg::Transfer(msg));
        }
        self.apply_committed(round);
        self.take_reads(round);
        self.serve_reads();
    }

    fn done(&self) -> bool {
        self.log.done()
            && self.pending_reads.is_empty()
            && (!self.recovering || self.apply_cursor >= self.log.total_slots())
    }

    fn on_rejoin(&mut self, round: Round) {
        // Every slot opening from this round on is watched end-to-end,
        // so only slots below the horizon need donor confirmation. The
        // runtime only delivers this signal on a fate-driven in-process
        // rejoin; a relaunched OS process never gets it and keeps the
        // conservative full-log horizon.
        self.recovery_horizon = Some(self.log.first_slot_opening_from(round.as_u64()));
    }
}

impl<F> std::fmt::Debug for ServiceReplica<F>
where
    F: FallbackFactory<BbBaValue<Batch>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceReplica")
            .field("me", &self.log.id())
            .field("applied", &self.apply_cursor)
            .field("queued", &self.log.queued())
            .field("keys", &self.kv.len())
            .finish_non_exhaustive()
    }
}

//! The replicated log: pipelined adaptive BB instances, one per slot.
//!
//! Slot `k` is one BB instance with proposer `p_{k mod n}`, its messages
//! tagged with session `k` on the wire. Slot `k + 1` opens a fixed
//! *stride* of rounds after slot `k` (`stride = ⌈worst-case slot schedule
//! / W⌉` for pipeline window `W`), so up to `W` instances run
//! concurrently; each instance retires as soon as it reports
//! [`SubProtocol::done`] instead of burning the fixed worst-case
//! schedule. `W = 1` recovers the sequential fixed-schedule log.
//! Per-slot signature domain separation (the session mixed into every
//! signed payload) keeps the concurrent instances non-interfering — see
//! `docs/CORRECTNESS.md`.

use meba_core::bb::{Bb, BbBaValue, BbMsg, BbValidity};
use meba_core::signing::DecideProof;
use meba_core::{Decision, FallbackFactory, SubProtocol, SystemConfig, Validity, Value};
use meba_crypto::{Pki, ProcessId, SecretKey, WireCodec};
use meba_sim::{Actor, Instance, Round, RoundCtx, SessionEnvelope, SessionId, Sink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Message type of the fallback for the BB value domain.
type FbMsg<V, F> = <<F as FallbackFactory<BbBaValue<V>>>::Protocol as SubProtocol>::Msg;

/// A slot-tagged BB message: the wire session id is the slot number.
pub type SmrMsg<V, FM> = SessionEnvelope<BbMsg<V, FM>>;

/// A committed log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry<V> {
    /// Slot index.
    pub slot: u64,
    /// The slot's designated proposer.
    pub proposer: ProcessId,
    /// The agreed entry; `⊥` means the slot was skipped (faulty proposer).
    pub entry: Decision<V>,
}

meba_core::wire_schema! {
    /// Transferable commit evidence for a retired slot: the encoded BA-level
    /// [`BbBaValue`] the slot's embedded weak BA finalized, plus the quorum
    /// [`DecideProof`] over it. A third party re-derives the slot's decision
    /// from the pair alone via [`verify_slot_evidence`] — no trust in the
    /// donor required. Slots that settled through the fallback path carry no
    /// proof and are absent from the evidence map; state transfer falls back
    /// to `t + 1` matching donors for those.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct CommitEvidence: WordCost {
        /// Canonical wire bytes of the decided [`BbBaValue`].
        pub ba_value: Vec<u8> as Bytes,
        /// The finalize certificate over those bytes, under the slot's
        /// domain-separated session.
        pub proof: DecideProof,
    }
}

/// Verifies transferred commit evidence for `slot` and re-derives the
/// slot's decision, exactly as the slot's own BB instance would have:
/// the [`DecideProof`] must certify the BA value under the slot's
/// domain-separated config, and a `Signed` BA value maps to the
/// proposer's value only if it validates under [`BbValidity`] —
/// everything else is `⊥`. Returns `None` if the evidence is forged
/// (bad bytes, wrong session, wrong threshold, or an out-of-range
/// phase).
pub fn verify_slot_evidence<V: Value>(
    cfg: &SystemConfig,
    pki: &Pki,
    slot: u64,
    ev: &CommitEvidence,
) -> Option<Decision<V>> {
    if ev.proof.phase == 0 || ev.proof.phase as usize > cfg.n() {
        return None;
    }
    let domain = slot_config(cfg, slot);
    let ba_value = BbBaValue::<V>::from_wire_bytes(&ev.ba_value).ok()?;
    if !ev.proof.verify(&domain, pki, &ba_value) {
        return None;
    }
    let validity = BbValidity::new(domain, pki.clone(), proposer_of(cfg, slot));
    Some(match &ba_value {
        BbBaValue::Signed { value, .. }
            if Validity::<BbBaValue<V>>::validate(&validity, &ba_value) =>
        {
            Decision::Value(value.clone())
        }
        _ => Decision::Bot,
    })
}

/// The domain-separated config slot `k`'s BB instance signs under: the
/// slot index mixed into the session, so every slot's signing contexts
/// are disjoint. The one slot-domain formula — tests and adversaries
/// reproduce a slot's signature domain through it.
pub fn slot_config(cfg: &SystemConfig, slot: u64) -> SystemConfig {
    cfg.with_session(cfg.session().wrapping_mul(1_000_003).wrapping_add(slot))
}

/// The designated proposer of `slot`: `p_{slot mod n}`.
fn proposer_of(cfg: &SystemConfig, slot: u64) -> ProcessId {
    ProcessId((slot % cfg.n() as u64) as u32)
}

/// Why a collision-checked slot open was refused.
///
/// A slot id is also its signature domain ([`slot_config`]): opening an
/// id twice would alias two BB instances onto one domain, so the open
/// path reports a collision instead of deduplicating it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionSpawnError {
    /// The slot's instance is currently running.
    Live(SessionId),
    /// The slot already retired (ran to completion or hit its step cap)
    /// and may never be reused.
    Retired(SessionId),
    /// The slot is outside the log (`≥ total_slots`).
    Refused(SessionId),
}

impl std::fmt::Display for SessionSpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionSpawnError::Live(sid) => write!(f, "session {sid} is already live"),
            SessionSpawnError::Retired(sid) => write!(f, "session {sid} was already retired"),
            SessionSpawnError::Refused(sid) => write!(f, "log refused to open session {sid}"),
        }
    }
}

impl std::error::Error for SessionSpawnError {}

/// One replica of the replicated log.
///
/// Runs `total_slots` BB instances, one per slot. The proposer of slot
/// `k` is `p_{k mod n}`; when it is this replica's turn it proposes the
/// next queued command (or the no-op value). [`ReplicatedLog::new`]
/// builds the sequential (`W = 1`) log; chain
/// [`ReplicatedLog::with_window`] for the pipelined mode.
///
/// A slot's lifecycle: it opens at round `k · stride` (and only then —
/// a message naming a slot never opens it), runs step `round − k ·
/// stride` of its instance in every round it is live, and retires when
/// the instance is done or has run its last step under the cap
/// ([`ReplicatedLog::slot_rounds`]), its decision appended to the log.
pub struct ReplicatedLog<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    factory: F,
    window: u64,
    stride: u64,
    slot_cap: u64,
    total_slots: u64,
    noop: V,
    pending: VecDeque<V>,
    /// Live slots' instances, by slot.
    live: BTreeMap<u64, Instance<Bb<V, F>>>,
    /// Retired slots, sorted by slot index: a slot is retired iff it has
    /// an entry here.
    log: Vec<LogEntry<V>>,
    evidence: BTreeMap<u64, CommitEvidence>,
}

impl<V, F> ReplicatedLog<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    /// Creates a sequential (`W = 1`) replica. `commands` are proposed,
    /// in order, whenever this replica is the slot proposer; `noop` is
    /// proposed when the queue is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        total_slots: u64,
        commands: Vec<V>,
        noop: V,
    ) -> Self {
        let slot_cap = Self::slot_rounds(&cfg, &factory);
        ReplicatedLog {
            cfg,
            me,
            key,
            pki,
            factory,
            window: 1,
            stride: slot_cap,
            slot_cap,
            total_slots,
            noop,
            pending: commands.into(),
            live: BTreeMap::new(),
            log: Vec::new(),
            evidence: BTreeMap::new(),
        }
    }

    /// Sets the pipeline window: up to `window ≥ 1` slots run
    /// concurrently, with slot `k + 1` opening [`ReplicatedLog::stride`]
    /// rounds after slot `k`. Call before the first round.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window.max(1);
        self.stride = self.slot_cap.div_ceil(self.window);
        self
    }

    /// Fixed worst-case number of rounds per slot: the full BB schedule,
    /// fallback included. A slot whose instance is still running after
    /// this many steps is force-retired as `⊥`.
    pub fn slot_rounds(cfg: &SystemConfig, factory: &F) -> u64 {
        Bb::<V, F>::max_schedule(cfg, factory) + 2
    }

    /// Rounds between consecutive slot openings
    /// (`⌈slot_rounds / window⌉`).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The pipeline window `W`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Worst-case total rounds the whole log needs: the last slot opens
    /// at `(total_slots − 1) · stride` and may run its full schedule.
    pub fn total_rounds(&self) -> u64 {
        self.total_slots.saturating_sub(1) * self.stride + self.slot_cap
    }

    /// Queues `cmd` for proposal the next time this replica is a slot
    /// proposer and its queue head comes up. The dynamic feed the
    /// `meba-service` batcher uses: closed client batches enter here and
    /// bind to slots as they open.
    pub fn enqueue(&mut self, cmd: V) {
        self.pending.push_back(cmd);
    }

    /// Number of queued commands not yet bound to a slot.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// The command that will bind to this replica's next proposer slot.
    pub fn queued_front(&self) -> Option<&V> {
        self.pending.front()
    }

    /// Total number of slots this log runs.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// The designated proposer of `slot` (`p_{slot mod n}`).
    pub fn proposer_of(&self, slot: u64) -> ProcessId {
        proposer_of(&self.cfg, slot)
    }

    /// The slot scheduled to open at `round`, if any (`round / stride`
    /// when `round` is a stride multiple and in range).
    pub fn due_slot(&self, round: u64) -> Option<u64> {
        let slot = round / self.stride;
        (round.is_multiple_of(self.stride) && slot < self.total_slots).then_some(slot)
    }

    /// The last slot opened by `round` (clamped to the last slot): the
    /// prefix a read issued at `round` must wait for.
    pub fn last_slot_opened_by(&self, round: u64) -> u64 {
        (round / self.stride).min(self.total_slots.saturating_sub(1))
    }

    /// The first slot opening at or after `round`; `total_slots` when no
    /// slot is left to open.
    pub fn first_slot_opening_from(&self, round: u64) -> u64 {
        round.div_ceil(self.stride).min(self.total_slots)
    }

    /// Opens `slot` now, collision-checked: an id already live or
    /// retired, or outside the log, is a typed error, never a silent
    /// alias onto the existing instance. The caller opens a slot only
    /// in its opening round ([`ReplicatedLog::spawn_due`]).
    fn try_open_slot(&mut self, slot: u64) -> Result<(), SessionSpawnError> {
        let sid = SessionId(slot);
        if slot >= self.total_slots {
            return Err(SessionSpawnError::Refused(sid));
        }
        if self.live.contains_key(&slot) {
            return Err(SessionSpawnError::Live(sid));
        }
        if self.entry(slot).is_some() {
            return Err(SessionSpawnError::Retired(sid));
        }
        let proposer = proposer_of(&self.cfg, slot);
        let cfg = slot_config(&self.cfg, slot);
        let (key, pki, factory) = (self.key.clone(), self.pki.clone(), self.factory.clone());
        let bb = if proposer == self.me {
            let cmd = self.pending.pop_front().unwrap_or_else(|| self.noop.clone());
            Bb::new_sender(cfg, self.me, key, pki, factory, cmd)
        } else {
            Bb::new(cfg, self.me, key, pki, factory, proposer)
        };
        self.live.insert(slot, Instance::new(bb));
        Ok(())
    }

    /// Opens the slot due at `round` (if any) — the one open path,
    /// called once per round before routing. A collision — an id some
    /// other allocation already took — surfaces as the typed error
    /// instead of silently aliasing.
    pub fn spawn_due(&mut self, round: u64) -> Result<(), SessionSpawnError> {
        match self.due_slot(round) {
            Some(slot) => self.try_open_slot(slot),
            None => Ok(()),
        }
    }

    /// Records `slot`'s decision when its instance retires.
    fn retire(&mut self, slot: u64, bb: Bb<V, F>) {
        let proposer = proposer_of(&self.cfg, slot);
        // A BB that did not finish inside the worst-case schedule can
        // only be a Byzantine-scheduled wrapper; a correct replica
        // records ⊥ and stays aligned with its peers.
        let entry = bb.output().unwrap_or(Decision::Bot);
        // Keep the finalize certificate (when the embedded BA produced
        // one) so this replica can later serve the slot to a recovering
        // peer as self-verifying state transfer (DESIGN.md §16).
        if let Some((v, proof)) = bb.commit_evidence() {
            self.evidence
                .insert(slot, CommitEvidence { ba_value: v.to_wire_bytes(), proof: proof.clone() });
        }
        // An append, except when a pipelined slot retires out of order.
        let at = self.log.partition_point(|e| e.slot < slot);
        self.log.insert(at, LogEntry { slot, proposer, entry });
    }

    /// The committed log so far, in slot order. Under pipelining slots
    /// may commit out of order; gaps close as earlier slots retire.
    pub fn log(&self) -> &[LogEntry<V>] {
        &self.log
    }

    /// The committed commands (skipping `⊥` slots).
    pub fn committed(&self) -> impl Iterator<Item = &V> {
        self.log.iter().filter_map(|e| e.entry.value())
    }

    /// The committed entry of `slot`, if this replica has retired it.
    pub fn entry(&self, slot: u64) -> Option<&LogEntry<V>> {
        self.log.binary_search_by_key(&slot, |e| e.slot).ok().map(|i| &self.log[i])
    }

    /// The transferable commit evidence this replica holds for `slot`:
    /// present when the slot's embedded BA finalized with a quorum
    /// [`DecideProof`] in this process's lifetime, absent for
    /// fallback-path decisions and for slots committed before a restart.
    pub fn evidence(&self, slot: u64) -> Option<&CommitEvidence> {
        self.evidence.get(&slot)
    }

    /// Hands one inbound envelope to its live slot's instance, to be
    /// consumed at that slot's next step — by reference: the payload is
    /// cloned once, into the handle the instance's inbox keeps, and not at
    /// all for a retired, unknown or not-yet-open slot.
    pub fn route(&mut self, from: ProcessId, env: &<Self as Actor>::Msg) {
        if let Some(inst) = self.live.get_mut(&env.session.0) {
            inst.deliver(from, Arc::new(env.msg.clone()));
        }
    }

    /// Runs round `round` on everything routed since the last tick:
    /// every live slot runs the step the round puts it at and sends into
    /// `out` tagged with the slot, and the slots that are done or out of
    /// steps retire. It opens nothing: the round's due slot opened in
    /// [`ReplicatedLog::spawn_due`], before routing.
    pub fn tick(&mut self, round: u64, out: &mut dyn Sink<<Self as Actor>::Msg>) {
        let mut to_retire = Vec::new();
        for (&slot, inst) in self.live.iter_mut() {
            let step = round - slot * self.stride;
            inst.step_at(
                step,
                &mut out.map(|msg| SessionEnvelope { session: SessionId(slot), msg }),
            );
            if inst.done() || step + 1 >= self.slot_cap {
                to_retire.push(slot);
            }
        }
        for slot in to_retire {
            let inst = self.live.remove(&slot).expect("collected from the live set");
            self.retire(slot, inst.into_proto());
        }
    }
}

impl<V, F> Actor for ReplicatedLog<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    type Msg = SmrMsg<V, FbMsg<V, F>>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let round = ctx.round().as_u64();
        // Before routing: a message may address step 0 of the slot that
        // opens this round. A standalone log visits each round once, so
        // its due slot cannot collide.
        let _ = self.spawn_due(round);
        for env in ctx.inbox() {
            self.route(env.from, &env.msg);
        }
        self.tick(round, ctx.outbox());
    }

    fn done(&self) -> bool {
        self.log.len() as u64 >= self.total_slots
    }

    /// The minimum of the next slot opening (while slots remain) and,
    /// for every live slot, its instance's own hint and its cap round —
    /// the round its last step runs and it force-retires.
    fn next_wakeup(&self, after: Round) -> Round {
        let after = after.as_u64();
        let next_slot = self.first_slot_opening_from(after + 1);
        let mut wake =
            if next_slot < self.total_slots { next_slot * self.stride } else { u64::MAX };
        for (&slot, inst) in &self.live {
            let opened_at = slot * self.stride;
            let hint = inst.proto().next_wakeup(after - opened_at).saturating_add(opened_at);
            wake = wake.min(hint).min(opened_at + self.slot_cap - 1);
        }
        Round(wake)
    }
}

impl<V, F> std::fmt::Debug for ReplicatedLog<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLog")
            .field("me", &self.me)
            .field("live", &self.live.keys().collect::<Vec<_>>())
            .field("committed", &self.log.len())
            .field("total_slots", &self.total_slots)
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::trusted_setup;
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_fallback::RecursiveBaFactory;
    use meba_sim::{AnyActor, Dest, Envelope, IdleActor, Round};
    use std::sync::Arc;

    type Log = ReplicatedLog<u64, RecursiveBaFactory>;
    type Msg = <Log as Actor>::Msg;

    fn lockstep(
        n: usize,
        slots: u64,
        window: u64,
        commands: Vec<Vec<u64>>,
        crashed: &[u32],
        max_rounds: u64,
    ) -> ClusterReport<Msg> {
        let cfg = SystemConfig::new(n, 9).unwrap();
        let (pki, keys) = trusted_setup(n, 77);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
                continue;
            }
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let log = ReplicatedLog::new(
                cfg,
                id,
                key,
                pki.clone(),
                factory,
                slots,
                commands.get(i).cloned().unwrap_or_default(),
                0u64, // no-op
            )
            .with_window(window);
            actors.push(Box::new(log));
        }
        let corrupt = crashed.iter().map(|&c| ProcessId(c)).collect();
        let config = DesConfig { max_rounds, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed, "not done within {max_rounds} rounds");
        run
    }

    fn logs(run: &ClusterReport<Msg>, crashed: &[u32]) -> Vec<Vec<LogEntry<u64>>> {
        (0..run.actors.len() as u32)
            .filter(|i| !crashed.contains(i))
            .map(|i| {
                let l: &Log = run.actors[i as usize].as_any().downcast_ref().unwrap();
                l.log().to_vec()
            })
            .collect()
    }

    #[test]
    fn failure_free_log_replicates_commands() {
        let n = 5;
        let commands: Vec<Vec<u64>> = (0..n).map(|i| vec![100 + i as u64]).collect();
        let run = lockstep(n, 3, 1, commands, &[], 20_000);
        let l: &Log = run.actors[0].as_any().downcast_ref().unwrap();
        assert!(run.rounds <= l.total_rounds() + 2, "done within the fixed schedule");
        let all = logs(&run, &[]);
        for l in &all {
            assert_eq!(l, &all[0], "logs must be identical");
        }
        // Slots 0,1,2 proposed by p0,p1,p2 with their first commands.
        let committed: Vec<u64> = all[0].iter().filter_map(|e| e.entry.value().copied()).collect();
        assert_eq!(committed, vec![100, 101, 102]);
    }

    #[test]
    fn crashed_proposer_slot_skips_but_stays_aligned() {
        let n = 5;
        let commands: Vec<Vec<u64>> = (0..n).map(|i| vec![100 + i as u64]).collect();
        // p1 crashed: slot 1 must be ⊥, slots 0 and 2 commit.
        let crashed = [1u32];
        let run = lockstep(n, 3, 1, commands, &crashed, 20_000);
        let all = logs(&run, &crashed);
        for l in &all {
            assert_eq!(l, &all[0], "logs must be identical");
        }
        assert_eq!(all[0][0].entry, Decision::Value(100));
        assert_eq!(all[0][1].entry, Decision::Bot, "crashed proposer slot skipped");
        assert_eq!(all[0][2].entry, Decision::Value(102));
    }

    #[test]
    fn empty_queue_proposes_noop() {
        let n = 5;
        let run = lockstep(n, 1, 1, vec![vec![]; n], &[], 20_000);
        let all = logs(&run, &[]);
        assert_eq!(all[0][0].entry, Decision::Value(0), "no-op committed");
    }

    #[test]
    fn slot_schedule_is_fixed_and_positive() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let (pki, keys) = trusted_setup(5, 1);
        let factory = RecursiveBaFactory::new(cfg, keys[0].clone(), pki);
        let rounds = Log::slot_rounds(&cfg, &factory);
        assert!(rounds > 40, "must cover phases + help + fallback, got {rounds}");
    }

    /// Acceptance: with `W ≥ 2` a failure-free 8-slot log commits in
    /// strictly fewer total rounds than the sequential fixed-schedule
    /// log, and the per-session metrics show every clean slot at the
    /// adaptive word cost.
    #[test]
    fn pipelined_beats_sequential_on_failure_free_8_slots() {
        let n = 5;
        let slots = 8u64;
        let commands: Vec<Vec<u64>> =
            (0..n).map(|i| vec![100 + i as u64, 200 + i as u64]).collect();
        let run = |window: u64| {
            let run = lockstep(n, slots, window, commands.clone(), &[], 100_000);
            let logs = logs(&run, &[]);
            for l in &logs {
                assert_eq!(l, &logs[0], "window {window}: logs must be identical");
                assert_eq!(l.len(), slots as usize);
            }
            (run.metrics.rounds, run.metrics, logs[0].clone())
        };
        let (seq_rounds, _, seq_log) = run(1);
        let (pip_rounds, pip_metrics, pip_log) = run(2);
        assert_eq!(seq_log, pip_log, "pipelining must not change the committed log");
        assert!(
            pip_rounds < seq_rounds,
            "W=2 must commit in strictly fewer rounds: {pip_rounds} vs {seq_rounds}"
        );
        // Fixed-schedule upper bound for reference: W=1 with early
        // retirement already beats slots × slot_rounds.
        // Each clean slot costs the adaptive O(n) word price, measured
        // per session. 22n is the same bound the BB unit test asserts
        // for a single failure-free instance.
        assert_eq!(pip_metrics.per_session.len(), slots as usize);
        for (slot, stats) in &pip_metrics.per_session {
            assert!(
                stats.counters.words <= 22 * n as u64,
                "slot {slot} not adaptive: {} words",
                stats.counters.words
            );
            assert!(stats.last_round >= stats.first_round);
        }
    }

    /// A faulty slot's full worst-case schedule overlaps several clean
    /// slots under `W = 4`; domain separation keeps them independent.
    #[test]
    fn pipelined_log_overlaps_faulty_slot_without_interference() {
        let n = 5;
        let slots = 4u64;
        let commands: Vec<Vec<u64>> = (0..n).map(|i| vec![100 + i as u64]).collect();
        let crashed = [1u32];
        let run = lockstep(n, slots, 4, commands, &crashed, 100_000);
        let all = logs(&run, &crashed);
        for l in &all {
            assert_eq!(l, &all[0], "logs must be identical");
        }
        let entries: Vec<&Decision<u64>> = all[0].iter().map(|e| &e.entry).collect();
        assert_eq!(entries[0], &Decision::Value(100));
        assert_eq!(entries[1], &Decision::Bot, "crashed proposer slot skipped");
        assert_eq!(entries[2], &Decision::Value(102));
        assert_eq!(entries[3], &Decision::Value(103));
    }

    #[test]
    fn window_controls_stride() {
        let n = 5;
        let cfg = SystemConfig::new(n, 9).unwrap();
        let (pki, keys) = trusted_setup(n, 77);
        let factory = RecursiveBaFactory::new(cfg, keys[0].clone(), pki.clone());
        let sr = Log::slot_rounds(&cfg, &factory);
        let mk = |w| {
            ReplicatedLog::<u64, RecursiveBaFactory>::new(
                cfg,
                ProcessId(0),
                keys[0].clone(),
                pki.clone(),
                factory.clone(),
                6,
                vec![],
                0,
            )
            .with_window(w)
        };
        let seq = mk(1);
        assert_eq!(seq.stride(), sr);
        assert_eq!(seq.total_rounds(), 5 * sr + sr);
        let pip = mk(3);
        assert_eq!(pip.stride(), sr.div_ceil(3));
        assert!(pip.total_rounds() < seq.total_rounds());
        // W = 0 is clamped to 1, not a division by zero.
        assert_eq!(mk(0).stride(), sr);
    }

    /// The service-facing seam: dynamically enqueued commands bind to
    /// proposer slots, the schedule answers which slots a round has
    /// opened, and slot opening is collision-checked with a typed error
    /// instead of silently aliasing the live instance.
    #[test]
    fn enqueue_and_dynamic_spawn_seam() {
        let mut log = lone_replica(6);
        assert_eq!(log.queued(), 0);
        log.enqueue(111);
        log.enqueue(222);
        assert_eq!(log.queued(), 2);
        assert_eq!(log.queued_front(), Some(&111));
        assert_eq!(log.total_slots(), 6);
        assert_eq!(log.proposer_of(0), ProcessId(0));
        assert_eq!(log.proposer_of(7), ProcessId(2));
        let stride = log.stride();
        assert_eq!(log.due_slot(0), Some(0));
        assert_eq!(log.due_slot(1), None);
        assert_eq!(log.due_slot(stride), Some(1));
        assert_eq!(log.due_slot(6 * stride), None, "past the last slot");
        assert_eq!(log.last_slot_opened_by(0), 0);
        assert_eq!(log.last_slot_opened_by(stride - 1), 0);
        assert_eq!(log.last_slot_opened_by(stride), 1);
        assert_eq!(log.last_slot_opened_by(100 * stride), 5, "clamped to the last slot");
        assert_eq!(log.first_slot_opening_from(0), 0);
        assert_eq!(log.first_slot_opening_from(1), 1);
        assert_eq!(log.first_slot_opening_from(stride), 1);
        assert_eq!(log.first_slot_opening_from(stride + 1), 2);
        assert_eq!(log.first_slot_opening_from(100 * stride), 6, "none left to open");
        // Spawning slot 0 binds the queue head; spawning it again is a
        // typed collision, and the queue is untouched.
        assert_eq!(log.spawn_due(0), Ok(()));
        assert_eq!(log.queued(), 1, "slot 0 popped the queue head");
        assert_eq!(
            log.spawn_due(0),
            Err(SessionSpawnError::Live(SessionId(0))),
            "reusing a live slot id must surface, not alias"
        );
        assert_eq!(log.queued(), 1, "collision must not consume a command");
        // Out-of-range slots are refused, every time: nothing is
        // remembered about them.
        assert_eq!(log.try_open_slot(99), Err(SessionSpawnError::Refused(SessionId(99))));
        assert_eq!(log.try_open_slot(99), Err(SessionSpawnError::Refused(SessionId(99))));
        let err = SessionSpawnError::Live(SessionId(1));
        assert_eq!(format!("{err}"), "session s1 is already live");
    }

    /// p0's replica of a `slots`-slot sequential log with an empty
    /// command queue.
    fn lone_replica(slots: u64) -> Log {
        let n = 5;
        let cfg = SystemConfig::new(n, 9).unwrap();
        let (pki, keys) = trusted_setup(n, 77);
        let factory = RecursiveBaFactory::new(cfg, keys[0].clone(), pki.clone());
        ReplicatedLog::new(cfg, ProcessId(0), keys[0].clone(), pki, factory, slots, vec![], 0)
    }

    fn drive(log: &mut Log, round: u64, inbox: &[Envelope<Msg>]) -> Vec<(Dest, Msg)> {
        let mut ctx = RoundCtx::new(Round(round), log.id(), 5, inbox);
        log.on_round(&mut ctx);
        ctx.take_outbox()
    }

    fn live(log: &Log) -> Vec<u64> {
        log.live.keys().copied().collect()
    }

    /// The slot lifecycle on one replica whose peers are all silent: the
    /// due slot opens before routing, a message never opens a slot (not
    /// one that has yet to open, not one outside the log, not one that
    /// retired), and a retired id is never reused.
    #[test]
    fn slots_open_route_and_retire() {
        let mut log = lone_replica(2);
        let stride = log.stride();
        // Round 0: slot 0 opens; p0 proposes it, its output tagged s0.
        let out = drive(&mut log, 0, &[]);
        assert!(!out.is_empty());
        assert!(out.iter().all(|(_, m)| m.session == SessionId(0)));
        assert_eq!(live(&log), vec![0]);
        let stray = |slot| Envelope {
            from: ProcessId(1),
            msg: Arc::new(SessionEnvelope { session: SessionId(slot), msg: out[0].1.msg.clone() }),
        };
        // Messages for slot 1 (not open yet) and slot 7 (unknown) are
        // dropped.
        drive(&mut log, 1, &[stray(1), stray(7)]);
        assert_eq!(live(&log), vec![0]);
        // Slot 0 retires by its cap round, the round before slot 1 opens.
        for round in 2..stride {
            drive(&mut log, round, &[]);
        }
        assert!(log.entry(0).is_some(), "slot 0 retired within its cap");
        assert_eq!(live(&log), Vec::<u64>::new());
        // A straggler for the retired slot 0 is dropped, not re-opened,
        // in the round slot 1 opens.
        drive(&mut log, stride, &[stray(0)]);
        assert_eq!(live(&log), vec![1]);
        assert_eq!(log.log().len(), 1);
        // Live, retired and out-of-range ids are typed collisions.
        assert_eq!(log.try_open_slot(1), Err(SessionSpawnError::Live(SessionId(1))));
        assert_eq!(log.try_open_slot(0), Err(SessionSpawnError::Retired(SessionId(0))));
        assert_eq!(log.try_open_slot(2), Err(SessionSpawnError::Refused(SessionId(2))));
        for round in stride + 1..2 * stride {
            drive(&mut log, round, &[stray(0)]);
        }
        assert!(log.done());
        assert_eq!(log.log().iter().map(|e| e.slot).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(log.try_open_slot(1), Err(SessionSpawnError::Retired(SessionId(1))));
    }

    /// Acceptance for the state-transfer seam: every failure-free slot
    /// retires with commit evidence; the evidence re-derives exactly the
    /// committed decision for a third party; and replayed-to-another-slot
    /// or bit-flipped evidence is rejected, not mis-verified.
    #[test]
    fn evidence_certifies_committed_slots_and_rejects_forgeries() {
        let n = 5;
        let commands: Vec<Vec<u64>> = (0..n).map(|i| vec![100 + i as u64]).collect();
        let run = lockstep(n, 3, 1, commands, &[], 100_000);
        let cfg = SystemConfig::new(n, 9).unwrap();
        let (pki, _) = trusted_setup(n, 77);
        let l: &Log = run.actors[0].as_any().downcast_ref().unwrap();
        for slot in 0..3u64 {
            let ev = l.evidence(slot).expect("fast-path slot carries evidence");
            let d = verify_slot_evidence::<u64>(&cfg, &pki, slot, ev)
                .expect("genuine evidence verifies");
            assert_eq!(d, l.entry(slot).unwrap().entry, "slot {slot} decision re-derived");
            // Cross-slot replay: the per-slot session domain must refuse
            // slot k's certificate presented for slot k + 7.
            assert!(
                verify_slot_evidence::<u64>(&cfg, &pki, slot + 7, ev).is_none(),
                "slot {slot} evidence replayed for another slot must fail"
            );
            // Tampered value bytes: the proof's digest no longer matches.
            let mut forged = ev.clone();
            let last = forged.ba_value.len() - 1;
            forged.ba_value[last] ^= 1;
            assert!(
                verify_slot_evidence::<u64>(&cfg, &pki, slot, &forged).is_none(),
                "slot {slot} tampered evidence must fail"
            );
        }
    }

    #[test]
    fn slot_journal_domains_are_disjoint() {
        // Crash recovery shares ONE signing registry (and one journal)
        // per process across all pipelined slots: this is safe exactly
        // because slot_config's session derivation makes every slot's
        // signing contexts disjoint. Registering the full signing
        // surface of many slots must never collide; re-signing a slot's
        // context with a different preimage must still be refused.
        use meba_core::signing::{BbIdkSig, BbValueSig};
        use meba_crypto::{Digest, SignContext, SignRegistry, Signable};
        let cfg = SystemConfig::new(5, 9).unwrap();
        let mut registry = SignRegistry::new();
        for slot in 0..16u64 {
            let session = slot_config(&cfg, slot).session();
            let value = 100 + slot;
            let val = BbValueSig { session, value: &value };
            assert!(
                registry
                    .record(&val.context_bytes(), Digest::of(&val.signing_bytes()))
                    .expect("fresh slot domain"),
                "slot {slot} value context must be new"
            );
            for phase in 1..4u32 {
                let idk = BbIdkSig { session, phase };
                assert!(registry
                    .record(&idk.context_bytes(), Digest::of(&idk.signing_bytes()))
                    .expect("fresh (slot, phase) domain"));
            }
        }
        // Within one slot the guard still bites: a second value under
        // slot 3's sender context is the classic equivocation.
        let session = slot_config(&cfg, 3).session();
        let forged = BbValueSig { session, value: &999u64 };
        assert!(registry
            .record(&forged.context_bytes(), Digest::of(&forged.signing_bytes()))
            .is_err());
        assert_eq!(registry.refused(), 1);
    }
}

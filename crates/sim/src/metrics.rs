//! Communication-complexity accounting.
//!
//! The paper measures "the maximum number of words sent by all correct
//! processes, across all runs" (§2). The simulator therefore splits every
//! counter by whether the sender is correct; protocol complexity reads
//! [`Metrics::correct`], while Byzantine traffic is tracked separately for
//! diagnostics. Constituent-signature counts reproduce the Dolev–Reischuk
//! `Ω(nt)` signature bound (experiment E4).
//!
//! [`Metrics`] is plain data, written through `&mut` by whoever owns it,
//! and the rule that turns a sent message into words lives here once:
//! [`MessageCost::of`] (floor at 1 word), [`targets`] (who gets a copy)
//! and [`Metrics::bill`] (a copy is billed as sent whatever its
//! [`LinkFate`]) serve `meba-engine`'s `EngineProcess::step`, the round
//! body of every backend; [`Metrics::merge`] folds the per-thread shards
//! of the paced ones.

use crate::actor::{Dest, Message};
use crate::faults::{Link, LinkFate};
use meba_crypto::ProcessId;
use std::collections::BTreeMap;

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` µs (bucket 0 additionally holds sub-microsecond
/// samples), and the last bucket is open-ended — `2^21` µs ≈ 2 s, beyond
/// any sane round duration.
const LATENCY_BUCKETS: usize = 22;

/// A power-of-two histogram of per-round processing latencies, in
/// microseconds.
///
/// Recorded by the threaded cluster runtime: each process contributes one
/// sample per round — the time from the round's scheduled start until it
/// finished processing and sending. Comparing the histogram's tail against
/// `δ` shows how much synchrony headroom a run had.
///
/// # Examples
///
/// ```
/// use meba_sim::metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// h.record_us(3);
/// h.record_us(900);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max_us(), 900);
/// assert!(h.quantile(1.0) >= 900);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

serde::impl_serde_struct!(LatencyHistogram { buckets, count, sum_us, max_us });

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: vec![0; LATENCY_BUCKETS], count: 0, sum_us: 0, max_us: 0 }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record_us(&mut self, us: u64) {
        let idx =
            if us == 0 { 0 } else { ((63 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1) };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean sample, in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))` µs.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile (`q ∈ [0, 1]`), in µs: the
    /// exclusive upper edge of the first bucket at which the cumulative
    /// count reaches `q · count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1);
            }
        }
        self.max_us
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Delivery accounting for one directed link.
///
/// `sent` counts messages handed to the link; `delivered` counts messages
/// the recipient actually drained into an inbox. Under [`ReliableLinks`]
/// the two converge when the run ends cleanly; `dropped`/`delayed` count
/// fault-injection decisions ([`crate::faults::LinkFate`]).
///
/// [`ReliableLinks`]: crate::faults::ReliableLinks
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages the sender put on the link (before fault injection).
    pub sent: u64,
    /// Messages the recipient drained into a round inbox.
    pub delivered: u64,
    /// Messages dropped by a [`crate::faults::LinkPolicy`].
    pub dropped: u64,
    /// Messages delayed past `δ` by a [`crate::faults::LinkPolicy`].
    pub delayed: u64,
    /// Canonical-encoding bytes the sender put on the link (0 for message
    /// types without a wire codec; counted before fault injection, like
    /// `sent`).
    pub bytes: u64,
}

serde::impl_serde_struct!(LinkStats { sent, delivered, dropped, delayed, bytes });

impl LinkStats {
    fn merge(&mut self, other: &LinkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.bytes += other.bytes;
    }
}

/// A bundle of communication counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total words sent.
    pub words: u64,
    /// Total point-to-point messages sent (a broadcast counts `n - 1`).
    pub messages: u64,
    /// Total constituent signatures sent (threshold sig of threshold `k`
    /// counts `k`).
    pub constituent_sigs: u64,
    /// Total canonical-encoding bytes sent ([`crate::Message::wire_bytes`];
    /// 0 for message types without a wire codec). Dividing by `words`
    /// gives the run's realized bytes-per-word ratio, which the wire
    /// layer checks against its constant byte-per-word budget.
    pub bytes: u64,
}

serde::impl_serde_struct!(Counters { words, messages, constituent_sigs, bytes });

impl Counters {
    fn record(&mut self, cost: &MessageCost) {
        self.words += cost.words;
        self.messages += 1;
        self.constituent_sigs += cost.sigs;
        self.bytes += cost.bytes;
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &Counters) {
        self.words += other.words;
        self.messages += other.messages;
        self.constituent_sigs += other.constituent_sigs;
        self.bytes += other.bytes;
    }
}

/// Correct-process accounting for one multiplexed protocol instance
/// (see [`crate::session::SessionEnvelope`]).
///
/// This is what makes the paper's adaptivity *measurable* per instance:
/// a clean replicated-log slot shows up here with `O(n)` words and a
/// short `first_round..=last_round` span, a faulty one with its
/// `O(n(f+1))`-word, full-schedule footprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Words/messages/signatures correct processes sent in this session.
    pub counters: Counters,
    /// First round any correct process sent a message in this session.
    pub first_round: u64,
    /// Last round any correct process sent a message in this session.
    pub last_round: u64,
}

serde::impl_serde_struct!(SessionStats { counters, first_round, last_round });

impl SessionStats {
    fn record(&mut self, round: u64, cost: &MessageCost) {
        self.span(round, round);
        self.counters.record(cost);
    }

    /// Widens the round span to cover `first..=last` (an empty session
    /// has no span yet and takes the given one).
    fn span(&mut self, first: u64, last: u64) {
        if self.counters.messages == 0 {
            self.first_round = first;
        }
        self.first_round = self.first_round.min(first);
        self.last_round = self.last_round.max(last);
    }

    fn merge(&mut self, other: &SessionStats) {
        self.span(other.first_round, other.last_round);
        self.counters.merge(&other.counters);
    }
}

/// Round-advancement accounting under the engine's quorum-or-timeout
/// timing model.
///
/// Every time a process advances into a round `r ≥ 1`, the engine records
/// *why*: either a quorum of distinct senders had already produced
/// round-`(r-1)` traffic when the process advanced ([`quorum`]), or the
/// local round timeout fired first ([`timeout`]). Under the lockstep
/// driver the advance moment is the global schedule, and the cause
/// records whether quorum was satisfied at that deadline — so a
/// failure-free chatty run is all-quorum, while the adaptive protocols'
/// silent rounds necessarily advance on timeout.
///
/// [`quorum`]: AdvanceStats::quorum
/// [`timeout`]: AdvanceStats::timeout
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Advances for which a quorum of distinct prior-round senders had
    /// arrived by the moment of advancement.
    pub quorum: u64,
    /// Advances forced by the local round timeout without quorum.
    pub timeout: u64,
}

serde::impl_serde_struct!(AdvanceStats { quorum, timeout });

impl AdvanceStats {
    /// Total recorded advances.
    pub fn total(&self) -> u64 {
        self.quorum + self.timeout
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &AdvanceStats) {
        self.quorum += other.quorum;
        self.timeout += other.timeout;
    }
}

/// Crash-recovery accounting for one run.
///
/// Populated by runtimes that inject `CrashRestart` process fates
/// (`meba-engine`'s `run_cluster_with_recovery`, `meba-wire`'s TCP twin):
/// how many processes crash-restarted, how much journal replay their
/// recoveries cost, and whether the never-re-sign-conflicting guard ever
/// had to refuse an equivocation attempt (it must stay 0 for correct
/// processes — a non-zero value under a replay-attack adversary is the
/// guard working as intended).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Correct processes that crashed during the run — each restarts if
    /// the run has a rebuilder. A crash of a process the run counts as
    /// corrupt is part of its fault and is not counted here.
    pub crash_restarts: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// Journal syncs issued across all processes.
    pub journal_fsyncs: u64,
    /// Rounds from each rejoin until that process first reported done,
    /// summed over recoveries (recovery latency).
    pub recovery_rounds: u64,
    /// Steps whose externalization a recovery guard refused because they
    /// would contradict a journaled signature.
    pub refused_equivocations: u64,
}

serde::impl_serde_struct!(RecoveryStats {
    crash_restarts,
    replayed_records,
    journal_fsyncs,
    recovery_rounds,
    refused_equivocations,
});

impl RecoveryStats {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.crash_restarts += other.crash_restarts;
        self.replayed_records += other.replayed_records;
        self.journal_fsyncs += other.journal_fsyncs;
        self.recovery_rounds += other.recovery_rounds;
        self.refused_equivocations += other.refused_equivocations;
    }
}

/// Per-client accounting at the service front door (`meba-service`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Submit attempts this client made at this replica's port.
    pub submitted: u64,
    /// Submits admitted into the batcher.
    pub accepted: u64,
    /// Submits refused with a typed `Overloaded` rejection.
    pub rejected: u64,
    /// Ops of this client applied (committed exactly once) here.
    pub committed: u64,
}

serde::impl_serde_struct!(ClientStats { submitted, accepted, rejected, committed });

/// Client-facing service accounting for one replica.
///
/// Owned by a `meba-service` replica and published next to [`Metrics`]:
/// where the protocol counters measure *words per agreement*, these
/// measure what the amortization buys — *ops per slot* — plus the
/// admission-control decisions (accepted vs. typed rejections; a
/// rejection is load shed, never a silent drop) and the commit latency
/// every accepted op experienced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submit attempts seen at this replica's port.
    pub ops_submitted: u64,
    /// Ops admitted into the batcher.
    pub ops_accepted: u64,
    /// Ops refused with a typed `Overloaded` rejection (backpressure).
    pub ops_rejected: u64,
    /// First-time `(client, seq)` commits applied to the state machine.
    pub ops_committed: u64,
    /// Duplicate `(client, seq)` occurrences suppressed at apply time.
    pub ops_deduped: u64,
    /// Batches this replica closed and proposed.
    pub batches_proposed: u64,
    /// Total ops across all closed batches (mean occupancy =
    /// `batched_ops / batches_proposed`).
    pub batched_ops: u64,
    /// Admit→apply latency of locally admitted ops, in *rounds* (the
    /// histogram's µs naming is cosmetic; buckets are powers of two).
    pub commit_latency_rounds: LatencyHistogram,
    /// Typed session-id collisions the dynamic spawn path surfaced
    /// (`meba_smr::SessionSpawnError`); 0 in any healthy run.
    pub session_collisions: u64,
    /// Slots this replica applied as `⊥` — genuine cluster-wide no-op
    /// slots (faulty proposer), plus, before state transfer existed,
    /// slots it missed while down.
    pub skipped_slots: u64,
    /// Slots adopted via certified state transfer instead of local
    /// agreement (DESIGN.md §16).
    pub slots_transferred: u64,
    /// Donor commit certificates that verified (value adopted).
    pub transfer_certs_verified: u64,
    /// Donor commit certificates that failed verification (forged,
    /// stale, or replayed for the wrong slot) — counted, never adopted.
    pub transfer_certs_rejected: u64,
    /// Uncertified slots adopted because `t + 1` distinct donors
    /// returned byte-identical values.
    pub transfer_vouches_accepted: u64,
    /// Wire bytes of `CommittedBatch` payloads this replica accepted
    /// while catching up.
    pub transfer_bytes: u64,
    /// Times the recovering replica rotated to a different donor after
    /// a donor stayed silent or served nothing usable.
    pub transfer_donor_retries: u64,
    /// Transferred certified values that contradicted a value this
    /// replica had already applied for the same slot. Any nonzero value
    /// is an agreement-safety violation; the churn tests assert 0.
    pub applied_conflicts: u64,
    /// Per-client breakdown, keyed by client id.
    pub per_client: BTreeMap<u64, ClientStats>,
}

serde::impl_serde_struct!(ServiceStats {
    ops_submitted,
    ops_accepted,
    ops_rejected,
    ops_committed,
    ops_deduped,
    batches_proposed,
    batched_ops,
    commit_latency_rounds,
    session_collisions,
    skipped_slots,
    slots_transferred,
    transfer_certs_verified,
    transfer_certs_rejected,
    transfer_vouches_accepted,
    transfer_bytes,
    transfer_donor_retries,
    applied_conflicts,
    per_client,
});

impl ServiceStats {
    /// Mean ops per closed batch (0 when no batch closed).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches_proposed == 0 {
            0.0
        } else {
            self.batched_ops as f64 / self.batches_proposed as f64
        }
    }

    /// Per-client counters for `client`, created on first use.
    pub fn client_mut(&mut self, client: u64) -> &mut ClientStats {
        self.per_client.entry(client).or_default()
    }
}

/// Full accounting for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Words/messages/signatures sent by correct processes (the paper's
    /// communication complexity).
    pub correct: Counters,
    /// Traffic originated by Byzantine processes (not part of protocol
    /// complexity; useful for sanity checks).
    pub byzantine: Counters,
    /// Correct-process counters broken down by message component tag
    /// (experiment E5).
    pub by_component: BTreeMap<String, Counters>,
    /// Correct-process words per round, indexed by round number
    /// (experiment E7 latency profiles).
    pub words_per_round: Vec<u64>,
    /// Per-process counters (correct and Byzantine alike).
    pub per_process: BTreeMap<u32, Counters>,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Per-round processing latencies (µs) — populated by the threaded
    /// cluster runtime; empty for lockstep runs, where rounds have no
    /// wall-clock extent.
    pub round_latency: LatencyHistogram,
    /// Delivery accounting per directed link (a JSON key reads
    /// `"p0->p1"`). Self-links are never recorded.
    pub per_link: BTreeMap<Link, LinkStats>,
    /// Correct-process counters broken down by protocol instance, for
    /// session-multiplexed runs (empty when no message carries a
    /// [`crate::Message::session`] tag).
    pub per_session: BTreeMap<u64, SessionStats>,
    /// Crash-recovery accounting (all-zero for runs without
    /// `CrashRestart` fault injection).
    pub recovery: RecoveryStats,
    /// Round-advance causes (quorum vs timeout), summed over processes
    /// and rounds.
    pub advance: AdvanceStats,
}

serde::impl_serde_struct!(Metrics {
    correct,
    byzantine,
    by_component,
    words_per_round,
    per_process,
    rounds,
    round_latency,
    per_link,
    per_session,
    recovery,
    advance,
});

/// What one remote copy of a message is billed: read off the message
/// once per outbox entry, charged once per recipient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageCost {
    /// [`Message::words`], floored at 1 — nothing travels for free.
    pub words: u64,
    /// [`Message::constituent_sigs`].
    pub sigs: u64,
    /// [`Message::wire_bytes`].
    pub bytes: u64,
    /// [`Message::component`].
    pub component: &'static str,
    /// [`Message::session`]; `None` for unmultiplexed traffic.
    pub session: Option<u64>,
}

impl MessageCost {
    /// The cost of each remote copy of `msg`.
    pub fn of<M: Message>(msg: &M) -> Self {
        MessageCost {
            words: msg.words().max(1),
            sigs: msg.constituent_sigs(),
            bytes: msg.wire_bytes(),
            component: msg.component(),
            session: msg.session(),
        }
    }
}

/// The processes a message addressed to `dest` is copied to in a system
/// of `n`. An out-of-range destination (only a Byzantine actor produces
/// one) names nobody. The sender itself may be among them: that copy is
/// process memory, not a link — the caller hands it over without asking a
/// [`crate::faults::LinkPolicy`] and without calling [`Metrics::bill`].
pub fn targets(dest: Dest, n: usize) -> impl Iterator<Item = ProcessId> {
    let range = match dest {
        Dest::To(p) if p.index() < n => p.index()..p.index() + 1,
        Dest::To(_) => 0..0,
        Dest::All => 0..n,
    };
    range.map(|i| ProcessId(i as u32))
}

impl Metrics {
    /// Bills one remote copy of a message sent in `round` over `link` —
    /// the one place words, signatures, bytes and link counters are
    /// charged, on every backend. The paper counts words *sent* (§2), so
    /// the copy costs the same whatever `fate` it meets: a dropped,
    /// delayed or severed copy was still sent. The link's `sent`/`bytes`
    /// move, and `dropped` or `delayed` with the fate.
    pub fn bill(
        &mut self,
        link: Link,
        sender_correct: bool,
        round: u64,
        cost: &MessageCost,
        fate: LinkFate,
    ) {
        debug_assert_ne!(link.from, link.to, "a self-copy is process memory, never billed");
        self.per_process.entry(link.from.0).or_default().record(cost);
        if sender_correct {
            self.correct.record(cost);
            // Looked up by `&str`: the key is only allocated the first
            // time a component is seen.
            match self.by_component.get_mut(cost.component) {
                Some(counters) => counters.record(cost),
                None => {
                    self.by_component.entry(cost.component.to_string()).or_default().record(cost)
                }
            }
            if let Some(s) = cost.session {
                self.per_session.entry(s).or_default().record(round, cost);
            }
            if self.words_per_round.len() <= round as usize {
                self.words_per_round.resize(round as usize + 1, 0);
            }
            self.words_per_round[round as usize] += cost.words;
        } else {
            self.byzantine.record(cost);
        }
        let stats = self.per_link.entry(link).or_default();
        stats.sent += 1;
        stats.bytes += cost.bytes;
        match fate {
            LinkFate::Deliver => {}
            // A sever is a drop that also costs the connection.
            LinkFate::Drop | LinkFate::Sever => stats.dropped += 1,
            LinkFate::DelayRounds(_) => stats.delayed += 1,
        }
    }

    /// Counts one message off `link` as drained into its recipient's
    /// round inbox.
    pub fn admit(&mut self, link: Link) {
        self.per_link.entry(link).or_default().delivered += 1;
    }

    /// Folds another ledger of the same run into this one (the paced
    /// backends keep one shard per process thread). Every part is a sum,
    /// a minimum or a maximum, so the fold is independent of order and
    /// of how the bills were split.
    pub fn merge(&mut self, other: &Metrics) {
        self.correct.merge(&other.correct);
        self.byzantine.merge(&other.byzantine);
        for (component, counters) in &other.by_component {
            self.by_component.entry(component.clone()).or_default().merge(counters);
        }
        if self.words_per_round.len() < other.words_per_round.len() {
            self.words_per_round.resize(other.words_per_round.len(), 0);
        }
        for (mine, words) in self.words_per_round.iter_mut().zip(&other.words_per_round) {
            *mine += words;
        }
        for (process, counters) in &other.per_process {
            self.per_process.entry(*process).or_default().merge(counters);
        }
        self.rounds = self.rounds.max(other.rounds);
        self.round_latency.merge(&other.round_latency);
        for (link, stats) in &other.per_link {
            self.per_link.entry(*link).or_default().merge(stats);
        }
        for (session, stats) in &other.per_session {
            self.per_session.entry(*session).or_default().merge(stats);
        }
        self.recovery.merge(&other.recovery);
        self.advance.merge(&other.advance);
    }

    /// Words sent by correct processes — the paper's headline metric.
    pub fn correct_words(&self) -> u64 {
        self.correct.words
    }

    /// Delivery stats for `from → to` (zeroed if the link never carried a
    /// message).
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkStats {
        self.per_link.get(&Link { from, to }).copied().unwrap_or_default()
    }

    /// Sum of `dropped` over all links.
    pub fn total_dropped(&self) -> u64 {
        self.per_link.values().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cost(component: &'static str, session: Option<u64>, words: u64, sigs: u64) -> MessageCost {
        MessageCost { words, sigs, bytes: 32 * words, component, session }
    }

    fn link(from: u32, to: u32) -> Link {
        Link { from: ProcessId(from), to: ProcessId(to) }
    }

    #[test]
    fn correct_and_byzantine_split() {
        let mut m = Metrics::default();
        m.bill(link(0, 1), true, 0, &cost("bb", None, 3, 2), LinkFate::Deliver);
        m.bill(link(1, 0), false, 0, &cost("bb", None, 100, 50), LinkFate::Deliver);
        assert_eq!(m.correct.words, 3);
        assert_eq!(m.correct.messages, 1);
        assert_eq!(m.correct.constituent_sigs, 2);
        assert_eq!(m.correct.bytes, 96);
        assert_eq!(m.byzantine.words, 100);
        assert_eq!(m.byzantine.bytes, 3_200);
        assert_eq!(m.correct_words(), 3);
        let sent = |from, to| m.link(ProcessId(from), ProcessId(to)).sent;
        assert_eq!((sent(0, 1), sent(1, 0)), (1, 1), "every copy is billed to its link");
    }

    #[test]
    fn component_breakdown() {
        let mut m = Metrics::default();
        m.bill(link(0, 1), true, 0, &cost("bb", None, 1, 0), LinkFate::Deliver);
        m.bill(link(0, 1), true, 1, &cost("weak-ba", None, 2, 1), LinkFate::Deliver);
        m.bill(link(2, 1), true, 1, &cost("weak-ba", None, 2, 1), LinkFate::Deliver);
        assert_eq!(m.by_component["bb"].words, 1);
        assert_eq!(m.by_component["weak-ba"].words, 4);
        assert_eq!(m.by_component["weak-ba"].messages, 2);
    }

    #[test]
    fn per_session_breakdown_tracks_span_and_counters() {
        let mut m = Metrics::default();
        m.bill(link(0, 3), true, 3, &cost("bb", Some(0), 2, 1), LinkFate::Deliver);
        m.bill(link(1, 3), true, 7, &cost("bb", Some(0), 4, 0), LinkFate::Deliver);
        m.bill(link(0, 3), true, 5, &cost("bb", Some(1), 10, 2), LinkFate::Deliver);
        // Byzantine traffic never pollutes the per-session view.
        m.bill(link(2, 3), false, 4, &cost("bb", Some(0), 99, 9), LinkFate::Deliver);
        // Unmultiplexed traffic has no session bucket.
        m.bill(link(0, 3), true, 8, &cost("bb", None, 1, 0), LinkFate::Deliver);
        let s0 = &m.per_session[&0];
        assert_eq!(s0.counters.words, 6);
        assert_eq!(s0.counters.messages, 2);
        assert_eq!(s0.counters.constituent_sigs, 1);
        assert_eq!(s0.counters.bytes, 192);
        assert_eq!((s0.first_round, s0.last_round), (3, 7));
        let s1 = &m.per_session[&1];
        assert_eq!(s1.counters.words, 10);
        assert_eq!((s1.first_round, s1.last_round), (5, 5));
        assert_eq!(m.per_session.len(), 2);
    }

    #[test]
    fn per_round_series_grows() {
        let mut m = Metrics::default();
        m.bill(link(0, 1), true, 4, &cost("x", None, 7, 0), LinkFate::Deliver);
        assert_eq!(m.words_per_round, vec![0, 0, 0, 0, 7]);
    }

    #[test]
    fn advance_stats_total_and_merge() {
        let mut a = AdvanceStats { quorum: 3, timeout: 1 };
        a.merge(&AdvanceStats { quorum: 2, timeout: 5 });
        assert_eq!(a, AdvanceStats { quorum: 5, timeout: 6 });
        assert_eq!(a.total(), 11);
    }

    #[test]
    fn merge_counters() {
        let mut a = Counters { words: 1, messages: 2, constituent_sigs: 3, bytes: 4 };
        let b = Counters { words: 10, messages: 20, constituent_sigs: 30, bytes: 40 };
        a.merge(&b);
        assert_eq!(a, Counters { words: 11, messages: 22, constituent_sigs: 33, bytes: 44 });
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for us in [0, 1, 2, 3, 500, 1_000, 4_000_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_us(), 4_000_000);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[8], 1); // 500 ∈ [256, 512)
        assert_eq!(h.buckets()[9], 1); // 1000 ∈ [512, 1024)
        assert_eq!(h.buckets()[21], 1); // open-ended tail
        assert!(h.quantile(0.5) <= 512);
        assert!(h.quantile(1.0) >= 2_097_152);
        assert_eq!(LatencyHistogram::default().quantile(0.9), 0);
    }

    #[test]
    fn latency_histogram_merge() {
        let mut a = LatencyHistogram::default();
        a.record_us(10);
        let mut b = LatencyHistogram::default();
        b.record_us(100);
        b.record_us(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_us(), 100);
        assert_eq!(a.mean_us(), 39);
    }

    #[test]
    fn service_stats_occupancy_and_clients() {
        let mut a = ServiceStats { batches_proposed: 2, batched_ops: 8, ..Default::default() };
        a.client_mut(7).rejected = 2;
        a.client_mut(7).rejected += 1;
        assert_eq!(a.mean_occupancy(), 4.0);
        assert_eq!(a.per_client[&7].rejected, 3);
        assert_eq!(ServiceStats::default().mean_occupancy(), 0.0);
    }

    #[test]
    fn per_link_accounting() {
        let mut m = Metrics::default();
        let c = cost("x", None, 1, 0);
        m.bill(link(0, 1), true, 0, &c, LinkFate::Deliver);
        m.bill(link(0, 1), true, 0, &c, LinkFate::DelayRounds(2));
        m.bill(link(0, 1), true, 0, &c, LinkFate::Drop);
        m.bill(link(0, 1), true, 0, &c, LinkFate::Sever);
        m.admit(link(0, 1));
        m.admit(link(1, 0));
        let l01 = LinkStats { sent: 4, delivered: 1, dropped: 2, delayed: 1, bytes: 128 };
        assert_eq!(m.link(ProcessId(0), ProcessId(1)), l01);
        assert_eq!(m.link(ProcessId(1), ProcessId(0)).delivered, 1);
        assert_eq!(m.link(ProcessId(2), ProcessId(0)), LinkStats::default());
        assert_eq!(m.total_dropped(), 2);
        assert_eq!(m.correct.words, 4, "every copy was sent, whatever its fate");
    }

    #[test]
    fn targets_skip_ill_formed_destinations_and_include_the_sender() {
        let ids = |dest| targets(dest, 3).map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(ids(Dest::All), [0, 1, 2]);
        assert_eq!(ids(Dest::To(ProcessId(2))), [2]);
        assert_eq!(ids(Dest::To(ProcessId(3))), [0u32; 0]);
    }

    /// One billed copy, or one admission, of a generated stream.
    #[derive(Clone, Debug)]
    struct Entry {
        link: Link,
        correct: bool,
        round: u64,
        cost: MessageCost,
        fate: LinkFate,
    }

    impl Entry {
        fn apply(&self, m: &mut Metrics) {
            m.bill(self.link, self.correct, self.round, &self.cost, self.fate);
            if self.fate == LinkFate::Deliver {
                m.admit(self.link);
            }
        }
    }

    /// Decodes one stream entry from 64 generated bits.
    fn entry(mut bits: u64) -> Entry {
        let mut take = |bound: u64| {
            let v = bits % bound;
            bits /= bound;
            v
        };
        let from = take(12) as u32;
        let to = (from + 1 + take(11) as u32) % 12;
        let fate = [LinkFate::Deliver, LinkFate::Drop, LinkFate::Sever, LinkFate::DelayRounds(3)]
            [take(4) as usize];
        let component = ["bb/vetting", "weak-ba/phases", "fallback"][take(3) as usize];
        let words = 1 + take(8);
        Entry {
            link: link(from, to),
            correct: take(2) == 0,
            round: take(40),
            cost: cost(component, take(4).checked_sub(1), words, words / 2),
            fate,
        }
    }

    proptest! {
        // The paced backends bill into one shard per process thread and
        // fold the shards at the end; the DES bills into one ledger. Both
        // must read the same, however the stream was split and in
        // whichever order the shards are folded.
        #[test]
        fn shards_merged_in_any_order_equal_one_ledger(
            stream in proptest::collection::vec(any::<u64>(), 0..120),
            // One sort key per shard: how many there are, and the order
            // they are folded in.
            keys in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let mut whole = Metrics::default();
            let mut shards = vec![Metrics::default(); keys.len()];
            for bits in stream {
                let e = entry(bits);
                e.apply(&mut whole);
                e.apply(&mut shards[(bits >> 48) as usize % keys.len()]);
            }
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut folded = Metrics::default();
            for i in order {
                folded.merge(&shards[i]);
            }
            prop_assert_eq!(
                serde_json::to_string(&folded).unwrap(),
                serde_json::to_string(&whole).unwrap()
            );
        }
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn metrics_roundtrip_through_json() {
        let bb =
            MessageCost { words: 3, sigs: 2, bytes: 77, component: "bb/vetting", session: Some(0) };
        let fallback =
            MessageCost { words: 5, sigs: 1, bytes: 33, component: "fallback", session: Some(1) };
        let to_p1 = Link { from: ProcessId(0), to: ProcessId(1) };
        // A two-digit id: the key text is `p10->p2`, which sorts before
        // `p2->…` as a string and after it as a link.
        let from_p10 = Link { from: ProcessId(10), to: ProcessId(2) };
        let mut m = Metrics::default();
        m.bill(to_p1, true, 0, &bb, LinkFate::Drop);
        m.bill(from_p10, false, 2, &fallback, LinkFate::Deliver);
        m.admit(from_p10);
        m.rounds = 3;
        m.round_latency.record_us(250);
        m.recovery.crash_restarts = 2;
        m.recovery.replayed_records = 17;
        m.recovery.refused_equivocations = 1;
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains(r#""p0->p1":{"#) && json.contains(r#""p10->p2":{"#), "{json}");
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.correct, m.correct);
        assert_eq!(back.recovery, m.recovery);
        assert_eq!(back.byzantine, m.byzantine);
        assert_eq!(back.words_per_round, m.words_per_round);
        assert_eq!(back.rounds, 3);
        assert_eq!(back.by_component.get("bb/vetting"), m.by_component.get("bb/vetting"));
        assert_eq!(back.round_latency, m.round_latency);
        assert_eq!(back.per_link, m.per_link);
        assert_eq!(back.link(ProcessId(10), ProcessId(2)).delivered, 1);
    }
}

//! Communication-complexity accounting.
//!
//! The paper measures "the maximum number of words sent by all correct
//! processes, across all runs" (§2). The simulator therefore splits every
//! counter by whether the sender is correct; protocol complexity reads
//! [`Metrics::correct`], while Byzantine traffic is tracked separately for
//! diagnostics. Constituent-signature counts reproduce the Dolev–Reischuk
//! `Ω(nt)` signature bound (experiment E4).

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
    /// Adds one message's costs.
    pub fn record(&mut self, words: u64, sigs: u64, bytes: u64) {
        self.words += words;
        self.messages += 1;
        self.constituent_sigs += sigs;
        self.bytes += bytes;
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
    fn record(&mut self, round: u64, words: u64, sigs: u64, bytes: u64) {
        if self.counters.messages == 0 {
            self.first_round = round;
        }
        self.first_round = self.first_round.min(round);
        self.last_round = self.last_round.max(round);
        self.counters.record(words, sigs, bytes);
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
/// silent rounds necessarily advance on timeout. All-zero for backends
/// that predate cause recording (the lockstep simulator).
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
    /// Processes that crashed and restarted during the run.
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
    /// (`meba_sim::SessionSpawnError`); 0 in any healthy run.
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

    /// Component-wise sum (histograms merged bucket-wise).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.ops_submitted += other.ops_submitted;
        self.ops_accepted += other.ops_accepted;
        self.ops_rejected += other.ops_rejected;
        self.ops_committed += other.ops_committed;
        self.ops_deduped += other.ops_deduped;
        self.batches_proposed += other.batches_proposed;
        self.batched_ops += other.batched_ops;
        self.commit_latency_rounds.merge(&other.commit_latency_rounds);
        self.session_collisions += other.session_collisions;
        self.skipped_slots += other.skipped_slots;
        self.slots_transferred += other.slots_transferred;
        self.transfer_certs_verified += other.transfer_certs_verified;
        self.transfer_certs_rejected += other.transfer_certs_rejected;
        self.transfer_vouches_accepted += other.transfer_vouches_accepted;
        self.transfer_bytes += other.transfer_bytes;
        self.transfer_donor_retries += other.transfer_donor_retries;
        self.applied_conflicts += other.applied_conflicts;
        for (client, stats) in &other.per_client {
            let mine = self.per_client.entry(*client).or_default();
            mine.submitted += stats.submitted;
            mine.accepted += stats.accepted;
            mine.rejected += stats.rejected;
            mine.committed += stats.committed;
        }
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
    /// Delivery accounting per directed link, keyed `"p0->p1"` (see
    /// [`Metrics::link_key`]). Self-links are never recorded.
    pub per_link: BTreeMap<String, LinkStats>,
    /// Correct-process counters broken down by protocol instance, for
    /// session-multiplexed runs (empty when no message carries a
    /// [`crate::Message::session`] tag).
    pub per_session: BTreeMap<u64, SessionStats>,
    /// Crash-recovery accounting (all-zero for runs without
    /// `CrashRestart` fault injection).
    pub recovery: RecoveryStats,
    /// Round-advance causes (quorum vs timeout), summed over processes
    /// and rounds. All-zero for the lockstep simulator, which has no
    /// notion of per-process advancement.
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

impl Metrics {
    /// Records one sent message. `session` is the message's instance tag
    /// ([`crate::Message::session`]); `None` for unmultiplexed traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        sender: ProcessId,
        sender_correct: bool,
        component: &'static str,
        session: Option<u64>,
        round: u64,
        words: u64,
        sigs: u64,
        bytes: u64,
    ) {
        self.per_process.entry(sender.0).or_default().record(words, sigs, bytes);
        if sender_correct {
            self.correct.record(words, sigs, bytes);
            self.by_component.entry(component.to_string()).or_default().record(words, sigs, bytes);
            if let Some(s) = session {
                self.per_session.entry(s).or_default().record(round, words, sigs, bytes);
            }
            if self.words_per_round.len() <= round as usize {
                self.words_per_round.resize(round as usize + 1, 0);
            }
            self.words_per_round[round as usize] += words;
        } else {
            self.byzantine.record(words, sigs, bytes);
        }
    }

    /// Words sent by correct processes — the paper's headline metric.
    pub fn correct_words(&self) -> u64 {
        self.correct.words
    }

    /// Canonical [`Metrics::per_link`] key for the directed link
    /// `from → to`.
    pub fn link_key(from: ProcessId, to: ProcessId) -> String {
        format!("{from}->{to}")
    }

    /// Mutable delivery stats for `from → to`, created on first use.
    pub fn link_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut LinkStats {
        self.per_link.entry(Self::link_key(from, to)).or_default()
    }

    /// Delivery stats for `from → to` (zeroed if the link never carried a
    /// message).
    pub fn link(&self, from: ProcessId, to: ProcessId) -> LinkStats {
        self.per_link.get(&Self::link_key(from, to)).copied().unwrap_or_default()
    }

    /// Sum of `dropped` over all links.
    pub fn total_dropped(&self) -> u64 {
        self.per_link.values().map(|s| s.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_and_byzantine_split() {
        let mut m = Metrics::default();
        m.record(ProcessId(0), true, "bb", None, 0, 3, 2, 96);
        m.record(ProcessId(1), false, "bb", None, 0, 100, 50, 4_000);
        assert_eq!(m.correct.words, 3);
        assert_eq!(m.correct.messages, 1);
        assert_eq!(m.correct.constituent_sigs, 2);
        assert_eq!(m.correct.bytes, 96);
        assert_eq!(m.byzantine.words, 100);
        assert_eq!(m.byzantine.bytes, 4_000);
        assert_eq!(m.correct_words(), 3);
    }

    #[test]
    fn component_breakdown() {
        let mut m = Metrics::default();
        m.record(ProcessId(0), true, "bb", None, 0, 1, 0, 10);
        m.record(ProcessId(0), true, "weak-ba", None, 1, 2, 1, 20);
        m.record(ProcessId(2), true, "weak-ba", None, 1, 2, 1, 20);
        assert_eq!(m.by_component["bb"].words, 1);
        assert_eq!(m.by_component["weak-ba"].words, 4);
        assert_eq!(m.by_component["weak-ba"].messages, 2);
    }

    #[test]
    fn per_session_breakdown_tracks_span_and_counters() {
        let mut m = Metrics::default();
        m.record(ProcessId(0), true, "bb", Some(0), 3, 2, 1, 64);
        m.record(ProcessId(1), true, "bb", Some(0), 7, 4, 0, 128);
        m.record(ProcessId(0), true, "bb", Some(1), 5, 10, 2, 0);
        // Byzantine traffic never pollutes the per-session view.
        m.record(ProcessId(2), false, "bb", Some(0), 4, 99, 9, 1);
        // Unmultiplexed traffic has no session bucket.
        m.record(ProcessId(0), true, "bb", None, 8, 1, 0, 0);
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
        m.record(ProcessId(0), true, "x", None, 4, 7, 0, 0);
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
    fn service_stats_occupancy_merge_and_clients() {
        let mut a = ServiceStats {
            ops_submitted: 10,
            ops_accepted: 8,
            ops_rejected: 2,
            ops_committed: 8,
            batches_proposed: 2,
            batched_ops: 8,
            ..Default::default()
        };
        a.commit_latency_rounds.record_us(40);
        let c = a.client_mut(7);
        c.submitted = 10;
        c.accepted = 8;
        c.rejected = 2;
        c.committed = 8;
        assert_eq!(a.mean_occupancy(), 4.0);
        let mut b = ServiceStats {
            ops_rejected: 1,
            batches_proposed: 1,
            batched_ops: 6,
            ..Default::default()
        };
        b.client_mut(7).rejected = 1;
        b.client_mut(9).accepted = 6;
        a.merge(&b);
        assert_eq!(a.ops_rejected, 3);
        assert_eq!(a.batched_ops, 14);
        assert_eq!(a.per_client[&7].rejected, 3);
        assert_eq!(a.per_client[&9].accepted, 6);
        assert_eq!(ServiceStats::default().mean_occupancy(), 0.0);
    }

    #[test]
    fn per_link_accounting() {
        let mut m = Metrics::default();
        m.link_mut(ProcessId(0), ProcessId(1)).sent += 3;
        m.link_mut(ProcessId(0), ProcessId(1)).dropped += 1;
        m.link_mut(ProcessId(1), ProcessId(0)).delivered += 2;
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).sent, 3);
        assert_eq!(m.link(ProcessId(0), ProcessId(1)).dropped, 1);
        assert_eq!(m.link(ProcessId(1), ProcessId(0)).delivered, 2);
        assert_eq!(m.link(ProcessId(2), ProcessId(0)), LinkStats::default());
        assert_eq!(m.total_dropped(), 1);
        assert_eq!(Metrics::link_key(ProcessId(0), ProcessId(1)), "p0->p1");
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn metrics_roundtrip_through_json() {
        let mut m = Metrics::default();
        m.record(ProcessId(0), true, "bb/vetting", Some(0), 0, 3, 2, 77);
        m.record(ProcessId(1), false, "fallback", Some(1), 2, 5, 1, 33);
        m.rounds = 3;
        m.round_latency.record_us(250);
        m.link_mut(ProcessId(0), ProcessId(1)).sent = 4;
        m.link_mut(ProcessId(0), ProcessId(1)).dropped = 1;
        m.recovery.crash_restarts = 2;
        m.recovery.replayed_records = 17;
        m.recovery.refused_equivocations = 1;
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.correct, m.correct);
        assert_eq!(back.recovery, m.recovery);
        assert_eq!(back.byzantine, m.byzantine);
        assert_eq!(back.words_per_round, m.words_per_round);
        assert_eq!(back.rounds, 3);
        assert_eq!(back.by_component.get("bb/vetting"), m.by_component.get("bb/vetting"));
        assert_eq!(back.round_latency, m.round_latency);
        assert_eq!(back.per_link, m.per_link);
    }
}

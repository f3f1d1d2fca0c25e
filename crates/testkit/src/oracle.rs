//! The one oracle for finished runs.
//!
//! [`decided`] checks a finished run of a single-shot protocol family —
//! BB, weak BA, strong BA, the recursive fallback BA — or of the
//! replicated log, whose decision is the whole log. One fold over the
//! correct processes reports four kinds of [`Violation`]: a correct
//! process that did not decide, two different decisions, a broken
//! validity rule, and correct words above the family's Table 1 bound.
//! Each family's rules are stated once, by its [`Probe`].
//!
//! [`service`] checks a finished run of correct [`ServiceProc`] replicas
//! for the service's safety statements — applied-prefix convergence and
//! exactly-once — plus zero conflict counters and no double binding in
//! any journal. [`fold_journals`] is the journal half on its own, for
//! runs of other protocols (the journal-backed weak BA of E14 and
//! `tests/recovery_integration.rs`): every `Record::Signed` and every
//! `Record::Proposed` goes into one `(signer, context) → digest` map.
//! It returns a [`Verdict`] — one line per violation plus the numbers
//! callers read — and never checks liveness: whether the whole log was
//! applied or every scripted op committed is the caller's scenario.

use crate::recovery::DoubleSignDetector;
use crate::service::ServiceProc;
use crate::{correct, corrupt_ids, BbProc, Fault, LogProc, RecWbaProc, SbaProc};
use meba_core::{Decision, LockstepAdapter, SubProtocol, Validity, WeakBa};
use meba_crypto::{Digest, ProcessId, WireCodec};
use meba_engine::ClusterReport;
use meba_fallback::{RecursiveBa, RecursiveBaFactory, Scope, BASE_SCOPE};
use meba_journal::{Journal, MemBuffer, Record};
use meba_service::Batch;
use meba_sim::{Actor, AnyActor, Message, Metrics};
use meba_smr::LogEntry;
use std::borrow::Borrow;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// One correct process of a finished run, read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reading<T, V> {
    /// Its decision; `None` if it did not decide.
    pub decision: Option<T>,
    /// Its input, as the family's validity rule reads it.
    pub proposal: V,
    /// The step at which it decided, where the family reports one.
    pub decided_at: Option<u64>,
    /// Whether it ran `A_fallback`.
    pub fell_back: bool,
    /// Whether it led a phase it could not keep silent.
    pub led_nonsilent_phase: bool,
}

/// A protocol family's rules, stated once: how a correct process is read
/// back, when the decisions are valid, and how many words the correct
/// processes may send (docs/CORRECTNESS.md, "What every run is checked
/// for").
pub trait Probe: 'static {
    /// The actor a correct process of the family runs.
    type Actor: AnyActor;
    /// What a process decides.
    type Output: Clone + PartialEq + fmt::Debug;
    /// What a process proposes, as the validity rule reads it.
    type Proposal: Clone + PartialEq + fmt::Debug;

    /// Reads one correct process of a finished run.
    fn read(actor: &Self::Actor) -> Reading<Self::Output, Self::Proposal>;

    /// Whether the correct processes' `(id, decision, proposal)` triples
    /// keep the family's validity rule in a run with `f` faults. Only
    /// the processes that decided are held to it.
    fn valid(correct: &[Triple<Self>], f: u64) -> bool;

    /// The most words the correct processes of an `n`-process run with
    /// `f` faults may send; `actor` is any correct process of the run.
    fn word_bound(actor: &Self::Actor, n: u64, f: u64) -> u64;
}

/// One correct process as the fold sees it: `(id, decision, proposal)`.
pub type Triple<P> = (ProcessId, Option<<P as Probe>::Output>, <P as Probe>::Proposal);

/// Whether every process of `correct` that decided decided `want`.
fn all_decide<P: Probe>(correct: &[Triple<P>], want: &P::Output) -> bool {
    correct.iter().all(|(_, d, _)| d.as_ref().is_none_or(|d| d == want))
}

/// The proposal every process of `correct` made, if they all made the
/// same one.
fn unanimous<P: Probe>(correct: &[Triple<P>]) -> Option<&P::Proposal> {
    let ((_, _, first), rest) = correct.split_first()?;
    rest.iter().all(|(_, _, v)| v == first).then_some(first)
}

/// The `O(n(f+1))` shape of weak BA: `free·n` words at `f = 0`,
/// `per_fault·n·(f+1)` above.
fn adaptive(n: u64, f: u64, free: u64, per_fault: u64) -> u64 {
    if f == 0 {
        free * n
    } else {
        per_fault * n * (f + 1)
    }
}

/// BB's bound, per instance: `25·n` failure-free, and above that the sum
/// of its components' bounds (docs/CORRECTNESS.md §16). Every message
/// carries at most one BB value (2 words: the sender's value and its
/// signature) plus one signature or certificate, and a broadcast reaches
/// the `n − 1` others. Each of the `f` faults may be a crash-restart,
/// billed as correct, so each may lead one vetting and one weak-BA phase
/// non-silently and ask for help.
fn bb_bound(n: u64, f: u64) -> u64 {
    if f == 0 {
        return 25 * n;
    }
    let (t, others) = ((n - 1) / 2, n - 1);
    let dissemination = 2 * others;
    // A non-silent phase costs at most a help request, a value or idk
    // answer from everyone and the vetted value: 5 words per link. After
    // the first correct leader's phase every correct process holds a
    // value, so the other correct leaders are silent.
    let vetting = 5 * (f + 1) * others;
    // A non-silent phase costs at most a proposal, a vote or commit
    // reply from everyone, the commit certificate, a decide share from
    // everyone and the finalize certificate: 14 words per link.
    let phase = 14 * others;
    if f <= (n - t - 1) / 2 {
        // Lemma 6: the first correct leader's phase decides every correct
        // process, so at most `f + 1` phases are non-silent; the help
        // round is a request from, and an answer to, each fault.
        dissemination + vetting + (f + 1) * phase + 4 * f * others
    } else {
        // Every phase may be non-silent; everyone may ask for help
        // (1 word), answer every request (3) and send the fallback
        // certificate twice (4 each); then the fallback runs.
        dissemination + vetting + n * phase + 12 * n * others + bb_fallback_words(n, Scope::len)
    }
}

/// Words the recursive fallback BA sends inside BB, as its plan
/// (`meba_fallback::recursive`) lays it out, when `sends(scope)` members
/// of each scope send and every graded agreement certifies at most one
/// value. A scope of `m > BASE_SCOPE` members runs two graded agreements
/// and two certificate exchanges, and recurses into both halves; a base
/// scope runs interactive consistency. Every message is 3 words (one BB
/// value and one signature) but a vote, 4, and goes to the `m − 1`
/// others:
///
/// * graded agreement: each sender signs its input; if the senders reach
///   the scope's majority, each also echoes `C1`, votes and sends `C2` —
///   3 or 13 words per link;
/// * certificate exchange: each sender of the child half sends its share;
/// * interactive consistency: each sender's value is sent by it and
///   forwarded once by every other sender — `c²` messages.
///
/// The oracle's term has every member send; E15 checks it with `p1..pt`
/// silent against the measured `fallback` column.
pub fn bb_fallback_words(n: u64, sends: impl Fn(&Scope) -> usize) -> u64 {
    fn words(scope: Scope, sends: &dyn Fn(&Scope) -> usize) -> u64 {
        let (c, others) = (sends(&scope) as u64, scope.len() as u64 - 1);
        if scope.len() <= BASE_SCOPE {
            return 3 * c * c * others;
        }
        let ga = if c >= scope.majority() as u64 { 13 } else { 3 };
        let (l, r) = scope.split();
        let shares = (sends(&l) + sends(&r)) as u64;
        (2 * ga * c + 3 * shares) * others + words(l, sends) + words(r, sends)
    }
    words(Scope::full(n as usize), &sends)
}

/// Weak BA's bound. Lemma 6 keeps the adaptive path, `O(n(f+1))`, below
/// `f = (n − t − 1)/2`, and no measured run at that `f` fell back
/// (docs/CORRECTNESS.md §16); above it the run may pay the fallback's
/// `O(n²)`. `t` is read as `⌊(n − 1)/2⌋`, the testkit's resilience: a
/// cluster with a smaller `t` only widens the adaptive regime, so this
/// reading can only loosen its bound.
fn weak_ba_bound(n: u64, f: u64) -> u64 {
    let t = (n - 1) / 2;
    if f <= (n - t - 1) / 2 {
        adaptive(n, f, 16, 10)
    } else {
        fallback_bound(n)
    }
}

/// The recursive fallback BA's bound, at any `f`.
fn fallback_bound(n: u64) -> u64 {
    40 * n * n
}

/// Adaptive BB. Validity: if the sender is correct, every correct
/// process decides its value.
impl Probe for BbProc {
    type Actor = LockstepAdapter<Self>;
    type Output = Decision<u64>;
    type Proposal = Option<u64>;

    fn read(a: &Self::Actor) -> Reading<Decision<u64>, Option<u64>> {
        let p = a.inner();
        Reading {
            decision: p.output(),
            proposal: p.sender_input().copied(),
            decided_at: p.decided_at(),
            fell_back: p.used_fallback(),
            led_nonsilent_phase: p.led_nonsilent_phase(),
        }
    }

    fn valid(correct: &[Triple<Self>], _f: u64) -> bool {
        let sender = correct.iter().find_map(|(_, _, input)| *input);
        sender.is_none_or(|v| all_decide::<Self>(correct, &Decision::Value(v)))
    }

    fn word_bound(_: &Self::Actor, n: u64, f: u64) -> u64 {
        bb_bound(n, f)
    }
}

/// Weak BA's reading, shared by the plain and the journal-backed actor.
fn weak_ba_reading<P: Validity<u64>>(
    p: &WeakBa<u64, P, RecursiveBaFactory>,
) -> Reading<Decision<u64>, u64> {
    Reading {
        decision: p.output(),
        proposal: *p.input(),
        decided_at: p.decided_at(),
        fell_back: p.used_fallback(),
        led_nonsilent_phase: p.led_nonsilent_phase(),
    }
}

/// Weak BA's validity: with `f = 0` and every input equal to `v`, the
/// decision is `v`.
fn weak_validity<P: Probe<Output = Decision<u64>, Proposal = u64>>(
    correct: &[Triple<P>],
    f: u64,
) -> bool {
    f > 0 || unanimous::<P>(correct).is_none_or(|&v| all_decide::<P>(correct, &Decision::Value(v)))
}

/// Adaptive weak BA, under any validity predicate.
impl<P: Validity<u64> + 'static> Probe for WeakBa<u64, P, RecursiveBaFactory> {
    type Actor = LockstepAdapter<Self>;
    type Output = Decision<u64>;
    type Proposal = u64;

    fn read(a: &Self::Actor) -> Reading<Decision<u64>, u64> {
        weak_ba_reading(a.inner())
    }

    fn valid(correct: &[Triple<Self>], f: u64) -> bool {
        weak_validity::<Self>(correct, f)
    }

    fn word_bound(_: &Self::Actor, n: u64, f: u64) -> u64 {
        weak_ba_bound(n, f)
    }
}

/// Journal-backed weak BA: weak BA's rules.
impl Probe for RecWbaProc {
    type Actor = LockstepAdapter<Self>;
    type Output = Decision<u64>;
    type Proposal = u64;

    fn read(a: &Self::Actor) -> Reading<Decision<u64>, u64> {
        weak_ba_reading(a.inner().inner())
    }

    fn valid(correct: &[Triple<Self>], f: u64) -> bool {
        weak_validity::<Self>(correct, f)
    }

    fn word_bound(_: &Self::Actor, n: u64, f: u64) -> u64 {
        weak_ba_bound(n, f)
    }
}

/// Strong unanimity: if every correct input is `v`, the decision is `v`.
fn strong_unanimity<V, P: Probe<Output = V, Proposal = V>>(correct: &[Triple<P>]) -> bool {
    unanimous::<P>(correct).is_none_or(|v| all_decide::<P>(correct, v))
}

/// Binary strong BA, both constructors: `9·n` words at `f = 0`,
/// `40·n²` above — the recursive fallback's bound.
impl Probe for SbaProc {
    type Actor = LockstepAdapter<Self>;
    type Output = bool;
    type Proposal = bool;

    fn read(a: &Self::Actor) -> Reading<bool, bool> {
        let p = a.inner();
        Reading {
            decision: p.output(),
            proposal: p.input(),
            decided_at: p.decided_at(),
            fell_back: p.used_fallback(),
            led_nonsilent_phase: false,
        }
    }

    fn valid(correct: &[Triple<Self>], _f: u64) -> bool {
        strong_unanimity::<_, Self>(correct)
    }

    fn word_bound(_: &Self::Actor, n: u64, f: u64) -> u64 {
        if f == 0 {
            9 * n
        } else {
            fallback_bound(n)
        }
    }
}

/// The recursive fallback BA run standalone: strong unanimity, `40·n²`
/// words at any `f`.
impl Probe for RecursiveBa<u64> {
    type Actor = LockstepAdapter<Self>;
    type Output = u64;
    type Proposal = u64;

    fn read(a: &Self::Actor) -> Reading<u64, u64> {
        let p = a.inner();
        Reading {
            decision: p.output(),
            proposal: *p.input(),
            decided_at: None,
            fell_back: false,
            led_nonsilent_phase: false,
        }
    }

    fn valid(correct: &[Triple<Self>], _f: u64) -> bool {
        strong_unanimity::<_, Self>(correct)
    }

    fn word_bound(_: &Self::Actor, n: u64, _f: u64) -> u64 {
        fallback_bound(n)
    }
}

/// The replicated log: its decision is the whole log, once every slot
/// committed. Each slot is a BB instance, which holds its own validity
/// rule; the log adds agreement on the sequence and `slots ×` BB's bound.
impl Probe for LogProc {
    type Actor = Self;
    type Output = Vec<LogEntry<u64>>;
    type Proposal = ();

    fn read(log: &Self) -> Reading<Vec<LogEntry<u64>>, ()> {
        let complete = log.log().len() as u64 == log.total_slots();
        Reading {
            decision: complete.then(|| log.log().to_vec()),
            proposal: (),
            decided_at: None,
            fell_back: false,
            led_nonsilent_phase: false,
        }
    }

    fn valid(_: &[Triple<Self>], _f: u64) -> bool {
        true
    }

    fn word_bound(log: &Self, n: u64, f: u64) -> u64 {
        log.total_slots() * bb_bound(n, f)
    }
}

/// One way a run broke its family's promise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Termination: a correct process did not decide.
    Undecided(ProcessId),
    /// Agreement: the first two correct processes that decided
    /// differently.
    Disagreement(ProcessId, ProcessId),
    /// The family's validity rule does not hold.
    Validity,
    /// Correct words exceed the family's bound.
    Words {
        /// Words the correct processes sent.
        words: u64,
        /// The family's bound for the run's `n` and `f`.
        bound: u64,
    },
}

impl Violation {
    /// Whether this is a safety violation — termination or agreement,
    /// which hold whatever the timing (docs/CORRECTNESS.md §12) — rather
    /// than validity or the word bound, which hold only inside Lemma 18's
    /// `delay + skew < round`.
    pub fn is_safety(&self) -> bool {
        matches!(self, Violation::Undecided(_) | Violation::Disagreement(..))
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Undecided(p) => write!(f, "termination: {p} did not decide"),
            Violation::Disagreement(a, b) => {
                write!(f, "agreement: {a} and {b} decided differently")
            }
            Violation::Validity => write!(f, "validity: the family's rule does not hold"),
            Violation::Words { words, bound } => {
                write!(f, "word bound: {words} correct words exceed {bound}")
            }
        }
    }
}

/// What [`decided`] found: every violation, the decisions, and the
/// numbers the experiments read off a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decided<T> {
    /// Every violation, in check order; empty for a correct run.
    pub violations: Vec<Violation>,
    /// Per process, in id order: its decision, `None` for a faulty or
    /// undecided process.
    pub decisions: Vec<Option<T>>,
    /// Earliest decision step among correct processes (0 when the
    /// family reports none).
    pub first: u64,
    /// Latest decision step among correct processes.
    pub last: u64,
    /// Correct processes that ran the fallback.
    pub fell_back: usize,
    /// Correct processes that led a non-silent phase.
    pub nonsilent_leaders: usize,
    /// Words the correct processes sent.
    pub words: u64,
    /// The family's bound on them.
    pub word_bound: u64,
}

impl<T: Clone + fmt::Debug> Decided<T> {
    /// The decision of every correct process that decided, when they all
    /// agree and at least one did.
    pub fn decision(&self) -> Option<&T> {
        let split = self.violations.iter().any(|v| matches!(v, Violation::Disagreement(..)));
        self.decisions.iter().flatten().next().filter(|_| !split)
    }

    /// Whether every correct process decided, and all the same.
    pub fn is_safe(&self) -> bool {
        !self.violations.iter().any(Violation::is_safety)
    }

    /// Asserts termination and agreement, which hold whatever the timing,
    /// and returns the common decision.
    ///
    /// # Panics
    ///
    /// Panics with every safety violation listed.
    pub fn assert_safe(&self) -> T {
        self.assert(Violation::is_safety)
    }

    /// Asserts every check — termination, agreement, validity and the
    /// word bound, which together hold inside Lemma 18's
    /// `delay + skew < round` — and returns the common decision.
    ///
    /// # Panics
    ///
    /// Panics with every violation listed.
    pub fn assert_in_model(&self) -> T {
        self.assert(|_| true)
    }

    fn assert(&self, counts: fn(&Violation) -> bool) -> T {
        let bad: Vec<String> =
            self.violations.iter().filter(|v| counts(v)).map(ToString::to_string).collect();
        let (count, lines, decisions) = (bad.len(), bad.join("\n"), &self.decisions);
        assert!(bad.is_empty(), "{count} violation(s), decisions {decisions:?}:\n{lines}");
        self.decision().expect("a safe run has a correct process that decided").clone()
    }
}

/// The one fold: checks the correct processes' `(id, decision,
/// proposal)` triples for termination, agreement and `P`'s validity
/// rule at `f` faults, and the ledger's correct `words` against `bound`.
fn judge<P: Probe>(correct: &[Triple<P>], f: u64, words: u64, bound: u64) -> Vec<Violation> {
    let mut bad: Vec<Violation> = (correct.iter())
        .filter(|(_, d, _)| d.is_none())
        .map(|(p, ..)| Violation::Undecided(*p))
        .collect();
    let mut deciders = correct.iter().filter_map(|(p, d, _)| Some((*p, d.as_ref()?)));
    if let Some((a, first)) = deciders.next() {
        if let Some((b, _)) = deciders.find(|(_, d)| *d != first) {
            bad.push(Violation::Disagreement(a, b));
        }
    }
    if !P::valid(correct, f) {
        bad.push(Violation::Validity);
    }
    if words > bound {
        bad.push(Violation::Words { words, bound });
    }
    bad
}

/// Checks a finished run of protocol family `P`: `actors` are the run's
/// actors (a cluster report's `actors`), `metrics` its ledger, and
/// `faults` the matrix that says which processes are correct. A run has `f = ` the processes `faults`
/// marks Byzantine plus its crash-restarts, each of which counts as one
/// fault (the runtimes count the crashes of correct processes only, so a
/// crashed process `faults` already marks is not counted twice).
///
/// # Panics
///
/// Panics at a correct process that is not a `P::Actor`.
pub fn decided<P: Probe>(
    actors: &[impl Borrow<dyn AnyActor<Msg = <P::Actor as Actor>::Msg>>],
    metrics: &Metrics,
    faults: &[Fault],
) -> Decided<P::Output> {
    let n = faults.len() as u64;
    let f = corrupt_ids(faults).len() as u64 + metrics.recovery.crash_restarts;
    let mut run = Decided {
        violations: Vec::new(),
        decisions: vec![None; faults.len()],
        first: u64::MAX,
        last: 0,
        fell_back: 0,
        nonsilent_leaders: 0,
        words: metrics.correct_words(),
        word_bound: u64::MAX,
    };
    let mut triples = Vec::new();
    for a in correct::<P::Actor, _>(actors, faults) {
        let r = P::read(a);
        if let Some(at) = r.decided_at {
            run.first = run.first.min(at);
            run.last = run.last.max(at);
        }
        run.fell_back += usize::from(r.fell_back);
        run.nonsilent_leaders += usize::from(r.led_nonsilent_phase);
        run.word_bound = P::word_bound(a, n, f);
        triples.push((a.id(), r.decision, r.proposal));
    }
    // No step reported: both ends read 0.
    run.first = run.first.min(run.last);
    run.violations = judge::<P>(&triples, f, run.words, run.word_bound);
    for (p, decision, _) in triples {
        run.decisions[p.index()] = decision;
    }
    run
}

/// What [`service`] found: every violation, one line each, and the
/// numbers a caller reads off a safe run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// One line per violation; empty for a safe run.
    pub violations: Vec<String>,
    /// Contiguously applied slots, per replica, in argument order.
    pub applied_slots: Vec<u64>,
    /// Distinct `(client, seq)` ops in the longest applied prefix.
    pub committed_ops: u64,
    /// Slots applied as `⊥`, summed over replicas.
    pub bot_slots: u64,
    /// Slots adopted by state transfer, summed over replicas.
    pub transferred_slots: u64,
}

impl Verdict {
    /// Whether no violation was found.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// Asserts the run was safe.
    ///
    /// # Panics
    ///
    /// Panics with every violation listed.
    pub fn assert_safe(&self) {
        self.assert_safe_noting("");
    }

    /// [`Verdict::assert_safe`] on a wall-clock attempt: a violation also
    /// names the attempt's `overruns` and whether it `completed`, so a run
    /// outside Lemma 18's timing can be told from a bug without
    /// instrumenting.
    ///
    /// # Panics
    ///
    /// Panics with the attempt's counts and every violation listed.
    pub fn assert_safe_in<M: Message>(&self, attempt: &ClusterReport<M>) {
        let (overruns, completed) = (attempt.overruns, attempt.completed);
        self.assert_safe_noting(&format!(
            " in an attempt with {overruns} overrun(s), completed {completed}"
        ));
    }

    fn assert_safe_noting(&self, attempt: &str) {
        let (count, lines) = (self.violations.len(), self.violations.join("\n"));
        assert!(self.is_safe(), "{count} safety violation(s){attempt}:\n{lines}");
    }
}

/// The records of an in-memory journal, in append order.
///
/// # Panics
///
/// Panics if replay fails (in-memory buffers cannot fail I/O).
pub fn records(buf: &MemBuffer) -> Vec<Record> {
    Journal::in_memory(buf.clone()).replay().expect("in-memory replay cannot fail").records
}

/// The one journal fold: every `Signed` and `Proposed` record of
/// `journals[i]` (process `i`'s journal) is bound into `det`, so a
/// conflict with an earlier binding — journaled or observed on the wire
/// — is one of `det`'s conflicts. A `Proposed` record binds the context
/// "slot `s` proposed" to the digest of its value.
pub fn fold_journals(det: &mut DoubleSignDetector, journals: &[Vec<Record>]) {
    for (i, records) in journals.iter().enumerate() {
        let signer = ProcessId(i as u32);
        for rec in records {
            match rec {
                Record::Signed { context, digest } => det.observe(signer, context.clone(), *digest),
                Record::Proposed { slot, value } => {
                    let context = format!("meba/service/proposed slot {slot}").into_bytes();
                    det.observe(signer, context, Digest::of(value));
                }
                _ => {}
            }
        }
    }
}

/// Checks a finished run of correct replicas. `journals[i]` is process
/// `i`'s journal (see [`crate::ServiceHarness::journals`]); the two
/// slices are read independently. Four checks:
///
/// * **Convergence** — wherever two replicas applied a slot, they
///   applied the same bytes.
/// * **Exactly-once** — folding a replica's applied batches in slot
///   order, each `(client, seq)` is first placed where `committed_at`
///   says, `ops_committed` is the number of distinct ops, and `kv` holds
///   exactly the fold's writes.
/// * **Zero conflict counters** — `applied_conflicts` and
///   `session_collisions` are 0.
/// * **No double binding** — [`fold_journals`] finds no conflict.
pub fn service(replicas: &[&ServiceProc], journals: &[Vec<Record>]) -> Verdict {
    let mut v = Verdict::default();
    let bad = &mut v.violations;

    let slots = replicas.iter().map(|r| r.log().total_slots()).max().unwrap_or(0);
    for slot in 0..slots {
        let mut applied =
            (0..).zip(replicas).filter_map(|(i, r)| Some((i, r.applied_value(slot)?)));
        let Some((j, want)) = applied.next() else { continue };
        for (i, _) in applied.filter(|&(_, value)| value != want) {
            bad.push(format!("slot {slot} diverges: replica {i} applied another value than {j}"));
        }
    }

    for (i, r) in replicas.iter().enumerate() {
        let (mut placed, mut kv) = (BTreeMap::new(), BTreeMap::new());
        for slot in 0..r.applied_slots() {
            let bytes = r.applied_value(slot).unwrap_or_default();
            if bytes.is_empty() {
                v.bot_slots += 1;
                continue;
            }
            let Ok(batch) = Batch::from_wire_bytes(bytes) else {
                bad.push(format!("replica {i}: slot {slot} does not decode as a batch"));
                continue;
            };
            for (index, op) in (0u32..).zip(batch.ops()) {
                if let Entry::Vacant(e) = placed.entry((op.client, op.seq)) {
                    e.insert((slot, index));
                    kv.insert(op.key, op.value);
                }
            }
        }
        for (&(client, seq), &at) in &placed {
            let said = r.committed_at(client, seq);
            if said != Some(at) {
                bad.push(format!(
                    "replica {i}: op ({client}, {seq}) first applied at {at:?}, committed_at {said:?}"
                ));
            }
        }
        let (st, distinct) = (r.stats(), placed.len() as u64);
        let committed = st.ops_committed;
        if committed != distinct {
            bad.push(format!(
                "replica {i}: {committed} ops committed, {distinct} distinct applied"
            ));
        }
        if *r.kv() != kv {
            bad.push(format!("replica {i}: kv is not the fold of its applied batches"));
        }
        if st.applied_conflicts + st.session_collisions != 0 {
            let (a, s) = (st.applied_conflicts, st.session_collisions);
            bad.push(format!("replica {i}: {a} applied conflicts, {s} session collisions"));
        }
        v.applied_slots.push(r.applied_slots());
        v.committed_ops = v.committed_ops.max(distinct);
        v.transferred_slots += st.slots_transferred;
    }

    let mut det = DoubleSignDetector::new();
    fold_journals(&mut det, journals);
    for c in det.conflicts() {
        let (who, context) = (c.signer.index(), String::from_utf8_lossy(&c.context));
        bad.push(format!(
            "journal {who}: {context:?} bound twice, {:?} then {:?}",
            c.first, c.second
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_replica, ServiceHarness, ServiceM};
    use crate::{des, log_round_budget, Timing, WbaProc};
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_service::{Op, ServiceConfig};

    /// A finished 3-replica, 3-slot cluster whose replica 0 was offered
    /// the one op `(client 4, seq 0)`: key 2 := `value`.
    fn cluster(value: u64) -> (ServiceHarness, ClusterReport<ServiceM>) {
        let h = ServiceHarness::new(3, ServiceConfig { total_slots: 3, ..Default::default() });
        h.port(0).submit(Op { client: 4, seq: 0, key: 2, value }).unwrap();
        let config = DesConfig { max_rounds: log_round_budget(3, 3), ..DesConfig::default() };
        let report = run_des_cluster(h.actors(), None, config).unwrap();
        assert!(report.completed);
        (h, report)
    }

    fn replica(report: &ClusterReport<ServiceM>, i: usize) -> &ServiceProc {
        service_replica(report.actors[i].as_ref())
    }

    #[test]
    fn replicas_of_two_clusters_diverge_at_slot_0() {
        let ((_, a), (_, b)) = (cluster(11), cluster(12));
        let v = service(&[replica(&a, 1), replica(&b, 1)], &[]);
        assert!(v.violations.iter().any(|l| l.starts_with("slot 0 diverges")), "{v:?}");
    }

    #[test]
    fn a_divergent_attempt_names_its_overruns_and_completion() {
        let ((_, a), (_, mut b)) = (cluster(11), cluster(12));
        let v = service(&[replica(&a, 1), replica(&b, 1)], &[]);
        (b.overruns, b.completed) = (426, false);
        let attempt = std::panic::AssertUnwindSafe(|| v.assert_safe_in(&b));
        let err = std::panic::catch_unwind(attempt).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.starts_with("1 safety violation(s) in an attempt with 426 overrun(s), completed false:\nslot 0 diverges"),
            "{msg}"
        );
    }

    #[test]
    fn a_second_binding_of_slot_0_is_a_double_bind() {
        let ((ha, a), (hb, _)) = (cluster(11), cluster(12));
        // Cluster b's replica 0 bound slot 0 to its own op: its journal,
        // appended after cluster a's, binds the slot a second time.
        let buf = MemBuffer::new();
        let mut journal = Journal::in_memory(buf.clone());
        for rec in ha.journals()[0].iter().chain(&hb.journals()[0]) {
            journal.append(rec).unwrap();
        }
        journal.flush().unwrap();
        let v = service(&[replica(&a, 0)], &[records(&buf)]);
        assert_eq!(v.violations.len(), 1, "{v:?}");
        assert!(v.violations[0].starts_with("journal 0: \"meba/service/proposed slot 0\""));
    }

    /// One row per violation kind and per family rule: each expects
    /// exactly the violations its check reports, so deleting a check
    /// from [`judge`] or a rule from its [`Probe`] fails that row.
    #[test]
    fn each_check_of_the_fold_has_a_row() {
        use Decision::{Bot, Value};
        use Violation::*;
        let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let rows: [(&str, Vec<Violation>, Vec<Violation>); 11] = [
            (
                "termination: p1 did not decide",
                judge::<BbProc>(&[(p0, Some(Value(7)), Some(7)), (p1, None, None)], 0, 0, 1),
                vec![Undecided(p1)],
            ),
            (
                "agreement: p1 decided 2, the others 1",
                judge::<WbaProc>(
                    &[(p0, Some(Value(1)), 1), (p1, Some(Value(2)), 2), (p2, Some(Value(1)), 1)],
                    1,
                    0,
                    1,
                ),
                vec![Disagreement(p0, p1)],
            ),
            (
                "agreement among the deciders only",
                judge::<SbaProc>(&[(p0, None, true), (p1, Some(false), false)], 1, 0, 1),
                vec![Undecided(p0)],
            ),
            (
                "word bound",
                judge::<SbaProc>(&[(p0, Some(true), true)], 0, 2, 1),
                vec![Words { words: 2, bound: 1 }],
            ),
            (
                "BB: a correct sender's value is decided",
                judge::<BbProc>(&[(p0, Some(Bot), Some(7)), (p1, Some(Bot), None)], 0, 0, 1),
                vec![Validity],
            ),
            (
                "BB: a faulty sender binds nothing",
                judge::<BbProc>(&[(p1, Some(Bot), None), (p2, Some(Bot), None)], 1, 0, 1),
                vec![],
            ),
            (
                "weak BA: unanimous inputs at f = 0 are decided",
                judge::<WbaProc>(&[(p0, Some(Value(4)), 3), (p1, Some(Value(4)), 3)], 0, 0, 1),
                vec![Validity],
            ),
            (
                "weak BA: any decision is valid at f > 0",
                judge::<WbaProc>(&[(p0, Some(Value(4)), 3), (p1, Some(Value(4)), 3)], 1, 0, 1),
                vec![],
            ),
            (
                "strong BA: unanimous correct inputs are decided at any f",
                judge::<SbaProc>(&[(p0, Some(false), true), (p1, Some(false), true)], 1, 0, 1),
                vec![Validity],
            ),
            (
                "strong BA: split inputs bind nothing",
                judge::<SbaProc>(&[(p0, Some(false), true), (p1, Some(false), false)], 0, 0, 1),
                vec![],
            ),
            (
                "recursive BA: strong unanimity",
                judge::<RecursiveBa<u64>>(&[(p0, Some(4), 5), (p1, Some(4), 5)], 0, 0, 1),
                vec![Validity],
            ),
        ];
        for (label, got, want) in rows {
            assert_eq!(got, want, "{label}");
        }
    }

    /// A crash-restart is one fault, counted once: it moves a run from the
    /// family's `f = 0` bound to its `f = 1` bound, and a process that
    /// crashed for good and is marked faulty is not counted again.
    #[test]
    fn a_crash_restart_counts_toward_f() {
        let (inputs, free) = ([2; 5], [Fault::None; 5]);
        let lockstep = des(crate::weak_ba_actors(&inputs, &free), &free, 0, &Timing::lockstep());
        let mut restarted = lockstep.metrics.clone();
        restarted.recovery.crash_restarts = 1;
        // On the DES, p2 crashes at round 1 and never rejoins; the run
        // counts it corrupt and the oracle reads it as marked faulty.
        let mut marked = free;
        marked[2] = Fault::CrashAt(1);
        let config = DesConfig {
            corrupt: corrupt_ids(&marked),
            max_rounds: crate::round_budget(5),
            process_fate: Some(crate::crash_restart(2, 1, u64::MAX)),
            ..DesConfig::default()
        };
        let des = run_des_cluster(crate::weak_ba_actors(&inputs, &free), None, config).unwrap();
        let rows = [
            ("failure-free", decided::<WbaProc>(&lockstep.actors, &lockstep.metrics, &free), 0),
            ("one restart", decided::<WbaProc>(&lockstep.actors, &restarted, &free), 1),
            ("one marked crash", decided::<WbaProc>(&des.actors, &des.metrics, &marked), 1),
        ];
        for (label, run, f) in rows {
            assert_eq!(run.word_bound, weak_ba_bound(5, f), "{label}");
        }
    }

    #[test]
    fn the_fold_flags_conflicting_digest_only() {
        let signed = |preimage: &[u8]| Record::Signed {
            context: b"meba/weakba/vote:slot".to_vec(),
            digest: Digest::of(preimage),
        };
        // p1 signs `a` twice (idempotent); p2 signs `b` (another signer).
        let mut journals = vec![vec![], vec![signed(b"a"), signed(b"a")], vec![signed(b"b")]];
        assert!(service(&[], &journals).is_safe());
        journals[1].push(signed(b"b"));
        let v = service(&[], &journals);
        assert_eq!(v.violations.len(), 1, "{v:?}");
        assert!(v.violations[0].starts_with("journal 1: "), "{v:?}");
    }
}

//! Turns a finished `svc_*` run into numbers: the correctness oracle,
//! the end-to-end metrics (from what the generator saw), and — for a
//! traced run — every per-layer metric, derived from the spans.

use crate::gen::{value_of, Kind};
use crate::result::{peak_rss_mb, RunResult};
use crate::spec::{defs, Workload};
use crate::stats::{mean, median, percentile, sort, tail};
use crate::svc::{OpRec, Outcome, SvcRun, CONNECTIONS, OP_TIMEOUT_NS};
use crate::wrap::{now_ns, ReplicaTrace, RoundSpan};
use meba::crypto::{Encoder, WireCodec};
use meba::journal::{Journal, Record};
use meba::prelude::{trusted_setup, Batch};
use meba::wire::frame::{read_frame, write_frame};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// An op the service answered in time.
fn served(o: &OpRec) -> bool {
    matches!(o.outcome, Outcome::Committed { .. } | Outcome::ReadOk { .. })
        && o.done_ns - o.due_ns <= OP_TIMEOUT_NS
}

fn read_value_ok(o: &OpRec) -> bool {
    match o.outcome {
        Outcome::ReadOk { value: Some(v) } => v == value_of(o.key),
        Outcome::ReadOk { value: None } => !o.after_ack,
        _ => true,
    }
}

/// Served, and with the right value.
fn answered(o: &OpRec) -> bool {
    served(o) && read_value_ok(o)
}

/// Refused with `Overloaded`, errored, answered wrongly, or without a
/// final reply [`OP_TIMEOUT_NS`] after its due time.
fn failed(o: &OpRec) -> bool {
    !answered(o)
}

/// Slots of the common applied prefix on which some replica holds a
/// different value than replica 0.
fn diverged_slots(run: &SvcRun) -> Vec<(u64, usize)> {
    let fin = &run.finished;
    let n = run.spec.n;
    let common = (0..n).map(|i| fin.replica(i).applied_slots()).min().unwrap_or(0);
    (0..common)
        .filter_map(|slot| {
            let v0 = fin.replica(0).applied_value(slot);
            (1..n).find(|&i| fin.replica(i).applied_value(slot) != v0).map(|i| (slot, i))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// Checks everything the run's outputs must satisfy. Returns one line
/// per violation.
pub fn oracle(run: &SvcRun) -> Vec<String> {
    let mut bad = Vec::new();
    let fin = &run.finished;
    let n = run.spec.n;
    let applied: Vec<u64> = (0..n).map(|i| fin.replica(i).applied_slots()).collect();
    let common = applied.iter().copied().min().unwrap_or(0);
    if common == 0 {
        bad.push("no slot was applied on every replica".into());
    }

    // Identical applied prefix on every replica.
    for (slot, i) in diverged_slots(run) {
        bad.push(format!("slot {slot}: replica {i} applied a different value than replica 0"));
    }

    // Every (client, seq) occurs in the log at most once, where acked.
    let mut placed: HashMap<(u64, u64), Vec<(u64, u32)>> = HashMap::new();
    let longest = (0..n).max_by_key(|&i| applied[i]).unwrap_or(0);
    for slot in 0..applied[longest] {
        let Some(bytes) = fin.replica(longest).applied_value(slot) else { continue };
        if bytes.is_empty() {
            continue;
        }
        match Batch::from_wire_bytes(bytes) {
            Ok(batch) => {
                for (idx, op) in batch.ops().iter().enumerate() {
                    placed.entry((op.client, op.seq)).or_default().push((slot, idx as u32));
                    if op.value != value_of(op.key) {
                        bad.push(format!(
                            "slot {slot}: op ({}, {}) carries a value the generator never sent",
                            op.client, op.seq
                        ));
                    }
                }
            }
            Err(_) => bad.push(format!("slot {slot}: applied value does not decode as a batch")),
        }
    }
    for ((client, seq), at) in &placed {
        if at.len() != 1 {
            bad.push(format!("op ({client}, {seq}) applied {} times: {at:?}", at.len()));
        }
    }
    for o in &run.ops {
        let Outcome::Committed { slot, batch_index } = o.outcome else { continue };
        let client = crate::gen::client_id(o.conn);
        if placed.get(&(client, o.seq)).map(Vec::as_slice) != Some(&[(slot, batch_index)]) {
            bad.push(format!(
                "acked op ({client}, {}) is not at its acked place ({slot}, {batch_index})",
                o.seq
            ));
        }
        for i in 0..n {
            let r = fin.replica(i);
            if r.applied_slots() > slot {
                if r.committed_at(client, o.seq) != Some((slot, batch_index)) {
                    bad.push(format!(
                        "replica {i} places acked op ({client}, {}) elsewhere",
                        o.seq
                    ));
                }
                if r.kv().get(&o.key) != Some(&value_of(o.key)) {
                    bad.push(format!("replica {i} lost acked key of op ({client}, {})", o.seq));
                }
            }
        }
    }

    // Front-door accounting per port, against what the generator sent.
    for (i, c) in fin.port_counters.iter().enumerate() {
        if c.accepted + c.rejected != c.submitted {
            bad.push(format!(
                "port {i}: accepted {} + rejected {} != submitted {}",
                c.accepted, c.rejected, c.submitted
            ));
        }
        let sent = run
            .ops
            .iter()
            .filter(|o| o.conn == i && o.kind == Kind::Write && o.sent_ns != 0)
            .count() as u64;
        let expect = if i < CONNECTIONS { sent } else { 0 };
        if c.submitted != expect {
            bad.push(format!("port {i}: saw {} submits, generator sent {expect}", c.submitted));
        }
    }

    // Reads: None or f(key); f(key) when sent after the key's ack.
    for o in run.ops.iter().filter(|o| !read_value_ok(o)) {
        bad.push(format!(
            "read of key {:#x} ({:?}, after_ack {}) returned {:?}",
            o.key, o.kind, o.after_ack, o.outcome
        ));
    }

    // The mesh carried every frame and decoded every frame.
    let r = &fin.report;
    if r.decode_errors != 0 {
        bad.push(format!("{} mesh frames failed to decode", r.decode_errors));
    }
    if r.frames_dropped != 0 {
        bad.push(format!("{} mesh frames dropped", r.frames_dropped));
    }
    for i in 0..n {
        let s = fin.replica(i).stats();
        if s.session_collisions != 0 || s.applied_conflicts != 0 {
            bad.push(format!(
                "replica {i}: {} session collisions, {} applied conflicts",
                s.session_collisions, s.applied_conflicts
            ));
        }
    }

    // File-WAL scan: no slot bound, or committed, to two values.
    let mut committed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..n {
        let path = fin.dir.join(format!("replica-{i}.wal"));
        let records = match Journal::open_file(&path).and_then(|mut j| j.replay()) {
            Ok(report) => report.records,
            Err(e) => {
                bad.push(format!("journal {i}: {e}"));
                continue;
            }
        };
        let mut bound: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for rec in records {
            match rec {
                Record::Proposed { slot, value } => {
                    if bound.get(&slot).is_some_and(|v| *v != value) {
                        bad.push(format!("journal {i}: slot {slot} bound to two values"));
                    }
                    bound.insert(slot, value);
                }
                Record::Committed { slot, value } | Record::Transferred { slot, value } => {
                    if committed.get(&slot).is_some_and(|v| *v != value) {
                        bad.push(format!("journal {i}: slot {slot} committed with two values"));
                    }
                    committed.insert(slot, value);
                }
                _ => {}
            }
        }
    }

    // The crashed replica came back and caught up.
    if run.spec.crash {
        let last = fin.replica(n - 1);
        if fin.rebuild.is_none() {
            bad.push("the crash-restart fate never rebuilt the replica".into());
        }
        if last.recovering() {
            bad.push("the rebuilt replica is still recovering at the end of the run".into());
        }
        let crash_slot = run.crash_rounds.map_or(0, |(at, _)| at / last.log().stride());
        if last.applied_slots() <= crash_slot {
            bad.push(format!(
                "the rebuilt replica applied {} slots, fewer than at its crash",
                last.applied_slots()
            ));
        }
    }
    bad.truncate(20);
    bad
}

// ---------------------------------------------------------------------
// End-to-end
// ---------------------------------------------------------------------

fn scored(run: &SvcRun) -> Vec<&OpRec> {
    run.ops.iter().filter(|o| o.scored).collect()
}

/// Due-to-final-reply latencies of the answered ops of `kind`, ascending.
fn latencies_ms(ops: &[&OpRec], kind: Kind) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .iter()
        .filter(|o| o.kind == kind && answered(o))
        .map(|o| ms(o.done_ns - o.due_ns))
        .collect();
    sort(&mut v);
    v
}

/// Sets the median and, where the metric exists, the tail of the
/// ascending sample `lat`, and notes the sample count and the percentile
/// the tail really is.
fn set_latency(res: &mut RunResult, p50: &'static str, p99: Option<&'static str>, lat: &[f64]) {
    res.set(p50, percentile(lat, 50.0));
    let (value, label) = tail(lat);
    if let Some(p99) = p99 {
        res.set(p99, value);
    }
    res.notes.push(format!("{p50}: {} samples; their tail sits at {label}", lat.len()));
}

fn common(run: &SvcRun, seed: u64, workload: &Workload, traced: bool) -> RunResult {
    let ops = scored(run);
    let mut res = RunResult::new(workload, seed, traced);
    res.violations = oracle(run);
    res.attempted = ops.len() as u64;
    res.failed = ops.iter().filter(|o| failed(o)).count() as u64;
    let mut late: Vec<f64> = ops.iter().map(|o| ms(o.sent_ns.saturating_sub(o.due_ns))).collect();
    sort(&mut late);
    let late_p99 = percentile(&late, 99.0);
    if late_p99 > 2.0 {
        res.invalid.push(format!("generator ran late: gen.late_ms_p99 = {late_p99:.3} ms > 2 ms"));
    }
    let late_max = late.last().copied().unwrap_or(0.0);
    if traced {
        res.set("gen.late_ms_p99", late_p99);
        res.set("gen.late_ms_max", late_max);
    }
    let refused = ops.iter().filter(|o| o.outcome == Outcome::Refused).count();
    let unanswered = ops.iter().filter(|o| o.outcome == Outcome::Pending).count();
    res.notes.push(format!(
        "{} scored requests over {} s on {CONNECTIONS} connections / {CONNECTIONS} generator threads; {} failed: {refused} refused with Overloaded, {unanswered} never answered, {} late, wrong or errored; gen.late p99 {late_p99:.3} ms, max {late_max:.3} ms",
        ops.len(),
        run.seconds,
        res.failed,
        res.failed as usize - refused - unanswered,
    ));
    res
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(run: &SvcRun, seed: u64, workload: &Workload) -> RunResult {
    let mut res = common(run, seed, workload, false);
    let ops = scored(run);
    let of = |kind| latencies_ms(&ops, kind);
    set_latency(&mut res, "commit_ms_p50", Some("commit_ms_p99"), &of(Kind::Write));
    if res.has_def("read_fast_ms_p50") {
        set_latency(&mut res, "read_fast_ms_p50", None, &of(Kind::ReadFast));
        set_latency(&mut res, "read_confirmed_ms_p50", None, &of(Kind::ReadConfirmed));
    }
    // The offered load is fixed, so every refused, failed or lost op is
    // missing here one for one.
    let answered_ops = ops.iter().filter(|o| answered(o)).count();
    res.set("goodput_ops_s", answered_ops as f64 / run.seconds as f64);
    res.set("failed_share", res.failed as f64 / res.attempted.max(1) as f64);
    if res.has_def("outage_ms") {
        res.set("outage_ms", ms(longest_gap_ns(run, &ops)));
    }
    res.set("setup_s", median(&run.setups_s));
    res.notes.push(format!(
        "setup_s is the median of {} cluster bring-ups: {:?}",
        run.setups_s.len(),
        run.setups_s
    ));
    res
}

/// Longest stretch of the scored window without an answer reaching a
/// client (the window's edges count as answers).
fn longest_gap_ns(run: &SvcRun, ops: &[&OpRec]) -> u64 {
    let (open, close) = run.window_ns;
    let mut at: Vec<u64> =
        ops.iter().filter(|o| answered(o)).map(|o| o.done_ns.clamp(open, close)).collect();
    at.extend([open, close]);
    at.sort_unstable();
    at.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

// ---------------------------------------------------------------------
// Per-layer (traced runs)
// ---------------------------------------------------------------------

/// One committed write, decomposed. The four parts telescope:
/// `late + queue_wait + agree + ack == done - due` exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WriteParts {
    pub late_ns: u64,
    pub queue_wait_ns: u64,
    pub agree_ns: u64,
    pub ack_ns: u64,
    pub agree_rounds: u64,
}

#[cfg(test)]
impl WriteParts {
    pub fn sum_ns(&self) -> u64 {
        self.late_ns + self.queue_wait_ns + self.agree_ns + self.ack_ns
    }
}

/// Splits one write at the stamps `due <= sent <= slot_open <= applied
/// <= done`. Clock reads on different threads can invert neighbours by
/// nanoseconds; each cut is clamped into its enclosing interval so the
/// parts stay non-negative and still sum to `done - due`.
pub fn decompose(
    due: u64,
    sent: u64,
    slot_open: (u64, u64),
    applied: (u64, u64),
    done: u64,
) -> WriteParts {
    let sent = sent.clamp(due, done);
    let open = slot_open.1.clamp(sent, done);
    let app = applied.1.clamp(open, done);
    WriteParts {
        late_ns: sent - due,
        queue_wait_ns: open - sent,
        agree_ns: app - open,
        ack_ns: done - app,
        agree_rounds: applied.0.saturating_sub(slot_open.0),
    }
}

fn pct(v: &mut [f64], p: f64) -> f64 {
    sort(v);
    percentile(v, p)
}

/// What every per-layer `*_p99` reports (see [`tail`]).
fn p99(v: &mut [f64]) -> f64 {
    sort(v);
    tail(v).0
}

/// Times encode -> frame -> read -> decode over the captured messages.
pub fn codec_roundtrip_ns<M: WireCodec>(msgs: &[M]) -> f64 {
    if msgs.is_empty() {
        return 0.0;
    }
    let mut enc = Encoder::new();
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    let reps = (20_000 / msgs.len()).max(1);
    let t0 = now_ns();
    for _ in 0..reps {
        for m in msgs {
            m.encode_wire_into(&mut enc);
            wire.clear();
            write_frame(&mut wire, enc.as_bytes()).expect("in-memory frame");
            read_frame(&mut wire.as_slice(), &mut payload).expect("in-memory frame");
            std::hint::black_box(M::from_wire_bytes(&payload).expect("round trip"));
        }
    }
    (now_ns() - t0) as f64 / (reps * msgs.len()) as f64
}

/// `(verify ns per signature, sign ns)` at system size `n`.
pub fn crypto_ns(n: usize) -> (f64, f64) {
    let (pki, keys) = trusted_setup(n, 0xc0de);
    let msg = [0x5au8; 96];
    let iters = 20_000usize;
    let t0 = now_ns();
    let mut sigs = Vec::with_capacity(iters);
    for i in 0..iters {
        sigs.push(std::hint::black_box(keys[i % n].sign(std::hint::black_box(&msg))));
    }
    let sign = (now_ns() - t0) as f64 / iters as f64;
    let t0 = now_ns();
    for s in &sigs {
        std::hint::black_box(pki.verify(std::hint::black_box(&msg), s)).expect("own signature");
    }
    ((now_ns() - t0) as f64 / iters as f64, sign)
}

fn in_window(run: &SvcRun, at: u64) -> bool {
    at >= run.window_ns.0 && at < run.window_ns.1
}

/// Every per-layer metric of a traced run. `untraced_p50_ms` is the
/// `commit_ms_p50` of the untraced run of the same workload and seed,
/// when one was made: the difference between the two runs is the
/// tracing overhead.
pub fn per_layer(
    run: &SvcRun,
    seed: u64,
    workload: &Workload,
    untraced_p50_ms: Option<f64>,
) -> RunResult {
    let mut res = common(run, seed, workload, true);
    let fin = &run.finished;
    let n = run.spec.n;
    let ops = scored(run);
    let wall_ns = (run.window_ns.1 - run.window_ns.0) as f64;
    let traces: Vec<std::sync::MutexGuard<'_, ReplicaTrace>> =
        fin.traces.iter().map(|t| t.lock().expect("trace sink")).collect();

    res.set("process.peak_rss_mb", peak_rss_mb());
    let commit = latencies_ms(&ops, Kind::Write);
    res.set("service.write.commit_ms_mean", mean(&commit));
    res.set("service.read.fast_ms_p99", tail(&latencies_ms(&ops, Kind::ReadFast)).0);
    match untraced_p50_ms.filter(|p50| *p50 > 0.0) {
        Some(p50) => res.set("trace.overhead_share", percentile(&commit, 50.0) / p50 - 1.0),
        None => res.notes.push(
            "trace.overhead_share reads 0: no untraced run of this workload and seed in --out"
                .into(),
        ),
    }
    let lost = ops
        .iter()
        .filter(|o| o.kind == Kind::Write && o.accepted_ns != 0 && o.outcome == Outcome::Pending);
    res.set("service.lost_ops", lost.count() as f64);
    res.set("smr.diverged_slots", diverged_slots(run).len() as f64);

    // Gateway accept path.
    let mut accept: Vec<f64> = ops
        .iter()
        .filter(|o| o.accepted_ns != 0)
        .map(|o| ms(o.accepted_ns.saturating_sub(o.sent_ns)))
        .collect();
    res.set("service.gateway.accept_ms_p50", pct(&mut accept, 50.0));
    res.set("service.gateway.accept_ms_p99", p99(&mut accept));

    // The additive write decomposition, joined on Committed.slot at the
    // client's own replica.
    let mut parts = Vec::new();
    for (c, trace) in traces.iter().enumerate().take(CONNECTIONS) {
        let open: HashMap<u64, (u64, u64)> =
            trace.slot_open.iter().map(|&(s, r, t)| (s, (r, t))).collect();
        let applied: HashMap<u64, (u64, u64)> =
            trace.applied.iter().map(|&(s, r, t)| (s, (r, t))).collect();
        for o in ops.iter().filter(|o| o.conn == c && o.kind == Kind::Write && answered(o)) {
            let Outcome::Committed { slot, .. } = o.outcome else { continue };
            if let (Some(&op), Some(&ap)) = (open.get(&slot), applied.get(&slot)) {
                parts.push(decompose(o.due_ns, o.sent_ns, op, ap, o.done_ns));
            }
        }
    }
    let col = |f: fn(&WriteParts) -> u64| -> Vec<f64> { parts.iter().map(|p| ms(f(p))).collect() };
    let (mut late_w, mut qw, mut agree, mut ack) =
        (col(|p| p.late_ns), col(|p| p.queue_wait_ns), col(|p| p.agree_ns), col(|p| p.ack_ns));
    res.set("gen.late_ms_mean", mean(&late_w));
    res.set("service.admission.queue_wait_ms_mean", mean(&qw));
    res.set("smr.agree_ms_mean", mean(&agree));
    res.set("service.gateway.ack_ms_mean", mean(&ack));
    let sum = mean(&late_w) + mean(&qw) + mean(&agree) + mean(&ack);
    let commit_mean = mean(&commit);
    res.set(
        "decomp.residual_share",
        if commit_mean > 0.0 { (sum - commit_mean).abs() / commit_mean } else { 0.0 },
    );
    res.notes.push(format!(
        "write decomposition over {} of {} committed writes: gen.late {:.3} + queue_wait {:.3} + agree {:.3} + ack {:.3} = {:.3} ms vs commit mean {:.3} ms",
        parts.len(), commit.len(), mean(&late_w), mean(&qw), mean(&agree), mean(&ack), sum, commit_mean
    ));
    sort(&mut late_w);
    res.set("service.admission.queue_wait_ms_p50", pct(&mut qw, 50.0));
    res.set("service.admission.queue_wait_ms_p99", p99(&mut qw));
    res.set("smr.agree_ms_p50", pct(&mut agree, 50.0));
    res.set("service.gateway.ack_ms_p50", pct(&mut ack, 50.0));
    let mut rounds: Vec<f64> = parts.iter().map(|p| p.agree_rounds as f64).collect();
    res.set("smr.agree_rounds_p50", pct(&mut rounds, 50.0));

    // Admission and batching, from the replicas' own counters.
    let stats: Vec<_> = (0..n).map(|i| fin.replica(i).stats()).collect();
    let submitted: u64 = fin.port_counters.iter().map(|c| c.submitted).sum();
    let rejected: u64 = fin.port_counters.iter().map(|c| c.rejected).sum();
    res.set("service.admission.overloaded_share", rejected as f64 / submitted.max(1) as f64);
    let batches: u64 = stats.iter().map(|s| s.batches_proposed).sum();
    let batched: u64 = stats.iter().map(|s| s.batched_ops).sum();
    res.set("service.batch.occupancy", batched as f64 / batches.max(1) as f64);

    // Replica round loop: timed on_round, self time = minus journal.
    let spans: Vec<&RoundSpan> = traces
        .iter()
        .flat_map(|t| t.rounds.iter())
        .filter(|s| in_window(run, s.start_ns))
        .collect();
    let mut durs: Vec<f64> = spans.iter().map(|s| s.dur_ns as f64 / 1e3).collect();
    res.set("service.replica.on_round_us_mean", mean(&durs));
    res.set("service.replica.on_round_us_p99", p99(&mut durs));
    let self_ns: u64 = spans.iter().map(|s| s.self_ns()).sum();
    let journal_ns: u64 = spans.iter().map(|s| s.journal_ns).sum();
    res.set("service.replica.busy_share", self_ns as f64 / (wall_ns * n as f64));
    res.set("journal.busy_share", journal_ns as f64 / (wall_ns * n as f64));
    let idle = spans.iter().filter(|s| s.inbox == 0 && s.outbox == 0).count();
    res.set("engine.idle_round_share", idle as f64 / spans.len().max(1) as f64);
    res.set("engine.rounds_per_s", spans.len() as f64 / n as f64 / (wall_ns / 1e9));

    // State transfer and journal replay (crash workload).
    if let Some(rb) = fin.rebuild {
        let last = &traces[n - 1];
        if let (Some(rejoin), Some(up)) = (last.rejoin_ns, last.caught_up_ns) {
            res.set("service.transfer.catchup_ms", ms(up - rejoin));
        }
        let s = &stats[n - 1];
        res.set("service.transfer.slots", s.slots_transferred as f64);
        res.set("service.transfer.bytes", s.transfer_bytes as f64);
        res.set("service.transfer.certs_rejected", s.transfer_certs_rejected as f64);
        res.set("journal.replay_ms", ms(rb.replay_ns));
        res.set("journal.replayed_records", rb.replayed_records as f64);
        res.set("journal.unsynced_bytes_discarded", rb.unsynced_bytes_discarded as f64);
    }

    // SMR progress at replica 0.
    let applied_in_window =
        traces[0].applied.iter().filter(|&&(_, _, t)| in_window(run, t)).count();
    res.set("smr.slots_per_s", applied_in_window as f64 / (wall_ns / 1e9));
    let applied_slots = fin.replica(0).applied_slots();
    res.set("smr.bot_slot_share", stats[0].skipped_slots as f64 / applied_slots.max(1) as f64);

    // Engine, words, crypto, wire: whole-run counters over whole-run ops.
    let rep = &fin.report;
    let m = &rep.report.metrics;
    let ops_committed = stats[0].ops_committed.max(1) as f64;
    res.set("engine.overruns", rep.report.overruns as f64);
    res.set(
        "engine.advance_timeout_share",
        m.advance.timeout as f64 / m.advance.total().max(1) as f64,
    );
    let words = m.correct.words as f64;
    res.set("core.words_per_op", words / ops_committed);
    res.set("core.words_per_slot", words / applied_slots.max(1) as f64);
    set_component_words(&mut res, m.by_component.iter().map(|(k, c)| (k.as_str(), c.words)), words);
    let (verify_ns, sign_ns) = crypto_ns(n);
    let sigs = m.correct.constituent_sigs as f64;
    let run_ns = (run.stopped_ns - (run.window_ns.0 - crate::svc::WARMUP_NS)) as f64;
    res.set("crypto.sigs_per_op", sigs / ops_committed);
    res.set("crypto.verify_ns_per_sig", verify_ns);
    res.set("crypto.sign_ns", sign_ns);
    // One verification per delivered message, spread over n threads.
    res.set("crypto.est_busy_share", m.correct.messages as f64 * verify_ns / (run_ns * n as f64));
    res.set("wire.frames_per_op", rep.frames_sent as f64 / ops_committed);
    res.set("wire.bytes_per_op", rep.socket_bytes as f64 / ops_committed);
    res.set("wire.bytes_per_word", rep.socket_bytes as f64 / words.max(1.0));
    res.set("wire.backpressure", rep.report.backpressure as f64);
    res.set("wire.frames_dropped", rep.frames_dropped as f64);
    res.set("wire.reconnects", rep.reconnects as f64);
    res.set("wire.decode_errors", rep.decode_errors as f64);
    res.set("wire.codec.roundtrip_ns_per_msg", codec_roundtrip_ns(fin.captured(0)));

    // Journal, from the Storage wrapper.
    let syncs: u64 = fin.storage.iter().map(|s| s.syncs.load(Ordering::Relaxed)).sum();
    let bytes: u64 = fin.storage.iter().map(|s| s.len.load(Ordering::Relaxed)).sum();
    res.set("journal.syncs_per_op", syncs as f64 / ops_committed);
    res.set("journal.bytes_per_op", bytes as f64 / ops_committed);
    let mut sync_us: Vec<f64> = fin
        .storage
        .iter()
        .flat_map(|s| {
            s.spans
                .lock()
                .expect("span sink")
                .iter()
                .map(|x| x.dur_ns as f64 / 1e3)
                .collect::<Vec<_>>()
        })
        .collect();
    res.set("journal.sync_us_mean", mean(&sync_us));
    res.set("journal.sync_us_p99", p99(&mut sync_us));
    res
}

/// Sets `core.words.<component>` (with `/` spelled `.`) and, where the
/// table has it, the fallback share; shared with the DES workloads.
pub fn set_component_words<'a>(
    res: &mut RunResult,
    by_component: impl Iterator<Item = (&'a str, u64)>,
    total_words: f64,
) {
    for (component, words) in by_component {
        let name = format!("core.words.{}", component.replace('/', "."));
        if let Some(def) = defs(res.family, true).iter().find(|d| d.name == name) {
            res.set(def.name, words as f64);
        }
        if component == "fallback" && res.has_def("fallback.words_share") {
            res.set("fallback.words_share", words as f64 / total_words.max(1.0));
        }
    }
}

// ---------------------------------------------------------------------
// Trace file
// ---------------------------------------------------------------------

/// Writes the in-memory spans as `out/<workload>.trace.json`: one record
/// per op (one id per op; stamps due/sent/accepted/done and its slot),
/// per `on_round`, per `sync`, per slot open/applied, and the rebuild.
pub fn write_trace(
    run: &SvcRun,
    workload: &str,
    seed: u64,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(4 << 20);
    let _ = write!(s, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since process start\", \"window_ns\": [{}, {}],\n\"ops\": [", run.window_ns.0, run.window_ns.1);
    for (id, o) in run.ops.iter().enumerate() {
        let (slot, idx) = match o.outcome {
            Outcome::Committed { slot, batch_index } => (slot as i64, batch_index as i64),
            _ => (-1, -1),
        };
        let _ = write!(
            s,
            "{}\n{{\"id\": {id}, \"conn\": {}, \"kind\": \"{:?}\", \"seq\": {}, \"scored\": {}, \"due\": {}, \"sent\": {}, \"accepted\": {}, \"done\": {}, \"outcome\": \"{}\", \"slot\": {slot}, \"batch_index\": {idx}}}",
            if id == 0 { "" } else { "," },
            o.conn, o.kind, o.seq, o.scored, o.due_ns, o.sent_ns, o.accepted_ns, o.done_ns,
            match o.outcome {
                Outcome::Pending => "pending",
                Outcome::Committed { .. } => "committed",
                Outcome::Refused => "refused",
                Outcome::ReadOk { .. } => "read_ok",
                Outcome::Error => "error",
            },
        );
    }
    s.push_str("],\n\"replicas\": [");
    for (i, t) in run.finished.traces.iter().enumerate() {
        let t = t.lock().expect("trace sink");
        let _ = write!(
            s,
            "{}\n{{\"replica\": {i}, \"rejoin\": {}, \"caught_up\": {}, \"on_round\": [",
            if i == 0 { "" } else { "," },
            t.rejoin_ns.unwrap_or(0),
            t.caught_up_ns.unwrap_or(0)
        );
        for (k, r) in t.rounds.iter().enumerate() {
            let _ = write!(
                s,
                "{}[{},{},{},{},{},{}]",
                if k == 0 { "" } else { "," },
                r.round,
                r.start_ns,
                r.dur_ns,
                r.journal_ns,
                r.inbox,
                r.outbox
            );
        }
        s.push_str("], \"slot_open\": [");
        for (k, (slot, round, at)) in t.slot_open.iter().enumerate() {
            let _ = write!(s, "{}[{slot},{round},{at}]", if k == 0 { "" } else { "," });
        }
        s.push_str("], \"applied\": [");
        for (k, (slot, round, at)) in t.applied.iter().enumerate() {
            let _ = write!(s, "{}[{slot},{round},{at}]", if k == 0 { "" } else { "," });
        }
        s.push_str("], \"sync\": [");
        for (k, x) in run.finished.storage[i].spans.lock().expect("span sink").iter().enumerate() {
            let _ = write!(s, "{}[{},{}]", if k == 0 { "" } else { "," }, x.start_ns, x.dur_ns);
        }
        s.push_str("]}");
    }
    s.push_str("],\n\"columns\": {\"on_round\": [\"round\", \"start\", \"dur\", \"journal\", \"inbox\", \"outbox\"], \"slot_open\": [\"slot\", \"round\", \"at\"], \"applied\": [\"slot\", \"round\", \"at\"], \"sync\": [\"start\", \"dur\"]},\n\"rebuild\": ");
    match run.finished.rebuild {
        Some(rb) => {
            let _ = write!(s, "{{\"at\": {}, \"replay_ns\": {}, \"replayed_records\": {}, \"unsynced_bytes_discarded\": {}}}", rb.at_ns, rb.replay_ns, rb.replayed_records, rb.unsynced_bytes_discarded);
        }
        None => s.push_str("null"),
    }
    s.push_str("}\n");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, s)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_is_additive() {
        // due 100, sent 103, slot opens 150, applied 400, acked 444.
        let p = decompose(100, 103, (7, 150), (31, 400), 444);
        assert_eq!(
            p,
            WriteParts {
                late_ns: 3,
                queue_wait_ns: 47,
                agree_ns: 250,
                ack_ns: 44,
                agree_rounds: 24
            }
        );
        assert_eq!(p.sum_ns(), 444 - 100);
    }

    #[test]
    fn decomposition_clamps_cross_thread_clock_inversions() {
        // The replica stamped "applied" a hair after the generator read
        // the ack; the parts must stay non-negative and still telescope.
        let p = decompose(100, 103, (7, 150), (31, 450), 444);
        assert_eq!(p.ack_ns, 0);
        assert_eq!(p.sum_ns(), 344);
        // A slot-open stamp before the send (impossible causally, but
        // never let it underflow).
        let p = decompose(100, 160, (7, 150), (31, 400), 444);
        assert_eq!(p.queue_wait_ns, 0);
        assert_eq!(p.sum_ns(), 344);
    }

    #[test]
    fn means_of_parts_sum_to_mean_latency() {
        let ops = [(0u64, 2, 50, 300, 340), (10, 10, 90, 350, 420), (20, 25, 90, 350, 421)];
        let parts: Vec<WriteParts> =
            ops.iter().map(|&(d, s, o, a, e)| decompose(d, s, (0, o), (24, a), e)).collect();
        let mean_of = |f: fn(&WriteParts) -> u64| {
            mean(&parts.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
        };
        let sum = mean_of(|p| p.late_ns)
            + mean_of(|p| p.queue_wait_ns)
            + mean_of(|p| p.agree_ns)
            + mean_of(|p| p.ack_ns);
        let lat = mean(&ops.iter().map(|&(d, _, _, _, e)| (e - d) as f64).collect::<Vec<_>>());
        assert!((sum - lat).abs() < 1e-9);
    }
}

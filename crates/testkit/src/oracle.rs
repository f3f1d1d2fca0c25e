//! The one safety oracle for finished runs of journal-backed processes.
//!
//! [`service`] checks a finished run of correct [`ServiceProc`] replicas
//! for the service's safety statements — applied-prefix convergence and
//! exactly-once — plus zero conflict counters and no double binding in
//! any journal. [`fold_journals`] is the journal half on its own, for
//! runs of other protocols (the journal-backed weak BA of E14 and
//! `tests/recovery_integration.rs`): every `Record::Signed` and every
//! `Record::Proposed` goes into one `(signer, context) → digest` map.
//!
//! The oracle returns a [`Verdict`] — one line per violation plus the
//! numbers callers read — and never checks liveness: whether the whole
//! log was applied or every scripted op committed is the caller's
//! scenario.

use crate::recovery::DoubleSignDetector;
use crate::service::ServiceProc;
use meba_crypto::{Digest, ProcessId, WireCodec};
use meba_journal::{Journal, MemBuffer, Record};
use meba_service::Batch;
use std::collections::btree_map::{BTreeMap, Entry};

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
        let (count, lines) = (self.violations.len(), self.violations.join("\n"));
        assert!(self.is_safe(), "{count} safety violation(s):\n{lines}");
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
    use crate::{log_round_budget, sim, Fault};
    use meba_service::{Op, ServiceConfig};
    use meba_sim::Simulation;

    /// A finished 3-replica, 3-slot cluster whose replica 0 was offered
    /// the one op `(client 4, seq 0)`: key 2 := `value`.
    fn cluster(value: u64) -> (ServiceHarness, Simulation<ServiceM>) {
        let h = ServiceHarness::new(3, ServiceConfig { total_slots: 3, ..Default::default() });
        h.port(0).submit(Op { client: 4, seq: 0, key: 2, value }).unwrap();
        let mut sim = sim(h.actors(), &[Fault::None; 3]);
        sim.run_until_done(log_round_budget(3, 3)).unwrap();
        (h, sim)
    }

    fn replica(sim: &Simulation<ServiceM>, i: u32) -> &ServiceProc {
        service_replica(sim.actor(ProcessId(i)))
    }

    #[test]
    fn replicas_of_two_clusters_diverge_at_slot_0() {
        let ((_, a), (_, b)) = (cluster(11), cluster(12));
        let v = service(&[replica(&a, 1), replica(&b, 1)], &[]);
        assert!(v.violations.iter().any(|l| l.starts_with("slot 0 diverges")), "{v:?}");
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

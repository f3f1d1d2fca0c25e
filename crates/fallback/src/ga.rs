//! Graded agreement over a participant scope (5 rounds, `O(m²)` words).
//!
//! The building block of the recursive fallback BA, in the role Momose–Ren
//! give their graded agreement. Participants start with a value and end
//! with `(value, grade)`, `grade ∈ {0, 1, 2}`:
//!
//! * **Validity**: if the scope has an honest majority and all its honest
//!   members input `v`, every honest member outputs `(v, 2)`.
//! * **Consistency**: if the scope has an honest majority and some honest
//!   member outputs grade 2 on `v`, every honest member outputs grade ≥ 1
//!   with value `v`.
//!
//! # Protocol (round per step; `maj = ⌊m/2⌋ + 1`)
//!
//! 1. Broadcast the signed input.
//! 2. For any value with `maj` distinct input signatures, batch a
//!    first-level certificate `C1(v)` and echo it.
//! 3. If exactly one certified value was seen, broadcast a signed vote
//!    carrying its `C1`; if two were seen, broadcast the conflicting pair.
//! 4. Batch `maj` votes into `C2(v)` and broadcast it. Tentatively grade 2
//!    if a unique `C2` formed and no conflicting `C1`s are known.
//! 5. Adopt received `C2`s for grade 1.
//!
//! # Why grade 2 is safe to finalize in round 4
//!
//! Suppose honest `i` forms `C2(v)` with no conflict known by round 4.
//! Any `C2(w ≠ v)` needs `maj` vote signatures, hence (honest majority) at
//! least one honest vote for `w`; that voter broadcast its vote *with
//! `C1(w)` attached* in round 3, so `i` would know both `C1(v)` (from the
//! votes it batched) and `C1(w)` by round 4 — contradiction. So no
//! conflicting `C2` can ever exist, and `i`'s own `C2(v)` broadcast makes
//! every honest member reach grade ≥ 1 with `v` in round 5. A conflict
//! surfacing only *after* round 4 therefore cannot invalidate the grade-2
//! output — the argument is structural, not evidence-based, which is what
//! makes the final round injection-proof.

use crate::instance::{InstanceId, Scope};
use crate::messages::{GaInputSig, GaVoteSig, RecBaMsg};
use meba_core::signing::ShareCollector;
use meba_core::Value;
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature, ThresholdSignature};
use meba_sim::{Dest, Inbox, Sink};
use std::collections::BTreeMap;

/// Number of steps a graded agreement occupies.
pub const GA_STEPS: u64 = 5;

/// One participant's graded-agreement state machine.
#[derive(Debug)]
pub struct GaInstance<V> {
    inst: InstanceId,
    session: u64,
    key: SecretKey,
    pki: Pki,
    scope: Scope,
    thr: usize,
    input: V,
    c1_seen: BTreeMap<V, ThresholdSignature>,
    conflicted: bool,
    tentative2: Option<V>,
    c2_seen: BTreeMap<V, ThresholdSignature>,
    result: Option<(V, u8)>,
}

impl<V: Value> GaInstance<V> {
    /// Creates a participant with the given input.
    pub fn new(
        inst: InstanceId,
        session: u64,
        _me: ProcessId,
        key: SecretKey,
        pki: Pki,
        input: V,
    ) -> Self {
        let scope = inst.scope;
        GaInstance {
            inst,
            session,
            key,
            pki,
            scope,
            thr: scope.majority(),
            input,
            c1_seen: BTreeMap::new(),
            conflicted: false,
            tentative2: None,
            c2_seen: BTreeMap::new(),
            result: None,
        }
    }

    /// The `(value, grade)` output, available after the final step.
    pub fn result(&self) -> Option<&(V, u8)> {
        self.result.as_ref()
    }

    fn input_payload<'a>(&self, value: &'a V) -> GaInputSig<'a, V> {
        GaInputSig { session: self.session, inst: self.inst, value }
    }

    fn vote_payload<'a>(&self, value: &'a V) -> GaVoteSig<'a, V> {
        GaVoteSig { session: self.session, inst: self.inst, value }
    }

    /// Whether `cert` certifies `payload` at this scope's majority. Every
    /// member sends the same certificate bytes, and the verdict is a
    /// function of `(payload, bytes)`: one byte-equal to a certificate this
    /// instance already `accepted` for the same value is valid without a
    /// second `verify_threshold`; anything else is verified.
    fn cert_valid(
        &self,
        accepted: Option<&ThresholdSignature>,
        payload: &impl Signable,
        cert: &ThresholdSignature,
    ) -> bool {
        accepted == Some(cert)
            || (cert.threshold() == self.thr
                && payload.with_signing_bytes(|b| self.pki.verify_threshold(b, cert)).is_ok())
    }

    fn c1_valid(&self, value: &V, c1: &ThresholdSignature) -> bool {
        self.cert_valid(self.c1_seen.get(value), &self.input_payload(value), c1)
    }

    /// Records a scope member's share on `value` in that value's
    /// collector, unverified. Graded agreement counts a share for its
    /// signer whoever delivered it, so scope membership is the only guard
    /// on top of the collector's. A certificate is minted from the
    /// payload and the threshold alone, so the collector verifies only
    /// the first `thr` signers' shares.
    fn offer<S: Signable>(
        &self,
        by_value: &mut BTreeMap<V, ShareCollector>,
        value: &V,
        payload: &S,
        sig: &Signature,
    ) {
        if !self.scope.contains(sig.signer()) {
            return;
        }
        by_value
            .entry(value.clone())
            .or_insert_with(|| ShareCollector::new(&self.pki, payload, self.thr))
            .defer(sig.signer(), sig);
    }

    fn note_c1(&mut self, value: &V, c1: &ThresholdSignature) {
        if self.c1_valid(value, c1) {
            self.c1_seen.entry(value.clone()).or_insert_with(|| c1.clone());
            if self.c1_seen.len() >= 2 {
                self.conflicted = true;
            }
        }
    }

    /// Executes local step `k` (0-based). Every message it sends is a
    /// broadcast to the scope: `out` is the caller's sink for the scope,
    /// where [`Dest::All`] names its members.
    pub fn on_step<'a>(
        &mut self,
        k: u64,
        inbox: impl Inbox<'a, RecBaMsg<V>>,
        out: &mut dyn Sink<RecBaMsg<V>>,
    ) {
        match k {
            0 => {
                let sig = self.key.sign(&self.input_payload(&self.input).signing_bytes());
                out.push(
                    Dest::All,
                    RecBaMsg::GaInput { inst: self.inst, value: self.input.clone(), sig },
                );
            }
            1 => {
                let mut inputs = BTreeMap::new();
                for (_, msg) in inbox {
                    if let RecBaMsg::GaInput { inst, value, sig } = msg {
                        if *inst == self.inst {
                            self.offer(&mut inputs, value, &self.input_payload(value), sig);
                        }
                    }
                }
                // Echo a certificate for every sufficiently-signed value
                // (at most 3 can qualify; the bound keeps the word cost
                // constant per process).
                let certified =
                    inputs.into_iter().filter_map(|(v, shares)| Some((v, shares.certificate()?)));
                for (value, c1) in certified.take(3) {
                    self.note_c1(&value, &c1);
                    out.push(Dest::All, RecBaMsg::GaEcho { inst: self.inst, value, c1 });
                }
            }
            2 => {
                for (_, msg) in inbox {
                    if let RecBaMsg::GaEcho { inst, value, c1 } = msg {
                        if *inst == self.inst {
                            self.note_c1(value, c1);
                        }
                    }
                }
                if self.c1_seen.len() == 1 {
                    let (value, c1) = self
                        .c1_seen
                        .iter()
                        .next()
                        .map(|(v, c)| (v.clone(), c.clone()))
                        .expect("len checked");
                    let sig = self.key.sign(&self.vote_payload(&value).signing_bytes());
                    out.push(Dest::All, RecBaMsg::GaVote { inst: self.inst, value, sig, c1 });
                } else if self.conflicted {
                    let mut it = self.c1_seen.iter();
                    let (v1, c1a) = it.next().expect("conflicted implies two");
                    let (v2, c1b) = it.next().expect("conflicted implies two");
                    let conflict = RecBaMsg::GaConflict {
                        inst: self.inst,
                        v1: v1.clone(),
                        c1a: c1a.clone(),
                        v2: v2.clone(),
                        c1b: c1b.clone(),
                    };
                    out.push(Dest::All, conflict);
                }
            }
            3 => {
                let mut votes = BTreeMap::new();
                for (_, msg) in inbox {
                    match msg {
                        RecBaMsg::GaVote { inst, value, sig, c1 } if *inst == self.inst => {
                            self.note_c1(value, c1);
                            self.offer(&mut votes, value, &self.vote_payload(value), sig);
                        }
                        RecBaMsg::GaConflict { inst, v1, c1a, v2, c1b }
                            if *inst == self.inst
                                && v1 != v2
                                && self.c1_valid(v1, c1a)
                                && self.c1_valid(v2, c1b) =>
                        {
                            self.conflicted = true;
                        }
                        _ => {}
                    }
                }
                let mut formed: Vec<V> = Vec::new();
                let certified =
                    votes.into_iter().filter_map(|(v, shares)| Some((v, shares.certificate()?)));
                for (value, c2) in certified.take(2) {
                    self.c2_seen.insert(value.clone(), c2.clone());
                    out.push(
                        Dest::All,
                        RecBaMsg::GaCert2 { inst: self.inst, value: value.clone(), c2 },
                    );
                    formed.push(value);
                }
                if formed.len() == 1 && !self.conflicted {
                    self.tentative2 = Some(formed.remove(0));
                }
            }
            4 => {
                for (_, msg) in inbox {
                    if let RecBaMsg::GaCert2 { inst, value, c2 } = msg {
                        if *inst == self.inst
                            && self.cert_valid(
                                self.c2_seen.get(value),
                                &self.vote_payload(value),
                                c2,
                            )
                        {
                            self.c2_seen.entry(value.clone()).or_insert_with(|| c2.clone());
                        }
                    }
                }
                self.result = Some(if let Some(v) = self.tentative2.take() {
                    (v, 2)
                } else if let Some(v) = self.c2_seen.keys().next() {
                    (v.clone(), 1)
                } else {
                    (self.input.clone(), 0)
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::trusted_setup;

    /// Drives a set of GA instances in lockstep; `silent` members produce
    /// no messages (crash faults).
    fn run_ga(inputs: &[u64], silent: &[u32]) -> Vec<Option<(u64, u8)>> {
        let n = inputs.len();
        let (pki, keys) = trusted_setup(n, 77);
        let inst = InstanceId::new(Scope::full(n), 0);
        let mut nodes: Vec<Option<GaInstance<u64>>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if silent.contains(&(i as u32)) {
                    None
                } else {
                    Some(GaInstance::new(
                        inst,
                        0,
                        ProcessId(i as u32),
                        k.clone(),
                        pki.clone(),
                        inputs[i],
                    ))
                }
            })
            .collect();
        let mut pending: Vec<(ProcessId, RecBaMsg<u64>)> = Vec::new();
        for k in 0..GA_STEPS {
            let mut next: Vec<(ProcessId, RecBaMsg<u64>)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                if let Some(node) = node {
                    let mut out = meba_sim::Outbox::new();
                    node.on_step(k, pending.iter().map(|(p, m)| (*p, m)), &mut out);
                    for (_, m) in out {
                        next.push((ProcessId(i as u32), m));
                    }
                }
            }
            pending = next;
        }
        nodes.iter().map(|n| n.as_ref().and_then(|n| n.result().cloned())).collect()
    }

    #[test]
    fn unanimous_inputs_grade_two() {
        let out = run_ga(&[9, 9, 9, 9, 9], &[]);
        for r in out {
            assert_eq!(r, Some((9, 2)));
        }
    }

    #[test]
    fn a_fixed_certificate_verifies_no_further_share() {
        let n = 5;
        let (pki, keys) = trusted_setup(n, 77);
        let inst = InstanceId::new(Scope::full(n), 0);
        let mut ga = GaInstance::new(inst, 0, ProcessId(0), keys[0].clone(), pki, 9u64);
        let shares: Vec<(ProcessId, RecBaMsg<u64>)> = keys
            .iter()
            .map(|k| {
                let sig = k.sign(&GaInputSig { session: 0, inst, value: &9u64 }.signing_bytes());
                (k.id(), RecBaMsg::GaInput { inst, value: 9, sig })
            })
            .collect();
        let (before, _) = meba_crypto::pki::verify_calls();
        let mut out = meba_sim::Outbox::new();
        ga.on_step(1, shares.iter().map(|(p, m)| (*p, m)), &mut out);
        let (after, _) = meba_crypto::pki::verify_calls();
        assert_eq!(after - before, 3, "the majority of 5, then the certificate is fixed");
        assert!(matches!(out[..], [(_, RecBaMsg::GaEcho { value: 9, .. })]), "{out:?}");
    }

    #[test]
    fn unanimous_with_minority_crashes_still_grade_two() {
        let out = run_ga(&[4, 4, 4, 4, 4, 4, 4], &[5, 6]);
        for r in out.iter().take(5) {
            assert_eq!(*r, Some((4, 2)));
        }
    }

    #[test]
    fn split_inputs_consistent() {
        // 3 vs 2: the majority value can reach a certificate.
        let out = run_ga(&[1, 1, 1, 2, 2], &[]);
        let grades: Vec<_> = out.iter().map(|r| r.unwrap()).collect();
        // Consistency: if anyone graded 2 on v, everyone must hold v with
        // grade >= 1.
        if let Some((v2, _)) = grades.iter().find(|(_, g)| *g == 2) {
            for (v, g) in &grades {
                assert!(*g >= 1, "grade-2 exists, all must be >= 1");
                assert_eq!(v, v2);
            }
        }
    }

    #[test]
    fn even_split_cannot_certify() {
        // 2 vs 2 inputs in a 4-member scope: majority threshold 3 never
        // reached, all grade 0 keeping their inputs.
        let out = run_ga(&[1, 1, 2, 2], &[]);
        assert_eq!(out[0], Some((1, 0)));
        assert_eq!(out[3], Some((2, 0)));
    }

    #[test]
    fn half_crashes_degrade_but_do_not_mislead() {
        // 3 of 5 crashed: threshold 3 unreachable by the 2 survivors.
        let out = run_ga(&[7, 7, 7, 7, 7], &[2, 3, 4]);
        assert_eq!(out[0], Some((7, 0)));
        assert_eq!(out[1], Some((7, 0)));
    }
}

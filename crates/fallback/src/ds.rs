//! Dolev–Strong authenticated broadcast and interactive consistency.
//!
//! [`DsCore`] is the classic Dolev–Strong forwarding engine with
//! signature-chain compression via aggregate signatures: a round-`k`
//! message carries one aggregate with at least `k` constituent signatures
//! (one word), so the whole broadcast costs `O(m²)` words regardless of
//! faults — every correct process forwards at most two values.
//!
//! It serves two roles:
//!
//! * [`DolevStrongBb`] — a standalone Byzantine Broadcast baseline over
//!   the full system, tolerating `t` faults with `t + 1` rounds. This is
//!   the non-adaptive comparator for experiment E1 (its cost does not
//!   shrink when `f < t`).
//! * [`IcInstance`] — interactive consistency over a (small) scope:
//!   `m` parallel Dolev–Strong instances, one per member, tolerating up to
//!   `m - 1` faults in `m` rounds, followed by a deterministic majority
//!   vote over the common vector. This is the recursion's base-case strong
//!   BA (honest-majority scopes get strong unanimity; all scopes get
//!   agreement + termination).

use crate::instance::{InstanceId, Scope};
use crate::messages::{DsBbMsg, DsValSig, RecBaMsg};
use meba_core::{Decision, SubProtocol, SystemConfig};
use meba_crypto::{AggregateSignature, Pki, ProcessId, SecretKey, Signable};
use meba_sim::{Dest, Inbox, Sink};
use std::collections::BTreeMap;

/// The Dolev–Strong forwarding engine for a single designated sender.
#[derive(Debug)]
pub struct DsCore<V> {
    inst: InstanceId,
    session: u64,
    ds_sender: ProcessId,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    scope: Scope,
    rounds: u64,
    accepted: Vec<V>,
    input: Option<V>,
    output: Option<Option<V>>,
}

impl<V: meba_core::Value> DsCore<V> {
    /// Creates the engine; `input` is `Some` only at the designated
    /// sender. `rounds` is `t_max + 1` where `t_max` is the tolerated
    /// fault count.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inst: InstanceId,
        session: u64,
        ds_sender: ProcessId,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        rounds: u64,
        input: Option<V>,
    ) -> Self {
        DsCore {
            inst,
            session,
            ds_sender,
            me,
            key,
            pki,
            scope: inst.scope,
            rounds,
            accepted: Vec::new(),
            input,
            output: None,
        }
    }

    fn payload<'a>(&self, value: &'a V) -> DsValSig<'a, V> {
        DsValSig { session: self.session, inst: self.inst, ds_sender: self.ds_sender, value }
    }

    /// The extracted value: `Some(Some(v))` after the final round when the
    /// sender broadcast consistently, `Some(None)` for the default `⊥`.
    pub fn output(&self) -> Option<&Option<V>> {
        self.output.as_ref()
    }

    /// Executes local step `k`; `chains` lends the `(value, chain)` pairs
    /// addressed to this instance, and each pair it forwards is a
    /// broadcast to the scope ([`Dest::All`] in the caller's mapping).
    pub fn on_step<'a>(
        &mut self,
        k: u64,
        chains: impl Iterator<Item = (&'a V, &'a AggregateSignature)>,
        out: &mut dyn Sink<(V, AggregateSignature)>,
    ) {
        if k == 0 {
            if self.me == self.ds_sender {
                if let Some(v) = self.input.clone() {
                    let sig = self.key.sign(&self.payload(&v).signing_bytes());
                    let agg = self
                        .pki
                        .aggregate(&self.payload(&v).signing_bytes(), &[sig])
                        .expect("own share aggregates");
                    self.accepted.push(v.clone());
                    out.push(Dest::All, (v, agg));
                }
            }
            return;
        }
        if k <= self.rounds {
            for (value, agg) in chains {
                if self.accepted.len() >= 2 {
                    break;
                }
                let chain_ok = agg.len() as u64 >= k
                    && agg.contains(self.ds_sender)
                    && agg.signers().iter().all(|s| self.scope.contains(*s))
                    && self.pki.verify_aggregate(&self.payload(value).signing_bytes(), agg).is_ok();
                if !chain_ok || self.accepted.contains(value) {
                    continue;
                }
                self.accepted.push(value.clone());
                // Forward with our signature appended, unless the chain is
                // already maximal or we already signed it.
                if k < self.rounds && !agg.contains(self.me) && self.scope.contains(self.me) {
                    let sig = self.key.sign(&self.payload(value).signing_bytes());
                    let extended = self
                        .pki
                        .extend_aggregate(&self.payload(value).signing_bytes(), agg, &sig)
                        .expect("fresh signature extends");
                    out.push(Dest::All, (value.clone(), extended));
                }
            }
        }
        if k == self.rounds && self.output.is_none() {
            self.output =
                Some(if self.accepted.len() == 1 { Some(self.accepted[0].clone()) } else { None });
        }
    }
}

/// Standalone Dolev–Strong Byzantine Broadcast over the full system:
/// `t + 1` rounds, `O(n²)` words, *non-adaptive* (the baseline of E1).
#[derive(Debug)]
pub struct DolevStrongBb<V> {
    core: DsCore<V>,
    rounds: u64,
    finished: bool,
}

impl<V: meba_core::Value> DolevStrongBb<V> {
    /// Creates a participant; `input` is `Some` only at the sender.
    pub fn new(
        cfg: &SystemConfig,
        sender: ProcessId,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        input: Option<V>,
    ) -> Self {
        let inst = InstanceId::new(Scope::full(cfg.n()), 0);
        let rounds = cfg.t() as u64 + 1;
        DolevStrongBb {
            core: DsCore::new(inst, cfg.session(), sender, me, key, pki, rounds, input),
            rounds,
            finished: false,
        }
    }
}

impl<V: meba_core::Value> SubProtocol for DolevStrongBb<V> {
    type Msg = DsBbMsg<V>;
    type Output = Decision<V>;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, DsBbMsg<V>>,
        out: &mut dyn Sink<DsBbMsg<V>>,
    ) {
        if self.finished {
            return;
        }
        let chains = inbox.map(|(_, m)| (&m.value, &m.agg));
        self.core.on_step(step, chains, &mut out.map(|(value, agg)| DsBbMsg { value, agg }));
        if step >= self.rounds {
            self.finished = true;
        }
    }

    fn output(&self) -> Option<Decision<V>> {
        self.core.output().map(|o| match o {
            Some(v) => Decision::Value(v.clone()),
            None => Decision::Bot,
        })
    }

    fn done(&self) -> bool {
        self.finished
    }
}

/// Interactive consistency over a scope: `m` parallel Dolev–Strong
/// broadcasts plus a deterministic majority vote. The recursion's
/// base-case BA.
#[derive(Debug)]
pub struct IcInstance<V> {
    inst: InstanceId,
    input: V,
    cores: BTreeMap<ProcessId, DsCore<V>>,
    rounds: u64,
    decision: Option<V>,
}

/// Steps an interactive-consistency instance occupies for a scope of `m`
/// members: `m` Dolev–Strong rounds plus the vote step.
pub fn ic_steps(scope: &Scope) -> u64 {
    scope.len() as u64 + 1
}

impl<V: meba_core::Value> IcInstance<V> {
    /// Creates a participant with initial value `input`.
    pub fn new(
        inst: InstanceId,
        session: u64,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        input: V,
    ) -> Self {
        let scope = inst.scope;
        let rounds = scope.len() as u64;
        let cores = scope
            .members()
            .map(|s| {
                let core_input = if s == me { Some(input.clone()) } else { None };
                (
                    s,
                    DsCore::new(
                        InstanceId::new(scope, inst.seq),
                        session,
                        s,
                        me,
                        key.clone(),
                        pki.clone(),
                        rounds,
                        core_input,
                    ),
                )
            })
            .collect();
        IcInstance { inst, input, cores, rounds, decision: None }
    }

    /// The decision, available after the final step.
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }

    /// Executes local step `k`. Like graded agreement it only
    /// broadcasts to its scope: [`Dest::All`] in `out`, the caller's
    /// sink for the scope.
    pub fn on_step<'a>(
        &mut self,
        k: u64,
        inbox: impl Inbox<'a, RecBaMsg<V>>,
        out: &mut dyn Sink<RecBaMsg<V>>,
    ) {
        if k <= self.rounds {
            let inst = self.inst;
            // Each designated sender's core is lent the chains of its own
            // broadcast, in arrival order.
            for (&ds_sender, core) in self.cores.iter_mut() {
                let chains = inbox.clone().filter_map(move |(_, msg)| match msg {
                    RecBaMsg::DsForward { inst: i, ds_sender: s, value, agg }
                        if *i == inst && *s == ds_sender =>
                    {
                        Some((value, agg))
                    }
                    _ => None,
                });
                let forward = |(value, agg)| RecBaMsg::DsForward { inst, ds_sender, value, agg };
                core.on_step(k, chains, &mut out.map(forward));
            }
        }
        if k == self.rounds {
            // Outputs are final after the last DS round (k == rounds).
            let mut counts: BTreeMap<V, usize> = BTreeMap::new();
            for core in self.cores.values() {
                if let Some(Some(v)) = core.output() {
                    *counts.entry(v.clone()).or_default() += 1;
                }
            }
            let winner = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(v, _)| v.clone())
                .unwrap_or_else(|| self.input.clone());
            self.decision = Some(winner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_crypto::trusted_setup;

    fn run_ic(inputs: &[u64], silent: &[u32]) -> Vec<Option<u64>> {
        let n = inputs.len();
        let (pki, keys) = trusted_setup(n, 13);
        let inst = InstanceId::new(Scope::full(n), 0);
        let mut nodes: Vec<Option<IcInstance<u64>>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if silent.contains(&(i as u32)) {
                    None
                } else {
                    Some(IcInstance::new(
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
        for k in 0..ic_steps(&Scope::full(n)) {
            let mut next = Vec::new();
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
        nodes.iter().map(|n| n.as_ref().and_then(|n| n.decision().copied())).collect()
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let out = run_ic(&[6, 6, 6, 6], &[]);
        assert!(out.iter().all(|d| *d == Some(6)));
    }

    #[test]
    fn majority_input_wins() {
        let out = run_ic(&[6, 6, 6, 1], &[]);
        assert!(out.iter().all(|d| *d == Some(6)));
    }

    #[test]
    fn agreement_under_crash() {
        let out = run_ic(&[3, 5, 5, 3], &[0]);
        let alive: Vec<u64> = out.iter().skip(1).map(|d| d.unwrap()).collect();
        assert!(alive.windows(2).all(|w| w[0] == w[1]), "agreement: {alive:?}");
        // Strong unanimity does not apply (inputs differ), but the value
        // must be someone's input.
        assert!([3u64, 5].contains(&alive[0]));
    }

    #[test]
    fn lone_survivor_keeps_input() {
        let out = run_ic(&[9, 1, 1], &[1, 2]);
        assert_eq!(out[0], Some(9));
    }

    fn run_ds_bb(n: usize, sender: u32, input: u64, silent: &[u32]) -> Vec<Option<Decision<u64>>> {
        let cfg = SystemConfig::new(n, 0).unwrap();
        let (pki, keys) = trusted_setup(n, 19);
        let mut nodes: Vec<Option<DolevStrongBb<u64>>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if silent.contains(&(i as u32)) {
                    None
                } else {
                    let inp = if i as u32 == sender { Some(input) } else { None };
                    Some(DolevStrongBb::new(
                        &cfg,
                        ProcessId(sender),
                        ProcessId(i as u32),
                        k.clone(),
                        pki.clone(),
                        inp,
                    ))
                }
            })
            .collect();
        let mut pending: Vec<(ProcessId, DsBbMsg<u64>)> = Vec::new();
        // `t + 1` forwarding rounds and the step that extracts.
        for k in 0..cfg.t() as u64 + 2 {
            let mut next = Vec::new();
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
        nodes.iter().map(|n| n.as_ref().and_then(|n| n.output())).collect()
    }

    #[test]
    fn ds_bb_delivers_sender_value() {
        let out = run_ds_bb(5, 1, 44, &[]);
        assert!(out.iter().all(|d| *d == Some(Decision::Value(44))));
    }

    #[test]
    fn ds_bb_silent_sender_bot() {
        let out = run_ds_bb(5, 0, 44, &[0]);
        assert!(out.iter().skip(1).all(|d| *d == Some(Decision::Bot)));
    }

    #[test]
    fn ds_bb_agreement_with_crashes() {
        let out = run_ds_bb(7, 2, 8, &[4, 5]);
        for (i, d) in out.iter().enumerate() {
            if ![4usize, 5].contains(&i) {
                assert_eq!(*d, Some(Decision::Value(8)));
            }
        }
    }
}

#[cfg(test)]
mod chain_hardening_tests {
    use super::*;
    use meba_crypto::{trusted_setup, Signable};
    use meba_sim::Outbox;

    fn core_at(
        n: usize,
        me: u32,
        sender: u32,
    ) -> (DsCore<u64>, meba_crypto::Pki, Vec<meba_crypto::SecretKey>) {
        let (pki, keys) = trusted_setup(n, 91);
        let inst = InstanceId::new(Scope::full(n), 0);
        let core = DsCore::new(
            inst,
            0,
            ProcessId(sender),
            ProcessId(me),
            keys[me as usize].clone(),
            pki.clone(),
            n as u64 - 1,
            None,
        );
        (core, pki, keys)
    }

    fn chain(
        pki: &meba_crypto::Pki,
        keys: &[meba_crypto::SecretKey],
        signers: &[usize],
        sender: u32,
        value: u64,
        n: usize,
    ) -> (u64, meba_crypto::AggregateSignature) {
        let inst = InstanceId::new(Scope::full(n), 0);
        let payload = DsValSig { session: 0, inst, ds_sender: ProcessId(sender), value: &value };
        let sigs: Vec<_> =
            signers.iter().map(|&i| keys[i].sign(&payload.signing_bytes())).collect();
        (value, pki.aggregate(&payload.signing_bytes(), &sigs).unwrap())
    }

    #[test]
    fn chain_without_sender_signature_rejected() {
        let (mut core, pki, keys) = core_at(5, 1, 0);
        // Chain signed by p2, p3 but not the designated sender p0.
        let msg = chain(&pki, &keys, &[2, 3], 0, 7, 5);
        let mut out = Outbox::new();
        core.on_step(2, [(&msg.0, &msg.1)].into_iter(), &mut out);
        assert!(out.is_empty(), "must not forward a senderless chain");
        core.on_step(4, std::iter::empty(), &mut out);
        assert_eq!(core.output(), Some(&None), "nothing extracted");
    }

    #[test]
    fn short_chain_arriving_late_rejected() {
        let (mut core, pki, keys) = core_at(5, 1, 0);
        // A 1-signature chain arriving at step 3 (needs >= 3 signatures):
        // the classic "withheld until the last round" attack.
        let msg = chain(&pki, &keys, &[0], 0, 7, 5);
        let mut out = Outbox::new();
        core.on_step(3, [(&msg.0, &msg.1)].into_iter(), &mut out);
        assert!(out.is_empty());
        core.on_step(4, std::iter::empty(), &mut out);
        assert_eq!(core.output(), Some(&None));
    }

    #[test]
    fn adequate_chain_accepted_and_extended() {
        let (mut core, pki, keys) = core_at(5, 1, 0);
        let msg = chain(&pki, &keys, &[0, 2], 0, 7, 5);
        let mut out = Outbox::new();
        core.on_step(2, [(&msg.0, &msg.1)].into_iter(), &mut out);
        assert_eq!(out.len(), 1, "accepted value is forwarded");
        let (_, (_, chain)) = &out[0];
        assert_eq!(chain.len(), 3, "our signature was appended");
        assert!(chain.contains(ProcessId(1)));
        core.on_step(3, std::iter::empty(), &mut out);
        core.on_step(4, std::iter::empty(), &mut out);
        assert_eq!(core.output(), Some(&Some(7)));
    }

    #[test]
    fn out_of_scope_signer_rejected() {
        // Scope is [0, 3) but a signer from outside (p4 of the global
        // setup) contributes: the whole chain must be discarded.
        let n = 5;
        let (pki, keys) = trusted_setup(n, 91);
        let inst = InstanceId::new(Scope { lo: 0, hi: 3 }, 0);
        let mut core = DsCore::<u64>::new(
            inst,
            0,
            ProcessId(0),
            ProcessId(1),
            keys[1].clone(),
            pki.clone(),
            2,
            None,
        );
        let payload = DsValSig { session: 0, inst, ds_sender: ProcessId(0), value: &7u64 };
        let sigs =
            vec![keys[0].sign(&payload.signing_bytes()), keys[4].sign(&payload.signing_bytes())];
        let agg = pki.aggregate(&payload.signing_bytes(), &sigs).unwrap();
        let mut out = Outbox::new();
        core.on_step(2, [(&7, &agg)].into_iter(), &mut out);
        assert!(out.is_empty());
        assert_eq!(core.output(), Some(&None));
    }

    #[test]
    fn third_value_is_ignored() {
        // Dolev–Strong tracks at most two values; a third accepted value
        // would change nothing (still ⊥) and must not be forwarded.
        let (mut core, pki, keys) = core_at(5, 1, 0);
        let m1 = chain(&pki, &keys, &[0], 0, 1, 5);
        let m2 = chain(&pki, &keys, &[0], 0, 2, 5);
        let m3 = chain(&pki, &keys, &[0], 0, 3, 5);
        let mut out = Outbox::new();
        core.on_step(1, [(&m1.0, &m1.1), (&m2.0, &m2.1), (&m3.0, &m3.1)].into_iter(), &mut out);
        assert_eq!(out.len(), 2, "only the first two values are forwarded");
        core.on_step(2, std::iter::empty(), &mut out);
        core.on_step(3, std::iter::empty(), &mut out);
        core.on_step(4, std::iter::empty(), &mut out);
        assert_eq!(core.output(), Some(&None), "two conflicting values yield ⊥");
    }
}

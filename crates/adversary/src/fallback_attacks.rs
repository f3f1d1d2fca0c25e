//! Attacks on the fallback substrate (graded agreement, Dolev–Strong,
//! recursive BA).

use meba_core::{SystemConfig, Value};
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature};
use meba_fallback::instance::{InstanceId, Scope};
use meba_fallback::messages::{DsBbMsg, DsValSig, GaInputSig, RecBaMsg};
use meba_sim::{Actor, Message, Round, RoundCtx};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A Byzantine Dolev–Strong *sender* that signs two different values and
/// starts a chain of each toward different halves. Dolev–Strong's
/// guarantee is exactly that correct processes converge anyway: they
/// cross-forward both chains and extract `⊥`.
pub struct DsEquivocatingSender<V> {
    cfg: SystemConfig,
    key: SecretKey,
    pki: Pki,
    value_a: V,
    value_b: V,
    group_a: Vec<ProcessId>,
    group_b: Vec<ProcessId>,
}

impl<V: Value> DsEquivocatingSender<V> {
    /// Creates the attacker (it must be the DS designated sender).
    pub fn new(
        cfg: SystemConfig,
        key: SecretKey,
        pki: Pki,
        value_a: V,
        value_b: V,
        group_a: Vec<ProcessId>,
        group_b: Vec<ProcessId>,
    ) -> Self {
        DsEquivocatingSender { cfg, key, pki, value_a, value_b, group_a, group_b }
    }

    fn chain(&self, value: &V) -> DsBbMsg<V> {
        let inst = InstanceId::new(Scope::full(self.cfg.n()), 0);
        let payload =
            DsValSig { session: self.cfg.session(), inst, ds_sender: self.key.id(), value };
        let sig = self.key.sign(&payload.signing_bytes());
        let agg =
            self.pki.aggregate(&payload.signing_bytes(), &[sig]).expect("own signature aggregates");
        DsBbMsg { value: value.clone(), agg }
    }
}

impl<V: Value> Actor for DsEquivocatingSender<V> {
    type Msg = DsBbMsg<V>;

    fn id(&self) -> ProcessId {
        self.key.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        if ctx.round() != Round(0) {
            return;
        }
        let a = self.chain(&self.value_a);
        let b = self.chain(&self.value_b);
        for &p in &self.group_a {
            ctx.send(p, a.clone());
        }
        for &p in &self.group_b {
            ctx.send(p, b.clone());
        }
    }

    fn done(&self) -> bool {
        true
    }
}

/// A Byzantine graded-agreement participant that collects first-round
/// input signatures (it signs both candidate values with every cohort
/// key) and echoes `C1(value_a)` only to `group_a` and `C1(value_b)` only
/// to `group_b` — the split that tries to make two conflicting `C2`
/// certificates form. The GA's vote-carries-its-certificate rule defeats
/// it: any two honest voters for different values expose the conflict to
/// everyone one round before grading.
pub struct GaSplitEchoer<V, M> {
    cfg: SystemConfig,
    me: ProcessId,
    pki: Pki,
    cohort: Vec<SecretKey>,
    inst: InstanceId,
    value_a: V,
    value_b: V,
    group_a: Vec<ProcessId>,
    group_b: Vec<ProcessId>,
    input_sigs: BTreeMap<V, BTreeMap<ProcessId, Signature>>,
    _m: PhantomData<fn() -> M>,
}

impl<V: Value, M: Message> GaSplitEchoer<V, M> {
    /// Creates the attacker for the GA instance starting at round 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        pki: Pki,
        cohort: Vec<SecretKey>,
        inst: InstanceId,
        value_a: V,
        value_b: V,
        group_a: Vec<ProcessId>,
        group_b: Vec<ProcessId>,
    ) -> Self {
        GaSplitEchoer {
            cfg,
            me,
            pki,
            cohort,
            inst,
            value_a,
            value_b,
            group_a,
            group_b,
            input_sigs: BTreeMap::new(),
            _m: PhantomData,
        }
    }
}

impl<V: Value> Actor for GaSplitEchoer<V, RecBaMsg<V>> {
    type Msg = RecBaMsg<V>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        // Collect honest input signatures as they appear.
        for e in ctx.inbox() {
            if let RecBaMsg::GaInput { inst, value, sig } = &*e.msg {
                if *inst == self.inst {
                    let payload =
                        GaInputSig { session: self.cfg.session(), inst: self.inst, value };
                    if self.pki.verify(&payload.signing_bytes(), sig).is_ok() {
                        self.input_sigs
                            .entry(value.clone())
                            .or_default()
                            .insert(sig.signer(), sig.clone());
                    }
                }
            }
        }
        let r = ctx.round().as_u64();
        if r == 0 {
            // The cohort signs *both* values (Byzantine double-signing).
            for value in [self.value_a.clone(), self.value_b.clone()] {
                let payload =
                    GaInputSig { session: self.cfg.session(), inst: self.inst, value: &value };
                for key in &self.cohort {
                    let sig = key.sign(&payload.signing_bytes());
                    self.input_sigs.entry(value.clone()).or_default().insert(key.id(), sig);
                }
            }
        } else if r == 1 {
            // Selectively echo certificates.
            let thr = self.inst.scope.majority();
            for (value, group) in [
                (self.value_a.clone(), self.group_a.clone()),
                (self.value_b.clone(), self.group_b.clone()),
            ] {
                let payload =
                    GaInputSig { session: self.cfg.session(), inst: self.inst, value: &value };
                if let Some(sigs) = self.input_sigs.get(&value) {
                    if sigs.len() >= thr {
                        let shares: Vec<Signature> = sigs.values().cloned().collect();
                        if let Ok(c1) = self.pki.combine(thr, &payload.signing_bytes(), &shares) {
                            for &p in &group {
                                ctx.send(
                                    p,
                                    RecBaMsg::GaEcho {
                                        inst: self.inst,
                                        value: value.clone(),
                                        c1: c1.clone(),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn done(&self) -> bool {
        true
    }
}

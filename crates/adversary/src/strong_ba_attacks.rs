//! Attacks on the failure-free-linear strong BA (Algorithm 5).

use meba_core::signing::{sign_payload, verify_payload, StrongInputSig};
use meba_core::strong_ba::StrongBaMsg;
use meba_core::SystemConfig;
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature, WireCodec};
use meba_sim::{Actor, Message, RoundCtx};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A Byzantine strong-BA *leader* that certifies both binary values
/// (signing with its whole cohort) and proposes `true` to one group and
/// `false` to the other. The `(n, n)` decide certificate then cannot form,
/// every correct process falls back, and agreement must come from
/// `A_fallback` — which is exactly what the tests assert.
pub struct EquivocatingStrongLeader<FM> {
    cfg: SystemConfig,
    me: ProcessId,
    pki: Pki,
    cohort: Vec<SecretKey>,
    group_true: Vec<ProcessId>,
    group_false: Vec<ProcessId>,
    inputs: BTreeMap<bool, BTreeMap<ProcessId, Signature>>,
    _fm: PhantomData<fn() -> FM>,
}

impl<FM: Message + WireCodec> EquivocatingStrongLeader<FM> {
    /// Creates the attacker (it must be `p0`, the protocol leader).
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        pki: Pki,
        cohort: Vec<SecretKey>,
        group_true: Vec<ProcessId>,
        group_false: Vec<ProcessId>,
    ) -> Self {
        assert_eq!(me, ProcessId(0), "the strong BA leader is p0");
        EquivocatingStrongLeader {
            cfg,
            me,
            pki,
            cohort,
            group_true,
            group_false,
            inputs: BTreeMap::new(),
            _fm: PhantomData,
        }
    }
}

impl<FM: Message + WireCodec> Actor for EquivocatingStrongLeader<FM> {
    type Msg = StrongBaMsg<FM>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        for e in ctx.inbox() {
            if let StrongBaMsg::Input { value, sig } = &*e.msg {
                let payload = StrongInputSig { session: self.cfg.session(), value: *value };
                if sig.signer() == e.from && verify_payload(&self.pki, &payload, sig) {
                    self.inputs.entry(*value).or_default().insert(e.from, sig.clone());
                }
            }
        }
        if ctx.round().as_u64() == 1 {
            for (value, group) in
                [(true, self.group_true.clone()), (false, self.group_false.clone())]
            {
                let payload = StrongInputSig { session: self.cfg.session(), value };
                let mut sigs = self.inputs.get(&value).cloned().unwrap_or_default();
                for key in &self.cohort {
                    sigs.entry(key.id()).or_insert_with(|| sign_payload(key, &payload));
                }
                if sigs.len() >= self.cfg.idk_threshold() {
                    let shares: Vec<Signature> = sigs.into_values().collect();
                    if let Ok(qc) = self.pki.combine(
                        self.cfg.idk_threshold(),
                        &payload.signing_bytes(),
                        &shares,
                    ) {
                        for &p in &group {
                            ctx.send(p, StrongBaMsg::Propose { value, qc: qc.clone() });
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

//! Protocol-aware attacks on the adaptive weak BA.
//!
//! * [`SplitVoteLeader`] — drives the E8 threshold ablation: a Byzantine
//!   phase leader proposes different values to two groups and tries to
//!   assemble *two* commit/finalize certificates, topping up each side
//!   with the whole Byzantine cohort's signatures. Against the paper's
//!   `⌈(n+t+1)/2⌉` quorum this is impossible (the two vote sets would need
//!   to overlap in a correct process); against the naive `t + 1` quorum it
//!   succeeds and splits decisions.
//! * [`LateHelperLeader`] — drives the E9 safety-window ablation: a
//!   Byzantine leader completes a finalize certificate but shows it to
//!   nobody during the phases, then answers exactly one help request.
//!   With the paper's `2δ` window the lone decision propagates to every
//!   fallback participant; with the window disabled the fallback can
//!   contradict it.

use meba_core::signing::{
    sign_payload, verify_payload, CommitProof, DecideProof, DecideSig, VoteSig,
};
use meba_core::weak_ba::{WeakBaMsg, PHASE_ROUNDS};
use meba_core::{SystemConfig, Value};
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature, WireCodec};
use meba_sim::{Actor, Message, RoundCtx};
use std::collections::BTreeMap;
use std::marker::PhantomData;

fn collect_votes<V: Value, FM: Message + WireCodec>(
    cfg: &SystemConfig,
    pki: &Pki,
    ctx: &RoundCtx<'_, WeakBaMsg<V, FM>>,
    phase: u32,
    value: &V,
    store: &mut BTreeMap<ProcessId, Signature>,
) {
    for e in ctx.inbox() {
        if let WeakBaMsg::Vote { phase: p, value: v, sig } = &*e.msg {
            if *p == phase
                && v == value
                && sig.signer() == e.from
                && verify_payload(
                    pki,
                    &VoteSig { session: cfg.session(), value, level: phase },
                    sig,
                )
            {
                store.insert(e.from, sig.clone());
            }
        }
    }
}

fn collect_decides<V: Value, FM: Message + WireCodec>(
    cfg: &SystemConfig,
    pki: &Pki,
    ctx: &RoundCtx<'_, WeakBaMsg<V, FM>>,
    phase: u32,
    value: &V,
    store: &mut BTreeMap<ProcessId, Signature>,
) {
    for e in ctx.inbox() {
        if let WeakBaMsg::Decide { phase: p, value: v, sig } = &*e.msg {
            if *p == phase
                && v == value
                && sig.signer() == e.from
                && verify_payload(pki, &DecideSig { session: cfg.session(), value, phase }, sig)
            {
                store.insert(e.from, sig.clone());
            }
        }
    }
}

/// Tops `store` up with the cohort's own signatures over `payload` and
/// combines a quorum certificate if the threshold is reached.
fn top_up_and_combine<S: Signable>(
    cfg: &SystemConfig,
    pki: &Pki,
    cohort: &[SecretKey],
    payload: &S,
    store: &mut BTreeMap<ProcessId, Signature>,
) -> Option<meba_crypto::ThresholdSignature> {
    for key in cohort {
        store.entry(key.id()).or_insert_with(|| sign_payload(key, payload));
    }
    if store.len() < cfg.quorum() {
        return None;
    }
    let shares: Vec<Signature> = store.values().cloned().collect();
    pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).ok()
}

/// A Byzantine phase leader that proposes `value_a` to `group_a` and
/// `value_b` to `group_b`, trying to finalize both.
pub struct SplitVoteLeader<V, FM> {
    cfg: SystemConfig,
    me: ProcessId,
    pki: Pki,
    cohort: Vec<SecretKey>,
    phase: u32,
    value_a: V,
    value_b: V,
    group_a: Vec<ProcessId>,
    group_b: Vec<ProcessId>,
    votes_a: BTreeMap<ProcessId, Signature>,
    votes_b: BTreeMap<ProcessId, Signature>,
    decides_a: BTreeMap<ProcessId, Signature>,
    decides_b: BTreeMap<ProcessId, Signature>,
    _fm: PhantomData<fn() -> FM>,
}

impl<V: Value, FM: Message + WireCodec> SplitVoteLeader<V, FM> {
    /// Creates the attacker. `cohort` holds the secret keys of *all*
    /// corrupted processes (the adversary controls them jointly);
    /// `phase` must be a phase this process leads.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        pki: Pki,
        cohort: Vec<SecretKey>,
        phase: u32,
        value_a: V,
        value_b: V,
        group_a: Vec<ProcessId>,
        group_b: Vec<ProcessId>,
    ) -> Self {
        assert_eq!(cfg.leader_of_phase(phase), me, "attacker must lead the phase");
        SplitVoteLeader {
            cfg,
            me,
            pki,
            cohort,
            phase,
            value_a,
            value_b,
            group_a,
            group_b,
            votes_a: BTreeMap::new(),
            votes_b: BTreeMap::new(),
            decides_a: BTreeMap::new(),
            decides_b: BTreeMap::new(),
            _fm: PhantomData,
        }
    }
}

impl<V: Value, FM: Message + WireCodec> Actor for SplitVoteLeader<V, FM> {
    type Msg = WeakBaMsg<V, FM>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let base = (self.phase as u64 - 1) * PHASE_ROUNDS;
        let r = ctx.round().as_u64();
        // Accumulate evidence whenever it arrives (rushing delivers it a
        // round early).
        let (cfg, pki) = (self.cfg, self.pki.clone());
        collect_votes(&cfg, &pki, ctx, self.phase, &self.value_a.clone(), &mut self.votes_a);
        collect_votes(&cfg, &pki, ctx, self.phase, &self.value_b.clone(), &mut self.votes_b);
        collect_decides(&cfg, &pki, ctx, self.phase, &self.value_a.clone(), &mut self.decides_a);
        collect_decides(&cfg, &pki, ctx, self.phase, &self.value_b.clone(), &mut self.decides_b);

        if r == base {
            for &p in &self.group_a {
                ctx.send(p, WeakBaMsg::Propose { phase: self.phase, value: self.value_a.clone() });
            }
            for &p in &self.group_b {
                ctx.send(p, WeakBaMsg::Propose { phase: self.phase, value: self.value_b.clone() });
            }
        } else if r == base + 2 {
            for (value, votes, group) in [
                (self.value_a.clone(), &mut self.votes_a, self.group_a.clone()),
                (self.value_b.clone(), &mut self.votes_b, self.group_b.clone()),
            ] {
                let payload = VoteSig { session: cfg.session(), value: &value, level: self.phase };
                if let Some(qc) = top_up_and_combine(&cfg, &pki, &self.cohort, &payload, votes) {
                    let cert = WeakBaMsg::CommitCert {
                        phase: self.phase,
                        value: value.clone(),
                        proof: CommitProof { level: self.phase, qc },
                    };
                    for &p in &group {
                        ctx.send(p, cert.clone());
                    }
                }
            }
        } else if r == base + 4 {
            for (value, decides, group) in [
                (self.value_a.clone(), &mut self.decides_a, self.group_a.clone()),
                (self.value_b.clone(), &mut self.decides_b, self.group_b.clone()),
            ] {
                let payload =
                    DecideSig { session: cfg.session(), value: &value, phase: self.phase };
                if let Some(qc) = top_up_and_combine(&cfg, &pki, &self.cohort, &payload, decides) {
                    let cert = WeakBaMsg::FinalizeCert {
                        phase: self.phase,
                        value: value.clone(),
                        proof: DecideProof { phase: self.phase, qc },
                    };
                    for &p in &group {
                        ctx.send(p, cert.clone());
                    }
                }
            }
        }
    }

    fn done(&self) -> bool {
        true
    }
}

/// A Byzantine phase leader that secretly completes a finalize certificate
/// and answers exactly one help request with it after the phases.
pub struct LateHelperLeader<V, FM> {
    cfg: SystemConfig,
    me: ProcessId,
    pki: Pki,
    cohort: Vec<SecretKey>,
    phase: u32,
    value: V,
    target: ProcessId,
    votes: BTreeMap<ProcessId, Signature>,
    decides: BTreeMap<ProcessId, Signature>,
    proof: Option<DecideProof>,
    _fm: PhantomData<fn() -> FM>,
}

impl<V: Value, FM: Message + WireCodec> LateHelperLeader<V, FM> {
    /// Creates the attacker; the single `target` will receive the help
    /// answer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        pki: Pki,
        cohort: Vec<SecretKey>,
        phase: u32,
        value: V,
        target: ProcessId,
    ) -> Self {
        assert_eq!(cfg.leader_of_phase(phase), me, "attacker must lead the phase");
        LateHelperLeader {
            cfg,
            me,
            pki,
            cohort,
            phase,
            value,
            target,
            votes: BTreeMap::new(),
            decides: BTreeMap::new(),
            proof: None,
            _fm: PhantomData,
        }
    }

    /// Whether the secret finalize certificate was completed.
    pub fn armed(&self) -> bool {
        self.proof.is_some()
    }
}

impl<V: Value, FM: Message + WireCodec> Actor for LateHelperLeader<V, FM> {
    type Msg = WeakBaMsg<V, FM>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let base = (self.phase as u64 - 1) * PHASE_ROUNDS;
        let help_step = self.cfg.n() as u64 * PHASE_ROUNDS;
        let r = ctx.round().as_u64();
        let (cfg, pki) = (self.cfg, self.pki.clone());
        collect_votes(&cfg, &pki, ctx, self.phase, &self.value.clone(), &mut self.votes);
        collect_decides(&cfg, &pki, ctx, self.phase, &self.value.clone(), &mut self.decides);

        if r == base {
            ctx.broadcast(WeakBaMsg::Propose { phase: self.phase, value: self.value.clone() });
        } else if r == base + 2 {
            let payload = VoteSig { session: cfg.session(), value: &self.value, level: self.phase };
            if let Some(qc) =
                top_up_and_combine(&cfg, &pki, &self.cohort, &payload, &mut self.votes)
            {
                ctx.broadcast(WeakBaMsg::CommitCert {
                    phase: self.phase,
                    value: self.value.clone(),
                    proof: CommitProof { level: self.phase, qc },
                });
            }
        } else if r == base + 4 {
            // Complete the finalize certificate but tell no one.
            let payload =
                DecideSig { session: cfg.session(), value: &self.value, phase: self.phase };
            if let Some(qc) =
                top_up_and_combine(&cfg, &pki, &self.cohort, &payload, &mut self.decides)
            {
                self.proof = Some(DecideProof { phase: self.phase, qc });
            }
        } else if r == help_step + 1 {
            if let Some(proof) = &self.proof {
                ctx.send(
                    self.target,
                    WeakBaMsg::Help { value: self.value.clone(), proof: proof.clone() },
                );
            }
        }
    }

    fn done(&self) -> bool {
        true
    }
}

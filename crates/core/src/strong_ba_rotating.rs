//! **Extension (§8 direction):** rotating-leader binary strong BA.
//!
//! The paper leaves open whether a fully adaptive strong BA exists and
//! proves its Algorithm 5 linear only in the failure-free case — a single
//! fixed leader and an `(n, n)` decide certificate make *any* fault fall
//! back. This extension assembles the paper's own ingredients into a
//! strong BA that stays linear in more runs:
//!
//! * `t + 1` sequential leader attempts (so at least one leader is
//!   correct), each a 4-round Algorithm-5-style exchange;
//! * the decide certificate needs only the §6 quorum `⌈(n+t+1)/2⌉`
//!   instead of `n`, so up to `(n−t−1)/2` absentees cannot derail a
//!   correct leader;
//! * decide shares bind **only the value** (not the attempt), and a
//!   correct process decide-signs at most one value ever — so two
//!   certificates on different values would need `2q − n > t` common
//!   signers, i.e. a correct double-signer, which cannot exist. The
//!   certificate value is therefore unique across all attempts, which is
//!   exactly the paper's quorum-intersection trick.
//!
//! Guarantees: agreement, termination and strong unanimity always (the
//! fallback path mirrors Algorithm 5, 2δ window included). Linear words
//! when the honest inputs are unanimous, `f < (n−t−1)/2`, and one of the
//! first `f + 1` leaders is correct; quadratic otherwise. With split
//! honest inputs the `t + 1` propose certificate may be unreachable under
//! faults and the protocol falls back — full adaptivity for strong BA
//! remains open, as the paper says (and Elsheimy et al. later resolved).

use crate::config::SystemConfig;
use crate::signing::{sign_payload, verify_payload, StrongDecideSig, StrongInputSig};
use crate::strong_ba::{StrongBaMsg, StrongFallbackMsgOf};
use crate::subprotocol::{FallbackFactory, FallbackHost, SubProtocol};
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature, ThresholdSignature};
use meba_sim::Dest;
use std::collections::BTreeMap;

/// Rounds per leader attempt.
pub const ATTEMPT_ROUNDS: u64 = 4;

/// Rotating-leader binary strong BA (see module docs). Reuses
/// [`StrongBaMsg`] — attempts need no tags because every signed payload
/// binds only the session and value.
pub struct RotatingStrongBa<F>
where
    F: FallbackFactory<bool>,
{
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    input: bool,

    decision: Option<bool>,
    proof: Option<ThresholdSignature>,
    /// The single value this process has decide-signed (signed at most
    /// one value, ever — the global uniqueness rule).
    signed_value: Option<bool>,
    /// The hand-off to `A_fallback`, as in Algorithm 5.
    host: FallbackHost<bool, ThresholdSignature, F>,
    decided_at: Option<u64>,
    finished: bool,
}

impl<F> RotatingStrongBa<F>
where
    F: FallbackFactory<bool>,
{
    /// Creates an instance with binary input `input`.
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        input: bool,
    ) -> Self {
        RotatingStrongBa {
            cfg,
            me,
            key,
            pki,
            input,
            decision: None,
            proof: None,
            signed_value: None,
            host: FallbackHost::new(me, factory, input),
            decided_at: None,
            finished: false,
        }
    }

    /// Number of leader attempts (`t + 1`, so one leader is correct).
    pub fn attempts(cfg: &SystemConfig) -> u64 {
        cfg.t() as u64 + 1
    }

    /// First round of the fallback coordination phase.
    pub fn coordination_start(cfg: &SystemConfig) -> u64 {
        Self::attempts(cfg) * ATTEMPT_ROUNDS + 1
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Whether this process executed `A_fallback`.
    pub fn used_fallback(&self) -> bool {
        self.host.ran()
    }

    /// Step at which the decision was reached.
    pub fn decided_at(&self) -> Option<u64> {
        self.decided_at
    }

    fn leader_of_attempt(&self, j: u64) -> ProcessId {
        ProcessId((j % self.cfg.n() as u64) as u32)
    }

    fn attempt_of_step(&self, step: u64) -> Option<(u64, u64)> {
        let total = Self::attempts(&self.cfg) * ATTEMPT_ROUNDS;
        if step < total {
            Some((step / ATTEMPT_ROUNDS, step % ATTEMPT_ROUNDS))
        } else {
            None
        }
    }

    fn decide_cert_valid(&self, value: bool, qc: &ThresholdSignature) -> bool {
        qc.threshold() == self.cfg.quorum()
            && self
                .pki
                .verify_threshold(
                    &StrongDecideSig { session: self.cfg.session(), value }.signing_bytes(),
                    qc,
                )
                .is_ok()
    }

    fn fallback_deadline(&self) -> u64 {
        Self::coordination_start(&self.cfg) + 6
    }

    fn handle_fallback_msg(
        &mut self,
        step: u64,
        decision: &Option<(bool, ThresholdSignature)>,
        out: &mut Vec<(Dest, StrongBaMsg<StrongFallbackMsgOf<F>>)>,
    ) {
        if !self.host.accepts(step, self.fallback_deadline()) {
            return;
        }
        if let Some((v, qc)) = decision {
            if self.decision.is_none() && self.decide_cert_valid(*v, qc) {
                self.host.adopt(*v, qc.clone());
            }
        }
        if self.host.schedule(step) {
            let own = self.host.own_payload(self.decision.as_ref().zip(self.proof.as_ref()));
            out.push((Dest::All, StrongBaMsg::Fallback { decision: own }));
        }
    }
}

impl<F> SubProtocol for RotatingStrongBa<F>
where
    F: FallbackFactory<bool>,
{
    type Msg = StrongBaMsg<StrongFallbackMsgOf<F>>;
    type Output = bool;

    fn on_step(
        &mut self,
        step: u64,
        inbox: &[(ProcessId, Self::Msg)],
        out: &mut Vec<(Dest, Self::Msg)>,
    ) {
        if self.finished {
            return;
        }
        let coord = Self::coordination_start(&self.cfg);

        // --- Global handlers.
        // A decide certificate is accepted at the round after any
        // attempt's certificate broadcast (sub-round 0 of the next
        // attempt, or the first coordination round). The certificate
        // value is globally unique, so arrival timing cannot split
        // deciders by value — only by *whether* they decided, which the
        // fallback coordination handles as in Algorithm 5.
        let cert_arrival = self
            .attempt_of_step(step)
            .map(|(_, sub)| sub == 0 && step > 0)
            .unwrap_or(step == coord - 1 || step == coord);
        if cert_arrival {
            for (from, msg) in inbox {
                if let StrongBaMsg::DecideCert { value, qc } = msg {
                    // The certificate may come from whichever leader
                    // formed it in the previous attempt.
                    let prev_attempt = (step - 1) / ATTEMPT_ROUNDS;
                    if *from == self.leader_of_attempt(prev_attempt)
                        && self.decision.is_none()
                        && self.decide_cert_valid(*value, qc)
                    {
                        self.decision = Some(*value);
                        self.proof = Some(qc.clone());
                    }
                }
            }
        }
        if step >= coord {
            for (_, msg) in inbox {
                if let StrongBaMsg::Fallback { decision } = msg {
                    self.handle_fallback_msg(step, decision, out);
                }
            }
        }
        for (from, msg) in inbox {
            if let StrongBaMsg::Inner(env) = msg {
                self.host.deliver(*from, env);
            }
        }

        // --- Attempt rounds.
        if let Some((attempt, sub)) = self.attempt_of_step(step) {
            let leader = self.leader_of_attempt(attempt);
            match sub {
                // Undecided processes send their signed input.
                0 => {
                    if self.decision.is_none() {
                        let sig = sign_payload(
                            &self.key,
                            &StrongInputSig { session: self.cfg.session(), value: self.input },
                        );
                        out.push((Dest::To(leader), StrongBaMsg::Input { value: self.input, sig }));
                    }
                }
                // Leader: batch t+1 matching inputs into a propose cert.
                1 => {
                    if self.me == leader && self.decision.is_none() {
                        let mut by_value: BTreeMap<bool, BTreeMap<ProcessId, Signature>> =
                            BTreeMap::new();
                        for (from, msg) in inbox {
                            if let StrongBaMsg::Input { value, sig } = msg {
                                let payload =
                                    StrongInputSig { session: self.cfg.session(), value: *value };
                                if sig.signer() == *from && verify_payload(&self.pki, &payload, sig)
                                {
                                    by_value.entry(*value).or_default().insert(*from, sig.clone());
                                }
                            }
                        }
                        for (value, sigs) in by_value {
                            if sigs.len() >= self.cfg.idk_threshold() {
                                let payload = StrongInputSig { session: self.cfg.session(), value };
                                let qc = self
                                    .pki
                                    .combine(
                                        self.cfg.idk_threshold(),
                                        &payload.signing_bytes(),
                                        &sigs.into_values().collect::<Vec<_>>(),
                                    )
                                    .expect("verified shares combine");
                                out.push((Dest::All, StrongBaMsg::Propose { value, qc }));
                                break;
                            }
                        }
                    }
                }
                // Decide-share for a valid proposal — at most one value
                // ever; re-signing the same value is idempotent and keeps
                // later correct leaders supplied.
                2 => {
                    for (from, msg) in inbox {
                        if let StrongBaMsg::Propose { value, qc } = msg {
                            let payload =
                                StrongInputSig { session: self.cfg.session(), value: *value };
                            let valid = *from == leader
                                && qc.threshold() == self.cfg.idk_threshold()
                                && self.pki.verify_threshold(&payload.signing_bytes(), qc).is_ok();
                            if valid && self.signed_value.is_none_or(|sv| sv == *value) {
                                self.signed_value = Some(*value);
                                let sig = sign_payload(
                                    &self.key,
                                    &StrongDecideSig { session: self.cfg.session(), value: *value },
                                );
                                out.push((
                                    Dest::To(leader),
                                    StrongBaMsg::DecideShare { value: *value, sig },
                                ));
                                break;
                            }
                        }
                    }
                }
                // Leader: batch quorum decide shares.
                3 => {
                    if self.me == leader {
                        let mut by_value: BTreeMap<bool, BTreeMap<ProcessId, Signature>> =
                            BTreeMap::new();
                        for (from, msg) in inbox {
                            if let StrongBaMsg::DecideShare { value, sig } = msg {
                                let payload =
                                    StrongDecideSig { session: self.cfg.session(), value: *value };
                                if sig.signer() == *from && verify_payload(&self.pki, &payload, sig)
                                {
                                    by_value.entry(*value).or_default().insert(*from, sig.clone());
                                }
                            }
                        }
                        for (value, sigs) in by_value {
                            if sigs.len() >= self.cfg.quorum() {
                                let payload =
                                    StrongDecideSig { session: self.cfg.session(), value };
                                let qc = self
                                    .pki
                                    .combine(
                                        self.cfg.quorum(),
                                        &payload.signing_bytes(),
                                        &sigs.into_values().collect::<Vec<_>>(),
                                    )
                                    .expect("verified shares combine");
                                out.push((Dest::All, StrongBaMsg::DecideCert { value, qc }));
                                break;
                            }
                        }
                    }
                }
                _ => unreachable!("attempt has 4 rounds"),
            }
        } else if step == coord {
            // Undecided processes trigger the fallback (Alg 5 line 17).
            if self.decision.is_none() && self.host.schedule(step) {
                out.push((Dest::All, StrongBaMsg::Fallback { decision: None }));
            }
        }

        // --- Fallback execution.
        if let Some(v) = self.host.tick(step, self.decision.as_ref(), StrongBaMsg::Inner, out) {
            self.decision.get_or_insert(v);
            self.finished = true;
        }
        if self.decision.is_some() && self.host.quiescent(step, self.fallback_deadline()) {
            self.finished = true;
        }

        if self.decision.is_some() && self.decided_at.is_none() {
            self.decided_at = Some(step);
        }
    }

    fn output(&self) -> Option<bool> {
        if self.finished {
            self.decision
        } else {
            None
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

impl<F> std::fmt::Debug for RotatingStrongBa<F>
where
    F: FallbackFactory<bool>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RotatingStrongBa")
            .field("me", &self.me)
            .field("decision", &self.decision)
            .field("fallback_ran", &self.host.ran())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::EchoFallbackFactory;
    use crate::subprotocol::LockstepAdapter;
    use meba_crypto::trusted_setup;
    use meba_sim::{AnyActor, IdleActor, SimBuilder, Simulation};

    type Rba = RotatingStrongBa<EchoFallbackFactory>;
    type Msg = <Rba as SubProtocol>::Msg;

    fn make_sim(inputs: &[bool], crashed: &[u32]) -> Simulation<Msg> {
        let n = inputs.len();
        let cfg = SystemConfig::new(n, 6).unwrap();
        let (pki, keys) = trusted_setup(n, 41);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let rba = RotatingStrongBa::new(
                    cfg,
                    id,
                    key,
                    pki.clone(),
                    EchoFallbackFactory,
                    inputs[i],
                );
                actors.push(Box::new(LockstepAdapter::new(id, rba)));
            }
        }
        let mut b = SimBuilder::new(actors);
        for &c in crashed {
            b = b.corrupt(ProcessId(c));
        }
        b.build()
    }

    fn decisions(sim: &Simulation<Msg>, crashed: &[u32]) -> Vec<bool> {
        (0..sim.n() as u32)
            .filter(|i| !crashed.contains(i))
            .map(|i| {
                let a: &LockstepAdapter<Rba> =
                    sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect()
    }

    #[test]
    fn failure_free_decides_in_first_attempt() {
        let mut sim = make_sim(&[true; 7], &[]);
        sim.run_until_done(300).unwrap();
        let ds = decisions(&sim, &[]);
        assert!(ds.iter().all(|&d| d));
        for i in 0..7u32 {
            let a: &LockstepAdapter<Rba> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback());
            assert_eq!(a.inner().decided_at(), Some(4), "first attempt decides");
        }
    }

    #[test]
    fn crashed_leader_next_attempt_decides_without_fallback() {
        // This is exactly what Algorithm 5 cannot do: p0 (the fixed
        // leader) is down, yet the run stays linear — attempt 2's leader
        // p1 finishes because the quorum needs only ⌈(n+t+1)/2⌉ = 6 of 7
        // shares (n=9: 7 of 9).
        let crashed = [0u32];
        let mut sim = make_sim(&[true; 9], &crashed);
        sim.run_until_done(400).unwrap();
        let ds = decisions(&sim, &crashed);
        assert!(ds.iter().all(|&d| d), "strong unanimity");
        for i in 1..9u32 {
            let a: &LockstepAdapter<Rba> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback(), "p{i} must not fall back");
            assert_eq!(a.inner().decided_at(), Some(8), "second attempt decides");
        }
    }

    #[test]
    fn linear_words_with_crashed_leader() {
        let crashed = [0u32];
        for n in [9usize, 17, 33] {
            let mut sim = make_sim(&vec![true; n], &crashed);
            sim.run_until_done(60 * n as u64).unwrap();
            let words = sim.metrics().correct_words();
            assert!(
                words <= 14 * n as u64,
                "n={n}: {words} words — must stay linear despite the crashed leader"
            );
        }
    }

    #[test]
    fn beyond_bound_falls_back_and_agrees() {
        // n=9, t=4, adaptive bound 2: crash 4 (=t) — quorum unreachable,
        // fallback must run and unanimity must survive it.
        let crashed = [0u32, 2, 4, 6];
        let mut sim = make_sim(&[false; 9], &crashed);
        sim.run_until_done(600).unwrap();
        let ds = decisions(&sim, &crashed);
        assert!(ds.iter().all(|&d| !d));
    }

    #[test]
    fn split_inputs_still_agree() {
        let inputs = [true, false, true, false, true, false, true];
        let mut sim = make_sim(&inputs, &[]);
        sim.run_until_done(400).unwrap();
        let ds = decisions(&sim, &[]);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }

    #[test]
    fn split_inputs_with_crashes_agree() {
        let inputs = [true, false, true, false, true, false, true, false, true];
        let crashed = [1u32, 5];
        let mut sim = make_sim(&inputs, &crashed);
        sim.run_until_done(600).unwrap();
        let ds = decisions(&sim, &crashed);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }
}

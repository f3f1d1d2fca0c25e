//! Binary strong BA with linear words in the failure-free case
//! (Algorithm 5, §7).
//!
//! A single leader collects all signed inputs. Because the domain is
//! binary and `n = 2t + 1`, some value is proposed by `t + 1` processes
//! (pigeonhole), so the leader can batch a `(t+1, n)` propose certificate.
//! It then collects signed `decide` shares on the certified value; an
//! `(n, n)` decide certificate lets every process decide. Any correct
//! process that does not decide broadcasts a `fallback` message; everyone
//! who hears one echoes it (with its own decision and proof attached) and
//! runs `A_fallback` with `δ' = 2δ` after a `2δ` safety window, exactly as
//! in the weak BA (Lemmas 17–18, 25–29).
//!
//! Failure-free complexity: 4 leader rounds, `O(n)` words. Otherwise the
//! fallback dominates with `O(n²)`.

use crate::config::SystemConfig;
use crate::signing::{sign_payload, verify_payload, StrongDecideSig, StrongInputSig};
use crate::subprotocol::{FallbackFactory, FallbackHost, SkewEnvelope, SubProtocol};
use meba_crypto::{
    DecodeError, Decoder, Encoder, Pki, ProcessId, SecretKey, Signable, Signature,
    ThresholdSignature, WireCodec, WordCost,
};
use meba_sim::{Dest, Message};
use std::collections::BTreeMap;

/// Message type of the fallback used by [`StrongBa`] instances.
pub type StrongFallbackMsgOf<F> = <<F as FallbackFactory<bool>>::Protocol as SubProtocol>::Msg;

/// Wire messages of binary strong BA.
#[derive(Clone, Debug)]
pub enum StrongBaMsg<FM> {
    /// `⟨v_i⟩_p` to the leader (line 2).
    Input {
        /// The binary input.
        value: bool,
        /// Signature over [`StrongInputSig`].
        sig: Signature,
    },
    /// `⟨propose, v, QC⟩_leader` broadcast (line 6).
    Propose {
        /// The certified value.
        value: bool,
        /// `(t+1, n)` certificate over [`StrongInputSig`].
        qc: ThresholdSignature,
    },
    /// `⟨decide, v⟩_p` to the leader (line 8).
    DecideShare {
        /// The value.
        value: bool,
        /// Signature over [`StrongDecideSig`].
        sig: Signature,
    },
    /// `⟨decide, v, QC⟩_leader` broadcast (line 12).
    DecideCert {
        /// The decided value.
        value: bool,
        /// `(n, n)` certificate over [`StrongDecideSig`].
        qc: ThresholdSignature,
    },
    /// `⟨fallback, v?, proof?⟩` broadcast (lines 17 / 26).
    Fallback {
        /// The sender's decision and its `(n, n)` proof, if any.
        decision: Option<(bool, ThresholdSignature)>,
    },
    /// Inner `A_fallback` traffic.
    Inner(SkewEnvelope<FM>),
}

impl<FM: Message + WireCodec> Message for StrongBaMsg<FM> {
    fn words(&self) -> u64 {
        match self {
            StrongBaMsg::Input { sig, .. } | StrongBaMsg::DecideShare { sig, .. } => {
                1 + sig.words()
            }
            StrongBaMsg::Propose { qc, .. } | StrongBaMsg::DecideCert { qc, .. } => 1 + qc.words(),
            StrongBaMsg::Fallback { decision } => {
                1 + decision.as_ref().map_or(0, |(_, qc)| qc.words())
            }
            StrongBaMsg::Inner(env) => env.msg.words(),
        }
    }

    fn constituent_sigs(&self) -> u64 {
        match self {
            StrongBaMsg::Input { sig, .. } | StrongBaMsg::DecideShare { sig, .. } => {
                sig.constituent_sigs()
            }
            StrongBaMsg::Propose { qc, .. } | StrongBaMsg::DecideCert { qc, .. } => {
                qc.constituent_sigs()
            }
            StrongBaMsg::Fallback { decision } => {
                decision.as_ref().map_or(0, |(_, qc)| qc.constituent_sigs())
            }
            StrongBaMsg::Inner(env) => env.msg.constituent_sigs(),
        }
    }

    fn component(&self) -> &'static str {
        match self {
            StrongBaMsg::Inner(env) => env.msg.component(),
            StrongBaMsg::Fallback { .. } => "strong-ba/fallback-coord",
            _ => "strong-ba/fast-path",
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_len()
    }
}

impl<FM: WireCodec> WireCodec for StrongBaMsg<FM> {
    fn encode_wire(&self, enc: &mut Encoder) {
        match self {
            StrongBaMsg::Input { value, sig } => {
                enc.put_u32(0);
                enc.put_bool(*value);
                sig.encode(enc);
            }
            StrongBaMsg::Propose { value, qc } => {
                enc.put_u32(1);
                enc.put_bool(*value);
                qc.encode(enc);
            }
            StrongBaMsg::DecideShare { value, sig } => {
                enc.put_u32(2);
                enc.put_bool(*value);
                sig.encode(enc);
            }
            StrongBaMsg::DecideCert { value, qc } => {
                enc.put_u32(3);
                enc.put_bool(*value);
                qc.encode(enc);
            }
            StrongBaMsg::Fallback { decision } => {
                enc.put_u32(4);
                enc.put_option(decision, |e, (v, qc)| {
                    e.put_bool(*v);
                    qc.encode(e);
                });
            }
            StrongBaMsg::Inner(env) => {
                enc.put_u32(5);
                env.encode_wire(enc);
            }
        }
    }

    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u32()? {
            0 => Ok(StrongBaMsg::Input { value: dec.get_bool()?, sig: Signature::decode(dec)? }),
            1 => Ok(StrongBaMsg::Propose {
                value: dec.get_bool()?,
                qc: ThresholdSignature::decode(dec)?,
            }),
            2 => Ok(StrongBaMsg::DecideShare {
                value: dec.get_bool()?,
                sig: Signature::decode(dec)?,
            }),
            3 => Ok(StrongBaMsg::DecideCert {
                value: dec.get_bool()?,
                qc: ThresholdSignature::decode(dec)?,
            }),
            4 => Ok(StrongBaMsg::Fallback {
                decision: dec
                    .get_option(|d| Ok((d.get_bool()?, ThresholdSignature::decode(d)?)))?,
            }),
            5 => Ok(StrongBaMsg::Inner(SkewEnvelope::decode_wire(dec)?)),
            _ => Err(DecodeError::Invalid { what: "StrongBaMsg variant tag" }),
        }
    }
}

/// The binary strong BA state machine (one per process).
pub struct StrongBa<F>
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
    sent_decide_share: bool,
    /// The hand-off to `A_fallback` (lines 16–30).
    host: FallbackHost<bool, ThresholdSignature, F>,
    decided_at: Option<u64>,
    finished: bool,
}

impl<F> StrongBa<F>
where
    F: FallbackFactory<bool>,
{
    /// Creates a strong BA instance with binary input `input`.
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        input: bool,
    ) -> Self {
        StrongBa {
            cfg,
            me,
            key,
            pki,
            input,
            decision: None,
            proof: None,
            sent_decide_share: false,
            host: FallbackHost::new(me, factory, input),
            decided_at: None,
            finished: false,
        }
    }

    /// The single leader (`p_1` in the paper; `p0` here).
    pub fn leader(&self) -> ProcessId {
        ProcessId(0)
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

    /// Last step at which fallback coordination messages are accepted.
    fn fallback_deadline(&self) -> u64 {
        10
    }

    fn decide_cert_valid(&self, value: bool, qc: &ThresholdSignature) -> bool {
        qc.threshold() == self.cfg.n()
            && self
                .pki
                .verify_threshold(
                    &StrongDecideSig { session: self.cfg.session(), value }.signing_bytes(),
                    qc,
                )
                .is_ok()
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
        // Safety-window adoption (lines 21–24).
        if let Some((v, qc)) = decision {
            if self.decision.is_none() && self.decide_cert_valid(*v, qc) {
                self.host.adopt(*v, qc.clone());
            }
        }
        // First receipt: echo and schedule (lines 25–27).
        if self.host.schedule(step) {
            let own = self.host.own_payload(self.decision.as_ref().zip(self.proof.as_ref()));
            out.push((Dest::All, StrongBaMsg::Fallback { decision: own }));
        }
    }
}

impl<F> SubProtocol for StrongBa<F>
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
        let leader = self.leader();

        // --- Global handlers.
        // Decide certificates are accepted only at their scheduled
        // arrival (round 5, line 13). Accepting one later would let the
        // adversary create a lone decider after fallback coordination has
        // begun, splitting it from its peers.
        for (from, msg) in inbox {
            if let StrongBaMsg::DecideCert { value, qc } = msg {
                if step == 4
                    && *from == leader
                    && self.decision.is_none()
                    && self.decide_cert_valid(*value, qc)
                {
                    self.decision = Some(*value);
                    self.proof = Some(qc.clone());
                }
            }
        }
        for (_, msg) in inbox {
            if let StrongBaMsg::Fallback { decision } = msg {
                self.handle_fallback_msg(step, decision, out);
            }
        }
        for (from, msg) in inbox {
            if let StrongBaMsg::Inner(env) = msg {
                self.host.deliver(*from, env);
            }
        }

        // --- Scheduled actions.
        match step {
            // Round 1: send the signed input to the leader (line 2).
            0 => {
                let sig = sign_payload(
                    &self.key,
                    &StrongInputSig { session: self.cfg.session(), value: self.input },
                );
                out.push((Dest::To(leader), StrongBaMsg::Input { value: self.input, sig }));
            }
            // Round 2 (leader): batch t+1 matching inputs (lines 3–6).
            1 if self.me == leader => {
                let mut by_value: BTreeMap<bool, BTreeMap<ProcessId, Signature>> = BTreeMap::new();
                for (from, msg) in inbox {
                    if let StrongBaMsg::Input { value, sig } = msg {
                        let payload = StrongInputSig { session: self.cfg.session(), value: *value };
                        if sig.signer() == *from && verify_payload(&self.pki, &payload, sig) {
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
            // Round 3: decide-share for the first valid proposal
            // (lines 7–8).
            2 => {
                for (from, msg) in inbox {
                    if self.sent_decide_share {
                        break;
                    }
                    if let StrongBaMsg::Propose { value, qc } = msg {
                        let input_payload =
                            StrongInputSig { session: self.cfg.session(), value: *value };
                        let valid = *from == leader
                            && qc.threshold() == self.cfg.idk_threshold()
                            && self
                                .pki
                                .verify_threshold(&input_payload.signing_bytes(), qc)
                                .is_ok();
                        if valid {
                            let sig = sign_payload(
                                &self.key,
                                &StrongDecideSig { session: self.cfg.session(), value: *value },
                            );
                            out.push((
                                Dest::To(leader),
                                StrongBaMsg::DecideShare { value: *value, sig },
                            ));
                            self.sent_decide_share = true;
                        }
                    }
                }
            }
            // Round 4 (leader): batch n decide shares (lines 9–12).
            3 if self.me == leader => {
                let mut by_value: BTreeMap<bool, BTreeMap<ProcessId, Signature>> = BTreeMap::new();
                for (from, msg) in inbox {
                    if let StrongBaMsg::DecideShare { value, sig } = msg {
                        let payload =
                            StrongDecideSig { session: self.cfg.session(), value: *value };
                        if sig.signer() == *from && verify_payload(&self.pki, &payload, sig) {
                            by_value.entry(*value).or_default().insert(*from, sig.clone());
                        }
                    }
                }
                for (value, sigs) in by_value {
                    if sigs.len() == self.cfg.n() {
                        let payload = StrongDecideSig { session: self.cfg.session(), value };
                        let qc = self
                            .pki
                            .combine(
                                self.cfg.n(),
                                &payload.signing_bytes(),
                                &sigs.into_values().collect::<Vec<_>>(),
                            )
                            .expect("verified shares combine");
                        out.push((Dest::All, StrongBaMsg::DecideCert { value, qc }));
                        break;
                    }
                }
            }
            // Round 5: anyone still undecided triggers the fallback
            // (lines 16–18). The decide certificate, if any, was adopted
            // by the global handler above this match.
            4 if self.decision.is_none() && self.host.schedule(step) => {
                out.push((Dest::All, StrongBaMsg::Fallback { decision: None }));
            }
            _ => {}
        }

        // --- Fallback execution (lines 28–30).
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

impl<F> std::fmt::Debug for StrongBa<F>
where
    F: FallbackFactory<bool>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrongBa")
            .field("me", &self.me)
            .field("input", &self.input)
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

    type Sba = StrongBa<EchoFallbackFactory>;
    type Msg = <Sba as SubProtocol>::Msg;

    fn make_sim(inputs: &[bool], crashed: &[u32]) -> Simulation<Msg> {
        let n = inputs.len();
        let cfg = SystemConfig::new(n, 5).unwrap();
        let (pki, keys) = trusted_setup(n, 31);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let sba = StrongBa::new(cfg, id, key, pki.clone(), EchoFallbackFactory, inputs[i]);
                actors.push(Box::new(LockstepAdapter::new(id, sba)));
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
                let a: &LockstepAdapter<Sba> =
                    sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect()
    }

    #[test]
    fn failure_free_unanimous_true() {
        let mut sim = make_sim(&[true; 7], &[]);
        sim.run_until_done(100).unwrap();
        assert!(decisions(&sim, &[]).iter().all(|&d| d));
        for i in 0..7u32 {
            let a: &LockstepAdapter<Sba> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback(), "Lemma 8: no fallback when f = 0");
        }
    }

    #[test]
    fn failure_free_majority_of_inputs_or_agreement() {
        // Mixed inputs: 4 true, 3 false. The leader certifies whichever
        // value reaches t+1 = 4 first; all must agree.
        let inputs = [true, true, false, true, false, true, false];
        let mut sim = make_sim(&inputs, &[]);
        sim.run_until_done(100).unwrap();
        let ds = decisions(&sim, &[]);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }

    #[test]
    fn failure_free_words_linear() {
        for n in [5usize, 9, 17, 33] {
            let mut sim = make_sim(&vec![true; n], &[]);
            sim.run_until_done(100).unwrap();
            let words = sim.metrics().correct_words();
            assert!(words <= 9 * n as u64, "n={n}: {words} words");
        }
    }

    #[test]
    fn crashed_leader_falls_back_and_agrees() {
        let crashed = [0u32];
        let inputs = [false, true, true, true, true, true, true];
        let mut sim = make_sim(&inputs, &crashed);
        sim.run_until_done(200).unwrap();
        let ds = decisions(&sim, &crashed);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
        // Strong unanimity among correct: all correct proposed true.
        assert!(ds.iter().all(|&d| d));
        for i in 1..7u32 {
            let a: &LockstepAdapter<Sba> = sim.actor(ProcessId(i)).as_any().downcast_ref().unwrap();
            assert!(a.inner().used_fallback());
        }
    }

    #[test]
    fn one_crashed_follower_still_agrees() {
        // A missing decide share forces the (n, n) certificate to fail and
        // the protocol to fall back — complexity becomes quadratic but
        // agreement and validity hold.
        let crashed = [3u32];
        let inputs = [true; 7];
        let mut sim = make_sim(&inputs, &crashed);
        sim.run_until_done(200).unwrap();
        let ds = decisions(&sim, &crashed);
        assert!(ds.iter().all(|&d| d), "strong unanimity: {ds:?}");
    }
}

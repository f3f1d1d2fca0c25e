//! Adaptive Byzantine Broadcast (Algorithms 1 and 2, §5).
//!
//! BB is reduced to weak BA with the `BB_valid` predicate: a value is
//! valid iff it is signed by the designated sender, or it is an `idk`
//! quorum certificate signed by `t + 1` processes. The reduction has three
//! parts:
//!
//! 1. **Dissemination** (round 1): the sender broadcasts `⟨v⟩_sender`.
//! 2. **Vetting** (`n` leader-based phases × 3 rounds): a leader that has
//!    no BA input yet asks for help; processes forward their value or a
//!    signed `idk`; the leader broadcasts a sender-signed value, a
//!    forwarded certificate, or a fresh `idk` quorum certificate. Phases
//!    whose leader already holds a value are **silent**, so only
//!    `O(f + 1)` phases are non-silent (Lemma 9 / §5.1).
//! 3. **Weak BA** over the vetted values; a decision is the sender's value
//!    if the BA output is of the form `⟨v⟩_sender`, else `⊥`.
//!
//! Implementation note (documented deviation): Algorithm 2 line 23 only
//! lets a leader re-broadcast *sender-signed* values, and line 25 only
//! *fresh* `idk` shares. A Byzantine leader, however, can place an idk
//! certificate at some correct processes only; a later correct leader
//! would then receive neither a sender-signed value nor `t + 1` fresh
//! `idk`s and its phase would vet nothing. We therefore also let a leader
//! re-broadcast a forwarded *valid* `idk` certificate. This preserves
//! Lemma 10/12 (when the sender is correct no `idk` certificate can exist
//! at all, so nothing new becomes broadcastable) and restores Lemma 9 in
//! that corner.

use crate::config::SystemConfig;
use crate::decision::Decision;
use crate::signing::{
    sign_payload, verify_payload, BbIdkSig, BbValueSig, DecideProof, ShareCollector,
};
use crate::subprotocol::{next_scheduled, FallbackFactory, SubProtocol};
use crate::validity::Validity;
use crate::value::Value;
use crate::weak_ba::{FallbackMsgOf, WeakBa, WeakBaMsg};
use meba_crypto::WordCost;
use meba_crypto::{
    DecodeError, Decoder, Encoder, Pki, ProcessId, SecretKey, Signable, Signature,
    ThresholdSignature, WireCodec,
};
use meba_sim::{Dest, Inbox, Message, Sink};
use std::sync::{Arc, OnceLock};

crate::wire_schema! {
    /// The weak BA value domain of the BB reduction: either the sender's
    /// signed value or an `idk` quorum certificate.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum BbBaValue<V: Value>: WordCost {
        /// `⟨v⟩_sender`.
        0 => Signed {
            /// The sender's value.
            value: V,
            /// The sender's signature over [`BbValueSig`].
            sig: Signature,
        },
        /// `QC_idk` from vetting phase `phase`: proof that `t + 1` processes
        /// had no value.
        1 => IdkQuorum {
            /// The phase whose `idk` shares were batched.
            phase: u32 as Meta,
            /// `(t+1, n)`-threshold certificate over [`BbIdkSig`].
            qc: ThresholdSignature,
        },
    }
}

/// As a weak BA value, a `BbBaValue` is its schema encoding and costs.
impl<V: Value> Value for BbBaValue<V> {
    fn encode_value(&self, enc: &mut Encoder) {
        self.encode_wire(enc);
    }
    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_wire(dec)
    }
    fn value_words(&self) -> u64 {
        WordCost::words(self)
    }
    fn value_len(&self) -> u64 {
        self.wire_len()
    }
}

/// The `BB_valid` predicate (§5): signed by the sender, or signed by
/// `t + 1` processes.
///
/// A correct sender signs one value, which a process checks at
/// dissemination, in the embedded weak BA's proposals and on its
/// decision. The first sender-signed value that verifies is remembered
/// (its signing preimage and signature), shared by every clone of the
/// predicate, and a byte-equal pair is valid without a second verify;
/// any other pair is verified.
#[derive(Clone, Debug)]
pub struct BbValidity {
    cfg: SystemConfig,
    pki: Pki,
    sender: ProcessId,
    verified: Arc<OnceLock<(Vec<u8>, Signature)>>,
}

impl BbValidity {
    /// Creates the predicate for a BB instance with the given sender.
    pub fn new(cfg: SystemConfig, pki: Pki, sender: ProcessId) -> Self {
        BbValidity { cfg, pki, sender, verified: Arc::default() }
    }
}

impl<V: Value> Validity<BbBaValue<V>> for BbValidity {
    fn validate(&self, v: &BbBaValue<V>) -> bool {
        match v {
            BbBaValue::Signed { value, sig } => {
                if sig.signer() != self.sender {
                    return false;
                }
                let payload = BbValueSig { session: self.cfg.session(), value };
                let remembered = self.verified.get().is_some_and(|(preimage, verified)| {
                    verified == sig && payload.with_signing_bytes(|b| b == preimage.as_slice())
                });
                if remembered {
                    return true;
                }
                let valid = verify_payload(&self.pki, &payload, sig);
                if valid {
                    let _ = self.verified.set((payload.signing_bytes(), sig.clone()));
                }
                valid
            }
            BbBaValue::IdkQuorum { phase, qc } => {
                *phase >= 1
                    && *phase as usize <= self.cfg.n()
                    && qc.threshold() == self.cfg.idk_threshold()
                    && self
                        .pki
                        .verify_threshold(
                            &BbIdkSig { session: self.cfg.session(), phase: *phase }
                                .signing_bytes(),
                            qc,
                        )
                        .is_ok()
            }
        }
    }
}

crate::wire_schema! {
    /// Wire messages of the BB protocol. `FM` is the fallback message type.
    #[derive(Clone, Debug)]
    pub enum BbMsg<V: Value, FM: Message + WireCodec>: Message {
        /// `⟨v⟩_sender` broadcast in round 1 (Alg 1 line 2).
        0 => SenderValue {
            /// The sender's value.
            value: V,
            /// Signature over [`BbValueSig`].
            sig: Signature,
        } in "bb/dissemination",
        /// `⟨help_req, j⟩_leader` (Alg 2 line 16).
        1 => VetHelpReq {
            /// Vetting phase.
            phase: u32 as Meta,
        } in "bb/vetting",
        /// `⟨v_i, j⟩` forwarded to the leader (line 19).
        2 => VetValue {
            /// Vetting phase.
            phase: u32 as Meta,
            /// The responder's current BA value.
            value: BbBaValue<V> as Signed,
        } in "bb/vetting",
        /// `⟨idk, j⟩_p` (line 21).
        3 => VetIdk {
            /// Vetting phase.
            phase: u32 as Meta,
            /// Signature over [`BbIdkSig`].
            sig: Signature,
        } in "bb/vetting",
        /// The leader's vetting broadcast (lines 24 / 27).
        4 => Vetted {
            /// Vetting phase.
            phase: u32 as Meta,
            /// The vetted value.
            value: BbBaValue<V> as Signed,
        } in "bb/vetting",
        /// Embedded weak BA traffic (Alg 1 line 9).
        5 => Ba(WeakBaMsg<BbBaValue<V>, FM>),
    }
}

/// Rounds per vetting phase.
pub const VET_ROUNDS: u64 = 3;

/// The full wire-message type of a [`Bb`] built with factory `F`.
pub type BbMsgOf<V, F> = BbMsg<V, FallbackMsgOf<BbBaValue<V>, F>>;

/// The adaptive Byzantine Broadcast state machine (one per process).
pub struct Bb<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    factory: F,
    sender: ProcessId,
    sender_input: Option<V>,
    validity: BbValidity,

    vi: Option<BbBaValue<V>>,
    /// The vetting phase this process asked for help in as leader, read
    /// back two rounds later — keyed by phase, not cleared per step, so
    /// the silent rounds in between need not run.
    requested_phase: Option<u32>,
    nonsilent_as_leader: bool,
    ba: Option<WeakBa<BbBaValue<V>, BbValidity, F>>,
    decision: Option<Decision<V>>,
    decided_at: Option<u64>,
    stalled: bool,
    finished: bool,
}

impl<V, F> Bb<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    /// Creates a non-sender participant.
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        sender: ProcessId,
    ) -> Self {
        Bb {
            cfg,
            me,
            key,
            validity: BbValidity::new(cfg, pki.clone(), sender),
            pki,
            factory,
            sender,
            sender_input: None,
            vi: None,
            requested_phase: None,
            nonsilent_as_leader: false,
            ba: None,
            decision: None,
            decided_at: None,
            stalled: false,
            finished: false,
        }
    }

    /// Creates the designated sender with its input `v_sender`.
    pub fn new_sender(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        input: V,
    ) -> Self {
        let mut bb = Self::new(cfg, me, key, pki, factory, me);
        bb.sender_input = Some(input);
        bb
    }

    /// First step of the embedded weak BA.
    pub fn ba_start(cfg: &SystemConfig) -> u64 {
        1 + cfg.n() as u64 * VET_ROUNDS
    }

    /// Worst-case schedule length of a whole BB instance (dissemination,
    /// vetting, embedded weak BA including its fallback).
    pub fn max_schedule(cfg: &SystemConfig, factory: &F) -> u64 {
        Self::ba_start(cfg) + WeakBa::<BbBaValue<V>, BbValidity, F>::max_schedule(cfg, factory)
    }

    /// The sender's input: `Some` on the designated sender only.
    pub fn sender_input(&self) -> Option<&V> {
        self.sender_input.as_ref()
    }

    /// The BB decision: the sender's value, or `⊥`.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decision.as_ref()
    }

    /// The transferable commit evidence for this instance's decision:
    /// the BA-level value the embedded weak BA decided, plus the quorum
    /// [`DecideProof`] certifying it under this instance's session.
    ///
    /// Present exactly when the embedded BA finalized through the fast
    /// path (a `decide` quorum); fallback-path decisions settle without
    /// a `DecideProof` and return `None`. A third party that trusts the
    /// PKI can re-derive the BB decision from the pair alone: verify the
    /// proof against the BA value, then map `Signed` values that
    /// validate under [`BbValidity`] to the sender's value and
    /// everything else to `⊥` — exactly the mapping `on_step` applies
    /// when the BA completes. State transfer (DESIGN.md §16) ships this
    /// pair so restarted replicas accept committed slots from a single
    /// donor without trusting it.
    pub fn commit_evidence(&self) -> Option<(&BbBaValue<V>, &DecideProof)> {
        let ba = self.ba.as_ref()?;
        let proof = ba.decide_proof()?;
        match ba.decision()? {
            Decision::Value(v) => Some((v, proof)),
            Decision::Bot => None,
        }
    }

    /// Step at which the decision was reached (for latency profiles).
    ///
    /// This is when the *embedded weak BA* settled, not when the full
    /// fixed schedule finished — the quantity experiment E7 plots.
    pub fn decided_at(&self) -> Option<u64> {
        match &self.ba {
            Some(ba) => ba.decided_at().map(|s| s + Self::ba_start(&self.cfg)),
            None => self.decided_at,
        }
    }

    /// Whether this process initiated a non-silent vetting phase.
    pub fn led_nonsilent_phase(&self) -> bool {
        self.nonsilent_as_leader
    }

    /// Whether the embedded weak BA executed its fallback.
    pub fn used_fallback(&self) -> bool {
        self.ba.as_ref().is_some_and(|ba| ba.used_fallback())
    }

    /// Whether this process stalled for lack of a vetted value — never
    /// true for a correctly-scheduled process (Lemma 11); exposed so
    /// harnesses can distinguish a stall from a slow run.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    fn vet_phase_of_step(&self, step: u64) -> Option<(u32, u64)> {
        let n = self.cfg.n() as u64;
        if step >= 1 && step < 1 + n * VET_ROUNDS {
            let s = step - 1;
            Some(((s / VET_ROUNDS) as u32 + 1, s % VET_ROUNDS))
        } else {
            None
        }
    }

    fn run_vet_step<'a>(
        &mut self,
        phase: u32,
        sub: u64,
        mut inbox: impl Inbox<'a, BbMsgOf<V, F>>,
        out: &mut dyn Sink<BbMsgOf<V, F>>,
    ) {
        let leader = self.cfg.leader_of_phase(phase);
        let is_leader = leader == self.me;
        match sub {
            // Round 1: a value-less leader asks for help (lines 15–16).
            0 => {
                if is_leader && self.vi.is_none() {
                    self.requested_phase = Some(phase);
                    self.nonsilent_as_leader = true;
                    out.push(Dest::All, BbMsg::VetHelpReq { phase });
                }
            }
            // Round 2: answer the leader (lines 17–21).
            1 => {
                let asked = inbox.any(|(from, m)| {
                    from == leader && matches!(m, BbMsg::VetHelpReq { phase: p } if *p == phase)
                });
                if asked {
                    match &self.vi {
                        Some(v) => {
                            out.push(Dest::To(leader), BbMsg::VetValue { phase, value: v.clone() })
                        }
                        None => {
                            let sig = sign_payload(
                                &self.key,
                                &BbIdkSig { session: self.cfg.session(), phase },
                            );
                            out.push(Dest::To(leader), BbMsg::VetIdk { phase, sig });
                        }
                    }
                }
            }
            // Round 3 (leader): broadcast a sender-signed value, a
            // forwarded certificate, or a fresh idk certificate
            // (lines 22–27).
            2 => {
                if !is_leader || self.requested_phase != Some(phase) {
                    return;
                }
                let validity = &self.validity;
                let mut signed: Option<BbBaValue<V>> = None;
                let mut forwarded_qc: Option<BbBaValue<V>> = None;
                let mut idk_shares = ShareCollector::new(
                    &self.pki,
                    &BbIdkSig { session: self.cfg.session(), phase },
                    self.cfg.idk_threshold(),
                );
                for (from, msg) in inbox {
                    match msg {
                        BbMsg::VetValue { phase: p, value } if *p == phase => {
                            if !validity.validate(value) {
                                continue;
                            }
                            match value {
                                BbBaValue::Signed { .. } if signed.is_none() => {
                                    signed = Some(value.clone());
                                }
                                BbBaValue::IdkQuorum { .. } if forwarded_qc.is_none() => {
                                    forwarded_qc = Some(value.clone());
                                }
                                _ => {}
                            }
                        }
                        BbMsg::VetIdk { phase: p, sig } if *p == phase => {
                            idk_shares.defer(from, sig);
                        }
                        _ => {}
                    }
                }
                if let Some(v) = signed {
                    out.push(Dest::All, BbMsg::Vetted { phase, value: v });
                } else if let Some(v) = forwarded_qc {
                    out.push(Dest::All, BbMsg::Vetted { phase, value: v });
                } else if let Some(qc) = idk_shares.certificate() {
                    out.push(
                        Dest::All,
                        BbMsg::Vetted { phase, value: BbBaValue::IdkQuorum { phase, qc } },
                    );
                }
            }
            _ => unreachable!("vetting phase has 3 rounds"),
        }
    }
}

impl<V, F> SubProtocol for Bb<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    type Msg = BbMsg<V, FallbackMsgOf<BbBaValue<V>, F>>;
    type Output = Decision<V>;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, Self::Msg>,
        out: &mut dyn Sink<Self::Msg>,
    ) {
        if self.finished {
            return;
        }

        // --- Global handlers.
        for (from, msg) in inbox.clone() {
            match msg {
                // Round-1 dissemination (Alg 1 lines 3–4).
                BbMsg::SenderValue { value, sig } if from == self.sender && step == 1 => {
                    let candidate = BbBaValue::Signed { value: value.clone(), sig: sig.clone() };
                    if self.vi.is_none() && self.validity.validate(&candidate) {
                        self.vi = Some(candidate);
                    }
                }
                // Phase returns (Alg 1 lines 7–8): adopt any valid vetted
                // value broadcast by the matching phase leader.
                BbMsg::Vetted { phase, value }
                    if *phase >= 1
                        && *phase as usize <= self.cfg.n()
                        && from == self.cfg.leader_of_phase(*phase)
                        && self.validity.validate(value) =>
                {
                    self.vi = Some(value.clone());
                }
                _ => {}
            }
        }

        // --- Scheduled actions.
        if step == 0 {
            if let Some(v) = &self.sender_input {
                let sig =
                    sign_payload(&self.key, &BbValueSig { session: self.cfg.session(), value: v });
                out.push(Dest::All, BbMsg::SenderValue { value: v.clone(), sig });
            }
        } else if let Some((phase, sub)) = self.vet_phase_of_step(step) {
            self.run_vet_step(phase, sub, inbox.clone(), out);
        }

        // --- Embedded weak BA (Alg 1 lines 9–13).
        let ba_start = Self::ba_start(&self.cfg);
        if step >= ba_start && !self.stalled {
            if step == ba_start {
                // Lemma 11 guarantees every correct process holds a valid
                // value here. A process that does not (possible only for a
                // Byzantine-scheduled wrapper, e.g. an honest-until-crash
                // actor under rushed delivery) must not panic the harness;
                // it stalls instead — loudly visible for correct actors
                // as a termination failure.
                let Some(input) = self.vi.clone() else {
                    self.stalled = true;
                    return;
                };
                self.ba = Some(WeakBa::new(
                    self.cfg,
                    self.me,
                    self.key.clone(),
                    self.pki.clone(),
                    self.validity.clone(),
                    self.factory.clone(),
                    input,
                ));
            }
            let ba = self.ba.as_mut().expect("weak BA instantiated at ba_start");
            let ba_inbox = inbox.filter_map(|(from, m)| match m {
                BbMsg::Ba(inner) => Some((from, inner)),
                _ => None,
            });
            ba.on_step(step - ba_start, ba_inbox, &mut out.map(BbMsg::Ba));
            if ba.done() {
                let ba_decision = ba.output().expect("done implies output");
                self.decision = Some(match ba_decision {
                    Decision::Value(BbBaValue::Signed { value, sig })
                        if self.validity.validate(&BbBaValue::Signed {
                            value: value.clone(),
                            sig: sig.clone(),
                        }) =>
                    {
                        Decision::Value(value)
                    }
                    _ => Decision::Bot,
                });
                self.finished = true;
            }
        }

        if self.decision.is_some() && self.decided_at.is_none() {
            self.decided_at = Some(step);
        }
    }

    fn output(&self) -> Option<Decision<V>> {
        if self.finished {
            self.decision.clone()
        } else {
            None
        }
    }

    fn done(&self) -> bool {
        self.finished
    }

    /// Before the embedded BA: this process's own vetting phase, and
    /// only while it holds no value (a leader with a value is silent);
    /// then the BA's first step, where every process acts. Afterwards
    /// the BA's own hint. Everything else in the schedule — answering a
    /// help request, adopting a vetted value, batching replies as leader
    /// — happens in the round after a delivery (thresholds are ≥ 1, so
    /// an empty inbox never completes a certificate).
    fn next_wakeup(&self, after: u64) -> u64 {
        if self.finished || self.stalled {
            return u64::MAX;
        }
        let ba_start = Self::ba_start(&self.cfg);
        if let Some(ba) = &self.ba {
            return ba.next_wakeup(after - ba_start).saturating_add(ba_start);
        }
        let own_vet_step = 1 + (u64::from(self.cfg.phase_led_by(self.me)) - 1) * VET_ROUNDS;
        next_scheduled(after, &[(self.vi.is_none(), own_vet_step), (true, ba_start)])
    }
}

impl<V, F> std::fmt::Debug for Bb<V, F>
where
    V: Value,
    F: FallbackFactory<BbBaValue<V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bb")
            .field("me", &self.me)
            .field("sender", &self.sender)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::EchoFallbackFactory;
    use crate::subprotocol::LockstepAdapter;
    use meba_crypto::trusted_setup;
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_sim::{AnyActor, IdleActor};

    type BbP = Bb<u64, EchoFallbackFactory>;
    type Msg = <BbP as SubProtocol>::Msg;

    fn lockstep(
        n: usize,
        sender: u32,
        input: u64,
        crashed: &[u32],
        max_rounds: u64,
    ) -> ClusterReport<Msg> {
        let cfg = SystemConfig::new(n, 3).unwrap();
        let (pki, keys) = trusted_setup(n, 21);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
                continue;
            }
            let bb = if i as u32 == sender {
                Bb::new_sender(cfg, id, key, pki.clone(), EchoFallbackFactory, input)
            } else {
                Bb::new(cfg, id, key, pki.clone(), EchoFallbackFactory, ProcessId(sender))
            };
            actors.push(Box::new(LockstepAdapter::new(id, bb)));
        }
        let corrupt = crashed.iter().map(|&c| ProcessId(c)).collect();
        let config = DesConfig { max_rounds, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed, "not done within {max_rounds} rounds");
        run
    }

    fn decisions(run: &ClusterReport<Msg>, crashed: &[u32]) -> Vec<Decision<u64>> {
        (0..run.actors.len() as u32)
            .filter(|i| !crashed.contains(i))
            .map(|i| {
                let a: &LockstepAdapter<BbP> =
                    run.actors[i as usize].as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect()
    }

    #[test]
    fn correct_sender_failure_free_delivers_value() {
        let run = lockstep(7, 0, 99, &[], 400);
        let ds = decisions(&run, &[]);
        assert!(ds.iter().all(|d| *d == Decision::Value(99)), "validity: {ds:?}");
    }

    #[test]
    fn silent_sender_decides_bot() {
        // The "sender" crashes before sending: all correct must agree on ⊥.
        let crashed = [0u32];
        let run = lockstep(7, 0, 0, &crashed, 400);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|d| d.is_bot()), "expected ⊥, got {ds:?}");
    }

    #[test]
    fn correct_sender_with_crashes_below_bound() {
        // n=9, t=4, adaptive bound 2: one crashed non-sender.
        let crashed = [4u32];
        let run = lockstep(9, 0, 5, &crashed, 600);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|d| *d == Decision::Value(5)));
        for i in (0..9u32).filter(|i| !crashed.contains(i)) {
            let a: &LockstepAdapter<BbP> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback());
        }
    }

    #[test]
    fn failure_free_vetting_is_all_silent() {
        let run = lockstep(7, 2, 1, &[], 400);
        for i in 0..7u32 {
            let a: &LockstepAdapter<BbP> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            assert!(!a.inner().led_nonsilent_phase(), "p{i} should have been silent");
        }
    }

    #[test]
    fn silent_sender_vetting_goes_nonsilent_once() {
        let crashed = [0u32];
        let run = lockstep(7, 0, 0, &crashed, 400);
        // The first correct leader (p1, phase 1) vets an idk certificate;
        // every later leader holds a value and stays silent.
        let nonsilent: Vec<u32> = (1..7u32)
            .filter(|&i| {
                let a: &LockstepAdapter<BbP> =
                    run.actors[i as usize].as_any().downcast_ref().unwrap();
                a.inner().led_nonsilent_phase()
            })
            .collect();
        assert_eq!(nonsilent, vec![1]);
    }

    #[test]
    fn bb_valid_predicate() {
        let cfg = SystemConfig::new(7, 3).unwrap();
        let (pki, keys) = trusted_setup(7, 21);
        let sender = ProcessId(2);
        let validity = BbValidity::new(cfg, pki.clone(), sender);

        let good = BbBaValue::Signed {
            value: 9u64,
            sig: sign_payload(&keys[2], &BbValueSig { session: cfg.session(), value: &9u64 }),
        };
        assert!(validity.validate(&good));

        // Signed by the wrong process.
        let forged = BbBaValue::Signed {
            value: 9u64,
            sig: sign_payload(&keys[1], &BbValueSig { session: cfg.session(), value: &9u64 }),
        };
        assert!(!validity.validate(&forged));

        // idk quorum with t+1 signers.
        let payload = BbIdkSig { session: cfg.session(), phase: 3 };
        let shares: Vec<_> = keys.iter().take(4).map(|k| sign_payload(k, &payload)).collect();
        let qc = pki.combine(4, &payload.signing_bytes(), &shares).unwrap();
        let idk = BbBaValue::<u64>::IdkQuorum { phase: 3, qc: qc.clone() };
        assert!(Validity::<BbBaValue<u64>>::validate(&validity, &idk));

        // Wrong phase claimed.
        let wrong = BbBaValue::<u64>::IdkQuorum { phase: 4, qc };
        assert!(!Validity::<BbBaValue<u64>>::validate(&validity, &wrong));
    }

    #[test]
    fn the_sender_signature_is_verified_once_per_process() {
        let cfg = SystemConfig::new(7, 3).unwrap();
        let (pki, keys) = trusted_setup(7, 21);
        let signed = |value: u64| BbBaValue::Signed {
            value,
            sig: sign_payload(&keys[2], &BbValueSig { session: cfg.session(), value: &value }),
        };
        let shares = || meba_crypto::pki::verify_calls().0;
        let validity = BbValidity::new(cfg, pki, ProcessId(2));
        // What `Bb` hands its weak BA: a clone sharing the verdict.
        let handed = validity.clone();
        let start = shares();
        assert!(validity.validate(&signed(9)));
        assert!(handed.validate(&signed(9)) && validity.validate(&signed(9)));
        assert_eq!(shares() - start, 1, "one verify for the one signed value");
        // Another value under the same signature is checked, and refused.
        let BbBaValue::Signed { sig, .. } = signed(9) else { unreachable!() };
        assert!(!handed.validate(&BbBaValue::Signed { value: 8u64, sig }));
        // An equivocating sender's second value is checked every time.
        assert!(validity.validate(&signed(7)) && handed.validate(&signed(7)));
        assert_eq!(shares() - start, 4);

        // A whole failure-free run at n = 7: 7 sender checks, and at the
        // phase-1 leader a quorum of votes and a quorum of decide shares
        // (the rest are offered, but no certificate needs them).
        let start = shares();
        lockstep(7, 0, 1, &[], 400);
        assert_eq!(shares() - start, 7 + 2 * cfg.quorum() as u64);
    }

    #[test]
    fn words_failure_free_linear_in_n() {
        for n in [5usize, 9, 17] {
            let run = lockstep(n, 0, 1, &[], 800);
            let words = run.metrics.correct_words();
            assert!(words <= 22 * n as u64, "n={n}: failure-free BB used {words} words");
        }
    }

    /// The `next_wakeup` contract over whole runs: failure-free (all
    /// vetting silent), a silent sender (one non-silent vetting phase,
    /// `idk` certificate, `⊥`), and `f = t` silent (help round and
    /// fallback). Every step a process sleeps through would have sent
    /// nothing, and sleeping never changes what anyone sends or decides.
    #[test]
    fn hint_skips_only_silent_steps() {
        let n = 7;
        for crashed in [&[][..], &[0], &[2, 4, 5]] {
            let build = || {
                let cfg = SystemConfig::new(n, 3).unwrap();
                let (pki, keys) = trusted_setup(n, 21);
                keys.into_iter()
                    .enumerate()
                    .map(|(i, key)| {
                        let id = ProcessId(i as u32);
                        (!crashed.contains(&(i as u32))).then(|| match i {
                            0 => Bb::new_sender(cfg, id, key, pki.clone(), EchoFallbackFactory, 9),
                            _ => Bb::new(
                                cfg,
                                id,
                                key,
                                pki.clone(),
                                EchoFallbackFactory,
                                ProcessId(0),
                            ),
                        })
                    })
                    .collect::<Vec<Option<BbP>>>()
            };
            let steps = 120;
            let skipped = crate::subprotocol::hint_contract::check(build, steps);
            let live = (n - crashed.len()) as u64;
            assert!(
                skipped > live * steps / 2,
                "crashed {crashed:?}: only {skipped} of {} process-steps were silent",
                live * steps
            );
        }
    }
}

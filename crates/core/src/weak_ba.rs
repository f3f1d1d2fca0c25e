//! Adaptive weak Byzantine Agreement (Algorithms 3 and 4, §6).
//!
//! Weak BA decides with `O(n(f+1))` words at resilience `n = 2t + 1` and
//! satisfies **unique validity** with respect to a pluggable predicate
//! (Definition 3).
//!
//! # Structure
//!
//! 1. **Phases** (`n` phases × 5 rounds, rotating leader, Alg 4): a
//!    non-silent leader proposes its value; processes vote (quorum
//!    `⌈(n+t+1)/2⌉`) or report earlier commits; the leader relays the
//!    highest-level commit or forms a fresh one; decide shares form a
//!    finalize certificate. Leaders that already decided stay **silent**,
//!    which is where adaptivity comes from: after the first non-silent
//!    phase with a correct leader (and `f < (n-t-1)/2`), every later
//!    correct leader is silent, so only `O(f + 1)` phases cost anything.
//! 2. **Help round** (Alg 3 lines 5–14): undecided processes broadcast
//!    signed `help_req`s; deciders answer with their finalize certificate.
//! 3. **Fallback** (Alg 3 lines 9–29): `t + 1` distinct `help_req`
//!    signatures form a fallback certificate; certificate holders
//!    broadcast it and, `2δ` later, run `A_fallback` with doubled rounds
//!    (Lemmas 17–18). The extra `2δ` safety window lets undecided
//!    processes adopt any existing decision so the fallback's strong
//!    unanimity cannot contradict prior decisions (Lemma 19).
//!
//! The paper states the phase count inconsistently (Alg 3 line 1 says
//! `t + 1`, §6 prose and the Lemma 6 proof say `n`). We follow the proof:
//! `n` phases, so every correct process leads once, which Lemma 6 needs to
//! rule out correct `help_req`s when `f < (n-t-1)/2`.

use crate::config::SystemConfig;
use crate::decision::Decision;
use crate::signing::{
    sign_payload, CommitProof, DecideProof, DecideSig, HelpReqSig, ShareCollector, VoteSig,
};
use crate::subprotocol::{
    next_scheduled, FallbackFactory, FallbackHost, SkewEnvelope, SubProtocol,
};
use crate::validity::Validity;
use crate::value::Value;
use meba_crypto::{Digest, Encoder, Pki, SecretKey, Signable, Signature};
use meba_crypto::{ProcessId, SignContext, ThresholdSignature, WireCodec};
use meba_sim::{Dest, Message, RecoveryEvent};

/// Message type of the fallback protocol produced by factory `F` for
/// values `V`.
pub type FallbackMsgOf<V, F> = <<F as FallbackFactory<V>>::Protocol as SubProtocol>::Msg;

/// The full wire-message type of a [`WeakBa`] built with factory `F`.
pub type WeakBaMsgOf<V, F> = WeakBaMsg<V, FallbackMsgOf<V, F>>;

/// An addressed outgoing message batch of a [`WeakBa`].
pub type WeakBaOutbox<V, F> = Vec<(Dest, WeakBaMsgOf<V, F>)>;

crate::wire_schema! {
    /// Wire messages of weak BA. `FM` is the fallback's message type.
    #[derive(Clone, Debug)]
    pub enum WeakBaMsg<V: Value, FM: Message + WireCodec>: Message {
        /// `⟨propose, v, j⟩_leader` (Alg 4 line 32).
        0 => Propose {
            /// Phase number (1-based).
            phase: u32 as Meta,
            /// The leader's value.
            value: V,
        } in "weak-ba/phases",
        /// `⟨vote, v, j⟩_p` to the leader (line 34).
        1 => Vote {
            /// Phase.
            phase: u32 as Meta,
            /// Voted value.
            value: V,
            /// Signature over [`VoteSig`].
            sig: Signature,
        } in "weak-ba/phases",
        /// `⟨commit, w, QC, level, j⟩_p` to the leader (line 36).
        2 => CommitReply {
            /// Phase.
            phase: u32 as Meta,
            /// Previously committed value.
            value: V,
            /// Its commit certificate and level.
            proof: CommitProof,
        } in "weak-ba/phases",
        /// `⟨commit, v, QC, level, j⟩_leader` broadcast (lines 39 / 42).
        3 => CommitCert {
            /// Phase.
            phase: u32 as Meta,
            /// Committed value.
            value: V,
            /// Certificate; `proof.level == phase` for fresh commits, older
            /// for relays.
            proof: CommitProof,
        } in "weak-ba/phases",
        /// `⟨decide, v, j⟩_p` to the leader (line 44).
        4 => Decide {
            /// Phase.
            phase: u32 as Meta,
            /// Value being finalized.
            value: V,
            /// Signature over [`DecideSig`].
            sig: Signature,
        } in "weak-ba/phases",
        /// `⟨finalized, v, QC, j⟩_leader` broadcast (line 51).
        5 => FinalizeCert {
            /// Phase.
            phase: u32 as Meta,
            /// Finalized value.
            value: V,
            /// Finalize certificate.
            proof: DecideProof,
        } in "weak-ba/phases",
        /// `⟨help_req⟩_p` broadcast (Alg 3 line 6).
        6 => HelpReq {
            /// Signature over [`HelpReqSig`].
            sig: Signature,
        } in "weak-ba/help",
        /// `⟨help, v, decide_proof⟩` to a requester (line 8).
        7 => Help {
            /// The sender's decision.
            value: V,
            /// Its finalize certificate.
            proof: DecideProof,
        } in "weak-ba/help",
        /// `⟨fallback, QC_fallback, v?, proof?⟩` broadcast (lines 11 / 22).
        8 => FallbackCert {
            /// `(t+1, n)`-threshold certificate over `help_req`s.
            qc: ThresholdSignature,
            /// The sender's decision and proof, if it has one.
            decision: Option<(V, DecideProof)>,
        } in "weak-ba/help",
        /// A message of the inner `A_fallback`, tagged with its virtual step.
        9 => Fallback(SkewEnvelope<FM>),
    }
}

/// Rounds per phase (Alg 4 has 5 rounds).
pub const PHASE_ROUNDS: u64 = 5;

/// `kind` tags of the [`RecoveryEvent::CertReceived`] events weak BA
/// emits for the crash-recovery journal (`meba-journal`).
pub mod cert_kind {
    /// A finalize certificate adopted from a phase leader (Alg 4
    /// lines 52–54).
    pub const FINALIZE: u32 = 0;
    /// A help answer's finalize certificate (Alg 3 lines 13–14).
    pub const HELP: u32 = 1;
    /// A fallback certificate that scheduled `A_fallback` (Alg 3
    /// lines 21–23).
    pub const FALLBACK: u32 = 2;
}

/// Per-phase scratch state, keyed by the phase it belongs to: any access
/// through [`WeakBa::scratch_of`] from a later phase starts from a clean
/// slate, so a phase's opening round need not run just to reset it.
#[derive(Debug)]
struct PhaseScratch<V> {
    /// The phase the fields below describe (0 = none yet).
    phase: u32,
    /// Set once the first propose from the phase leader was processed.
    saw_propose: bool,
    /// The value this process proposed as leader (vote target).
    my_proposal: Option<V>,
    /// The value the leader broadcast in its commit certificate (decide
    /// shares are collected for it).
    commit_sent: Option<V>,
}

impl<V> Default for PhaseScratch<V> {
    fn default() -> Self {
        PhaseScratch { phase: 0, saw_propose: false, my_proposal: None, commit_sent: None }
    }
}

/// The adaptive weak BA state machine (one per process).
///
/// Implements [`SubProtocol`] so it can run standalone (via
/// [`crate::subprotocol::LockstepAdapter`]) or embedded in the BB
/// reduction ([`crate::bb::Bb`]).
pub struct WeakBa<V, P, F>
where
    V: Value,
    P: Validity<V>,
    F: FallbackFactory<V>,
{
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    validity: P,
    input: V,

    decision: Option<Decision<V>>,
    decide_proof: Option<DecideProof>,
    commit: Option<(V, CommitProof)>,
    commit_level: u32,

    scratch: PhaseScratch<V>,
    fallback_cert: Option<ThresholdSignature>,
    /// The hand-off to `A_fallback` (Alg 3 lines 15–29).
    host: FallbackHost<V, DecideProof, F>,
    nonsilent_as_leader: bool,
    no_safety_window: bool,
    decided_at: Option<u64>,
    finished: bool,
    /// Protocol-critical events since the last drain, consumed by the
    /// crash-recovery wrapper (`Recoverable`) which journals them
    /// *before* the step's outbox is externalized.
    recovery_events: Vec<RecoveryEvent>,
}

impl<V, P, F> WeakBa<V, P, F>
where
    V: Value,
    P: Validity<V>,
    F: FallbackFactory<V>,
{
    /// Creates a weak BA instance for process `me` with initial value
    /// `input`.
    ///
    /// The caller guarantees `input` satisfies the predicate (the paper's
    /// precondition that correct processes propose valid values).
    pub fn new(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        validity: P,
        factory: F,
        input: V,
    ) -> Self {
        WeakBa {
            cfg,
            me,
            key,
            pki,
            validity,
            host: FallbackHost::new(me, factory, input.clone()),
            input,
            decision: None,
            decide_proof: None,
            commit: None,
            commit_level: 0,
            scratch: PhaseScratch::default(),
            fallback_cert: None,
            nonsilent_as_leader: false,
            no_safety_window: false,
            decided_at: None,
            finished: false,
            recovery_events: Vec::new(),
        }
    }

    /// Records a signature production event for the recovery journal.
    fn note_signed<S: SignContext>(&mut self, payload: &S) {
        self.recovery_events.push(RecoveryEvent::Signed {
            context: payload.context_bytes(),
            digest: Digest::of(&payload.signing_bytes()),
        });
    }

    /// **Ablation only (experiment E9):** disables the paper's 2δ safety
    /// window (Alg 3 lines 17–20), i.e. undecided processes stop adopting
    /// certified decisions before the fallback. With a Byzantine helper
    /// this demonstrably breaks agreement — which is the point of the
    /// ablation. Never use outside experiments.
    pub fn disable_safety_window(&mut self) {
        self.no_safety_window = true;
    }

    /// Step at which the help round begins (`n` phases × 5 rounds).
    pub fn help_step(cfg: &SystemConfig) -> u64 {
        cfg.n() as u64 * PHASE_ROUNDS
    }

    /// Worst-case schedule length: phases, help round, certificate
    /// window, plus the doubled-round fallback at its latest start. Fixed
    /// multi-instance drivers (`meba-smr`) allocate this many rounds per
    /// instance.
    pub fn max_schedule(cfg: &SystemConfig, factory: &F) -> u64 {
        Self::help_step(cfg) + 6 + 2 * factory.max_steps() + 4
    }

    /// Last step at which fallback certificates are accepted. All
    /// correct-process certificate chains complete by `help_step + 3`; the
    /// slack only bounds how long a Byzantine certificate can wake decided
    /// processes into a no-op fallback.
    fn cert_deadline(&self) -> u64 {
        Self::help_step(&self.cfg) + 6
    }

    /// The value this process proposes.
    pub fn input(&self) -> &V {
        &self.input
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decision.as_ref()
    }

    /// The finalize certificate backing the decision, when it came from
    /// the adaptive path.
    pub fn decide_proof(&self) -> Option<&DecideProof> {
        self.decide_proof.as_ref()
    }

    /// Whether this process executed `A_fallback`.
    pub fn used_fallback(&self) -> bool {
        self.host.ran()
    }

    /// Whether this process initiated a non-silent phase as leader.
    pub fn led_nonsilent_phase(&self) -> bool {
        self.nonsilent_as_leader
    }

    /// Current commit level (0 = never committed).
    pub fn commit_level(&self) -> u32 {
        self.commit_level
    }

    /// The currently committed value, if any (Alg 4 lines 45–47).
    pub fn committed_value(&self) -> Option<&V> {
        self.commit.as_ref().map(|(v, _)| v)
    }

    /// Step at which this process first decided (for latency profiles).
    pub fn decided_at(&self) -> Option<u64> {
        self.decided_at
    }

    fn undecided(&self) -> bool {
        self.decision.is_none()
    }

    /// Adopt a finalize certificate (Alg 4 lines 52–54).
    ///
    /// Only at the certificate's scheduled arrival step (the round after
    /// its phase's round 5). Although the certificate is self-certifying,
    /// accepting it *later* would let the adversary hand a decision to a
    /// single process after the help round, splitting it from peers that
    /// are already headed into the fallback — exactly the hazard the
    /// paper's round-scoped handler avoids.
    fn try_adopt_finalize(
        &mut self,
        step: u64,
        from: ProcessId,
        phase: u32,
        value: &V,
        proof: &DecideProof,
    ) {
        if !self.undecided() {
            return;
        }
        if phase == 0 || phase as usize > self.cfg.n() {
            return;
        }
        if step != phase as u64 * PHASE_ROUNDS {
            return;
        }
        if from != self.cfg.leader_of_phase(phase) || proof.phase != phase {
            return;
        }
        if proof.verify(&self.cfg, &self.pki, value) {
            self.decision = Some(Decision::Value(value.clone()));
            self.decide_proof = Some(proof.clone());
            self.recovery_events
                .push(RecoveryEvent::CertReceived { kind: cert_kind::FINALIZE, step });
        }
    }

    /// Adopt a help answer (Alg 3 lines 13–14).
    fn try_adopt_help(&mut self, step: u64, value: &V, proof: &DecideProof) {
        if !self.undecided() {
            return;
        }
        if proof.phase == 0 || proof.phase as usize > self.cfg.n() {
            return;
        }
        if self.validity.validate(value) && proof.verify(&self.cfg, &self.pki, value) {
            self.decision = Some(Decision::Value(value.clone()));
            self.decide_proof = Some(proof.clone());
            self.recovery_events.push(RecoveryEvent::CertReceived { kind: cert_kind::HELP, step });
        }
    }

    /// Whether `qc` is a `t+1` help-request certificate. Every process
    /// re-broadcasts the same certificate bytes, and the verdict is a
    /// function of those bytes: one byte-equal to the `fallback_cert` this
    /// process already holds is valid without a second `verify_threshold`;
    /// anything else is verified.
    fn fallback_qc_valid(&self, qc: &ThresholdSignature) -> bool {
        self.fallback_cert.as_ref() == Some(qc)
            || (qc.threshold() == self.cfg.idk_threshold()
                && self
                    .pki
                    .verify_threshold(
                        &HelpReqSig { session: self.cfg.session() }.signing_bytes(),
                        qc,
                    )
                    .is_ok())
    }

    /// Handle a fallback certificate (Alg 3 lines 16–23): adopt attached
    /// decisions during the safety window; on first receipt re-broadcast
    /// and schedule the fallback `2δ` later.
    fn handle_fallback_cert(
        &mut self,
        step: u64,
        qc: &ThresholdSignature,
        decision: &Option<(V, DecideProof)>,
        out: &mut WeakBaOutbox<V, F>,
    ) {
        if !self.host.accepts(step, self.cert_deadline()) || !self.fallback_qc_valid(qc) {
            return;
        }
        // Safety window adoption (line 17–20): an undecided process takes
        // any certified decision as its fallback input.
        if let Some((v, proof)) = decision {
            if !self.no_safety_window
                && self.undecided()
                && self.validity.validate(v)
                && proof.verify(&self.cfg, &self.pki, v)
            {
                self.host.adopt(v.clone(), proof.clone());
            }
        }
        // First receipt: re-broadcast and schedule (lines 21–23).
        if self.host.schedule(step) {
            self.fallback_cert = Some(qc.clone());
            let own = self.host.own_payload(self.certified_decision());
            out.push((Dest::All, WeakBaMsg::FallbackCert { qc: qc.clone(), decision: own }));
            self.recovery_events
                .push(RecoveryEvent::CertReceived { kind: cert_kind::FALLBACK, step });
        }
    }

    /// This process's decision and the finalize certificate behind it.
    fn certified_decision(&self) -> Option<(&V, &DecideProof)> {
        match (&self.decision, &self.decide_proof) {
            (Some(Decision::Value(v)), Some(p)) => Some((v, p)),
            _ => None,
        }
    }

    /// The scratch state of `phase`, wiped first if it still describes
    /// an earlier one.
    fn scratch_of(&mut self, phase: u32) -> &mut PhaseScratch<V> {
        if self.scratch.phase != phase {
            self.scratch = PhaseScratch { phase, ..PhaseScratch::default() };
        }
        &mut self.scratch
    }

    fn phase_of_step(&self, step: u64) -> Option<(u32, u64)> {
        let n = self.cfg.n() as u64;
        if step < n * PHASE_ROUNDS {
            Some(((step / PHASE_ROUNDS) as u32 + 1, step % PHASE_ROUNDS))
        } else {
            None
        }
    }

    fn run_phase_step(
        &mut self,
        phase: u32,
        sub: u64,
        inbox: &[(ProcessId, &WeakBaMsgOf<V, F>)],
        out: &mut WeakBaOutbox<V, F>,
    ) {
        let leader = self.cfg.leader_of_phase(phase);
        let is_leader = leader == self.me;
        match sub {
            // Round 1: an undecided leader proposes its value (line 31–32).
            0 => {
                if is_leader && self.undecided() {
                    self.nonsilent_as_leader = true;
                    self.scratch_of(phase).my_proposal = Some(self.input.clone());
                    out.push((Dest::All, WeakBaMsg::Propose { phase, value: self.input.clone() }));
                }
            }
            // Round 2: vote for the first valid proposal, or report an
            // existing commit (lines 33–36).
            1 => {
                for (from, msg) in inbox {
                    if *from != leader || self.scratch_of(phase).saw_propose {
                        continue;
                    }
                    if let WeakBaMsg::Propose { phase: p, value } = msg {
                        if *p != phase {
                            continue;
                        }
                        self.scratch_of(phase).saw_propose = true;
                        match &self.commit {
                            None => {
                                if self.validity.validate(value) {
                                    let payload = VoteSig {
                                        session: self.cfg.session(),
                                        value,
                                        level: phase,
                                    };
                                    let sig = sign_payload(&self.key, &payload);
                                    self.note_signed(&payload);
                                    out.push((
                                        Dest::To(leader),
                                        WeakBaMsg::Vote { phase, value: value.clone(), sig },
                                    ));
                                }
                            }
                            Some((w, proof)) => {
                                out.push((
                                    Dest::To(leader),
                                    WeakBaMsg::CommitReply {
                                        phase,
                                        value: w.clone(),
                                        proof: proof.clone(),
                                    },
                                ));
                            }
                        }
                    }
                }
            }
            // Round 3 (leader): relay the highest-level commit, else batch
            // a fresh commit certificate from quorum votes (lines 37–42).
            2 => {
                if !is_leader {
                    return;
                }
                let Some(my_value) = self.scratch_of(phase).my_proposal.clone() else {
                    return;
                };
                let mut best_commit: Option<(V, CommitProof)> = None;
                let mut votes = ShareCollector::new(
                    &self.pki,
                    &VoteSig { session: self.cfg.session(), value: &my_value, level: phase },
                    self.cfg.quorum(),
                );
                for (from, msg) in inbox {
                    match msg {
                        WeakBaMsg::CommitReply { phase: p, value, proof }
                            if *p == phase
                                && proof.verify(&self.cfg, &self.pki, value)
                                && best_commit
                                    .as_ref()
                                    .is_none_or(|(_, b)| proof.level > b.level) =>
                        {
                            best_commit = Some((value.clone(), proof.clone()));
                        }
                        WeakBaMsg::Vote { phase: p, value, sig }
                            if *p == phase && *value == my_value =>
                        {
                            votes.offer(*from, sig);
                        }
                        _ => {}
                    }
                }
                if let Some((w, proof)) = best_commit {
                    self.scratch_of(phase).commit_sent = Some(w.clone());
                    out.push((Dest::All, WeakBaMsg::CommitCert { phase, value: w, proof }));
                } else if let Some(qc) = votes.certificate() {
                    self.scratch_of(phase).commit_sent = Some(my_value.clone());
                    out.push((
                        Dest::All,
                        WeakBaMsg::CommitCert {
                            phase,
                            value: my_value,
                            proof: CommitProof { level: phase, qc },
                        },
                    ));
                }
            }
            // Round 4: accept the leader's commit certificate if its level
            // is not older than ours; send a decide share (lines 43–47).
            3 => {
                for (from, msg) in inbox {
                    if *from != leader {
                        continue;
                    }
                    if let WeakBaMsg::CommitCert { phase: p, value, proof } = msg {
                        if *p != phase
                            || proof.level < self.commit_level
                            || !proof.verify(&self.cfg, &self.pki, value)
                        {
                            continue;
                        }
                        let payload = DecideSig { session: self.cfg.session(), value, phase };
                        let sig = sign_payload(&self.key, &payload);
                        self.note_signed(&payload);
                        out.push((
                            Dest::To(leader),
                            WeakBaMsg::Decide { phase, value: value.clone(), sig },
                        ));
                        self.commit = Some((value.clone(), proof.clone()));
                        self.commit_level = proof.level;
                        self.recovery_events.push(RecoveryEvent::CommitLevel(proof.level as u64));
                        break;
                    }
                }
            }
            // Round 5 (leader): batch quorum decide shares into a finalize
            // certificate (lines 48–51).
            4 => {
                if !is_leader {
                    return;
                }
                let Some(w) = self.scratch_of(phase).commit_sent.clone() else {
                    return;
                };
                let mut shares = ShareCollector::new(
                    &self.pki,
                    &DecideSig { session: self.cfg.session(), value: &w, phase },
                    self.cfg.quorum(),
                );
                for (from, msg) in inbox {
                    if let WeakBaMsg::Decide { phase: p, value, sig } = msg {
                        if *p == phase && *value == w {
                            shares.offer(*from, sig);
                        }
                    }
                }
                if let Some(qc) = shares.certificate() {
                    out.push((
                        Dest::All,
                        WeakBaMsg::FinalizeCert {
                            phase,
                            value: w,
                            proof: DecideProof { phase, qc },
                        },
                    ));
                }
            }
            _ => unreachable!("phase has 5 rounds"),
        }
    }
}

impl<V, P, F> SubProtocol for WeakBa<V, P, F>
where
    V: Value,
    P: Validity<V>,
    F: FallbackFactory<V>,
{
    type Msg = WeakBaMsg<V, FallbackMsgOf<V, F>>;
    type Output = Decision<V>;

    fn on_step(
        &mut self,
        step: u64,
        inbox: &[(ProcessId, &Self::Msg)],
        out: &mut Vec<(Dest, Self::Msg)>,
    ) {
        if self.finished {
            return;
        }
        let help_step = Self::help_step(&self.cfg);

        // --- Global handlers: finalize certificates, help answers,
        // fallback certificates, fallback traffic. Run before scheduled
        // actions so a finalize arriving "now" suppresses a help_req.
        let mut decided_via_help = false;
        for (from, msg) in inbox {
            match msg {
                WeakBaMsg::FinalizeCert { phase, value, proof } => {
                    self.try_adopt_finalize(step, *from, *phase, value, proof);
                }
                WeakBaMsg::Help { value, proof }
                    // Exactly round 3 of the help phase (Alg 3 line 13);
                    // a later help answer must not create a lone decider
                    // after fallback coordination has begun.
                    if step == help_step + 2 => {
                        let was = self.undecided();
                        self.try_adopt_help(step, value, proof);
                        decided_via_help = was && !self.undecided();
                    }
                _ => {}
            }
        }
        // Gap-fix for Lemma 19's propagation claim ("they receive v from
        // p"): a process that decides via a help answer *after* already
        // broadcasting its fallback certificate (necessarily with an
        // empty decision) re-broadcasts the certificate with its decision
        // attached, so the 2δ safety window delivers the decided value to
        // every fallback participant before any of them starts.
        if decided_via_help && self.host.scheduled() && !self.no_safety_window {
            if let (Some(qc), Some((v, p))) = (&self.fallback_cert, self.certified_decision()) {
                out.push((
                    Dest::All,
                    WeakBaMsg::FallbackCert {
                        qc: qc.clone(),
                        decision: Some((v.clone(), p.clone())),
                    },
                ));
            }
        }
        for (_, msg) in inbox {
            if let WeakBaMsg::FallbackCert { qc, decision } = msg {
                self.handle_fallback_cert(step, qc, decision, out);
            }
        }
        for (from, msg) in inbox {
            if let WeakBaMsg::Fallback(env) = msg {
                self.host.deliver(*from, env);
            }
        }

        // --- Scheduled actions.
        if let Some((phase, sub)) = self.phase_of_step(step) {
            self.run_phase_step(phase, sub, inbox, out);
        } else if step == help_step {
            // Alg 3 lines 5–6.
            if self.undecided() {
                let payload = HelpReqSig { session: self.cfg.session() };
                let sig = sign_payload(&self.key, &payload);
                self.note_signed(&payload);
                out.push((Dest::All, WeakBaMsg::HelpReq { sig }));
            }
        } else if step == help_step + 1 {
            // Alg 3 lines 7–12.
            let mut help_reqs = ShareCollector::new(
                &self.pki,
                &HelpReqSig { session: self.cfg.session() },
                self.cfg.idk_threshold(),
            );
            for (from, msg) in inbox {
                if let WeakBaMsg::HelpReq { sig } = msg {
                    if help_reqs.offer(*from, sig) {
                        if let (Some(Decision::Value(v)), Some(p)) =
                            (&self.decision, &self.decide_proof)
                        {
                            if *from != self.me {
                                out.push((
                                    Dest::To(*from),
                                    WeakBaMsg::Help { value: v.clone(), proof: p.clone() },
                                ));
                            }
                        }
                    }
                }
            }
            if let Some(qc) = help_reqs.certificate() {
                if self.host.schedule(step) {
                    self.fallback_cert = Some(qc.clone());
                    let own = self.host.own_payload(self.certified_decision());
                    out.push((Dest::All, WeakBaMsg::FallbackCert { qc, decision: own }));
                }
            }
        }

        // --- Fallback execution.
        // Line 15: deciders run the fallback on their decision so strong
        // unanimity upholds agreement.
        let decided = self.decision.as_ref().and_then(Decision::value);
        if let Some(fb_val) = self.host.tick(step, decided, WeakBaMsg::Fallback, out) {
            // Alg 3 lines 25–29.
            if self.undecided() {
                self.decision = Some(if self.validity.validate(&fb_val) {
                    Decision::Value(fb_val)
                } else {
                    Decision::Bot
                });
            }
            self.finished = true;
        }

        if let (Some(decision), None) = (self.decision.as_ref(), self.decided_at) {
            self.decided_at = Some(step);
            let bytes = match decision {
                Decision::Value(v) => {
                    let mut enc = Encoder::new();
                    v.encode_value(&mut enc);
                    enc.into_bytes()
                }
                // ⊥ journals as an empty value.
                Decision::Bot => Vec::new(),
            };
            self.recovery_events.push(RecoveryEvent::Decided(bytes));
        }
        // A decided process with no pending fallback finishes once the
        // certificate acceptance window has passed.
        if !self.undecided() && self.host.quiescent(step, self.cert_deadline()) {
            self.finished = true;
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

    fn drain_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.recovery_events)
    }

    /// The scheduled actions that fire on an empty inbox: proposing in
    /// this process's own phase and asking for help (both only while
    /// undecided — a decided leader is silent, which is the paper's
    /// adaptivity), and finishing once the certificate window has
    /// closed. While a fallback is scheduled or running every step may
    /// act. Votes, commits, decide shares, help answers and certificate
    /// handling all happen in the round after a delivery (thresholds
    /// are ≥ 1, so an empty inbox never completes a certificate).
    fn next_wakeup(&self, after: u64) -> u64 {
        if self.finished {
            return u64::MAX;
        }
        if let Some(next) = self.host.next_wakeup(after) {
            return next;
        }
        let own_phase_step = (u64::from(self.cfg.phase_led_by(self.me)) - 1) * PHASE_ROUNDS;
        next_scheduled(
            after,
            &[
                (self.undecided(), own_phase_step),
                (self.undecided(), Self::help_step(&self.cfg)),
                (true, self.cert_deadline() + 1),
            ],
        )
    }
}

impl<V, P, F> std::fmt::Debug for WeakBa<V, P, F>
where
    V: Value,
    P: Validity<V>,
    F: FallbackFactory<V>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeakBa")
            .field("me", &self.me)
            .field("decision", &self.decision)
            .field("commit_level", &self.commit_level)
            .field("fallback_ran", &self.host.ran())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::EchoFallbackFactory;
    use crate::subprotocol::LockstepAdapter;
    use crate::validity::AlwaysValid;
    use meba_crypto::trusted_setup;
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_sim::{AnyActor, IdleActor};

    type Wba = WeakBa<u64, AlwaysValid, EchoFallbackFactory>;
    type Msg = <Wba as SubProtocol>::Msg;

    fn lockstep(n: usize, inputs: &[u64], crashed: &[u32], max_rounds: u64) -> ClusterReport<Msg> {
        let cfg = SystemConfig::new(n, 7).unwrap();
        let (pki, keys) = trusted_setup(n, 11);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let wba = WeakBa::new(
                    cfg,
                    id,
                    key,
                    pki.clone(),
                    AlwaysValid,
                    EchoFallbackFactory,
                    inputs[i],
                );
                actors.push(Box::new(LockstepAdapter::new(id, wba)));
            }
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
                let a: &LockstepAdapter<Wba> =
                    run.actors[i as usize].as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect()
    }

    #[test]
    fn unanimous_failure_free_decides_in_first_phase() {
        let n = 7;
        let run = lockstep(n, &[42; 7], &[], 200);
        let ds = decisions(&run, &[]);
        assert!(ds.iter().all(|d| *d == Decision::Value(42)));
        // No fallback ran.
        for i in 0..n as u32 {
            let a: &LockstepAdapter<Wba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback());
        }
    }

    #[test]
    fn mixed_inputs_failure_free_agree_on_leader_value() {
        let inputs = [3, 1, 4, 1, 5, 9, 2];
        let run = lockstep(7, &inputs, &[], 200);
        let ds = decisions(&run, &[]);
        // Phase 1 leader is p1 (j=1, p_{1 mod 7}); its proposal wins.
        assert!(ds.iter().all(|d| *d == ds[0]));
        assert_eq!(ds[0], Decision::Value(inputs[1]));
    }

    #[test]
    fn one_crash_below_adaptive_bound_no_fallback() {
        // n=9, t=4: adaptive bound = (9-4-1)/2 = 2, so f=1 is safe.
        let inputs = [7u64; 9];
        let run = lockstep(9, &inputs, &[1], 400);
        let ds = decisions(&run, &[1]);
        assert!(ds.iter().all(|d| *d == Decision::Value(7)));
        for i in (0..9u32).filter(|i| *i != 1) {
            let a: &LockstepAdapter<Wba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            assert!(!a.inner().used_fallback(), "Lemma 6: no fallback below the bound");
        }
    }

    #[test]
    fn max_crashes_trigger_fallback_and_still_agree() {
        // n=5, t=2: crash 2 — quorum 4 unreachable, fallback must run.
        let inputs = [8u64; 5];
        let crashed = [3u32, 4];
        let run = lockstep(5, &inputs, &crashed, 400);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|d| *d == Decision::Value(8)), "strong unanimity via fallback");
        for i in 0..3u32 {
            let a: &LockstepAdapter<Wba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            assert!(a.inner().used_fallback());
        }
    }

    #[test]
    fn fallback_with_divergent_inputs_agrees() {
        let inputs = [1u64, 2, 3, 0, 0];
        let crashed = [3u32, 4];
        let run = lockstep(5, &inputs, &crashed, 400);
        let ds = decisions(&run, &crashed);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement under fallback: {ds:?}");
    }

    #[test]
    fn words_failure_free_linear_in_n() {
        for n in [5usize, 9, 17] {
            let inputs = vec![1u64; n];
            let run = lockstep(n, &inputs, &[], 600);
            let words = run.metrics.correct_words();
            // O(n(f+1)) with f=0: generously c*n with c = 16.
            assert!(words <= 16 * n as u64, "n={n}: failure-free weak BA used {words} words");
        }
    }

    /// The `next_wakeup` contract over whole runs: unanimous inputs
    /// (decide in phase 1, everything after is silent), split inputs,
    /// one crash below the adaptive bound, and `f = t` crashes (help
    /// round, fallback certificate, fallback).
    #[test]
    fn hint_skips_only_silent_steps() {
        let n = 7;
        let cases: [(&[u64], &[u32]); 4] = [
            (&[4; 7], &[]),
            (&[3, 1, 4, 1, 5, 9, 2], &[]),
            (&[4; 7], &[1]),
            (&[3, 1, 4, 1, 5, 9, 2], &[1, 2, 3]),
        ];
        for (inputs, crashed) in cases {
            let build = || {
                let cfg = SystemConfig::new(n, 7).unwrap();
                let (pki, keys) = trusted_setup(n, 11);
                keys.into_iter()
                    .enumerate()
                    .map(|(i, key)| {
                        let id = ProcessId(i as u32);
                        (!crashed.contains(&(i as u32))).then(|| {
                            let factory = EchoFallbackFactory;
                            WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, inputs[i])
                        })
                    })
                    .collect::<Vec<Option<Wba>>>()
            };
            let steps = 80;
            let skipped = crate::subprotocol::hint_contract::check(build, steps);
            let live = (n - crashed.len()) as u64;
            assert!(
                skipped > live * steps / 2,
                "crashed {crashed:?}: only {skipped} of {} process-steps were silent",
                live * steps
            );
        }
    }

    #[test]
    fn silent_phases_after_first_decision() {
        let n = 7;
        let run = lockstep(n, &[5; 7], &[], 300);
        // Only the phase-1 leader should have gone non-silent.
        let mut nonsilent = 0;
        for i in 0..n as u32 {
            let a: &LockstepAdapter<Wba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
            if a.inner().led_nonsilent_phase() {
                nonsilent += 1;
            }
        }
        assert_eq!(nonsilent, 1);
    }
}

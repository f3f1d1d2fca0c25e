//! Binary strong BA with linear words in the failure-free case
//! (Algorithm 5, §7), and its rotating-leader extension (§8 direction).
//!
//! A leader collects all signed inputs. Because the domain is binary and
//! `n = 2t + 1`, some value is proposed by `t + 1` processes (pigeonhole),
//! so the leader can batch a `(t+1, n)` propose certificate. It then
//! collects signed `decide` shares on the certified value; a decide
//! certificate lets every process decide. Any correct process that does
//! not decide broadcasts a `fallback` message; everyone who hears one
//! echoes it (with its own decision and proof attached) and runs
//! `A_fallback` with `δ' = 2δ` after a `2δ` safety window, exactly as in
//! the weak BA (Lemmas 17–18, 25–29).
//!
//! [`StrongBa::new`] is the algorithm as printed: one attempt, leader
//! `p0`, an `(n, n)` decide certificate. Failure-free it takes 4 leader
//! rounds and `O(n)` words; *any* fault makes it fall back, and the
//! fallback dominates with `O(n²)`.
//!
//! **Extension.** The paper leaves open whether a fully adaptive strong BA
//! exists. [`StrongBa::rotating`] runs the same four rounds with a
//! different schedule, assembled from the paper's own ingredients, and
//! stays linear in more runs:
//!
//! * `t + 1` sequential attempts led by `p0, p1, …` (so at least one
//!   leader is correct);
//! * the decide certificate needs only the §6 quorum `⌈(n+t+1)/2⌉`
//!   instead of `n`, so up to `(n−t−1)/2` absentees cannot derail a
//!   correct leader;
//! * decide shares bind **only the value** (not the attempt), and a
//!   correct process decide-signs at most one value ever — so two
//!   certificates on different values would need `2q − n > t` common
//!   signers, i.e. a correct double-signer, which cannot exist. The
//!   certificate value is therefore unique across all attempts, which is
//!   exactly the paper's quorum-intersection trick. (With one attempt and
//!   `q = n` this is Algorithm 5's own argument.)
//!
//! Guarantees of both: agreement, termination and strong unanimity always.
//! The extension is linear when the honest inputs are unanimous,
//! `f < (n−t−1)/2`, and one of the first `f + 1` leaders is correct;
//! quadratic otherwise. With split honest inputs the `t + 1` propose
//! certificate may be unreachable under faults and the protocol falls
//! back — full adaptivity for strong BA remains open, as the paper says
//! (and Elsheimy et al. later resolved).

use crate::config::SystemConfig;
use crate::signing::{sign_payload, ShareCollector, StrongDecideSig, StrongInputSig};
use crate::subprotocol::{FallbackFactory, FallbackHost, SkewEnvelope, SubProtocol};
use meba_crypto::{Pki, ProcessId, SecretKey, Signable, Signature, ThresholdSignature, WireCodec};
use meba_sim::{Dest, Inbox, Message, Sink};

/// Message type of the fallback used by [`StrongBa`] instances.
pub type StrongFallbackMsgOf<F> = <<F as FallbackFactory<bool>>::Protocol as SubProtocol>::Msg;

crate::wire_schema! {
    /// Wire messages of binary strong BA.
    #[derive(Clone, Debug)]
    pub enum StrongBaMsg<FM: Message + WireCodec>: Message {
        /// `⟨v_i⟩_p` to the leader (line 2).
        0 => Input {
            /// The binary input.
            value: bool,
            /// Signature over [`StrongInputSig`].
            sig: Signature,
        } in "strong-ba/fast-path",
        /// `⟨propose, v, QC⟩_leader` broadcast (line 6).
        1 => Propose {
            /// The certified value.
            value: bool,
            /// `(t+1, n)` certificate over [`StrongInputSig`].
            qc: ThresholdSignature,
        } in "strong-ba/fast-path",
        /// `⟨decide, v⟩_p` to the leader (line 8).
        2 => DecideShare {
            /// The value.
            value: bool,
            /// Signature over [`StrongDecideSig`].
            sig: Signature,
        } in "strong-ba/fast-path",
        /// `⟨decide, v, QC⟩_leader` broadcast (line 12).
        3 => DecideCert {
            /// The decided value.
            value: bool,
            /// `(n, n)` certificate over [`StrongDecideSig`].
            qc: ThresholdSignature,
        } in "strong-ba/fast-path",
        /// `⟨fallback, v?, proof?⟩` broadcast (lines 17 / 26).
        4 => Fallback {
            /// The sender's decision and its `(n, n)` proof, if any.
            decision: Option<(bool, ThresholdSignature)>,
        } in "strong-ba/fallback-coord",
        /// Inner `A_fallback` traffic.
        5 => Inner(SkewEnvelope<FM>),
    }
}

/// Rounds per leader attempt: inputs, propose, decide shares, decide
/// certificate.
const ATTEMPT_ROUNDS: u64 = 4;

/// The binary strong BA state machine (one per process): `attempts`
/// sequential leader attempts, then fallback coordination. The schedule
/// is fixed by the constructor — [`StrongBa::new`] is Algorithm 5 as
/// printed, [`StrongBa::rotating`] the §8 extension — and both share
/// [`StrongBaMsg`]: attempts need no tags because every signed payload
/// binds only the session and the value.
pub struct StrongBa<F>
where
    F: FallbackFactory<bool>,
{
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    input: bool,
    /// Number of leader attempts; attempt `j` is led by `p_{j mod n}`.
    attempts: u64,
    /// Shares a decide certificate needs.
    decide_threshold: usize,
    /// Step at which undecided processes open fallback coordination.
    coordination_start: u64,

    decision: Option<bool>,
    proof: Option<ThresholdSignature>,
    /// The single value this process has decide-signed (at most one
    /// value, ever — what makes the certificate value unique).
    signed_value: Option<bool>,
    /// The hand-off to `A_fallback` (lines 16–30).
    host: FallbackHost<bool, ThresholdSignature, F>,
    decided_at: Option<u64>,
    finished: bool,
}

impl<F> StrongBa<F>
where
    F: FallbackFactory<bool>,
{
    /// Algorithm 5 as printed: one attempt led by `p0` (the paper's
    /// `p_1`), an `(n, n)` decide certificate, fallback coordination from
    /// round 5.
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
            attempts: 1,
            decide_threshold: cfg.n(),
            coordination_start: ATTEMPT_ROUNDS,
            decision: None,
            proof: None,
            signed_value: None,
            host: FallbackHost::new(me, factory, input),
            decided_at: None,
            finished: false,
        }
    }

    /// The rotating-leader extension (see module docs): `t + 1` attempts
    /// so one leader is correct, the §6 quorum for the decide
    /// certificate, and fallback coordination from the round after the
    /// last attempt's certificate arrives.
    pub fn rotating(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        factory: F,
        input: bool,
    ) -> Self {
        let attempts = cfg.t() as u64 + 1;
        StrongBa {
            attempts,
            decide_threshold: cfg.quorum(),
            coordination_start: attempts * ATTEMPT_ROUNDS + 1,
            ..Self::new(cfg, me, key, pki, factory, input)
        }
    }

    /// The binary value this process proposes.
    pub fn input(&self) -> bool {
        self.input
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

    /// `(attempt, round within it)` while attempts are running.
    fn attempt_of_step(&self, step: u64) -> Option<(u64, u64)> {
        (step < self.attempts * ATTEMPT_ROUNDS)
            .then_some((step / ATTEMPT_ROUNDS, step % ATTEMPT_ROUNDS))
    }

    /// Last step at which fallback coordination messages are accepted
    /// (Alg 5's literal 10).
    fn fallback_deadline(&self) -> u64 {
        self.coordination_start + 6
    }

    fn decide_cert_valid(&self, value: bool, qc: &ThresholdSignature) -> bool {
        qc.threshold() == self.decide_threshold
            && self
                .pki
                .verify_threshold(
                    &StrongDecideSig { session: self.cfg.session(), value }.signing_bytes(),
                    qc,
                )
                .is_ok()
    }

    /// Leader rounds (lines 3–6, 9–12): batches the round's shares per
    /// binary value and returns the first value, `false` before `true`,
    /// that reaches `threshold`.
    fn batch<'a, S: Signable>(
        &self,
        threshold: usize,
        payload: impl Fn(bool) -> S,
        shares: impl Iterator<Item = (ProcessId, bool, &'a Signature)>,
    ) -> Option<(bool, ThresholdSignature)> {
        let mut by_value =
            [false, true].map(|v| ShareCollector::new(&self.pki, &payload(v), threshold));
        for (from, value, sig) in shares {
            by_value[usize::from(value)].defer(from, sig);
        }
        let [on_false, on_true] = by_value;
        let certified = |value, shares: ShareCollector| Some((value, shares.certificate()?));
        certified(false, on_false).or_else(|| certified(true, on_true))
    }

    fn handle_fallback_msg(
        &mut self,
        step: u64,
        decision: &Option<(bool, ThresholdSignature)>,
        out: &mut dyn Sink<StrongBaMsg<StrongFallbackMsgOf<F>>>,
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
            out.push(Dest::All, StrongBaMsg::Fallback { decision: own });
        }
    }
}

impl<F> SubProtocol for StrongBa<F>
where
    F: FallbackFactory<bool>,
{
    type Msg = StrongBaMsg<StrongFallbackMsgOf<F>>;
    type Output = bool;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, Self::Msg>,
        out: &mut dyn Sink<Self::Msg>,
    ) {
        if self.finished {
            return;
        }
        let session = self.cfg.session();

        // --- Global handlers.
        // Attempt `j`'s decide certificate is accepted only at its
        // scheduled arrival, step 4(j+1) — four rounds after the attempt
        // began — from that attempt's leader (round 5, line 13). Accepting one later would let the adversary
        // create a lone decider after fallback coordination has begun,
        // splitting it from its peers. The certificate value is unique
        // across attempts, so arrival timing can only split processes by
        // *whether* they decided, which the coordination handles.
        let began = step.checked_sub(ATTEMPT_ROUNDS).and_then(|s| self.attempt_of_step(s));
        if let Some((j, 0)) = began {
            let cert_leader = self.leader_of_attempt(j);
            for (from, msg) in inbox.clone() {
                if let StrongBaMsg::DecideCert { value, qc } = msg {
                    if from == cert_leader
                        && self.decision.is_none()
                        && self.decide_cert_valid(*value, qc)
                    {
                        self.decision = Some(*value);
                        self.proof = Some(qc.clone());
                    }
                }
            }
        }
        // No correct process coordinates before every attempt has ended.
        if step >= self.coordination_start {
            for (_, msg) in inbox.clone() {
                if let StrongBaMsg::Fallback { decision } = msg {
                    self.handle_fallback_msg(step, decision, out);
                }
            }
        }
        for (from, msg) in inbox.clone() {
            if let StrongBaMsg::Inner(env) = msg {
                self.host.deliver(from, env);
            }
        }

        // --- Scheduled actions.
        if let Some((attempt, sub)) = self.attempt_of_step(step) {
            let leader = self.leader_of_attempt(attempt);
            match sub {
                // Round 1: undecided processes send their signed input to
                // the leader (line 2).
                0 if self.decision.is_none() => {
                    let sig =
                        sign_payload(&self.key, &StrongInputSig { session, value: self.input });
                    out.push(Dest::To(leader), StrongBaMsg::Input { value: self.input, sig });
                }
                // Round 2 (leader): batch t+1 matching inputs (lines 3–6).
                1 if self.me == leader && self.decision.is_none() => {
                    let inputs = inbox.filter_map(|(from, msg)| match msg {
                        StrongBaMsg::Input { value, sig } => Some((from, *value, sig)),
                        _ => None,
                    });
                    if let Some((value, qc)) = self.batch(
                        self.cfg.idk_threshold(),
                        |value| StrongInputSig { session, value },
                        inputs,
                    ) {
                        out.push(Dest::All, StrongBaMsg::Propose { value, qc });
                    }
                }
                // Round 3: decide-share for the first valid proposal
                // (lines 7–8) — for at most one value ever; re-signing
                // that value in a later attempt is idempotent and keeps
                // later correct leaders supplied.
                2 => {
                    for (from, msg) in inbox {
                        if let StrongBaMsg::Propose { value, qc } = msg {
                            let valid = from == leader
                                && qc.threshold() == self.cfg.idk_threshold()
                                && self
                                    .pki
                                    .verify_threshold(
                                        &StrongInputSig { session, value: *value }.signing_bytes(),
                                        qc,
                                    )
                                    .is_ok();
                            if valid && self.signed_value.is_none_or(|sv| sv == *value) {
                                self.signed_value = Some(*value);
                                let sig = sign_payload(
                                    &self.key,
                                    &StrongDecideSig { session, value: *value },
                                );
                                out.push(
                                    Dest::To(leader),
                                    StrongBaMsg::DecideShare { value: *value, sig },
                                );
                                break;
                            }
                        }
                    }
                }
                // Round 4 (leader): batch the decide shares (lines 9–12).
                3 if self.me == leader => {
                    let shares = inbox.filter_map(|(from, msg)| match msg {
                        StrongBaMsg::DecideShare { value, sig } => Some((from, *value, sig)),
                        _ => None,
                    });
                    if let Some((value, qc)) = self.batch(
                        self.decide_threshold,
                        |value| StrongDecideSig { session, value },
                        shares,
                    ) {
                        out.push(Dest::All, StrongBaMsg::DecideCert { value, qc });
                    }
                }
                _ => {}
            }
        }
        // Anyone still undecided once the attempts are over triggers the
        // fallback (lines 16–18). The decide certificate, if any, was
        // adopted by the global handler above.
        if step == self.coordination_start && self.decision.is_none() && self.host.schedule(step) {
            out.push(Dest::All, StrongBaMsg::Fallback { decision: None });
        }

        // --- Fallback execution (lines 28–30).
        if let Some(v) =
            self.host.tick(step, self.decision.as_ref(), &mut out.map(StrongBaMsg::Inner))
        {
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
            .field("attempts", &self.attempts)
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
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_sim::{Actor, AnyActor, IdleActor, Outbox, Recipients, RoundCtx};

    type Sba = StrongBa<EchoFallbackFactory>;
    type Msg = <Sba as SubProtocol>::Msg;
    /// `StrongBa::new` or `StrongBa::rotating`.
    type Ctor = fn(SystemConfig, ProcessId, SecretKey, Pki, EchoFallbackFactory, bool) -> Sba;

    fn setup(n: usize) -> (SystemConfig, Pki, Vec<SecretKey>) {
        let (pki, keys) = trusted_setup(n, 31);
        (SystemConfig::new(n, 5).unwrap(), pki, keys)
    }

    /// A `threshold`-share decide certificate on `value`.
    fn decide_cert(
        cfg: &SystemConfig,
        pki: &Pki,
        keys: &[SecretKey],
        threshold: usize,
        value: bool,
    ) -> Msg {
        let payload = StrongDecideSig { session: cfg.session(), value };
        let mut shares = ShareCollector::new(pki, &payload, threshold);
        for key in &keys[..threshold] {
            assert!(shares.offer(key.id(), &sign_payload(key, &payload)));
        }
        StrongBaMsg::DecideCert { value, qc: shares.certificate().unwrap() }
    }

    /// Byzantine: sends `msg` to `to` in round `at`, otherwise silent.
    struct Inject {
        me: ProcessId,
        at: u64,
        to: ProcessId,
        msg: Msg,
    }

    impl Actor for Inject {
        type Msg = Msg;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
            if ctx.round().as_u64() == self.at {
                ctx.send(self.to, self.msg.clone());
            }
        }
        fn done(&self) -> bool {
            true
        }
    }

    fn lockstep(
        ctor: Ctor,
        inputs: &[bool],
        crashed: &[u32],
        max_rounds: u64,
    ) -> ClusterReport<Msg> {
        let (cfg, pki, keys) = setup(inputs.len());
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let sba = ctor(cfg, id, key, pki.clone(), EchoFallbackFactory, inputs[i]);
                actors.push(Box::new(LockstepAdapter::new(id, sba)));
            }
        }
        let corrupt = crashed.iter().map(|&c| ProcessId(c)).collect();
        let config = DesConfig { max_rounds, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed, "not done within {max_rounds} rounds");
        run
    }

    fn inner(run: &ClusterReport<Msg>, i: u32) -> &Sba {
        let a: &LockstepAdapter<Sba> = run.actors[i as usize].as_any().downcast_ref().unwrap();
        a.inner()
    }

    fn decisions(run: &ClusterReport<Msg>, crashed: &[u32]) -> Vec<bool> {
        (0..run.actors.len() as u32)
            .filter(|i| !crashed.contains(i))
            .map(|i| inner(run, i).output().expect("decided"))
            .collect()
    }

    #[test]
    fn failure_free_unanimous_true() {
        let run = lockstep(StrongBa::new, &[true; 7], &[], 100);
        assert!(decisions(&run, &[]).iter().all(|&d| d));
        for i in 0..7u32 {
            assert!(!inner(&run, i).used_fallback(), "Lemma 8: no fallback when f = 0");
        }
    }

    #[test]
    fn failure_free_majority_of_inputs_or_agreement() {
        // Mixed inputs: 4 true, 3 false. The leader certifies whichever
        // value reaches t+1 = 4 first; all must agree.
        let inputs = [true, true, false, true, false, true, false];
        let run = lockstep(StrongBa::new, &inputs, &[], 100);
        let ds = decisions(&run, &[]);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }

    #[test]
    fn failure_free_words_linear() {
        for n in [5usize, 9, 17, 33] {
            let run = lockstep(StrongBa::new, &vec![true; n], &[], 100);
            let words = run.metrics.correct_words();
            assert!(words <= 9 * n as u64, "n={n}: {words} words");
        }
    }

    #[test]
    fn crashed_leader_falls_back_and_agrees() {
        let crashed = [0u32];
        let inputs = [false, true, true, true, true, true, true];
        let run = lockstep(StrongBa::new, &inputs, &crashed, 200);
        let ds = decisions(&run, &crashed);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
        // Strong unanimity among correct: all correct proposed true.
        assert!(ds.iter().all(|&d| d));
        for i in 1..7u32 {
            assert!(inner(&run, i).used_fallback());
        }
    }

    #[test]
    fn one_crashed_follower_still_agrees() {
        // A missing decide share forces the (n, n) certificate to fail and
        // the protocol to fall back — complexity becomes quadratic but
        // agreement and validity hold.
        let crashed = [3u32];
        let inputs = [true; 7];
        let run = lockstep(StrongBa::new, &inputs, &crashed, 200);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|&d| d), "strong unanimity: {ds:?}");
    }

    #[test]
    fn late_decide_certificate_is_not_adopted() {
        // Alg 5 line 13: the (n, n) certificate counts at round 5 (step 4)
        // only. Later it could create a lone decider after coordination
        // has begun.
        let (cfg, pki, keys) = setup(5);
        let cert = decide_cert(&cfg, &pki, &keys, cfg.n(), true);
        let me = ProcessId(1);
        let run = |arrival: u64| {
            let mut sba =
                StrongBa::new(cfg, me, keys[1].clone(), pki.clone(), EchoFallbackFactory, false);
            let mut out = Outbox::new();
            for step in 0..=arrival {
                let inbox = if step == arrival { vec![(ProcessId(0), &cert)] } else { vec![] };
                sba.on_step(step, inbox.into_iter(), &mut out);
            }
            sba.decision()
        };
        assert_eq!(run(4), Some(true), "on time: adopted");
        for arrival in 5..=7 {
            assert_ne!(run(arrival), Some(true), "step {arrival}: too late");
        }
    }

    #[test]
    fn rotating_failure_free_decides_in_first_attempt() {
        let run = lockstep(StrongBa::rotating, &[true; 7], &[], 300);
        let ds = decisions(&run, &[]);
        assert!(ds.iter().all(|&d| d));
        for i in 0..7u32 {
            assert!(!inner(&run, i).used_fallback());
            assert_eq!(inner(&run, i).decided_at(), Some(4), "first attempt decides");
        }
    }

    #[test]
    fn rotating_crashed_leader_next_attempt_decides_without_fallback() {
        // This is exactly what Algorithm 5 cannot do: p0 (the fixed
        // leader) is down, yet the run stays linear — attempt 2's leader
        // p1 finishes because the quorum needs only ⌈(n+t+1)/2⌉ = 6 of 7
        // shares (n=9: 7 of 9).
        let crashed = [0u32];
        let run = lockstep(StrongBa::rotating, &[true; 9], &crashed, 400);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|&d| d), "strong unanimity");
        for i in 1..9u32 {
            assert!(!inner(&run, i).used_fallback(), "p{i} must not fall back");
            assert_eq!(inner(&run, i).decided_at(), Some(8), "second attempt decides");
        }
    }

    #[test]
    fn rotating_linear_words_with_crashed_leader() {
        let crashed = [0u32];
        for n in [9usize, 17, 33] {
            let run = lockstep(StrongBa::rotating, &vec![true; n], &crashed, 60 * n as u64);
            let words = run.metrics.correct_words();
            assert!(
                words <= 14 * n as u64,
                "n={n}: {words} words — must stay linear despite the crashed leader"
            );
        }
    }

    #[test]
    fn rotating_beyond_bound_falls_back_and_agrees() {
        // n=9, t=4, adaptive bound 2: crash 4 (=t) — quorum unreachable,
        // fallback must run and unanimity must survive it.
        let crashed = [0u32, 2, 4, 6];
        let run = lockstep(StrongBa::rotating, &[false; 9], &crashed, 600);
        let ds = decisions(&run, &crashed);
        assert!(ds.iter().all(|&d| !d));
    }

    #[test]
    fn rotating_split_inputs_still_agree() {
        let inputs = [true, false, true, false, true, false, true];
        let run = lockstep(StrongBa::rotating, &inputs, &[], 400);
        let ds = decisions(&run, &[]);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }

    #[test]
    fn rotating_split_inputs_with_crashes_agree() {
        let inputs = [true, false, true, false, true, false, true, false, true];
        let crashed = [1u32, 5];
        let run = lockstep(StrongBa::rotating, &inputs, &crashed, 600);
        let ds = decisions(&run, &crashed);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
    }

    #[test]
    fn rotating_certificate_for_a_nonexistent_attempt_is_ignored() {
        // n = 5, t = 2: attempts 0..=2 are led by p0, p1, p2. The correct
        // inputs split 2–2, so no attempt can propose and everyone reaches
        // `coordination_start` undecided. Byzantine p3 = p_{t+1} — the
        // "leader" of an attempt that does not exist — then delivers a
        // valid quorum certificate to p4 alone, in that very round.
        let (cfg, pki, keys) = setup(5);
        let byz = ProcessId(3);
        let coord = 4 * (cfg.t() as u64 + 1) + 1;
        let cert = decide_cert(&cfg, &pki, &keys, cfg.quorum(), true);
        let inputs = [true, false, true, false, false];

        // p4 on its own: the certificate changes nothing, it opens the
        // coordination without a decision like its peers.
        let mut p4 = StrongBa::rotating(
            cfg,
            ProcessId(4),
            keys[4].clone(),
            pki.clone(),
            EchoFallbackFactory,
            inputs[4],
        );
        for step in 0..coord {
            p4.on_step(step, std::iter::empty(), &mut Outbox::new());
        }
        assert_eq!(p4.coordination_start, coord);
        let mut out = Outbox::new();
        p4.on_step(coord, [(byz, &cert)].into_iter(), &mut out);
        assert_eq!(p4.decision(), None);
        let all = Recipients::Dest(Dest::All);
        assert!(
            matches!(&out[..], [(to, StrongBaMsg::Fallback { decision: None })] if *to == all),
            "{out:?}"
        );

        // The whole system: everyone decides through the fallback, alike.
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if id == byz {
                let msg = cert.clone();
                actors.push(Box::new(Inject { me: id, at: coord - 1, to: ProcessId(4), msg }));
            } else {
                let sba =
                    StrongBa::rotating(cfg, id, key, pki.clone(), EchoFallbackFactory, inputs[i]);
                actors.push(Box::new(LockstepAdapter::new(id, sba)));
            }
        }
        let config = DesConfig { max_rounds: 200, corrupt: vec![byz], ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed);
        let ds = decisions(&run, &[3]);
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "agreement: {ds:?}");
        for i in [0u32, 1, 2, 4] {
            assert!(inner(&run, i).used_fallback(), "p{i}");
            assert!(inner(&run, i).decided_at() > Some(coord), "p{i} decided by certificate");
        }
    }
}

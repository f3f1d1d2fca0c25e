//! Certificate-forgery rejection tests: a Byzantine process sends
//! structurally valid messages carrying *wrong* certificates (lower
//! thresholds, mismatched levels/phases, replayed sessions) and correct
//! processes must ignore every one of them.

mod common;

use common::{des, oracle, with_flipped_tag, Fault, Timing, WbaM, WbaProc};
use meba::core::signing::{sign_payload, CommitProof, DecideProof, DecideSig, HelpReqSig, VoteSig};
use meba::core::weak_ba::WeakBaMsg;
use meba::crypto::Signable;
use meba::prelude::*;
use meba_sim::RoundCtx;

/// A Byzantine actor that fires a fixed batch of crafted messages at a
/// given round and is otherwise silent.
struct Injector {
    me: ProcessId,
    round: u64,
    payload: Vec<WbaM>,
}

impl Actor for Injector {
    type Msg = WbaM;
    fn id(&self) -> ProcessId {
        self.me
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WbaM>) {
        if ctx.round().as_u64() == self.round {
            for m in self.payload.drain(..) {
                ctx.broadcast(m);
            }
        }
    }
    fn done(&self) -> bool {
        true
    }
}

/// n = 7 weak BA (every input 5) with p1 replaced by an [`Injector`]
/// firing `payload` at `at_round`; returns the common decision of the
/// correct processes, with every check of the oracle.
fn run_with_injection(payload: Vec<WbaM>, at_round: u64) -> Decision<u64> {
    run_with_injection_and_idle(payload, at_round, &[])
}

/// Like [`run_with_injection`] with the processes in `idle` silent
/// (crashed from the start).
fn run_with_injection_and_idle(payload: Vec<WbaM>, at_round: u64, idle: &[u32]) -> Decision<u64> {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let byz = ProcessId(1);
    let mut actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if id == byz {
            actors.push(Box::new(Injector { me: id, round: at_round, payload: payload.clone() }));
        } else if idle.contains(&id.0) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let wba: WbaProc = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 5u64);
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let faults: Vec<Fault> = (0..n as u32)
        .map(|i| if i == byz.0 || idle.contains(&i) { Fault::Idle } else { Fault::None })
        .collect();
    let run = des(actors, &faults, 0, &Timing::lockstep());
    assert!(run.completed);
    oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults).assert_in_model()
}

/// Note: p1 is the phase-1 leader and we replace it with the injector, so
/// the honest run decides the phase-2 leader's value (5) — any forged
/// early decision on a different value would surface as disagreement or a
/// wrong value.
const HONEST_OUTCOME: Decision<u64> = Decision::Value(5);

#[test]
fn underfilled_finalize_certificate_is_rejected() {
    // A finalize "certificate" batched at threshold t+1 = 4 instead of the
    // quorum 6. The byz cohort alone cannot reach 6, but 4 signatures are
    // trivially available... except only p1 is corrupted here, so we
    // build it from p1's signature repeated? Impossible — combine rejects
    // duplicates. Instead: a (1, n) certificate from p1 alone.
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let forged_value = 666u64;
    let payload = DecideSig { session: cfg.session(), value: &forged_value, phase: 1 };
    let share = sign_payload(&keys[1], &payload);
    let qc = pki.combine(1, &meba_crypto::Signable::signing_bytes(&payload), &[share]).unwrap();
    let msg = WeakBaMsg::FinalizeCert {
        phase: 1,
        value: forged_value,
        proof: DecideProof { phase: 1, qc },
    };
    // Injected at round 4 so it arrives at the finalize-adoption step.
    assert_eq!(run_with_injection(vec![msg], 4), HONEST_OUTCOME, "forged finalize accepted");
}

#[test]
fn commit_certificate_with_wrong_level_is_rejected() {
    // A real-looking commit certificate whose claimed level (3) does not
    // match the level its signatures bind (1).
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let forged_value = 666u64;
    let payload = VoteSig { session: cfg.session(), value: &forged_value, level: 1 };
    let share = sign_payload(&keys[1], &payload);
    let qc = pki.combine(1, &meba_crypto::Signable::signing_bytes(&payload), &[share]).unwrap();
    let msg = WeakBaMsg::CommitCert {
        phase: 1,
        value: forged_value,
        proof: CommitProof { level: 3, qc },
    };
    assert_eq!(run_with_injection(vec![msg], 1), HONEST_OUTCOME, "level-forged commit accepted");
}

#[test]
fn cross_session_certificate_is_rejected() {
    // A quorum-sized certificate from a *different session* (all 7 keys
    // of a parallel setup sign it): structurally perfect, semantically
    // stale.
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let other_cfg = SystemConfig::new(n, 0xdead).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let forged_value = 666u64;
    let payload = DecideSig { session: other_cfg.session(), value: &forged_value, phase: 1 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki
        .combine(cfg.quorum(), &meba_crypto::Signable::signing_bytes(&payload), &shares)
        .unwrap();
    let msg = WeakBaMsg::FinalizeCert {
        phase: 1,
        value: forged_value,
        proof: DecideProof { phase: 1, qc },
    };
    assert_eq!(run_with_injection(vec![msg], 4), HONEST_OUTCOME, "cross-session cert accepted");
}

#[test]
fn phase_mismatched_finalize_is_rejected() {
    // Signatures bind phase 2 but the message claims phase 1 (whose
    // arrival round this is). Either interpretation must fail: the proof
    // verifies only for phase 2, and a phase-2 cert cannot arrive at
    // phase 1's slot.
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let forged_value = 666u64;
    let payload = DecideSig { session: cfg.session(), value: &forged_value, phase: 2 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki
        .combine(cfg.quorum(), &meba_crypto::Signable::signing_bytes(&payload), &shares)
        .unwrap();
    let msgs = vec![
        WeakBaMsg::FinalizeCert {
            phase: 1,
            value: forged_value,
            proof: DecideProof { phase: 2, qc: qc.clone() },
        },
        WeakBaMsg::FinalizeCert {
            phase: 1,
            value: forged_value,
            proof: DecideProof { phase: 1, qc },
        },
    ];
    assert_eq!(run_with_injection(msgs, 4), HONEST_OUTCOME, "phase-mismatched cert accepted");
}

#[test]
fn help_with_valid_looking_but_wrong_threshold_is_rejected() {
    // Help answers carry finalize proofs; an undecided process must not
    // adopt one whose certificate threshold is below the quorum even if
    // the signatures are genuine.
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    let forged_value = 666u64;
    let payload = DecideSig { session: cfg.session(), value: &forged_value, phase: 1 };
    let shares: Vec<_> = keys.iter().take(4).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki.combine(4, &meba_crypto::Signable::signing_bytes(&payload), &shares).unwrap();
    let msg = WeakBaMsg::Help { value: forged_value, proof: DecideProof { phase: 1, qc } };
    // Injected one round before the help-adoption step (n phases × 5 + 1).
    let help_adopt = 7 * 5 + 1;
    assert_eq!(
        run_with_injection(vec![msg], help_adopt),
        HONEST_OUTCOME,
        "weak help proof accepted"
    );
}

#[test]
fn near_twins_of_the_fallback_certificate_are_still_rejected() {
    // f = t = 3 (the injector plus two silent processes): the four correct
    // processes cannot reach the quorum of 6, all ask for help at step 35,
    // each batches the same t+1 help-request certificate at step 36 and
    // holds it from then on — so the re-broadcasts that arrive at step 37
    // are byte-equal and skip `verify_threshold` (DESIGN.md §4, "verify
    // once"). A near-twin arriving with them must still be judged on its
    // own bytes. Each one carries a decision on 666 with a finalize proof
    // only this test can mint (six keys): if a twin passed, every
    // undecided process would adopt 666 inside the safety window, enter
    // the fallback unanimous on it and decide it.
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xf0).unwrap();
    let (pki, keys) = trusted_setup(n, 0xf0);
    // The first `k` processes' `(k, n)` certificate on `msg`.
    let cert = |k: usize, msg: Vec<u8>| {
        let shares: Vec<_> = keys.iter().take(k).map(|key| key.sign(&msg)).collect();
        pki.combine(k, &msg, &shares).unwrap()
    };
    let help_req = |session| HelpReqSig { session }.signing_bytes();
    let genuine = cert(cfg.idk_threshold(), help_req(cfg.session()));
    let forged_value = 666u64;
    let decide = DecideSig { session: cfg.session(), value: &forged_value, phase: 1 };
    let proof = DecideProof { phase: 1, qc: cert(cfg.quorum(), decide.signing_bytes()) };
    for (what, qc) in [
        ("tag byte flipped", with_flipped_tag(&genuine)),
        ("another threshold", cert(1, help_req(cfg.session()))),
        ("another session's help requests", cert(cfg.idk_threshold(), help_req(cfg.session() + 1))),
    ] {
        let msg = WeakBaMsg::FallbackCert { qc, decision: Some((forged_value, proof.clone())) };
        let d = run_with_injection_and_idle(vec![msg], n as u64 * 5 + 1, &[2, 3]);
        assert_eq!(d, HONEST_OUTCOME, "{what}: accepted");
    }
    // The harness has teeth: the genuine certificate carries the planted
    // decision through.
    let msg = WeakBaMsg::FallbackCert { qc: genuine, decision: Some((forged_value, proof)) };
    let d = run_with_injection_and_idle(vec![msg], n as u64 * 5 + 1, &[2, 3]);
    assert_eq!(d, Decision::Value(forged_value));
}

mod strong_ba_forgeries {
    use super::common::{checked, Fault, SbaM, SbaProc};
    use meba::core::signing::{sign_payload, StrongDecideSig, StrongInputSig};
    use meba::core::strong_ba::StrongBaMsg;
    use meba::prelude::*;
    use meba_crypto::Signable;
    use meba_sim::RoundCtx;

    struct Injector {
        me: ProcessId,
        round: u64,
        payload: Vec<SbaM>,
    }
    impl Actor for Injector {
        type Msg = SbaM;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, SbaM>) {
            if ctx.round().as_u64() == self.round {
                for m in self.payload.drain(..) {
                    ctx.broadcast(m);
                }
            }
        }
        fn done(&self) -> bool {
            true
        }
    }

    /// Runs strong BA (all correct input `true`) with p3 replaced by an
    /// injector firing `payload` at `round`. The oracle's strong
    /// unanimity rule then requires every correct process to decide
    /// `true`: a forgery that flipped one would fail it.
    fn run(payload: Vec<SbaM>, round: u64) {
        let n = 7usize;
        let cfg = SystemConfig::new(n, 0x5f).unwrap();
        let (pki, keys) = trusted_setup(n, 0x5f);
        let byz = ProcessId(3);
        let mut actors: Vec<Box<dyn AnyActor<Msg = SbaM>>> = Vec::new();
        for (i, key) in keys.iter().cloned().enumerate() {
            let id = ProcessId(i as u32);
            if id == byz {
                actors.push(Box::new(Injector { me: id, round, payload: payload.clone() }));
            } else {
                let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
                let sba: SbaProc = StrongBa::new(cfg, id, key, pki.clone(), factory, true);
                actors.push(Box::new(LockstepAdapter::new(id, sba)));
            }
        }
        let mut faults = vec![Fault::None; n];
        faults[byz.index()] = Fault::Idle;
        checked::<SbaProc>(actors, &faults).assert_in_model();
    }

    #[test]
    fn decide_cert_from_non_leader_is_ignored() {
        // A perfectly valid-looking decide certificate... except it comes
        // from p3, not the leader, and its threshold is forged low.
        let cfg = SystemConfig::new(7, 0x5f).unwrap();
        let (pki, keys) = trusted_setup(7, 0x5f);
        let payload = StrongDecideSig { session: cfg.session(), value: false };
        let share = sign_payload(&keys[3], &payload);
        let qc = pki.combine(1, &payload.signing_bytes(), &[share]).unwrap();
        // With a fault present (the injector never sends its decide
        // share) the run falls back; strong unanimity still gives true.
        run(vec![StrongBaMsg::DecideCert { value: false, qc }], 3);
    }

    #[test]
    fn propose_with_wrong_threshold_is_ignored() {
        // A propose "certificate" with a single signature instead of t+1:
        // correct processes must not decide-share for it.
        let cfg = SystemConfig::new(7, 0x5f).unwrap();
        let (pki, keys) = trusted_setup(7, 0x5f);
        let payload = StrongInputSig { session: cfg.session(), value: false };
        let share = sign_payload(&keys[3], &payload);
        let qc = pki.combine(1, &payload.signing_bytes(), &[share]).unwrap();
        run(vec![StrongBaMsg::Propose { value: false, qc }], 1);
    }
}

/// One correct process of an n = 7 weak BA, driven step by step: p3
/// votes for 5 on the phase-1 leader's proposal (step 1), checks the
/// leader's commit certificate (step 3) and, once it sent a decide share
/// on 5, the leader's finalize certificate (step 5).
mod own_share_certificates {
    use super::common::{with_flipped_tag, WbaM, WbaProc};
    use meba::core::signing::{sign_payload, CommitProof, DecideProof, DecideSig, VoteSig};
    use meba::core::weak_ba::WeakBaMsg;
    use meba::crypto::pki::verify_calls;
    use meba::crypto::{Signable, ThresholdSignature};
    use meba::prelude::*;
    use meba_sim::Outbox;

    const VOTED: u64 = 5;
    const OTHER: u64 = 6;

    struct Setup {
        cfg: SystemConfig,
        pki: Pki,
        keys: Vec<SecretKey>,
        leader: ProcessId,
    }

    impl Setup {
        fn new() -> Self {
            let cfg = SystemConfig::new(7, 0xf0).unwrap();
            let (pki, keys) = trusted_setup(cfg.n(), 0xf0);
            Setup { leader: cfg.leader_of_phase(1), cfg, pki, keys }
        }

        /// The last `k` processes' `(k, n)` certificate on `payload`.
        fn cert(&self, k: usize, payload: &impl Signable) -> ThresholdSignature {
            let signers = self.keys.iter().rev().take(k);
            let shares: Vec<_> = signers.map(|key| sign_payload(key, payload)).collect();
            self.pki.combine(k, &payload.signing_bytes(), &shares).unwrap()
        }

        fn vote(&self, value: &u64, level: u32, k: usize) -> CommitProof {
            CommitProof {
                level,
                qc: self.cert(k, &VoteSig { session: self.cfg.session(), value, level }),
            }
        }

        fn decide(&self, value: &u64, phase: u32, k: usize) -> DecideProof {
            DecideProof {
                phase,
                qc: self.cert(k, &DecideSig { session: self.cfg.session(), value, phase }),
            }
        }

        /// p3 with its steps before `step` run, the leader's proposal of
        /// [`VOTED`] in step 1 and `commit` in step 3.
        fn process_before(&self, step: u64, commit: &CommitProof) -> WbaProc {
            let me = ProcessId(3);
            let key = self.keys[me.index()].clone();
            let factory = RecursiveBaFactory::new(self.cfg, key.clone(), self.pki.clone());
            let mut p = WeakBa::new(self.cfg, me, key, self.pki.clone(), AlwaysValid, factory, 9);
            let propose: WbaM = WeakBaMsg::Propose { phase: 1, value: VOTED };
            let commit: WbaM =
                WeakBaMsg::CommitCert { phase: 1, value: VOTED, proof: commit.clone() };
            for s in 0..step {
                let mut out = Outbox::new();
                let inbox = match s {
                    1 => Some(&propose),
                    3 => Some(&commit),
                    _ => None,
                };
                p.on_step(s, inbox.map(|m| (self.leader, m)).into_iter(), &mut out);
                if s == 1 {
                    assert!(matches!(&out[..], [(_, WeakBaMsg::Vote { value: VOTED, .. })]));
                }
            }
            p
        }

        /// Runs `step` of `p` on `msg` from the leader and returns the
        /// outbox and the certificate checks it counted.
        fn step(&self, p: &mut WbaProc, step: u64, msg: WbaM) -> (Outbox<WbaM>, u64) {
            let mut out = Outbox::new();
            let before = verify_calls().1;
            p.on_step(step, [(self.leader, &msg)].into_iter(), &mut out);
            (out, verify_calls().1 - before)
        }
    }

    /// The certificate checks `check` counts.
    fn cert_verifies(check: impl FnOnce() -> bool) -> (bool, u64) {
        let before = verify_calls().1;
        (check(), verify_calls().1 - before)
    }

    #[test]
    fn commit_certificates_are_judged_as_their_proof_verifies() {
        let s = Setup::new();
        let (q, low) = (s.cfg.quorum(), s.cfg.t() + 1);
        let genuine = s.vote(&VOTED, 1, q);
        let cases = [
            ("the voted value and level", VOTED, genuine.clone()),
            ("another value", OTHER, s.vote(&OTHER, 1, q)),
            ("the voted value at another level", VOTED, s.vote(&VOTED, 2, q)),
            (
                "a level-2 certificate relabelled 1",
                VOTED,
                CommitProof { level: 1, ..s.vote(&VOTED, 2, q) },
            ),
            (
                "a level-1 certificate relabelled 2",
                VOTED,
                CommitProof { level: 2, ..genuine.clone() },
            ),
            (
                "a flipped tag bit",
                VOTED,
                CommitProof { level: 1, qc: with_flipped_tag(&genuine.qc) },
            ),
            ("the wrong threshold", VOTED, s.vote(&VOTED, 1, low)),
        ];
        for (what, value, proof) in cases {
            let (valid, checks) = cert_verifies(|| proof.verify(&s.cfg, &s.pki, &value));
            let mut p = s.process_before(3, &genuine);
            let msg = WeakBaMsg::CommitCert { phase: 1, value, proof: proof.clone() };
            let (out, counted) = s.step(&mut p, 3, msg);
            let decided = matches!(&out[..], [(_, WeakBaMsg::Decide { value: v, phase: 1, .. })] if *v == value);
            assert_eq!(decided, valid, "{what}: decide share sent iff the proof verifies");
            assert_eq!(p.commit_level(), if valid { proof.level } else { 0 }, "{what}");
            assert_eq!(p.committed_value(), valid.then_some(&value), "{what}");
            assert_eq!(counted, checks, "{what}: certificate checks");
        }
    }

    #[test]
    fn finalize_certificates_are_judged_as_their_proof_verifies() {
        let s = Setup::new();
        let (q, low) = (s.cfg.quorum(), s.cfg.t() + 1);
        let commit = s.vote(&VOTED, 1, q);
        let genuine = s.decide(&VOTED, 1, q);
        let cases = [
            ("the decided value and phase", VOTED, genuine.clone()),
            ("another value", OTHER, s.decide(&OTHER, 1, q)),
            (
                "a phase-2 certificate relabelled 1",
                VOTED,
                DecideProof { phase: 1, ..s.decide(&VOTED, 2, q) },
            ),
            (
                "a flipped tag bit",
                VOTED,
                DecideProof { phase: 1, qc: with_flipped_tag(&genuine.qc) },
            ),
            ("the wrong threshold", VOTED, s.decide(&VOTED, 1, low)),
        ];
        for (what, value, proof) in cases {
            let (valid, checks) = cert_verifies(|| proof.verify(&s.cfg, &s.pki, &value));
            let mut p = s.process_before(5, &commit);
            assert_eq!(p.committed_value(), Some(&VOTED), "p3 sent a decide share on {VOTED}");
            let msg = WeakBaMsg::FinalizeCert { phase: 1, value, proof };
            let (_, counted) = s.step(&mut p, 5, msg);
            let decided = p.decision() == Some(&Decision::Value(value));
            assert_eq!(decided, valid, "{what}: adopted iff the proof verifies");
            assert!(decided || p.decision().is_none(), "{what}: {:?}", p.decision());
            assert_eq!(counted, checks, "{what}: certificate checks");
        }
    }
}

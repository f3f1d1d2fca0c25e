//! Adversarial tests for the fallback substrate: Dolev–Strong under
//! sender equivocation, graded agreement under certificate splits, and
//! the recursive BA with a Byzantine-majority half.

mod common;

use common::{oracle, with_faults, Fault};
use meba::adversary::{ChaosActor, DsEquivocatingSender, GaSplitEchoer};
use meba::fallback::{
    DolevStrongBb, DsBbMsg, GaInstance, InstanceId, RecBaMsg, RecursiveBa, Scope, GA_STEPS,
};
use meba::prelude::*;

type DsM = DsBbMsg<u64>;
type RecM = RecBaMsg<u64>;

#[test]
fn dolev_strong_equivocating_sender_yields_bot() {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0xd5).unwrap();
    let (pki, keys) = trusted_setup(n, 0xd5);
    let sender = ProcessId(0);
    let mut actors: Vec<Box<dyn AnyActor<Msg = DsM>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if id == sender {
            actors.push(Box::new(DsEquivocatingSender::new(
                cfg,
                key,
                pki.clone(),
                1u64,
                2u64,
                (1..4).map(ProcessId).collect(),
                (4..7).map(ProcessId).collect(),
            )));
        } else {
            let ds: DolevStrongBb<u64> =
                DolevStrongBb::new(&cfg, sender, id, key, pki.clone(), None);
            actors.push(Box::new(LockstepAdapter::new(id, ds)));
        }
    }
    let config = DesConfig { max_rounds: 100, corrupt: vec![sender], ..DesConfig::default() };
    let run = run_des_cluster(actors, None, config).unwrap();
    assert!(run.completed);
    for (i, a) in run.actors.iter().enumerate().skip(1) {
        let a: &LockstepAdapter<DolevStrongBb<u64>> = a.as_any().downcast_ref().unwrap();
        let d = a.inner().output().expect("decided");
        assert!(d.is_bot(), "cross-forwarded chains must expose the equivocation (p{i} got {d:?})");
    }
}

/// Drives raw GA instances alongside the split-echo attacker and checks
/// the graded-consistency invariant.
#[test]
fn graded_agreement_survives_certificate_split() {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0x6a).unwrap();
    let (pki, keys) = trusted_setup(n, 0x6a);
    let inst = InstanceId::new(Scope::full(n), 0);
    let byz = [1u32, 3, 5];
    let cohort: Vec<SecretKey> = byz.iter().map(|&i| keys[i as usize].clone()).collect();

    // Correct inputs split 2/2 so the attacker can certify both values
    // (2 honest sigs + 3 cohort sigs = 5 >= majority 4 for each).
    let inputs = [10u64, 0, 10, 0, 20, 0, 20];

    /// Wraps a GaInstance as a lockstep actor.
    struct GaActor {
        me: ProcessId,
        ga: GaInstance<u64>,
    }
    impl Actor for GaActor {
        type Msg = RecM;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, RecM>) {
            let inbox = ctx.inbox().iter().map(|e| (e.from, &*e.msg));
            self.ga.on_step(ctx.round().as_u64(), inbox, ctx.outbox());
        }
        fn done(&self) -> bool {
            self.ga.result().is_some()
        }
    }
    use meba_sim::RoundCtx;

    let mut actors: Vec<Box<dyn AnyActor<Msg = RecM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if i as u32 == 1 {
            actors.push(Box::new(GaSplitEchoer::<u64, RecM>::new(
                cfg,
                id,
                pki.clone(),
                cohort.clone(),
                inst,
                10,
                20,
                vec![ProcessId(0), ProcessId(2)],
                vec![ProcessId(4), ProcessId(6)],
            )));
        } else if byz.contains(&(i as u32)) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let ga = GaInstance::new(inst, cfg.session(), id, key, pki.clone(), inputs[i]);
            actors.push(Box::new(GaActor { me: id, ga }));
        }
    }
    let corrupt = byz.map(ProcessId).to_vec();
    let config = DesConfig { max_rounds: GA_STEPS + 1, corrupt, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, config).unwrap();

    let results: Vec<(u64, u8)> = [0, 2, 4, 6]
        .iter()
        .map(|&i| {
            let a: &GaActor = run.actors[i].as_any().downcast_ref().unwrap();
            *a.ga.result().expect("graded")
        })
        .collect();
    // Graded consistency: if any honest output has grade 2 on v, every
    // honest output must carry v with grade >= 1.
    if let Some((v2, _)) = results.iter().find(|(_, g)| *g == 2) {
        for (v, g) in &results {
            assert!(*g >= 1, "grade-2 exists but {results:?}");
            assert_eq!(v, v2, "conflicting grade-2/1 values: {results:?}");
        }
    }
    // And never two different grade-2 values.
    let twos: Vec<u64> = results.iter().filter(|(_, g)| *g == 2).map(|(v, _)| *v).collect();
    assert!(twos.windows(2).all(|w| w[0] == w[1]), "two conflicting grade-2 outputs: {results:?}");
}

#[test]
fn recursive_ba_with_byzantine_majority_half_agrees() {
    // n = 9 splits into [0,5) and [5,9). Crash 4 of the left half's 5
    // members: the left is Byzantine-majority, and agreement must come
    // from the right half's certificate exchange.
    let n = 9usize;
    let cfg = SystemConfig::new(n, 0x4e).unwrap();
    let (pki, keys) = trusted_setup(n, 0x4e);
    let faults: Vec<Fault> =
        (0..n).map(|i| if i < 4 { Fault::Idle } else { Fault::None }).collect();
    let inputs = [9u64, 9, 9, 9, 4, 5, 5, 5, 4];
    let mut actors: Vec<Box<dyn AnyActor<Msg = RecM>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if faults[i].is_byzantine() {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let rb = RecursiveBa::new(cfg, id, key, pki.clone(), inputs[i]);
            actors.push(Box::new(LockstepAdapter::new(id, rb)));
        }
    }
    let config = DesConfig { max_rounds: 1_000, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
    assert!(run.completed);
    let d =
        oracle::decided::<RecursiveBa<u64>>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert!(inputs.contains(&d), "decision must be someone's input");
}

#[test]
fn recursive_ba_under_chaos_replay_agrees() {
    let n = 9usize;
    let cfg = SystemConfig::new(n, 0xca).unwrap();
    let (pki, keys) = trusted_setup(n, 0xca);
    for seed in [3u64, 17, 99] {
        let mut faults = vec![Fault::None; n];
        faults[2] = Fault::Chaos(seed);
        faults[6] = Fault::Chaos(seed);
        let mut actors: Vec<Box<dyn AnyActor<Msg = RecM>>> = Vec::new();
        for (i, key) in keys.iter().cloned().enumerate() {
            let id = ProcessId(i as u32);
            if faults[i].is_byzantine() {
                actors.push(Box::new(ChaosActor::new(id, seed, 5)));
            } else {
                let rb = RecursiveBa::new(cfg, id, key, pki.clone(), 7u64);
                actors.push(Box::new(LockstepAdapter::new(id, rb)));
            }
        }
        let config = DesConfig { max_rounds: 1_000, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
        assert!(run.completed);
        // Strong unanimity under chaos is the oracle's recursive BA rule.
        oracle::decided::<RecursiveBa<u64>>(&run.actors, &run.metrics, &faults).assert_in_model();
    }
}

#[test]
fn weak_ba_with_slack_resilience() {
    // §8 future direction: the bounds generalize to n = αt + β. Our
    // implementation accepts any n >= 2t + 1; with n = 11, t = 3 the
    // adaptive bound improves to (11-3-1)/2 = 3.
    let n = 11usize;
    let t = 3usize;
    let cfg = SystemConfig::with_resilience(n, t, 0x51).unwrap();
    assert_eq!(cfg.adaptive_fault_bound(), 3);
    let (pki, keys) = trusted_setup(n, 0x51);
    // p1 and p2 crashed: f = 2 < 3, no fallback expected.
    let faults: Vec<Fault> =
        (0..n).map(|i| if i == 1 || i == 2 { Fault::Idle } else { Fault::None }).collect();
    type Wba = WeakBa<u64, AlwaysValid, RecursiveBaFactory>;
    type Msg = <Wba as SubProtocol>::Msg;
    let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if faults[i].is_byzantine() {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let wba = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 8u64);
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let config = DesConfig { max_rounds: 4_000, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, with_faults(&faults, config)).unwrap();
    assert!(run.completed);
    let run = oracle::decided::<Wba>(&run.actors, &run.metrics, &faults);
    assert_eq!(run.assert_in_model(), Decision::Value(8));
    assert_eq!(run.fell_back, 0, "f=2 below the improved bound");
}

/// "Verify once" (DESIGN.md §6): a graded agreement skips
/// `verify_threshold` for a certificate byte-equal to one it already
/// accepted for the same value. These tests hand-drive one member, p0,
/// past the point where the genuine certificate is memoized and then
/// feed it near-twins of that certificate: each must still be judged on
/// its own bytes.
mod verify_once {
    use super::common::with_flipped_tag;
    use super::RecM;
    use meba::crypto::pki::verify_calls;
    use meba::crypto::{Signable, ThresholdSignature};
    use meba::fallback::messages::{GaInputSig, GaVoteSig};
    use meba::fallback::{GaInstance, InstanceId, RecBaMsg, Scope, GA_STEPS};
    use meba::prelude::*;

    const M: usize = 7;
    const SESSION: u64 = 0x6b;
    /// Every correct member's input.
    const V: u64 = 40;
    /// The forger's value; smaller than `V`, so an accepted `C2(W)` would
    /// win the grade-1 pick.
    const W: u64 = 7;

    /// p0 of a 7-member scope (majority 4); p5 and p6 are the forger's.
    struct Member {
        ga: GaInstance<u64>,
        pki: Pki,
        keys: Vec<SecretKey>,
        inst: InstanceId,
    }

    impl Member {
        fn new() -> Self {
            let (pki, keys) = trusted_setup(M, 0x6b);
            let inst = InstanceId::new(Scope::full(M), 0);
            let ga = GaInstance::new(inst, SESSION, ProcessId(0), keys[0].clone(), pki.clone(), V);
            Member { ga, pki, keys, inst }
        }

        /// Runs step `k` over `inbox`; returns the outbox and how many
        /// `verify_threshold` calls the step made.
        fn step(&mut self, k: u64, inbox: &[(ProcessId, RecM)]) -> (Vec<RecM>, u64) {
            let mut out = meba::sim::Outbox::new();
            let before = verify_calls().1;
            self.ga.on_step(k, inbox.iter().map(|(p, m)| (*p, m)), &mut out);
            (out.into_iter().map(|(_, m)| m).collect(), verify_calls().1 - before)
        }

        fn input_sig<'a>(&self, value: &'a u64) -> GaInputSig<'a, u64> {
            GaInputSig { session: SESSION, inst: self.inst, value }
        }

        fn vote_sig<'a>(&self, value: &'a u64) -> GaVoteSig<'a, u64> {
            GaVoteSig { session: SESSION, inst: self.inst, value }
        }

        /// A genuinely minted `(k, n)` certificate of `signers` on `payload`.
        fn cert(&self, k: usize, payload: &impl Signable, signers: &[usize]) -> ThresholdSignature {
            let msg = payload.signing_bytes();
            let shares: Vec<_> = signers.iter().map(|&i| self.keys[i].sign(&msg)).collect();
            self.pki.combine(k, &msg, &shares).unwrap()
        }

        /// One message per member of `senders`, built by `msg`.
        fn each_of(
            &self,
            senders: std::ops::Range<usize>,
            msg: impl Fn(&SecretKey) -> RecM,
        ) -> Vec<(ProcessId, RecM)> {
            senders.map(|i| (self.keys[i].id(), msg(&self.keys[i]))).collect()
        }

        /// Steps 0 and 1 on unanimous inputs: p0 forms, verifies and
        /// echoes the genuine `C1(V)`, which is returned.
        fn past_c1() -> (Member, ThresholdSignature) {
            let mut p0 = Member::new();
            p0.step(0, &[]);
            let inst = p0.inst;
            let inputs = p0.each_of(0..M, |key| RecBaMsg::GaInput {
                inst,
                value: V,
                sig: key.sign(&p0.input_sig(&V).signing_bytes()),
            });
            let (out, _) = p0.step(1, &inputs);
            let [RecBaMsg::GaEcho { value: V, c1, .. }] = &out[..] else {
                panic!("one echo of C1(V) expected, got {out:?}");
            };
            let c1 = c1.clone();
            (p0, c1)
        }
    }

    /// A forged `(value, certificate)` pair and whether judging it takes a
    /// `verify_threshold` call (a wrong threshold is refused before one).
    type Forgery = (&'static str, u64, ThresholdSignature, u64);

    #[test]
    fn near_twins_of_a_memoized_c1_are_still_rejected() {
        let forgeries = |p0: &Member, c1: &ThresholdSignature| -> [Forgery; 3] {
            [
                ("tag byte flipped", V, with_flipped_tag(c1), 1),
                ("another threshold", W, p0.cert(2, &p0.input_sig(&W), &[5, 6]), 0),
                ("C1(V) attached to W", W, c1.clone(), 1),
            ]
        };
        for pick in 0..3 {
            let (mut p0, c1) = Member::past_c1();
            let (what, value, forged, verifies) = forgeries(&p0, &c1)[pick].clone();
            let inst = p0.inst;

            // Step 2: six byte-identical echoes of C1(V) are memo hits;
            // the forged echo is judged on its own bytes and dropped, so
            // p0 still sees one certified value and votes for it.
            let mut echoes =
                p0.each_of(1..M, |_| RecBaMsg::GaEcho { inst, value: V, c1: c1.clone() });
            echoes.push((ProcessId(6), RecBaMsg::GaEcho { inst, value, c1: forged.clone() }));
            let (out, verified) = p0.step(2, &echoes);
            assert_eq!(verified, verifies, "{what}: echoes");
            assert!(
                matches!(&out[..], [RecBaMsg::GaVote { value: V, .. }]),
                "{what}: a forged echo raised a conflict: {out:?}"
            );

            // Step 3: the same forgery riding on p6's vote.
            let mut votes = p0.each_of(0..M - 1, |key| RecBaMsg::GaVote {
                inst,
                value: V,
                sig: key.sign(&p0.vote_sig(&V).signing_bytes()),
                c1: c1.clone(),
            });
            votes.push((
                ProcessId(6),
                RecBaMsg::GaVote {
                    inst,
                    value,
                    sig: p0.keys[6].sign(&p0.vote_sig(&value).signing_bytes()),
                    c1: forged,
                },
            ));
            let (out, verified) = p0.step(3, &votes);
            assert_eq!(verified, verifies, "{what}: votes");
            assert!(matches!(&out[..], [RecBaMsg::GaCert2 { value: V, .. }]), "{what}: {out:?}");
            p0.step(4, &[]);
            assert_eq!(p0.ga.result(), Some(&(V, 2)), "{what}: a forged C1 cost p0 its grade 2");
        }
    }

    #[test]
    fn near_twins_of_a_memoized_c2_are_still_rejected() {
        for pick in 0..3 {
            // p0 hears no votes (lost), so it forms no C2 of its own and
            // its grade rests on the certificates step 4 accepts.
            let (mut p0, c1) = Member::past_c1();
            let inst = p0.inst;
            p0.step(2, &p0.each_of(1..M, |_| RecBaMsg::GaEcho { inst, value: V, c1: c1.clone() }));
            p0.step(3, &[]);
            let c2 = p0.cert(4, &p0.vote_sig(&V), &[1, 2, 3, 4]);
            let forgeries: [Forgery; 3] = [
                ("tag byte flipped", V, with_flipped_tag(&c2), 1),
                ("another threshold", W, p0.cert(2, &p0.vote_sig(&W), &[5, 6]), 0),
                ("C2(V) attached to W", W, c2.clone(), 1),
            ];
            let (what, value, forged, verifies) = forgeries[pick].clone();

            // The first genuine C2(V) is verified, the other three are
            // memo hits, the forgery is judged on its own bytes.
            let mut certs =
                p0.each_of(1..5, |_| RecBaMsg::GaCert2 { inst, value: V, c2: c2.clone() });
            certs.push((ProcessId(6), RecBaMsg::GaCert2 { inst, value, c2: forged }));
            let (_, verified) = p0.step(4, &certs);
            assert_eq!(verified, 1 + verifies, "{what}");
            assert_eq!(p0.ga.result(), Some(&(V, 1)), "{what}: a forged C2 was adopted");
        }
    }

    /// A unanimous graded agreement over m = 33: each member verifies a
    /// majority of input shares and of vote shares, each exactly once —
    /// `combine` does not re-verify what `offer` admitted, and a share
    /// for a value that already has a majority is not verified at all —
    /// and runs `verify_threshold` at most once per distinct certificate,
    /// however many members echo it (3·m + 1 times before the memo).
    #[test]
    fn unanimous_ga_verifies_each_share_and_each_certificate_once() {
        let m = 33usize;
        let (pki, keys) = trusted_setup(m, 0x21);
        let inst = InstanceId::new(Scope::full(m), 0);
        let mut members: Vec<GaInstance<u64>> = keys
            .iter()
            .map(|key| GaInstance::new(inst, SESSION, key.id(), key.clone(), pki.clone(), V))
            .collect();
        let mut calls = vec![(0u64, 0u64); m];
        let mut pending: Vec<(ProcessId, RecM)> = Vec::new();
        for k in 0..GA_STEPS {
            let mut next = Vec::new();
            for (i, member) in members.iter_mut().enumerate() {
                let mut out = meba::sim::Outbox::new();
                let before = verify_calls();
                member.on_step(k, pending.iter().map(|(p, msg)| (*p, msg)), &mut out);
                let after = verify_calls();
                calls[i].0 += after.0 - before.0;
                calls[i].1 += after.1 - before.1;
                next.extend(out.into_iter().map(|(_, msg)| (ProcessId(i as u32), msg)));
            }
            pending = next;
        }
        for (i, member) in members.iter().enumerate() {
            assert_eq!(member.result(), Some(&(V, 2)));
            let (shares, certs) = calls[i];
            let maj = m as u64 / 2 + 1;
            assert_eq!(shares, 2 * maj, "p{i}: maj input shares + maj vote shares");
            assert!(certs <= 2, "p{i}: C1(V) and C2(V) at most once each, got {certs}");
        }
    }
}

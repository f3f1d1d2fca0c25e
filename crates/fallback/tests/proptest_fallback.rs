//! Property tests for the fallback substrate: graded-agreement invariants
//! and recursive-BA agreement/unanimity under random crash patterns.

use meba_core::{LockstepAdapter, SubProtocol, SystemConfig};
use meba_crypto::{trusted_setup, ProcessId};
use meba_engine::{run_des_cluster, DesConfig};
use meba_fallback::{GaInstance, InstanceId, RecBaMsg, RecursiveBa, Scope, GA_STEPS};
use meba_sim::{Actor, AnyActor, IdleActor, RoundCtx};
use proptest::prelude::*;

/// Wraps a GaInstance as a lockstep actor.
struct GaActor {
    me: ProcessId,
    ga: GaInstance<u64>,
}

impl Actor for GaActor {
    type Msg = RecBaMsg<u64>;
    fn id(&self) -> ProcessId {
        self.me
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let inbox = ctx.inbox().iter().map(|e| (e.from, &*e.msg));
        self.ga.on_step(ctx.round().as_u64(), inbox, ctx.outbox());
    }
    fn done(&self) -> bool {
        self.ga.result().is_some()
    }
}

fn run_ga(n: usize, inputs: &[u64], crashed: &[usize]) -> Vec<Option<(u64, u8)>> {
    let (pki, keys) = trusted_setup(n, 42);
    let inst = InstanceId::new(Scope::full(n), 0);
    let mut actors: Vec<Box<dyn AnyActor<Msg = RecBaMsg<u64>>>> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let id = ProcessId(i as u32);
        if crashed.contains(&i) {
            actors.push(Box::new(IdleActor::new(id)));
        } else {
            let ga = GaInstance::new(inst, 0, id, key, pki.clone(), inputs[i]);
            actors.push(Box::new(GaActor { me: id, ga }));
        }
    }
    let corrupt = crashed.iter().map(|&c| ProcessId(c as u32)).collect();
    let config = DesConfig { max_rounds: GA_STEPS + 1, corrupt, ..DesConfig::default() };
    let run = run_des_cluster(actors, None, config).unwrap();
    (0..n)
        .map(|i| {
            if crashed.contains(&i) {
                None
            } else {
                let a: &GaActor = run.actors[i].as_any().downcast_ref().unwrap();
                a.ga.result().copied()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn ga_invariants_random_crashes(
        inputs in proptest::collection::vec(0u64..4, 7),
        crash_mask in proptest::collection::vec(any::<bool>(), 7),
    ) {
        let crashed: Vec<usize> = crash_mask
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .take(3) // at most t = 3 for n = 7
            .collect();
        let out = run_ga(7, &inputs, &crashed);
        let honest: Vec<(u64, u8)> = out.iter().flatten().copied().collect();
        // GA consistency: a grade-2 output pins everyone's value at >= 1.
        if let Some((v2, _)) = honest.iter().find(|(_, g)| *g == 2) {
            for (v, g) in &honest {
                prop_assert!(*g >= 1, "grade-2 exists: {honest:?}");
                prop_assert_eq!(v, v2, "value consistency: {:?}", honest);
            }
        }
        // GA validity: unanimous honest inputs + honest majority intact.
        let honest_inputs: Vec<u64> = (0..7)
            .filter(|i| !crashed.contains(i))
            .map(|i| inputs[i])
            .collect();
        let unanimous = honest_inputs.windows(2).all(|w| w[0] == w[1]);
        if unanimous && honest_inputs.len() >= 4 {
            for (v, g) in &honest {
                prop_assert_eq!(*g, 2, "validity: {:?}", honest);
                prop_assert_eq!(*v, honest_inputs[0]);
            }
        }
    }

    #[test]
    fn recursive_ba_agreement_random_crashes(
        inputs in proptest::collection::vec(0u64..4, 9),
        crash_mask in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let crashed: Vec<usize> = crash_mask
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .take(4) // t = 4 for n = 9
            .collect();
        let cfg = SystemConfig::new(9, 0).unwrap();
        let (pki, keys) = trusted_setup(9, 11);
        let mut actors: Vec<Box<dyn AnyActor<Msg = RecBaMsg<u64>>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&i) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let rb = RecursiveBa::new(cfg, id, key, pki.clone(), inputs[i]);
                actors.push(Box::new(LockstepAdapter::new(id, rb)));
            }
        }
        let corrupt = crashed.iter().map(|&c| ProcessId(c as u32)).collect();
        let config = DesConfig { max_rounds: 1_000, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        prop_assert!(run.completed);
        let outs: Vec<u64> = (0..9)
            .filter(|i| !crashed.contains(i))
            .map(|i| {
                let a: &LockstepAdapter<RecursiveBa<u64>> =
                    run.actors[i].as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement: {outs:?}");
        // Strong unanimity.
        let honest_inputs: Vec<u64> =
            (0..9).filter(|i| !crashed.contains(i)).map(|i| inputs[i]).collect();
        if honest_inputs.windows(2).all(|w| w[0] == w[1]) {
            prop_assert_eq!(outs[0], honest_inputs[0], "strong unanimity");
        }
    }
}

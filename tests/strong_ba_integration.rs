//! Integration tests: binary strong BA (Algorithm 5) with the real
//! recursive fallback.

mod common;

use common::*;
use meba::adversary::EquivocatingStrongLeader;
use meba::prelude::*;

#[test]
fn strong_unanimity_failure_free() {
    for n in [3usize, 5, 9, 17] {
        for v in [true, false] {
            let faults = vec![Fault::None; n];
            let mut sim = strong_ba_sim(StrongBa::new, &vec![v; n], &faults);
            sim.run_until_done(round_budget(n)).unwrap();
            let d = assert_agreement(&strong_ba_decisions(&sim, &faults));
            assert_eq!(d, v, "n={n}, v={v}");
        }
    }
}

#[test]
fn failure_free_is_linear_words() {
    let mut series = Vec::new();
    for n in [9usize, 17, 33, 65] {
        let faults = vec![Fault::None; n];
        let mut sim = strong_ba_sim(StrongBa::new, &vec![true; n], &faults);
        sim.run_until_done(round_budget(n)).unwrap();
        series.push((n, sim.metrics().correct_words()));
    }
    for (n, words) in &series {
        assert!(*words <= 9 * *n as u64, "n={n}: {words} words (expected O(n))");
    }
    // Doubling n roughly doubles the words — linear, not quadratic.
    for w in series.windows(2) {
        let ratio = w[1].1 as f64 / w[0].1 as f64;
        assert!(ratio < 3.0, "super-linear growth: {series:?}");
    }
}

#[test]
fn strong_unanimity_with_crashed_followers() {
    // One crashed follower breaks the (n, n) certificate and forces the
    // quadratic fallback — strong unanimity must still hold.
    let mut faults = vec![Fault::None; 9];
    faults[5] = Fault::Idle;
    let mut sim = strong_ba_sim(StrongBa::new, &[false; 9], &faults);
    sim.run_until_done(round_budget(9)).unwrap();
    let d = assert_agreement(&strong_ba_decisions(&sim, &faults));
    assert!(!d);
    for i in (0..9).filter(|&i| i != 5) {
        let a: &LockstepAdapter<SbaProc> =
            sim.actor(ProcessId(i as u32)).as_any().downcast_ref().unwrap();
        assert!(a.inner().used_fallback());
    }
}

#[test]
fn crashed_leader_still_agrees() {
    let mut faults = vec![Fault::None; 7];
    faults[0] = Fault::Idle;
    let mut sim = strong_ba_sim(StrongBa::new, &[true; 7], &faults);
    sim.run_until_done(round_budget(7)).unwrap();
    let d = assert_agreement(&strong_ba_decisions(&sim, &faults));
    assert!(d, "strong unanimity among correct processes");
}

#[test]
fn max_crashes_agree() {
    // n = 9: t = 4 crashes including the leader.
    let mut faults = vec![Fault::None; 9];
    for i in [0usize, 2, 4, 6] {
        faults[i] = Fault::Idle;
    }
    let mut sim = strong_ba_sim(StrongBa::new, &[true; 9], &faults);
    sim.run_until_done(round_budget(9)).unwrap();
    let d = assert_agreement(&strong_ba_decisions(&sim, &faults));
    assert!(d);
}

#[test]
fn mixed_inputs_agree_under_crash() {
    let inputs = [true, false, true, false, true, false, true];
    let mut faults = vec![Fault::None; 7];
    faults[3] = Fault::CrashAt(2);
    let mut sim = strong_ba_sim(StrongBa::new, &inputs, &faults);
    sim.run_until_done(round_budget(7)).unwrap();
    assert_agreement(&strong_ba_decisions(&sim, &faults));
}

#[test]
fn equivocating_leader_cannot_split_decisions() {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0x5b).unwrap();
    let (pki, keys) = trusted_setup(n, 0xdead);
    // Inputs split 3 true / 3 false among correct; the Byzantine leader
    // certifies both values using its own signature as top-up.
    let inputs = [true, true, true, false, false, false];
    let mut actors: Vec<Box<dyn AnyActor<Msg = SbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if i == 0 {
            actors.push(Box::new(EquivocatingStrongLeader::new(
                cfg,
                id,
                pki.clone(),
                vec![key],
                vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                vec![ProcessId(4), ProcessId(5), ProcessId(6)],
            )));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let sba: SbaProc = StrongBa::new(cfg, id, key, pki.clone(), factory, inputs[i - 1]);
            actors.push(Box::new(LockstepAdapter::new(id, sba)));
        }
    }
    let mut sim = SimBuilder::new(actors).corrupt(ProcessId(0)).build();
    sim.run_until_done(round_budget(n)).unwrap();
    let faults: Vec<Fault> =
        (0..n).map(|i| if i == 0 { Fault::Idle } else { Fault::None }).collect();
    assert_agreement(&strong_ba_decisions(&sim, &faults));
}

#[test]
fn chaos_does_not_break_strong_ba() {
    for seed in [7u64, 13, 21] {
        let mut faults = vec![Fault::None; 7];
        faults[4] = Fault::Chaos(seed);
        let mut sim = strong_ba_sim(StrongBa::new, &[true; 7], &faults);
        sim.run_until_done(round_budget(7)).unwrap();
        let d = assert_agreement(&strong_ba_decisions(&sim, &faults));
        assert!(d, "strong unanimity under chaos, seed {seed}");
    }
}

//! Golden table for the fallback hand-off (Alg 3 lines 15–29, Alg 5
//! lines 16–30): exact `(correct words, rounds, max decided_at,
//! used_fallback count)` of one fallback-triggering lockstep run per
//! protocol and size. The other suites assert agreement on these paths;
//! this one pins the totals, so a change to the hand-off's timing or
//! traffic shows up as a number, not as a still-green property.
//!
//! The values were recorded before the hand-off moved into the single
//! `FallbackHost` and must not move with it.

mod common;

use common::*;
use meba::core::strong_ba_rotating::RotatingStrongBa;
use meba::prelude::*;

type Rba = RotatingStrongBa<RecursiveBaFactory>;
type RbaM = <Rba as SubProtocol>::Msg;

/// `(correct words, rounds, max decided_at, used_fallback count)`.
type Row = (u64, u64, u64, usize);

/// The last `t` processes are silent from the start (`f = t`).
fn idle_tail(n: usize) -> Vec<Fault> {
    let t = (n - 1) / 2;
    (0..n).map(|i| if i < n - t { Fault::None } else { Fault::Idle }).collect()
}

/// Runs `sim` to completion and folds `probe` (`decided_at`,
/// `used_fallback`) over the correct processes.
fn row<P, M>(
    mut sim: Simulation<M>,
    faults: &[Fault],
    probe: impl Fn(&P) -> (Option<u64>, bool),
) -> Row
where
    P: SubProtocol<Msg = M> + 'static,
    M: meba::sim::Message,
{
    sim.run_until_done(round_budget(faults.len())).unwrap();
    let (mut latest, mut fell_back) = (0, 0);
    for i in (0..faults.len()).filter(|&i| !faults[i].is_byzantine()) {
        let a: &LockstepAdapter<P> =
            sim.actor(ProcessId(i as u32)).as_any().downcast_ref().unwrap();
        let (decided_at, used_fallback) = probe(a.inner());
        latest = latest.max(decided_at.expect("decided"));
        fell_back += usize::from(used_fallback);
    }
    (sim.metrics().correct_words(), sim.round().as_u64(), latest, fell_back)
}

fn weak_ba_row(inputs: &[u64]) -> Row {
    let faults = idle_tail(inputs.len());
    row(weak_ba_sim(inputs, &faults), &faults, |p: &WbaProc| (p.decided_at(), p.used_fallback()))
}

fn strong_ba_row(n: usize) -> Row {
    let faults = idle_tail(n);
    row(strong_ba_sim(&vec![true; n], &faults), &faults, |p: &SbaProc| {
        (p.decided_at(), p.used_fallback())
    })
}

fn rotating_row(n: usize) -> Row {
    let faults = idle_tail(n);
    let cfg = SystemConfig::new(n, 0x20).unwrap();
    let (pki, keys) = trusted_setup(n, 0x20);
    let actors: Vec<Box<dyn AnyActor<Msg = RbaM>>> = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| -> Box<dyn AnyActor<Msg = RbaM>> {
            let id = ProcessId(i as u32);
            if faults[i].is_byzantine() {
                return Box::new(IdleActor::new(id));
            }
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let rba = RotatingStrongBa::new(cfg, id, key, pki.clone(), factory, true);
            Box::new(LockstepAdapter::new(id, rba))
        })
        .collect();
    let mut b = SimBuilder::new(actors);
    for id in corrupt_ids(&faults) {
        b = b.corrupt(id);
    }
    row(b.build(), &faults, |p: &Rba| (p.decided_at(), p.used_fallback()))
}

fn bb_row(n: usize) -> Row {
    let faults = idle_tail(n);
    row(bb_sim(0, 7, &faults), &faults, |p: &BbProc| (p.decided_at(), p.used_fallback()))
}

#[test]
fn fallback_paths_match_the_recorded_totals() {
    let table: [(&str, Row, Row); 9] = [
        ("weak BA n=5 unanimous", weak_ba_row(&[8; 5]), (324, 71, 70, 3)),
        ("weak BA n=9 unanimous", weak_ba_row(&[8; 9]), (1404, 129, 128, 5)),
        ("weak BA n=5 divergent", weak_ba_row(&[1, 2, 3, 4, 5]), (240, 71, 70, 3)),
        ("strong BA n=5", strong_ba_row(5), (304, 49, 48, 3)),
        ("strong BA n=9", strong_ba_row(9), (1316, 87, 86, 5)),
        ("rotating strong BA n=5", rotating_row(5), (336, 58, 57, 3)),
        ("rotating strong BA n=9", rotating_row(9), (1444, 104, 103, 5)),
        ("BB n=5", bb_row(5), (476, 87, 86, 3)),
        ("BB n=9", bb_row(9), (2042, 157, 156, 5)),
    ];
    for (label, got, want) in table {
        assert_eq!(got, want, "{label}: (words, rounds, max decided_at, used_fallback)");
    }
}

//! Fault injection: run adaptive Byzantine Broadcast under a gallery of
//! adversaries and verify agreement/validity while watching the word cost
//! react to the *actual* number of failures.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use meba::adversary::{ChaosActor, EquivocatingSender, WastefulBbLeader};
use meba::engine::LinkPolicyFactory;
use meba::prelude::*;
use meba::sim::faults::{BernoulliDrop, LinkPolicy, ReliableLinks};
use std::sync::Arc;

type BbProc = Bb<u64, RecursiveBaFactory>;
type Msg = <BbProc as SubProtocol>::Msg;

type ByzBuilder =
    fn(&SystemConfig, &Pki, &[SecretKey], ProcessId) -> Vec<(u32, Box<dyn AnyActor<Msg = Msg>>)>;

struct Scenario {
    name: &'static str,
    /// Byzantine ids and a constructor for each.
    build_byz: ByzBuilder,
    /// Link faults, one policy instance per sender (reliable links if
    /// `None`).
    links: Option<LinkPolicyFactory>,
}

fn correct_actor(
    cfg: &SystemConfig,
    pki: &Pki,
    key: SecretKey,
    id: ProcessId,
    sender: ProcessId,
    value: u64,
) -> Box<dyn AnyActor<Msg = Msg>> {
    let factory = RecursiveBaFactory::new(*cfg, key.clone(), pki.clone());
    let bb = if id == sender {
        Bb::new_sender(*cfg, id, key, pki.clone(), factory, value)
    } else {
        Bb::new(*cfg, id, key, pki.clone(), factory, sender)
    };
    Box::new(LockstepAdapter::new(id, bb))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 9usize;
    let value = 424_242u64;
    let sender = ProcessId(0);

    let scenarios: Vec<Scenario> = vec![
        Scenario { name: "failure-free", build_byz: |_, _, _, _| vec![], links: None },
        Scenario {
            name: "crashed followers (f = t)",
            build_byz: |_, _, _, _| {
                [2u32, 4, 6, 8]
                    .into_iter()
                    .map(|i| {
                        (i, Box::new(IdleActor::new(ProcessId(i))) as Box<dyn AnyActor<Msg = Msg>>)
                    })
                    .collect()
            },
            links: None,
        },
        Scenario {
            name: "silent sender",
            build_byz: |_, _, _, _| vec![(0, Box::new(IdleActor::new(ProcessId(0))) as _)],
            links: None,
        },
        Scenario {
            name: "equivocating sender",
            build_byz: |cfg, _, keys, _| {
                vec![(
                    0,
                    Box::new(EquivocatingSender::new(
                        *cfg,
                        keys[0].clone(),
                        111u64,
                        222u64,
                        (1..5).map(ProcessId).collect(),
                        (5..9).map(ProcessId).collect(),
                    )) as _,
                )]
            },
            links: None,
        },
        Scenario {
            name: "wasteful leaders (f = 3)",
            build_byz: |cfg, _, _, _| {
                (1u32..=3)
                    .map(|i| {
                        (i, Box::new(WastefulBbLeader::<u64, _>::new(*cfg, ProcessId(i), i)) as _)
                    })
                    .collect()
            },
            links: None,
        },
        Scenario {
            // Correct state machines behind 80%-lossy outbound links: the
            // adversary controls their network, not their logic, yet they
            // still count toward f and the word bill reacts the same way.
            name: "lossy links (f = 2)",
            build_byz: |cfg, pki, keys, sender| {
                [3u32, 7]
                    .into_iter()
                    .map(|i| {
                        let id = ProcessId(i);
                        (i, correct_actor(cfg, pki, keys[i as usize].clone(), id, sender, 0))
                    })
                    .collect()
            },
            links: Some(Arc::new(|p: ProcessId| -> Box<dyn LinkPolicy> {
                match p.0 {
                    3 | 7 => Box::new(BernoulliDrop::new(0x1055_u64 ^ u64::from(p.0), 0.8)),
                    _ => Box::new(ReliableLinks),
                }
            })),
        },
        Scenario {
            name: "chaos replayers (f = 2)",
            build_byz: |_, _, _, _| {
                vec![
                    (3, Box::new(ChaosActor::new(ProcessId(3), 0xc0ffee, 4)) as _),
                    (7, Box::new(ChaosActor::new(ProcessId(7), 0xbeef, 4)) as _),
                ]
            },
            links: None,
        },
    ];

    println!("Adaptive BB under attack (n = {n}, sender = {sender}, value = {value})\n");
    println!("{:<28} {:>7} {:>9} {:>8}  outcome", "scenario", "words", "messages", "rounds");

    for sc in scenarios {
        let cfg = SystemConfig::new(n, 7)?;
        let (pki, keys) = trusted_setup(n, 0xabcdef);
        let byz = (sc.build_byz)(&cfg, &pki, &keys, sender);
        let byz_ids: Vec<u32> = byz.iter().map(|(i, _)| *i).collect();
        let mut byz_actors: std::collections::BTreeMap<u32, Box<dyn AnyActor<Msg = Msg>>> =
            byz.into_iter().collect();

        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.iter().cloned().enumerate() {
            if let Some(a) = byz_actors.remove(&(i as u32)) {
                actors.push(a);
            } else {
                actors.push(correct_actor(&cfg, &pki, key, ProcessId(i as u32), sender, value));
            }
        }
        let config = DesConfig {
            max_rounds: 20_000,
            corrupt: byz_ids.iter().map(|&i| ProcessId(i)).collect(),
            link_policy: sc.links,
            ..DesConfig::default()
        };
        let run = run_des_cluster(actors, None, config)?;
        assert!(run.completed, "every correct process finished its schedule");

        // Collect decisions of correct processes and check agreement.
        let mut decisions = Vec::new();
        for i in (0..n as u32).filter(|i| !byz_ids.contains(i)) {
            let a: &LockstepAdapter<BbProc> =
                run.actors[i as usize].as_any().downcast_ref().unwrap();
            decisions.push(a.inner().output().expect("correct process decided"));
        }
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement violated!");
        let sender_correct = !byz_ids.contains(&sender.0);
        if sender_correct {
            assert_eq!(decisions[0], Decision::Value(value), "validity violated!");
        }
        let outcome = match &decisions[0] {
            Decision::Value(v) => format!("all decide {v}"),
            Decision::Bot => "all decide ⊥".to_string(),
        };
        let m = &run.metrics;
        println!(
            "{:<28} {:>7} {:>9} {:>8}  {}",
            sc.name, m.correct.words, m.correct.messages, m.rounds, outcome
        );
    }
    println!("\nAll scenarios satisfied agreement and (where applicable) validity.");
    Ok(())
}

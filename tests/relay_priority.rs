//! Precision test for Alg 4's round-3 priority (lines 37–42): a leader
//! that receives *any* valid commit report must **relay** it (at its
//! original level) rather than batching a fresh certificate from votes —
//! even when it has quorum votes in hand. This is what makes
//! commitments sticky across phases and underpins Lemma 15's uniqueness
//! argument.

mod common;

use common::{correct, des, oracle, Fault, Timing, WbaM, WbaProc};
use meba::core::signing::{sign_payload, CommitProof, VoteSig};
use meba::core::weak_ba::WeakBaMsg;
use meba::prelude::*;
use meba_crypto::Signable;
use meba_sim::RoundCtx;

/// A Byzantine process that plants a *genuine* phase-1 commit certificate
/// (assembled from the cohort's own vote signatures with the quorum
/// override disabled — here we use a full honest-size cohort of keys from
/// the trusted setup, which the test harness legitimately owns) at a
/// single correct process, so that phase 2 has a mix of commit reports
/// and fresh votes.
struct CommitPlanter {
    me: ProcessId,
    target: ProcessId,
    msg: Option<WbaM>,
}

impl Actor for CommitPlanter {
    type Msg = WbaM;
    fn id(&self) -> ProcessId {
        self.me
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, WbaM>) {
        // Deliver at round 2 so it arrives at the target's phase-1
        // round 4 (the commit-acceptance step).
        if ctx.round().as_u64() == 2 {
            if let Some(m) = self.msg.take() {
                ctx.send(self.target, m);
            }
        }
    }
    fn done(&self) -> bool {
        true
    }
}

#[test]
fn leader_relays_reported_commit_instead_of_fresh_certificate() {
    let n = 7usize;
    let cfg = SystemConfig::new(n, 0x4e1).unwrap();
    let (pki, keys) = trusted_setup(n, 0x4e1);
    let byz = ProcessId(1); // phase-1 leader slot, used as the planter

    // Build a real quorum commit certificate for value 40 at level 1.
    // The test (as the adversary) holds all keys, which models a past
    // phase in which 40 was legitimately committed.
    let value = 40u64;
    let payload = VoteSig { session: cfg.session(), value: &value, level: 1 };
    let shares: Vec<_> =
        keys.iter().take(cfg.quorum()).map(|k| sign_payload(k, &payload)).collect();
    let qc = pki.combine(cfg.quorum(), &payload.signing_bytes(), &shares).unwrap();
    let planted = WeakBaMsg::CommitCert { phase: 1, value, proof: CommitProof { level: 1, qc } };

    let target = ProcessId(3);
    let mut actors: Vec<Box<dyn AnyActor<Msg = WbaM>>> = Vec::new();
    for (i, key) in keys.iter().cloned().enumerate() {
        let id = ProcessId(i as u32);
        if id == byz {
            actors.push(Box::new(CommitPlanter { me: id, target, msg: Some(planted.clone()) }));
        } else {
            let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
            let wba: WbaProc = WeakBa::new(cfg, id, key, pki.clone(), AlwaysValid, factory, 5u64);
            actors.push(Box::new(LockstepAdapter::new(id, wba)));
        }
    }
    let mut faults = vec![Fault::None; n];
    faults[byz.index()] = Fault::Idle;
    let run = des(actors, &faults, 0, &Timing::lockstep());
    assert!(run.completed);

    // Phase 2's correct leader (p2) received p3's commit report for 40
    // alongside fresh votes for its own proposal 5. The relay must win:
    // everyone ends committed to 40 at level 1 and decides 40.
    let d = oracle::decided::<WbaProc>(&run.actors, &run.metrics, &faults).assert_in_model();
    assert_eq!(d, Decision::Value(40), "the reported commit must take priority over fresh votes");
    for a in correct::<LockstepAdapter<WbaProc>, _>(&run.actors, &faults) {
        assert_eq!(a.inner().commit_level(), 1, "{}: relayed level preserved", a.id());
        assert_eq!(a.inner().committed_value(), Some(&40), "{}", a.id());
    }
}

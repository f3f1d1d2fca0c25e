//! Attacks on the certified state-transfer protocol.
//!
//! [`LyingDonor`] is the Byzantine donor the transfer verifier exists
//! for: a replica that participates *correctly* in agreement (its inner
//! actor runs the real log protocol, so the cluster stays live) but
//! answers every `FetchCommitted` with fabricated history — forged
//! certificates over values the cluster never agreed on, and bare
//! (uncertified) lying claims. A recovering replica must reject every
//! certified lie (the forged quorum signature cannot re-derive the
//! claim) and out-vote every bare lie (`t + 1` matching donors always
//! include a correct one), then converge through honest donors.

use meba_core::signing::DecideProof;
use meba_crypto::{trusted_setup, ProcessId, WireCodec};
use meba_service::{Batch, Op, ReplicaMsg, TransferEntry, TransferMsg};
use meba_sim::{Actor, AnyActor, Envelope, Message, RoundCtx};
use meba_smr::CommitEvidence;

/// How often (in rounds) the donor pushes unsolicited forged batches at
/// the whole cluster, on top of lying to direct fetches. Anti-entropy
/// replies are not authenticated as *responses*, so a Byzantine donor
/// does not have to wait to be asked — the verifier must hold against
/// spam, not just against poisoned answers.
const LIE_BROADCAST_INTERVAL: u64 = 2;

/// Byzantine state-transfer donor: correct in agreement, lying in
/// anti-entropy.
///
/// Wraps a real replica actor. All log traffic (and the inner actor's
/// own sends) passes through untouched; inbound `FetchCommitted`
/// requests are intercepted and answered with a fabricated batch
/// instead of the inner replica's honest applied prefix, and every
/// `LIE_BROADCAST_INTERVAL` (2) rounds the same fabricated history is
/// pushed unsolicited at every peer. Odd slots get a forged
/// *certificate* (a structurally valid threshold signature from a trust
/// setup the cluster never ran); even slots get a bare lying claim,
/// exercising the `t + 1`-vouch filter instead of the certificate
/// check.
pub struct LyingDonor<M: Message + WireCodec> {
    inner: Box<dyn AnyActor<Msg = ReplicaMsg<M>>>,
    n: usize,
    total_slots: u64,
    fetches_answered: u64,
    lies_broadcast: u64,
}

impl<M: Message + WireCodec> LyingDonor<M> {
    /// Wraps `inner` (a real replica of an `n`-process, `total_slots`
    /// deployment) into a lying donor.
    pub fn new(inner: Box<dyn AnyActor<Msg = ReplicaMsg<M>>>, n: usize, total_slots: u64) -> Self {
        LyingDonor { inner, n, total_slots, fetches_answered: 0, lies_broadcast: 0 }
    }

    /// How many `FetchCommitted` requests were answered with lies.
    pub fn fetches_answered(&self) -> u64 {
        self.fetches_answered
    }

    /// How many unsolicited forged batches were broadcast.
    pub fn lies_broadcast(&self) -> u64 {
        self.lies_broadcast
    }

    /// The inner (honest-in-agreement) replica.
    pub fn inner(&self) -> &dyn AnyActor<Msg = ReplicaMsg<M>> {
        self.inner.as_ref()
    }

    /// A fabricated value for `slot`: a canonical batch carrying an op
    /// the cluster never admitted (so a victim that applied it would be
    /// immediately visible in its KV state and dedup table).
    fn lie_value(slot: u64) -> Vec<u8> {
        Batch(vec![Op { client: 0xbad, seq: slot, key: 0xbad, value: slot }]).to_wire_bytes()
    }

    /// A structurally valid certificate from a trust setup the cluster
    /// never ran: real threshold shares, real combination — wrong root
    /// of trust, so re-derivation under the cluster's PKI must fail.
    fn forged_cert(&self, value: &[u8]) -> CommitEvidence {
        let (pki, keys) = trusted_setup(self.n, 0xbad_5eed);
        let quorum = self.n - (self.n - 1) / 3;
        let shares: Vec<_> = keys.iter().take(quorum).map(|k| k.sign(value)).collect();
        let qc = pki.combine(quorum, value, &shares).expect("forged shares combine");
        CommitEvidence { ba_value: value.to_vec(), proof: DecideProof { phase: 1, qc } }
    }

    fn forged_batch(&self, from_slot: u64) -> TransferMsg {
        let entries = (from_slot..self.total_slots)
            .take(16)
            .map(|slot| {
                let value = Self::lie_value(slot);
                let cert = (slot % 2 == 1).then(|| self.forged_cert(&value));
                TransferEntry { slot, value, cert }
            })
            .collect();
        TransferMsg::CommittedBatch { from_slot, entries }
    }
}

impl<M: Message + WireCodec> Actor for LyingDonor<M> {
    type Msg = ReplicaMsg<M>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        // Everything except fetch requests flows to the inner replica
        // unchanged — it keeps agreeing honestly (and even keeps
        // adopting honest transfers if it ever recovers itself).
        let mut forward: Vec<Envelope<ReplicaMsg<M>>> = Vec::new();
        let mut lies: Vec<(ProcessId, TransferMsg)> = Vec::new();
        for env in ctx.inbox() {
            match &*env.msg {
                ReplicaMsg::Transfer(TransferMsg::FetchCommitted { from_slot, .. }) => {
                    self.fetches_answered += 1;
                    lies.push((env.from, self.forged_batch(*from_slot)));
                }
                _ => forward.push(env.clone()),
            }
        }
        let mut inner_ctx = RoundCtx::new(ctx.round(), ctx.me(), ctx.n(), &forward);
        self.inner.on_round(&mut inner_ctx);
        for (dest, msg) in inner_ctx.take_outbox() {
            ctx.push(dest, msg);
        }
        for (to, msg) in lies {
            ctx.send(to, ReplicaMsg::Transfer(msg));
        }
        if ctx.round().as_u64().is_multiple_of(LIE_BROADCAST_INTERVAL) {
            self.lies_broadcast += 1;
            ctx.broadcast(ReplicaMsg::Transfer(self.forged_batch(0)));
        }
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_core::SystemConfig;
    use meba_service::{claimed_decision, verify_certified};

    type M = meba_service::ServiceMsg<meba_fallback::RecursiveBaFactory>;

    fn idle_inner() -> Box<dyn AnyActor<Msg = ReplicaMsg<M>>> {
        struct Nothing;
        impl Actor for Nothing {
            type Msg = ReplicaMsg<M>;
            fn id(&self) -> ProcessId {
                ProcessId(0)
            }
            fn on_round(&mut self, _ctx: &mut RoundCtx<'_, Self::Msg>) {}
            fn done(&self) -> bool {
                true
            }
        }
        Box::new(Nothing)
    }

    #[test]
    fn forged_batches_never_verify_under_the_real_pki() {
        let n = 5;
        let cfg = SystemConfig::new(n, 0x51).unwrap();
        let (pki, _) = trusted_setup(n, 0x52);
        let donor = LyingDonor::new(idle_inner(), n, 8);
        let TransferMsg::CommittedBatch { entries, .. } = donor.forged_batch(0) else {
            panic!("forged batch shape");
        };
        assert_eq!(entries.len(), 8);
        for e in &entries {
            // Every lie parses (it is a canonical batch) …
            assert!(claimed_decision(e).is_some(), "slot {}", e.slot);
            // … but no certified lie survives verification.
            if e.cert.is_some() {
                assert!(verify_certified(&cfg, &pki, e).is_none(), "slot {}", e.slot);
            }
        }
        assert!(entries.iter().any(|e| e.cert.is_some()), "some lies are certified");
        assert!(entries.iter().any(|e| e.cert.is_none()), "some lies are bare");
    }
}

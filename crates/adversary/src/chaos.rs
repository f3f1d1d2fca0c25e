//! A replay-fuzzing Byzantine actor.
//!
//! [`ChaosActor`] cannot forge signatures (the crypto API forbids it), but
//! it records every message it ever receives and replays random samples to
//! random destinations in later rounds — stale certificates, out-of-phase
//! votes, redirected help answers. Protocol handlers must survive
//! arbitrary such replays; the property tests drive this actor with random
//! seeds.

use meba_crypto::ProcessId;
use meba_sim::{Actor, Message, RoundCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum messages retained for replay.
const POOL_CAP: usize = 512;

/// A Byzantine actor that replays observed messages at random.
pub struct ChaosActor<M> {
    id: ProcessId,
    rng: StdRng,
    pool: Vec<M>,
    /// Expected replays per round.
    intensity: u32,
}

impl<M: Message> ChaosActor<M> {
    /// Creates a chaos actor with a deterministic seed; `intensity` is the
    /// number of replay attempts per round.
    pub fn new(id: ProcessId, seed: u64, intensity: u32) -> Self {
        ChaosActor {
            id,
            rng: StdRng::seed_from_u64(seed ^ u64::from(id.0)),
            pool: Vec::new(),
            intensity,
        }
    }
}

impl<M: Message> Actor for ChaosActor<M> {
    type Msg = M;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
        for e in ctx.inbox() {
            if self.pool.len() < POOL_CAP {
                self.pool.push(M::clone(&e.msg));
            } else {
                let slot = self.rng.gen_range(0..POOL_CAP);
                self.pool[slot] = M::clone(&e.msg);
            }
        }
        if self.pool.is_empty() {
            return;
        }
        let n = ctx.n();
        for _ in 0..self.intensity {
            let msg = self.pool[self.rng.gen_range(0..self.pool.len())].clone();
            if self.rng.gen_bool(0.2) {
                ctx.broadcast(msg);
            } else {
                let target = ProcessId(self.rng.gen_range(0..n as u32));
                ctx.send(target, msg);
            }
        }
    }

    fn done(&self) -> bool {
        true
    }
}

impl<M> std::fmt::Debug for ChaosActor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosActor")
            .field("id", &self.id)
            .field("pool", &self.pool.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_sim::Envelope;
    use std::sync::Arc;

    #[derive(Clone, Debug)]
    struct M(#[allow(dead_code)] u8);
    impl Message for M {
        fn words(&self) -> u64 {
            1
        }
    }

    #[test]
    fn replays_observed_messages() {
        let mut a: ChaosActor<M> = ChaosActor::new(ProcessId(1), 42, 3);
        let inbox = vec![Envelope { from: ProcessId(0), msg: Arc::new(M(7)) }];
        let mut ctx = RoundCtx::new(meba_sim::Round(0), ProcessId(1), 4, &inbox);
        a.on_round(&mut ctx);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn silent_until_it_hears_something() {
        let mut a: ChaosActor<M> = ChaosActor::new(ProcessId(1), 42, 3);
        let inbox = vec![];
        let mut ctx = RoundCtx::new(meba_sim::Round(0), ProcessId(1), 4, &inbox);
        a.on_round(&mut ctx);
        assert!(ctx.take_outbox().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut a: ChaosActor<M> = ChaosActor::new(ProcessId(1), seed, 5);
            let inbox = vec![Envelope { from: ProcessId(0), msg: Arc::new(M(1)) }];
            let mut ctx = RoundCtx::new(meba_sim::Round(0), ProcessId(1), 4, &inbox);
            a.on_round(&mut ctx);
            ctx.take_outbox().into_iter().map(|(d, _)| format!("{d:?}")).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}

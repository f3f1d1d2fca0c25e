//! Generic Byzantine wrappers: crash faults and amnesiac restarts.

use meba_crypto::ProcessId;
use meba_sim::{Actor, Round, RoundCtx};

/// Runs a correct actor until `crash_at`, then goes silent forever — the
/// classic crash fault, with arbitrary timing.
///
/// # Examples
///
/// ```ignore
/// let byz = CrashActor::new(correct_actor, Round(7));
/// ```
pub struct CrashActor<A: Actor> {
    inner: A,
    crash_at: Round,
}

impl<A: Actor> CrashActor<A> {
    /// Wraps `inner`, crashing it at the start of `crash_at`.
    pub fn new(inner: A, crash_at: Round) -> Self {
        CrashActor { inner, crash_at }
    }
}

impl<A: Actor> Actor for CrashActor<A> {
    type Msg = A::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, A::Msg>) {
        if ctx.round() < self.crash_at {
            self.inner.on_round(ctx);
        }
    }

    fn done(&self) -> bool {
        true // Byzantine actors never block termination detection.
    }

    /// The inner actor's hint up to the crash, nothing after it: the one
    /// wrapper besides `IdleActor` whose silence is structural. Every
    /// other adversary keeps the default and ticks every round.
    fn next_wakeup(&self, after: Round) -> Round {
        if after >= self.crash_at {
            Round::NEVER
        } else {
            self.inner.next_wakeup(after).min(self.crash_at)
        }
    }
}

/// The restart-replay attack: at `restart_at` the process discards ALL
/// volatile state and resumes from a factory-fresh state machine — no
/// journal, no memory of anything it signed — then fast-forwards its
/// schedule against empty inboxes to catch up to the current round.
///
/// This is exactly the fault `meba_core::recovery::Recoverable` exists
/// to prevent: the reborn state machine re-executes signing steps whose
/// slots its pre-crash incarnation already bound, and because its inputs
/// (inboxes, accumulated state) differ on the second run, it can bind a
/// *different* preimage to the same slot — an equivocation manufactured
/// by a crash, with no intentional lying anywhere. A crash-restarted
/// process run through this wrapper must therefore be counted toward
/// `f`; one recovered through the journal need not be.
pub struct AmnesiacActor<A: Actor> {
    inner: A,
    rebuild: Box<dyn FnMut() -> A + Send>,
    restart_at: Round,
    restarted: bool,
}

impl<A: Actor> AmnesiacActor<A> {
    /// Wraps `inner`; at the start of `restart_at` it is replaced by a
    /// fresh `rebuild()` with no memory of the first incarnation.
    pub fn new(inner: A, restart_at: Round, rebuild: impl FnMut() -> A + Send + 'static) -> Self {
        AmnesiacActor { inner, rebuild: Box::new(rebuild), restart_at, restarted: false }
    }
}

impl<A: Actor> Actor for AmnesiacActor<A> {
    type Msg = A::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, A::Msg>) {
        if !self.restarted && ctx.round() >= self.restart_at {
            self.restarted = true;
            self.inner = (self.rebuild)();
            // Fast-forward the reborn machine through the rounds it
            // missed. The stale outboxes are discarded — the damage is
            // the signing the re-execution performs, not the resends.
            let empty = Vec::new();
            for r in 0..ctx.round().0 {
                let mut shadow = RoundCtx::new(Round(r), ctx.me(), ctx.n(), &empty);
                self.inner.on_round(&mut shadow);
                drop(shadow.take_outbox());
            }
        }
        self.inner.on_round(ctx);
    }

    fn done(&self) -> bool {
        true // Byzantine actors never block termination detection.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_sim::{Envelope, Message};

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {
        fn words(&self) -> u64 {
            1
        }
    }

    struct Talker {
        id: ProcessId,
        rounds: u64,
    }
    impl Actor for Talker {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
            self.rounds += 1;
            ctx.broadcast(Ping);
        }
    }

    #[test]
    fn crash_actor_stops_at_round() {
        let mut a = CrashActor::new(Talker { id: ProcessId(0), rounds: 0 }, Round(2));
        for r in 0..5 {
            let inbox = vec![];
            let mut ctx = RoundCtx::new(Round(r), ProcessId(0), 3, &inbox);
            a.on_round(&mut ctx);
            let sent = !ctx.take_outbox().is_empty();
            assert_eq!(sent, r < 2, "round {r}");
        }
        assert_eq!(a.inner.rounds, 2);
        assert!(a.done());
    }

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl Message for Num {
        fn words(&self) -> u64 {
            1
        }
    }

    /// Signs `(slot = round, value = running sum of inbox values)`. The
    /// "signature log" stands in for the signing oracle: every binding is
    /// appended at sign time, whether or not the send survives.
    struct SumSigner {
        id: ProcessId,
        sum: u64,
        log: std::sync::Arc<std::sync::Mutex<Vec<(u64, u64)>>>,
    }
    impl Actor for SumSigner {
        type Msg = Num;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Num>) {
            self.sum += ctx.inbox().iter().map(|e| e.msg.0).sum::<u64>();
            self.log.lock().unwrap().push((ctx.round().0, self.sum));
            ctx.broadcast(Num(self.sum));
        }
    }

    #[test]
    fn amnesiac_restart_double_binds_a_slot() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let make = {
            let log = log.clone();
            move || SumSigner { id: ProcessId(0), sum: 0, log: log.clone() }
        };
        let mut a = AmnesiacActor::new(make(), Round(2), make);
        for r in 0..3u64 {
            // Pre-crash the process accumulates 7 per round; the reborn
            // incarnation fast-forwards over empty inboxes and sees 0.
            let inbox = vec![Envelope { from: ProcessId(1), msg: Num(7) }];
            let mut ctx = RoundCtx::new(Round(r), ProcessId(0), 3, &inbox);
            a.on_round(&mut ctx);
            drop(ctx.take_outbox());
        }
        // Fold the signature log the way a double-sign detector would.
        let mut bound: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut conflicts = 0;
        for (slot, value) in log.lock().unwrap().iter() {
            match bound.get(slot) {
                None => {
                    bound.insert(*slot, *value);
                }
                Some(v) if v == value => {}
                Some(_) => conflicts += 1,
            }
        }
        assert!(
            conflicts > 0,
            "the unjournaled restart must re-bind an already-signed slot: {:?}",
            log.lock().unwrap()
        );
    }
}

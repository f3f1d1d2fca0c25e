//! Exact work counts of one seeded run that no output shows.
//!
//! Words, rounds and decisions are pinned elsewhere (`runs_golden`,
//! `fallback_golden`, `des_recorded_output.txt`). Four kinds of work
//! change none of them: a process-round executed on an empty inbox that
//! sends nothing, a share verified beyond the threshold of the
//! certificate it could join, a SHA-256 compression a tag does not need,
//! and a heap allocation a step does not need. This file pins all four
//! for BB at n = 33 with f = t silent, the quadratic fallback's regime,
//! so that an idle tick, an eager check, a second compression per tag or
//! a per-step buffer that comes back moves a number here; and the
//! verifies, compressions and allocations of the failure-free run, so
//! that a process hashing its own signed payload a second time, or
//! building what no host reads, moves one too.

use meba_core::{Decision, LockstepAdapter, SubProtocol};
use meba_crypto::pki::verify_calls;
use meba_crypto::sha256::compressions;
use meba_crypto::ProcessId;
use meba_sim::{Actor, AnyActor, Message, Round, RoundCtx};
use meba_testkit::alloc_count::{count_allocations, CountingAlloc};
use meba_testkit::{bb_actors, des, BbM, BbProc, Fault, Timing};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Forwards everything to the actor it wraps, the sparse-time hint
/// included, and counts the rounds it is run.
struct Counting<M: Message> {
    inner: Box<dyn AnyActor<Msg = M>>,
    rounds: u64,
}

impl<M: Message> Actor for Counting<M> {
    type Msg = M;
    fn id(&self) -> ProcessId {
        self.inner.id()
    }
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>) {
        self.rounds += 1;
        self.inner.on_round(ctx);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn refused_equivocations(&self) -> u64 {
        self.inner.refused_equivocations()
    }
    fn on_rejoin(&mut self, round: Round) {
        self.inner.on_rejoin(round);
    }
    fn next_wakeup(&self, after: Round) -> Round {
        self.inner.next_wakeup(after)
    }
}

/// Share verifies, executed correct process-rounds, SHA-256
/// compressions and heap allocations (set-up excluded) of one BB run:
/// sender p0 broadcasts 7, `p1..pt` are silent (the benchmark's layout).
#[test]
fn bb_at_f_equals_t_does_the_recorded_work() {
    let n = 33;
    let t = (n - 1) / 2;
    let faults: Vec<Fault> =
        (0..n).map(|i| if (1..=t).contains(&i) { Fault::Idle } else { Fault::None }).collect();
    let actors: Vec<Box<dyn AnyActor<Msg = BbM>>> = bb_actors(0, 7, &faults)
        .into_iter()
        .zip(&faults)
        .map(|(actor, fault)| match fault {
            Fault::None => Box::new(Counting { inner: actor, rounds: 0 }) as _,
            _ => actor,
        })
        .collect();
    let (before, hashed) = (verify_calls().0, compressions());
    let report = des(actors, &faults, 0x21, &Timing::lockstep());
    let (shares, hashed) = (verify_calls().0 - before, compressions() - hashed);
    assert!(report.completed, "BB must decide");

    let mut rounds = 0;
    for (actor, _) in report.actors.iter().zip(&faults).filter(|(_, f)| matches!(f, Fault::None)) {
        let counting = actor.as_any().downcast_ref::<Counting<BbM>>().expect("wrapped");
        let bb = counting.inner.as_any().downcast_ref::<LockstepAdapter<BbProc>>().unwrap();
        assert_eq!(bb.inner().output(), Some(Decision::Value(7)));
        rounds += counting.rounds;
    }
    assert_eq!((report.metrics.correct_words(), report.rounds), (29_874, 577), "words, rounds");
    // 3,394 and 5,678 while every share was verified on arrival and a
    // scheduled or running fallback woke its host every round.
    assert_eq!(shares, 2_423, "share verifies");
    assert_eq!(rounds, 1_786, "executed correct process-rounds");
    // 10,012 while a share or certificate tag was a full HMAC: an inner
    // and an outer compression where one keyed block now does.
    assert_eq!(hashed, 6_652, "SHA-256 compressions");
    // A process's first run also makes its lazily built statics, so the
    // second one is counted. 18,151 while every host layer copied its
    // inbox into a lent `Vec` and stepped its protocol into an outbox of
    // its own each step; 12,316 while the DES moved a process's landed
    // copies into its buffer one at a time, growing it without knowing
    // how many would come; 12,183 while weak BA built a journal event
    // (a context and a list to hold it) for every share, certificate and
    // decision, which no host of a BB reads.
    let again = bb_actors(0, 7, &faults);
    let (allocs, _) = count_allocations(|| des(again, &faults, 0x21, &Timing::lockstep()));
    assert_eq!(allocs, 10_568, "heap allocations");
}

/// Words, verify calls, SHA-256 compressions and heap allocations (the
/// second run, as above) of the failure-free run (the other benchmark
/// layout): sender p0 broadcasts 7 and every
/// process is correct, so weak BA decides in its first phase and each
/// process checks one commit and one finalize certificate over payloads
/// it signed itself.
#[test]
fn bb_at_f_equals_0_does_the_recorded_work() {
    let n = 33;
    let faults = vec![Fault::None; n];
    let actors = bb_actors(0, 7, &faults);
    let (before, hashed) = (verify_calls(), compressions());
    let report = des(actors, &faults, 0x21, &Timing::lockstep());
    let after = verify_calls();
    let (verifies, hashed) = ((after.0 - before.0, after.1 - before.1), compressions() - hashed);
    assert!(report.completed, "BB must decide");
    assert_eq!(report.metrics.correct_words(), 512, "words");
    assert_eq!(verifies, (83, 66), "share and certificate verifies");
    // 520 while a process re-hashed its own shares to check their
    // certificates.
    assert_eq!(hashed, 388, "SHA-256 compressions");
    // 1,125 while weak BA built a journal event for every share,
    // certificate and decision.
    let again = bb_actors(0, 7, &faults);
    let (allocs, _) = count_allocations(|| des(again, &faults, 0x21, &Timing::lockstep()));
    assert_eq!(allocs, 630, "heap allocations");
}

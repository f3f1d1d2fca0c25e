//! Zero-allocation regression for the billing path.
//!
//! Every outbox entry on every backend is read once by
//! [`MessageCost::of`] and billed once by [`Metrics::bill`]; each of its
//! remote copies ([`targets`]) is put on its link by [`Metrics::carry`]
//! and — where the recipient drains it — counted by [`Metrics::admit`].
//! Once a ledger has seen a component, link, round and session, billing
//! them again must not touch the heap: `per_link` is a `LinkTable` whose
//! rows hold every link already seen, and `by_component` is looked up by
//! `&str`. (Keyed by freshly formatted `String`s, as both used to be, the
//! loop below allocates three times per copy.)
//!
//! The counter bills only the thread that opened the section, so
//! libtest's own threads and any parallel test cannot pollute it.

use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate};
use meba_sim::metrics::{targets, MessageCost};
use meba_sim::{Dest, Message, Metrics};
use meba_testkit::alloc_count::{count_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[derive(Clone, Debug)]
struct Vote;

impl Message for Vote {
    fn words(&self) -> u64 {
        2
    }
    fn component(&self) -> &'static str {
        "weak-ba/phases"
    }
    fn session(&self) -> Option<u64> {
        Some(7)
    }
}

/// One broadcast by `me` in `round`: carried and admitted copy by copy,
/// then billed once; returns the number of remote copies.
fn broadcast(metrics: &mut Metrics, me: ProcessId, n: usize, round: u64) -> u64 {
    let cost = MessageCost::of(&Vote);
    let mut copies = 0;
    for to in targets(Dest::All, n).filter(|to| *to != me) {
        let link = Link { from: me, to };
        metrics.carry(link, &cost, LinkFate::Deliver);
        metrics.admit(link);
        copies += 1;
    }
    metrics.bill(me, true, round, &cost, copies);
    copies
}

#[test]
fn billing_a_seen_component_link_round_and_session_allocates_nothing() {
    let (me, n, round) = (ProcessId(10), 21, 5);
    let mut metrics = Metrics::default();
    // Warm-up: one bill per (component, link, round, session).
    broadcast(&mut metrics, me, n, round);

    let (allocs, copies) =
        count_allocations(|| (0..50).map(|_| broadcast(&mut metrics, me, n, round)).sum::<u64>());
    assert_eq!(copies, 1_000);
    assert_eq!(allocs, 0, "{allocs} allocations in {copies} billed and admitted copies");
    assert_eq!(metrics.correct.words, 2 * (copies + 20));
    assert_eq!(metrics.link(me, ProcessId(0)).delivered, 51);
}

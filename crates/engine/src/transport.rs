//! The [`Transport`] abstraction every backend plugs into the engine.

use meba_crypto::ProcessId;
use meba_sim::Message;

/// A message in flight, tagged with its authenticated sender and the
/// round it was sent in. The round tag is what makes the synchronous
/// abstraction portable: every backend delivers a message to the round
/// *after* its `sent_round`, however the bytes actually moved.
pub struct Delivery<M> {
    /// Link-level sender.
    pub from: ProcessId,
    /// Round the message was sent in.
    pub sent_round: u64,
    /// The payload.
    pub msg: M,
}

/// One process's view of the network: the engine's per-round driver is
/// generic over this trait, and each backend (crossbeam channels, TCP
/// mesh, discrete-event queue) supplies its own implementation.
///
/// Implementations carry bytes; *all* word/byte accounting, link-fault
/// application, and round bookkeeping happen in the engine, once, above
/// this trait.
pub trait Transport<M: Message> {
    /// Sends `msg` to `to`, tagged with `sent_round`. Self-sends
    /// (`to == me`) must loop back like any other delivery. May block
    /// under backpressure; may silently drop if the peer is gone (the run
    /// is over for that peer).
    fn send(&mut self, to: ProcessId, sent_round: u64, msg: &M);

    /// Moves every delivery that has arrived so far into `out`,
    /// preserving arrival order.
    fn drain(&mut self, out: &mut Vec<Delivery<M>>);

    /// Tears down the directed link to `to` — what the engine calls for
    /// a [`LinkFate::Sever`](meba_sim::faults::LinkFate::Sever) (TCP:
    /// closes the socket so the reconnect path runs). In-memory backends
    /// have nothing to tear down, which makes a sever a plain drop there.
    fn sever(&mut self, _to: ProcessId) {}

    /// Full local teardown at a crash: the process lost its volatile
    /// state; a socket backend severs every peer link so peers observe
    /// resets. The engine separately discards buffered deliveries.
    fn crash(&mut self) {}

    /// Times a send blocked on a full link so far (folded into
    /// [`crate::ClusterReport::backpressure`] at the end of the run).
    fn backpressure(&self) -> u64 {
        0
    }
}

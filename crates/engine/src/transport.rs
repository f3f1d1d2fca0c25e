//! The [`Transport`] abstraction every backend plugs into the engine, and
//! the [`SendPolicy`] fault-injection hook applied at the send edge.

use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate, LinkPolicy};
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

    /// Tears down the directed link to `to` (TCP: closes the socket so
    /// the reconnect path runs). In-memory backends have nothing to tear
    /// down.
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

/// What happens to one outbound message at the send edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFate {
    /// Hand the message to the transport normally.
    Deliver,
    /// Silently discard it (the sender still pays its words).
    Drop,
    /// Hold it back for this many rounds, then transmit it with its
    /// original `sent_round` — the recipient sees it past the synchrony
    /// bound.
    DelayRounds(u64),
    /// Discard it *and* tear the connection down
    /// ([`Transport::sever`]) — TCP exercises its reconnect path;
    /// in-memory backends treat this as a plain drop.
    Sever,
}

impl From<LinkFate> for SendFate {
    fn from(f: LinkFate) -> Self {
        match f {
            LinkFate::Deliver => SendFate::Deliver,
            LinkFate::Drop => SendFate::Drop,
            LinkFate::DelayRounds(k) => SendFate::DelayRounds(k),
        }
    }
}

/// Send-edge fault injection: judges every outbound message on a remote
/// link. Self-links are never consulted.
pub trait SendPolicy: Send {
    /// The fate of one message on `link` sent during `round`.
    fn fate(&mut self, link: Link, round: u64) -> SendFate;
}

impl<F: FnMut(Link, u64) -> SendFate + Send> SendPolicy for F {
    fn fate(&mut self, link: Link, round: u64) -> SendFate {
        self(link, round)
    }
}

/// Adapts a [`LinkPolicy`] (the lockstep simulator's fault vocabulary)
/// into a [`SendPolicy`], so every stock policy in [`meba_sim::faults`]
/// works on every backend unchanged.
pub struct LinkPolicySendAdapter(pub Box<dyn LinkPolicy>);

impl SendPolicy for LinkPolicySendAdapter {
    fn fate(&mut self, link: Link, round: u64) -> SendFate {
        self.0.fate(link, round).into()
    }
}

//! The actor model: protocol state machines driven by synchronous rounds.

use crate::metrics::targets;
use crate::round::Round;
use meba_crypto::{Digest, ProcessId};
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A protocol message deliverable by the simulator.
///
/// `words` / `constituent_sigs` implement the paper's complexity model
/// (§2); `component` tags the message for per-component breakdowns
/// (experiment E5: Figure 1 composition).
///
/// `Sync` because a message in flight is an `Arc<M>` handle shared by
/// every copy of one send (see `meba-engine`'s `Transport`), and the
/// threaded backend moves those handles across threads.
pub trait Message: Clone + fmt::Debug + Send + Sync + 'static {
    /// Words this message occupies (at least 1 by the model).
    fn words(&self) -> u64;

    /// Individual signatures represented inside the message (threshold
    /// signatures count their threshold).
    fn constituent_sigs(&self) -> u64 {
        0
    }

    /// Which protocol component produced the message (for breakdowns).
    fn component(&self) -> &'static str {
        "protocol"
    }

    /// Which protocol instance the message belongs to, when the message
    /// is session-tagged (see [`crate::session::SessionEnvelope`]).
    /// Runtimes use this for the per-session [`crate::Metrics`]
    /// breakdowns; `None` means the message is not multiplexed.
    fn session(&self) -> Option<u64> {
        None
    }

    /// Length of the message's canonical wire encoding in bytes, for the
    /// byte counters next to the word counters in [`crate::Metrics`].
    ///
    /// The default `0` means "no wire codec" and is fine for test
    /// messages; protocol messages override this with their
    /// `meba_crypto::WireCodec` encoding length so every runtime (lockstep,
    /// threaded, TCP) reports a realized bytes-per-word ratio.
    fn wire_bytes(&self) -> u64 {
        0
    }
}

/// A message together with its authenticated network-level sender.
///
/// Links are reliable and authenticated (paper §2): if a correct process
/// receives an envelope claiming `from = p` and `p` is correct, then `p`
/// really sent it. The simulator enforces this by stamping envelopes
/// itself.
///
/// The payload is the handle the sender's round body made for its outbox
/// entry, moved into the inbox as it arrived: every recipient of one
/// send holds the same allocation, and an actor reads it through
/// `&*msg` without copying it.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Network-level sender (unforgeable).
    pub from: ProcessId,
    /// Payload, shared by every copy of one send.
    pub msg: Arc<M>,
}

/// Destination of an outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// One process.
    To(ProcessId),
    /// Every process, including the sender.
    All,
}

/// Who one [`Outbox`] entry is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recipients {
    /// One process, or every process.
    Dest(Dest),
    /// Every process whose id lies in `lo..hi`: a multicast to a
    /// contiguous sub-scope.
    Span {
        /// The first member.
        lo: u32,
        /// One past the last member.
        hi: u32,
    },
}

impl From<Dest> for Recipients {
    fn from(dest: Dest) -> Self {
        Recipients::Dest(dest)
    }
}

/// What an actor's round sends: an ordered list of entries, each one
/// payload and the processes it is for.
///
/// A multicast is one entry however many processes it names, so the
/// round body (`meba-engine`'s `EngineProcess::step`) wraps it in one
/// handle and bills it once. It is the root [`Sink`]: a host that embeds
/// a protocol lends it a [`Mapped`] view of its own sink, so every layer
/// writes into this one list. Entries are read through the slice the
/// outbox dereferences to.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    entries: Vec<(Recipients, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox { entries: Vec::new() }
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M> Sink<M> for Outbox<M> {
    fn put(&mut self, to: Recipients, msg: M) {
        self.entries.push((to, msg));
    }

    fn signed(&mut self, _context: &dyn Fn() -> Vec<u8>, _digest: Digest) {}
}

impl<M> Deref for Outbox<M> {
    type Target = [(Recipients, M)];
    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

impl<M> IntoIterator for Outbox<M> {
    type Item = (Recipients, M);
    type IntoIter = std::vec::IntoIter<(Recipients, M)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// Where a sub-protocol's step sends: the round's [`Outbox`], or a
/// host's [`Mapped`] view of its own sink. Each call is one entry, one
/// payload for the processes it names.
///
/// A step also reports here each signature it makes, before it sends
/// what carries it: a write-ahead wrapper (`meba-core`'s `Recoverable`)
/// journals the binding before it releases the step's sends; every
/// other sink passes it up or ignores it.
pub trait Sink<M> {
    /// Queues `msg` for `to`.
    fn put(&mut self, to: Recipients, msg: M);

    /// Reports a signature this step made: `context` builds the signing
    /// slot's equivocation context (everything but the value), called
    /// only by a sink that keeps it; `digest` commits to the preimage
    /// signed. [`Outbox`] ignores it.
    fn signed(&mut self, context: &dyn Fn() -> Vec<u8>, digest: Digest);

    /// Queues `msg` for `dest`.
    fn push(&mut self, dest: Dest, msg: M) {
        self.put(Recipients::Dest(dest), msg);
    }
}

impl<M> dyn Sink<M> + '_ {
    /// This sink seen through `wrap`: what an embedded protocol sends
    /// lands here as one entry each, its payload wrapped and its
    /// recipients kept (`out.map(BbMsg::Ba)`).
    pub fn map<N, F: FnMut(N) -> M>(&mut self, wrap: F) -> Mapped<'_, M, F> {
        Mapped { out: self, wrap }
    }
}

/// A sink that wraps each payload on its way into the sink it borrows:
/// what `map` on a `dyn Sink` returns.
pub struct Mapped<'a, M, F> {
    out: &'a mut dyn Sink<M>,
    wrap: F,
}

impl<M, N, F: FnMut(N) -> M> Sink<N> for Mapped<'_, M, F> {
    fn put(&mut self, to: Recipients, msg: N) {
        let msg = (self.wrap)(msg);
        self.out.put(to, msg);
    }

    fn signed(&mut self, context: &dyn Fn() -> Vec<u8>, digest: Digest) {
        self.out.signed(context, digest);
    }
}

/// Per-round execution context handed to an actor.
///
/// Provides this round's inbox and collects outgoing messages. Messages
/// sent during round `r` are delivered in round `r + 1` (`δ = 1`).
#[derive(Debug)]
pub struct RoundCtx<'a, M> {
    round: Round,
    me: ProcessId,
    n: usize,
    inbox: &'a [Envelope<M>],
    outbox: Outbox<M>,
}

impl<'a, M: Message> RoundCtx<'a, M> {
    /// Builds a context for one round. Public so runtimes (the round
    /// body, journal-replay rejoin, wrapping adversaries) can drive
    /// actors.
    pub fn new(round: Round, me: ProcessId, n: usize, inbox: &'a [Envelope<M>]) -> Self {
        RoundCtx { round, me, n, inbox, outbox: Outbox::new() }
    }

    /// Consumes the context, returning the collected outgoing messages
    /// one destination each, in order: a multicast entry becomes one
    /// [`Dest::To`] clone per member, in id order, so a wrapper that
    /// forwards them through [`RoundCtx::send`] and
    /// [`RoundCtx::broadcast`] sends the same copies. Counterpart of
    /// [`RoundCtx::new`] for wrapping actors; the round body reads the
    /// entries themselves ([`RoundCtx::into_outbox`]).
    pub fn take_outbox(self) -> Vec<(Dest, M)> {
        let mut expanded = Vec::with_capacity(self.outbox.len());
        for (to, msg) in self.outbox {
            match to {
                Recipients::Dest(dest) => expanded.push((dest, msg)),
                Recipients::Span { .. } => {
                    expanded.extend(targets(to, self.n).map(|p| (Dest::To(p), msg.clone())));
                }
            }
        }
        expanded
    }

    /// Consumes the context, returning its outbox as collected: one entry
    /// per payload.
    pub fn into_outbox(self) -> Outbox<M> {
        self.outbox
    }

    /// The outbox, for a host that lends it to an embedded protocol.
    pub fn outbox(&mut self) -> &mut Outbox<M> {
        &mut self.outbox
    }

    /// Current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Identity of the executing process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Messages delivered this round (sent during the previous round),
    /// lent for the whole round: an actor may hold them while it pushes
    /// to the outbox.
    pub fn inbox(&self) -> &'a [Envelope<M>] {
        self.inbox
    }

    /// Sends `msg` to `to` at the end of this round.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push(Dest::To(to), msg);
    }

    /// Broadcasts `msg` to all `n` processes (including self).
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(Dest::All, msg);
    }

    /// Queues `msg` for `dest` — [`RoundCtx::send`] or
    /// [`RoundCtx::broadcast`], for a wrapper forwarding an inner outbox.
    pub fn push(&mut self, dest: Dest, msg: M) {
        self.outbox.push(dest, msg);
    }
}

/// A process: a deterministic state machine advanced once per round.
///
/// Correct processes implement the protocol; Byzantine processes (see the
/// `meba-adversary` crate) implement arbitrary behaviour over the same
/// interface — the runtimes give them no extra powers beyond the keys
/// they hold and, on a lockstep discrete-event run, rushing delivery.
pub trait Actor: Send {
    /// The message type this actor exchanges.
    type Msg: Message;

    /// This actor's identity.
    fn id(&self) -> ProcessId;

    /// Executes one synchronous round.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>);

    /// Whether the actor has terminated (a run stops once every correct
    /// actor is).
    /// Termination in the protocols means "decided and finished its
    /// schedule", not merely "decided" — deciders may still need to answer
    /// help requests.
    fn done(&self) -> bool {
        false
    }

    /// Conflicting-signature attempts this actor refused (see
    /// [`crate::session::SubProtocol::refused_equivocations`]).
    /// Crash-recovery wrappers override this; runtimes harvest it into
    /// [`crate::metrics::RecoveryStats`].
    fn refused_equivocations(&self) -> u64 {
        0
    }

    /// Called once on an actor that was rebuilt from its journal, after
    /// the runtime has fast-forwarded it (empty-inbox rounds `0..round`)
    /// but before its first live round. `round` is therefore the first
    /// round this actor actually observes after the outage — recovery-
    /// aware actors use it to bound which part of the schedule the
    /// outage could have touched. The default ignores the signal.
    fn on_rejoin(&mut self, _round: Round) {}

    /// Sparse-time hint, asked right after [`Actor::on_round`] ran round
    /// `after`: the earliest later round this actor needs to run *if
    /// nothing is delivered to it before then*. Returning `w` promises
    /// that every round in `(after, w)`, run with an empty inbox, would
    /// send nothing and leave the actor in a state indistinguishable
    /// from not having run it (same later outputs, same
    /// [`Actor::done`]). A runtime may therefore skip those rounds; it
    /// must still run the actor in the first round after any delivery,
    /// and may run it in any skipped round anyway. [`Round::NEVER`]
    /// means "only a delivery can make me act again".
    ///
    /// The default, `after + 1`, promises nothing and keeps an actor
    /// ticking every round. Only the discrete-event backend consults the
    /// hint, under its lockstep driver (DESIGN.md §18), so every lockstep
    /// run does; the wall-clock runtimes run every round regardless.
    fn next_wakeup(&self, after: Round) -> Round {
        after.next()
    }
}

/// A boxed actor with runtime downcasting support.
pub trait AnyActor: Actor {
    /// Upcasts to [`Any`] for post-run inspection.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Actor + Any> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct TestMsg(u64);
    impl Message for TestMsg {
        fn words(&self) -> u64 {
            1
        }
    }

    #[test]
    fn ctx_collects_outbox() {
        let inbox = vec![Envelope { from: ProcessId(1), msg: Arc::new(TestMsg(9)) }];
        let mut ctx = RoundCtx::new(Round(0), ProcessId(0), 3, &inbox);
        assert_eq!(ctx.inbox().len(), 1);
        ctx.send(ProcessId(2), TestMsg(1));
        ctx.broadcast(TestMsg(2));
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, Dest::To(ProcessId(2)));
        assert_eq!(out[1].0, Dest::All);
    }

    #[test]
    fn a_multicast_expands_to_per_member_sends_in_order() {
        let n = 6;
        let mut multicast = RoundCtx::new(Round(0), ProcessId(0), n, &[]);
        multicast.send(ProcessId(5), TestMsg(0));
        multicast.outbox().put(Recipients::Span { lo: 1, hi: 4 }, TestMsg(1));
        multicast.broadcast(TestMsg(2));
        // A span past the system names only its members below `n`.
        multicast.outbox().put(Recipients::Span { lo: 4, hi: 9 }, TestMsg(3));
        assert_eq!(multicast.outbox().len(), 4, "one entry per payload");
        let mut sends = RoundCtx::new(Round(0), ProcessId(0), n, &[]);
        sends.send(ProcessId(5), TestMsg(0));
        (1..4).for_each(|p| sends.send(ProcessId(p), TestMsg(1)));
        sends.broadcast(TestMsg(2));
        (4..6).for_each(|p| sends.send(ProcessId(p), TestMsg(3)));
        assert_eq!(multicast.take_outbox(), sends.take_outbox());
    }

    /// A sink that keeps the signatures reported to it.
    #[derive(Default)]
    struct Signatures(Vec<(Vec<u8>, Digest)>);
    impl Sink<TestMsg> for Signatures {
        fn put(&mut self, _to: Recipients, _msg: TestMsg) {}
        fn signed(&mut self, context: &dyn Fn() -> Vec<u8>, digest: Digest) {
            self.0.push((context(), digest));
        }
    }

    #[test]
    fn a_signature_reaches_the_sink_that_keeps_it_and_is_built_only_there() {
        let digest = Digest::of(b"v");
        let mut kept = Signatures::default();
        let out: &mut dyn Sink<TestMsg> = &mut kept;
        out.map(|m: u8| TestMsg(m.into())).signed(&|| b"slot".to_vec(), digest);
        assert_eq!(kept.0, [(b"slot".to_vec(), digest)], "a mapped view passes it up");
        let mut outbox = Outbox::new();
        let out: &mut dyn Sink<TestMsg> = &mut outbox;
        out.map(|m: u8| TestMsg(m.into())).signed(&|| unreachable!("never built"), digest);
        assert!(outbox.is_empty());
    }
}

/// An actor that does nothing: models a process that has crashed from the
/// start (the simplest Byzantine behaviour) or an unused slot.
///
/// # Examples
///
/// ```
/// use meba_crypto::ProcessId;
/// use meba_sim::{Actor, IdleActor};
///
/// # #[derive(Clone, Debug)] struct M;
/// # impl meba_sim::Message for M { fn words(&self) -> u64 { 1 } }
/// let idle: IdleActor<M> = IdleActor::new(ProcessId(2));
/// assert_eq!(idle.id(), ProcessId(2));
/// assert!(idle.done());
/// ```
#[derive(Debug)]
pub struct IdleActor<M> {
    id: ProcessId,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M> IdleActor<M> {
    /// Creates an idle actor with the given identity.
    pub fn new(id: ProcessId) -> Self {
        IdleActor { id, _msg: std::marker::PhantomData }
    }
}

impl<M: Message> Actor for IdleActor<M> {
    type Msg = M;
    fn id(&self) -> ProcessId {
        self.id
    }
    fn on_round(&mut self, _ctx: &mut RoundCtx<'_, M>) {}
    fn done(&self) -> bool {
        true
    }
    fn next_wakeup(&self, _after: Round) -> Round {
        Round::NEVER
    }
}

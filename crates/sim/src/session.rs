//! Sessions: many protocol instances, one transport.
//!
//! Production agreement systems never run a single consensus instance —
//! they run one per slot/height/view, all over the same links. This module
//! supplies the addressing and the per-instance driver: a
//! [`SessionId`]-tagged envelope ([`SessionEnvelope`]) routes every message
//! to a protocol *instance* rather than just a process, and an
//! [`Instance`] steps one [`SubProtocol`] on what was delivered to it.
//! When instances open and retire is their host's business (the
//! replicated log in `meba-smr`, the adapters in `meba-core`).
//! Cryptographic non-interference between concurrent instances is the
//! host protocol's job too (per-session signature domain separation).
//!
//! Every layer below the round body steps with one shape: it is lent an
//! [`Inbox`], a re-iterable projection of its caller's messages, and
//! sends into a [`Sink`], which a host maps onto its own
//! (`out.map(BbMsg::Ba)`). Nothing is copied into a per-step buffer on
//! the way down or re-wrapped on the way up. A step reports the
//! signatures it makes into the same sink ([`Sink::signed`]), so a
//! write-ahead wrapper sees them and no other layer keeps them.

use crate::actor::{Message, Sink};
use meba_crypto::encoding::len;
use meba_crypto::{DecodeError, Decoder, Encoder, ProcessId, WireCodec};
use std::fmt::Debug;
use std::sync::Arc;

/// A step's lent inbox: `(sender, message)` pairs, projected by the
/// caller from its own buffer — a round's envelopes, an instance's
/// handles, or the caller's own inbox filtered to the variants that
/// carry this protocol's messages. A protocol that reads it more than
/// once iterates a clone.
pub trait Inbox<'a, M: 'a>: Iterator<Item = (ProcessId, &'a M)> + Clone {}

impl<'a, M: 'a, I: Iterator<Item = (ProcessId, &'a M)> + Clone> Inbox<'a, M> for I {}

/// A synchronous protocol state machine, advanced one *step* at a time.
///
/// Step semantics: at step `s`, the machine consumes messages sent by
/// peers at their step `s - 1`, and emits messages that peers consume at
/// their step `s + 1`. Steps map to host rounds 1:1 in lockstep (the
/// `LockstepAdapter` in `meba-core`, or a slot's [`Instance`]), or 1:2
/// under the `2δ` skew-tolerant adapter in `meba-core`.
pub trait SubProtocol: Send + 'static {
    /// Message type exchanged by this protocol. The [`WireCodec`] bound is
    /// what lets *any* sub-protocol run over the real TCP transport
    /// (`meba-wire`) as well as the in-process runtimes.
    type Msg: Message + WireCodec;
    /// Decision type.
    type Output: Clone + Debug + Send + 'static;

    /// Executes step `s` on a lent inbox: the messages belong to the
    /// caller (a round's shared payloads, or a host's buffer), so a
    /// protocol clones only what it keeps past the step. What it sends
    /// goes to `out`, one entry per payload however many processes it
    /// is for.
    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, Self::Msg>,
        out: &mut dyn Sink<Self::Msg>,
    );

    /// The decision, once reached.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the machine has completed its entire schedule (it may keep
    /// answering messages until then even after deciding).
    fn done(&self) -> bool;

    /// How many externalization refusals a recovery guard has issued for
    /// this protocol (always 0 without a recovery wrapper). Surfaced so
    /// runtimes can aggregate it into [`crate::Metrics`].
    fn refused_equivocations(&self) -> u64 {
        0
    }

    /// Sparse-time hint in steps — the [`crate::Actor::next_wakeup`]
    /// contract one layer down. Asked after step `after` ran: the earliest later
    /// step this machine needs *if no message reaches it before then*;
    /// every step strictly between, run on an empty inbox, would emit
    /// nothing and change nothing observable. `u64::MAX` means "only a
    /// message can make me act again". The default, `after + 1`,
    /// promises nothing.
    fn next_wakeup(&self, after: u64) -> u64 {
        after + 1
    }
}

/// Identifies one protocol instance among many multiplexed over the same
/// process-to-process links (e.g. the slot number of a replicated log).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A sub-protocol message tagged with the instance it belongs to.
///
/// The tag is pure addressing: it contributes no words to the paper's
/// complexity model (like the round number, it is part of the transport
/// framing, not the protocol payload) and carries no authentication —
/// instances must domain-separate their signatures by session themselves.
#[derive(Clone, Debug)]
pub struct SessionEnvelope<M> {
    /// Which instance this message belongs to.
    pub session: SessionId,
    /// The wrapped protocol message.
    pub msg: M,
}

impl<M: Message + WireCodec> Message for SessionEnvelope<M> {
    fn words(&self) -> u64 {
        self.msg.words()
    }
    fn constituent_sigs(&self) -> u64 {
        self.msg.constituent_sigs()
    }
    fn component(&self) -> &'static str {
        self.msg.component()
    }
    fn session(&self) -> Option<u64> {
        Some(self.session.0)
    }
    fn wire_bytes(&self) -> u64 {
        self.wire_len()
    }
}

impl<M: WireCodec> WireCodec for SessionEnvelope<M> {
    fn encode_wire(&self, enc: &mut Encoder) {
        enc.put_u64(self.session.0);
        self.msg.encode_wire(enc);
    }
    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let session = SessionId(dec.get_u64()?);
        let msg = M::decode_wire(dec)?;
        Ok(SessionEnvelope { session, msg })
    }
    fn wire_len(&self) -> u64 {
        len::U64 + self.msg.wire_len()
    }
}

/// One buffered instance of a [`SubProtocol`]: the protocol plus its
/// step counter and the messages kept for its next step.
///
/// This is the driver for hosts whose messages outlive the round they
/// arrive in — the replicated log in `meba-smr` routes a slot's traffic
/// here, and `meba-core`'s `SkewAdapter` releases its per-vstep buffer
/// here. The buffer holds handles: deliver one with [`Instance::deliver`]
/// (a host that has only a borrowed message wraps its one copy; a host
/// that holds a handle already passes it on), then fire
/// [`Instance::step_at`] at the step a host round puts the instance at,
/// which lends the buffer to [`SubProtocol::on_step`] as a projection.
/// A host that steps on the round's own inbox (`LockstepAdapter`) lends
/// that instead and needs no `Instance`.
#[derive(Debug)]
pub struct Instance<P: SubProtocol> {
    proto: P,
    next_step: u64,
    inbox: Vec<(ProcessId, Arc<P::Msg>)>,
}

impl<P: SubProtocol> Instance<P> {
    /// Wraps a protocol about to execute step 0.
    pub fn new(proto: P) -> Self {
        Instance { proto, next_step: 0, inbox: Vec::new() }
    }

    /// Buffers a message for consumption at the next step.
    pub fn deliver(&mut self, from: ProcessId, msg: Arc<P::Msg>) {
        self.inbox.push((from, msg));
    }

    /// Executes step `step` — at or after [`Instance::next_step`] — on
    /// everything delivered since the previous one. The steps jumped
    /// over never run; a driver may only jump where
    /// [`SubProtocol::next_wakeup`] said they would have been no-ops.
    pub fn step_at(&mut self, step: u64, out: &mut dyn Sink<P::Msg>) {
        debug_assert!(step >= self.next_step, "steps only move forward");
        self.proto.on_step(step, self.inbox.iter().map(|(p, m)| (*p, &**m)), out);
        // Clear rather than take: the inbox allocation is reused by the
        // next step's deliveries.
        self.inbox.clear();
        self.next_step = step + 1;
    }

    /// The first step [`Instance::step_at`] may execute next.
    pub fn next_step(&self) -> u64 {
        self.next_step
    }

    /// Whether the wrapped protocol has finished its schedule.
    pub fn done(&self) -> bool {
        self.proto.done()
    }

    /// The wrapped protocol.
    pub fn proto(&self) -> &P {
        &self.proto
    }

    /// Unwraps the protocol (used when retiring an instance).
    pub fn into_proto(self) -> P {
        self.proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Dest, Outbox};

    #[derive(Clone, Debug)]
    struct Ping(#[allow(dead_code)] u64);
    impl Message for Ping {
        fn words(&self) -> u64 {
            1
        }
        fn wire_bytes(&self) -> u64 {
            self.wire_len()
        }
    }
    impl WireCodec for Ping {
        fn encode_wire(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }
        fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            Ok(Ping(dec.get_u64()?))
        }
    }

    /// Broadcasts its session-local step; decides at step `lifetime` on
    /// how many messages it has seen in total.
    struct Echo {
        lifetime: u64,
        seen: u64,
        decided: Option<u64>,
    }

    impl SubProtocol for Echo {
        type Msg = Ping;
        type Output = u64;
        fn on_step<'a>(
            &mut self,
            step: u64,
            inbox: impl Inbox<'a, Ping>,
            out: &mut dyn Sink<Ping>,
        ) {
            self.seen += inbox.count() as u64;
            if step >= self.lifetime {
                self.decided = Some(self.seen);
            } else {
                out.push(Dest::All, Ping(step));
            }
        }
        fn output(&self) -> Option<u64> {
            self.decided
        }
        fn done(&self) -> bool {
            self.decided.is_some()
        }
    }

    #[test]
    fn session_envelope_is_transparent_for_accounting() {
        let env = SessionEnvelope { session: SessionId(4), msg: Ping(0) };
        assert_eq!(env.words(), 1);
        assert_eq!(env.constituent_sigs(), 0);
        assert_eq!(env.session(), Some(4));
        // Envelope bytes = 9-byte session framing + inner encoding.
        assert_eq!(env.wire_bytes(), 9 + env.msg.wire_len());
        assert_eq!(env.wire_len(), env.to_wire_bytes().len() as u64, "sized without encoding");
        let back = SessionEnvelope::<Ping>::from_wire_bytes(&env.to_wire_bytes()).unwrap();
        assert_eq!(back.session, SessionId(4));
        assert_eq!(format!("{}", env.session), "s4");
    }

    #[test]
    fn instance_buffers_between_steps() {
        let mut inst = Instance::new(Echo { lifetime: 3, seen: 0, decided: None });
        inst.deliver(ProcessId(1), Arc::new(Ping(0)));
        inst.deliver(ProcessId(2), Arc::new(Ping(0)));
        let mut out = Outbox::new();
        inst.step_at(0, &mut out);
        assert_eq!(inst.proto().seen, 2, "step 0 consumed both buffered messages");
        assert_eq!(inst.next_step(), 1);
        inst.step_at(1, &mut out);
        assert_eq!(inst.proto().seen, 2, "nothing new delivered");
        assert!(!inst.done());
    }
}

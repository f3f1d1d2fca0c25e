//! The session multiplexing layer: many protocol instances, one transport.
//!
//! Production agreement systems never run a single consensus instance —
//! they run one per slot/height/view, all over the same links. This module
//! supplies the missing addressing layer: a [`SessionId`]-tagged envelope
//! ([`SessionEnvelope`]) routes every message to a protocol *instance*
//! rather than just a process, and the [`Mux`] actor hosts a dynamic set
//! of [`SubProtocol`] instances — opening them on a host-defined schedule,
//! stepping each one per round, and retiring them as soon as they report
//! [`SubProtocol::done`].
//!
//! The mux is runtime-agnostic: it is an ordinary [`Actor`], so the same
//! code runs unchanged on the lockstep simulator and on the threaded
//! `meba-engine` cluster. Cryptographic non-interference between concurrent
//! instances is the *host protocol's* job (per-session signature domain
//! separation); the mux only provides addressing and lifecycle.

use crate::actor::{Actor, Dest, Message, RoundCtx};
use meba_crypto::{DecodeError, Decoder, Digest, Encoder, ProcessId, WireCodec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// A protocol-critical event a [`SubProtocol`] wants made durable before
/// its effects are externalized (see `meba-journal`).
///
/// Protocols emit these from [`SubProtocol::on_step`] and a recovery
/// wrapper drains them via [`SubProtocol::drain_recovery_events`] — the
/// wrapper journals them, enforces the never-re-sign-conflicting guard
/// on [`RecoveryEvent::Signed`], and only then releases the step's
/// outbox. Protocols without recovery support emit nothing (the default)
/// and are still replayable from their per-step inboxes alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A signature was produced. `context` identifies the signing slot
    /// (domain + session + phase — everything but the value); `digest`
    /// commits to the exact preimage signed.
    Signed {
        /// Equivocation context of the signing slot.
        context: Vec<u8>,
        /// Digest of the full signing preimage.
        digest: Digest,
    },
    /// A quorum certificate was received and accepted.
    CertReceived {
        /// Protocol-defined kind discriminant (e.g. commit vs. finalize).
        kind: u32,
        /// Step at which the certificate was accepted.
        step: u64,
    },
    /// The protocol's `commit_level` advanced.
    CommitLevel(u64),
    /// The protocol decided; the payload is the decision's canonical
    /// encoding (or any stable digest of it).
    Decided(Vec<u8>),
}

/// A synchronous protocol state machine, advanced one *step* at a time.
///
/// Step semantics: at step `s`, the machine consumes messages sent by
/// peers at their step `s - 1`, and emits messages that peers consume at
/// their step `s + 1`. Steps map to host rounds 1:1 when embedded in
/// lockstep (via an [`Instance`] or a [`Mux`]), or 1:2 under the `2δ`
/// skew-tolerant adapter in `meba-core`.
pub trait SubProtocol: Send + 'static {
    /// Message type exchanged by this protocol. The [`WireCodec`] bound is
    /// what lets *any* sub-protocol run over the real TCP transport
    /// (`meba-wire`) as well as the in-process runtimes.
    type Msg: Message + WireCodec;
    /// Decision type.
    type Output: Clone + Debug + Send + 'static;

    /// Executes step `s`.
    fn on_step(
        &mut self,
        step: u64,
        inbox: &[(ProcessId, Self::Msg)],
        out: &mut Vec<(Dest, Self::Msg)>,
    );

    /// The decision, once reached.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the machine has completed its entire schedule (it may keep
    /// answering messages until then even after deciding).
    fn done(&self) -> bool;

    /// Drains the protocol-critical events accumulated since the last
    /// drain (signatures produced, certificates accepted, commit-level
    /// transitions, decisions). A recovery wrapper calls this after every
    /// [`SubProtocol::on_step`] and journals the events *before*
    /// releasing the step's messages. The default — no events — is
    /// correct for protocols without crash-recovery support.
    fn drain_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        Vec::new()
    }

    /// How many externalization refusals a recovery guard has issued for
    /// this protocol (always 0 without a recovery wrapper). Surfaced so
    /// runtimes can aggregate it into [`crate::Metrics`].
    fn refused_equivocations(&self) -> u64 {
        0
    }

    /// Sparse-time hint in steps — the [`Actor::next_wakeup`] contract
    /// one layer down. Asked after step `after` ran: the earliest later
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

/// Why an explicit, collision-checked session spawn was rejected.
///
/// The mux's *schedule-driven* open path ([`MuxHost::due`]) is
/// deliberately idempotent: a host may re-announce a session every round
/// and the duplicate opens are silently ignored. A *dynamic* allocator —
/// e.g. the `meba-service` front door binding client batches to fresh
/// slot sessions — must instead learn that an id it computed is already
/// taken, or a collision silently aliases two protocol instances onto
/// one signature domain. [`Mux::try_open`] surfaces exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionSpawnError {
    /// The id belongs to an instance that is currently running.
    Live(SessionId),
    /// The id was already retired (ran to completion, hit its step cap,
    /// or was refused earlier) and may never be reused.
    Retired(SessionId),
    /// The host's [`MuxHost::create`] refused to build the instance
    /// (e.g. out-of-range slot). The id is recorded as retired so stray
    /// traffic cannot retrigger creation.
    Refused(SessionId),
}

impl std::fmt::Display for SessionSpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionSpawnError::Live(sid) => write!(f, "session {sid} is already live"),
            SessionSpawnError::Retired(sid) => write!(f, "session {sid} was already retired"),
            SessionSpawnError::Refused(sid) => write!(f, "host refused to create session {sid}"),
        }
    }
}

impl std::error::Error for SessionSpawnError {}

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
}

/// One lockstep-driven instance of a [`SubProtocol`]: the protocol plus
/// its step counter and the inbox buffered for its next step.
///
/// This is the single-instance core that both the [`Mux`] and the
/// adapters in `meba-core` (`LockstepAdapter`, `SkewAdapter`) are thin
/// wrappers around: deliver messages with [`Instance::deliver`], then
/// fire [`Instance::step`] once per host round (or virtual step).
#[derive(Debug)]
pub struct Instance<P: SubProtocol> {
    proto: P,
    next_step: u64,
    inbox: Vec<(ProcessId, P::Msg)>,
}

impl<P: SubProtocol> Instance<P> {
    /// Wraps a protocol about to execute step 0.
    pub fn new(proto: P) -> Self {
        Instance { proto, next_step: 0, inbox: Vec::new() }
    }

    /// Buffers a message for consumption at the next step.
    pub fn deliver(&mut self, from: ProcessId, msg: P::Msg) {
        self.inbox.push((from, msg));
    }

    /// Executes the next step on everything delivered since the previous
    /// one; returns the step index that just ran.
    pub fn step(&mut self, out: &mut Vec<(Dest, P::Msg)>) -> u64 {
        let step = self.next_step;
        self.step_at(step, out);
        step
    }

    /// Executes step `step` — at or after [`Instance::next_step`] — on
    /// everything delivered since the previous one. The steps jumped
    /// over never run; a driver may only jump where
    /// [`SubProtocol::next_wakeup`] said they would have been no-ops.
    pub fn step_at(&mut self, step: u64, out: &mut Vec<(Dest, P::Msg)>) {
        debug_assert!(step >= self.next_step, "steps only move forward");
        self.proto.on_step(step, &self.inbox, out);
        // Clear rather than take: the inbox allocation is reused by the
        // next step's deliveries.
        self.inbox.clear();
        self.next_step = step + 1;
    }

    /// The step the next [`Instance::step`] call will execute.
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

/// Instance lifecycle policy for a [`Mux`]: which sessions open when, how
/// to build them, how long they may run, and what to do with them when
/// they retire.
///
/// The host is the protocol-specific half of a multiplexed driver (e.g.
/// the replicated-log scheduler in `meba-smr`); the mux is the generic
/// routing/lifecycle half.
pub trait MuxHost: Send + 'static {
    /// The protocol type this host instantiates.
    type Proto: SubProtocol;

    /// Sessions scheduled to open at host round `round` (step 0 runs this
    /// round). Lockstep protocols need all correct processes to open a
    /// session at the same round, so opens are driven by the shared round
    /// clock, not by message arrival.
    fn due(&mut self, round: u64) -> Vec<SessionId>;

    /// Builds the instance for `sid`; `None` refuses the session (out of
    /// range / unknown), in which case its messages are dropped.
    fn create(&mut self, sid: SessionId) -> Option<Self::Proto>;

    /// Hard cap on the number of steps an instance may run. An instance
    /// still not [`SubProtocol::done`] after its cap is force-retired —
    /// this is what keeps a Byzantine-stalled instance from living
    /// forever.
    fn max_steps(&self, sid: SessionId) -> u64;

    /// Called exactly once when `sid` retires (done, or step cap hit),
    /// with the final protocol state.
    fn retired(&mut self, sid: SessionId, proto: Self::Proto);

    /// Whether the whole mux is finished (drives [`Actor::done`]).
    fn finished(&self) -> bool;
}

/// An actor hosting a dynamic set of [`SubProtocol`] instances multiplexed
/// over [`SessionEnvelope`]-tagged messages.
///
/// Per round: opens the sessions the host says are due, routes each inbox
/// envelope to its instance ([`Mux::route`]; envelopes for retired,
/// refused or unknown sessions are dropped — a session only ever opens on
/// the host's schedule or through [`Mux::try_open`], never because a
/// message named it), then [`Mux::tick`] advances every live instance
/// one step, tags their output, and retires instances that are done or
/// have exhausted their step cap.
pub struct Mux<H: MuxHost> {
    me: ProcessId,
    host: H,
    live: BTreeMap<SessionId, Instance<H::Proto>>,
    retired: BTreeSet<SessionId>,
}

impl<H: MuxHost> Mux<H> {
    /// Creates a mux for process `me` with the given lifecycle host.
    pub fn new(me: ProcessId, host: H) -> Self {
        Mux { me, host, live: BTreeMap::new(), retired: BTreeSet::new() }
    }

    /// The lifecycle host (protocol-specific state, e.g. the committed
    /// log).
    pub fn host(&self) -> &H {
        &self.host
    }

    /// The lifecycle host, mutably.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// Sessions currently live, in id order.
    pub fn live_sessions(&self) -> Vec<SessionId> {
        self.live.keys().copied().collect()
    }

    fn open_due(&mut self, round: u64) {
        for sid in self.host.due(round) {
            // Schedule-driven opens are idempotent: hosts may re-announce
            // a session every round, so collisions are silently ignored.
            let _ = self.try_open(sid);
        }
    }

    /// Hands one inbound envelope to its live instance, to be consumed
    /// at that instance's next step — by reference: the payload is
    /// cloned once, into the instance's inbox, and not at all when the
    /// session is retired, refused or unknown. A session due this round
    /// must already be open to receive (see [`Mux::tick`]).
    pub fn route(&mut self, from: ProcessId, env: &<Self as Actor>::Msg) {
        if let Some(inst) = self.live.get_mut(&env.session) {
            inst.deliver(from, env.msg.clone());
        }
    }

    /// Runs host round `round` on everything routed since the last
    /// tick: opens the sessions due (a no-op for those a caller already
    /// opened through [`Mux::try_open`] before routing), advances every
    /// live instance one step, appends their session-tagged output to
    /// `out`, and retires the instances that are done or out of steps.
    /// [`Actor::on_round`] is due-opens, then [`Mux::route`] over the
    /// inbox, then this.
    pub fn tick(&mut self, round: u64, out: &mut Vec<(Dest, <Self as Actor>::Msg)>) {
        self.open_due(round);
        let mut stepped = Vec::new();
        let mut to_retire = Vec::new();
        for (&sid, inst) in self.live.iter_mut() {
            inst.step(&mut stepped);
            out.extend(
                stepped.drain(..).map(|(dest, msg)| (dest, SessionEnvelope { session: sid, msg })),
            );
            if inst.done() || inst.next_step() >= self.host.max_steps(sid) {
                to_retire.push(sid);
            }
        }
        for sid in to_retire {
            let inst = self.live.remove(&sid).expect("collected from live set");
            self.retired.insert(sid);
            self.host.retired(sid, inst.into_proto());
        }
    }

    /// Explicitly spawns `sid` now, collision-checked against the live
    /// and retired instance sets.
    ///
    /// This is the entry point for *dynamically allocated* sessions
    /// (the `meba-service` batcher binding work to fresh slot ids):
    /// unlike the idempotent [`MuxHost::due`] path, an id that is
    /// already live or retired is a typed [`SessionSpawnError`], not a
    /// silent no-op — reusing it would alias two instances onto one
    /// per-session signature domain.
    pub fn try_open(&mut self, sid: SessionId) -> Result<(), SessionSpawnError> {
        if self.live.contains_key(&sid) {
            return Err(SessionSpawnError::Live(sid));
        }
        if self.retired.contains(&sid) {
            return Err(SessionSpawnError::Retired(sid));
        }
        if let Some(proto) = self.host.create(sid) {
            self.live.insert(sid, Instance::new(proto));
            Ok(())
        } else {
            // Refused: remember the refusal so stray traffic for this
            // session cannot retrigger `create` every round.
            self.retired.insert(sid);
            Err(SessionSpawnError::Refused(sid))
        }
    }
}

impl<H: MuxHost> Actor for Mux<H> {
    type Msg = SessionEnvelope<<H::Proto as SubProtocol>::Msg>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let round = ctx.round().as_u64();
        // Before routing: a message may address step 0 of a session
        // that opens this round.
        self.open_due(round);
        for env in ctx.inbox() {
            self.route(env.from, &env.msg);
        }
        let mut out = Vec::new();
        self.tick(round, &mut out);
        for (dest, msg) in out {
            ctx.push(dest, msg);
        }
    }

    fn done(&self) -> bool {
        self.host.finished()
    }
}

impl<H: MuxHost> Debug for Mux<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mux")
            .field("me", &self.me)
            .field("live", &self.live.keys().collect::<Vec<_>>())
            .field("retired", &self.retired.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Envelope;
    use crate::round::Round;

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
        fn on_step(&mut self, step: u64, inbox: &[(ProcessId, Ping)], out: &mut Vec<(Dest, Ping)>) {
            self.seen += inbox.len() as u64;
            if step >= self.lifetime {
                self.decided = Some(self.seen);
            } else {
                out.push((Dest::All, Ping(step)));
            }
        }
        fn output(&self) -> Option<u64> {
            self.decided
        }
        fn done(&self) -> bool {
            self.decided.is_some()
        }
    }

    /// Opens session k at round 3k; each instance lives 3 steps.
    struct StaggeredHost {
        total: u64,
        finished: Vec<(SessionId, u64)>,
    }

    impl MuxHost for StaggeredHost {
        type Proto = Echo;
        fn due(&mut self, round: u64) -> Vec<SessionId> {
            if round.is_multiple_of(3) && round / 3 < self.total {
                vec![SessionId(round / 3)]
            } else {
                vec![]
            }
        }
        fn create(&mut self, sid: SessionId) -> Option<Echo> {
            (sid.0 < self.total).then_some(Echo { lifetime: 3, seen: 0, decided: None })
        }
        fn max_steps(&self, _sid: SessionId) -> u64 {
            10
        }
        fn retired(&mut self, sid: SessionId, proto: Echo) {
            self.finished.push((sid, proto.output().expect("echo decides")));
        }
        fn finished(&self) -> bool {
            self.finished.len() as u64 == self.total
        }
    }

    fn drive(
        mux: &mut Mux<StaggeredHost>,
        round: u64,
        inbox: &[Envelope<SessionEnvelope<Ping>>],
    ) -> Vec<(Dest, SessionEnvelope<Ping>)> {
        let mut ctx = RoundCtx::new(Round(round), mux.id(), 3, inbox);
        mux.on_round(&mut ctx);
        ctx.take_outbox()
    }

    #[test]
    fn mux_opens_routes_and_retires() {
        let host = StaggeredHost { total: 2, finished: vec![] };
        let mut mux = Mux::new(ProcessId(0), host);
        // Round 0: session 0 opens, runs step 0, broadcasts tagged.
        let out = drive(&mut mux, 0, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.session, SessionId(0));
        assert_eq!(mux.live_sessions(), vec![SessionId(0)]);
        // Rounds 1-2: deliver a message addressed to session 0; a message
        // for the unknown session 7 is dropped (a message never spawns).
        let inbox = vec![
            Envelope {
                from: ProcessId(1),
                msg: SessionEnvelope { session: SessionId(0), msg: Ping(99) },
            },
            Envelope {
                from: ProcessId(2),
                msg: SessionEnvelope { session: SessionId(7), msg: Ping(1) },
            },
        ];
        drive(&mut mux, 1, &inbox);
        drive(&mut mux, 2, &[]);
        // Round 3: session 0 hits step 3 → decides on its 1 routed message
        // and retires; session 1 opens the same round.
        drive(&mut mux, 3, &[]);
        assert_eq!(mux.host().finished, vec![(SessionId(0), 1)]);
        assert_eq!(mux.live_sessions(), vec![SessionId(1)]);
        // A straggler for the retired session 0 is dropped, not respawned.
        let late = vec![Envelope {
            from: ProcessId(1),
            msg: SessionEnvelope { session: SessionId(0), msg: Ping(5) },
        }];
        drive(&mut mux, 4, &late);
        drive(&mut mux, 5, &[]);
        drive(&mut mux, 6, &[]);
        assert!(mux.done());
        assert_eq!(mux.host().finished.len(), 2);
        assert_eq!(mux.host().finished[1], (SessionId(1), 0), "late ping never reached s1");
    }

    /// Regression for the service front door's dynamic slot allocation:
    /// an id already live or retired must surface as a typed error from
    /// [`Mux::try_open`], never a silent dedupe — while the schedule
    /// path (`due`) stays idempotent.
    #[test]
    fn dynamic_spawn_collisions_are_typed_errors() {
        let host = StaggeredHost { total: 3, finished: vec![] };
        let mut mux = Mux::new(ProcessId(0), host);
        // Round 0 opens session 0 through the schedule path.
        drive(&mut mux, 0, &[]);
        assert_eq!(mux.live_sessions(), vec![SessionId(0)]);
        // A dynamic allocator picking the same id gets a collision, and
        // the instance is untouched.
        assert_eq!(mux.try_open(SessionId(0)), Err(SessionSpawnError::Live(SessionId(0))));
        assert_eq!(mux.live_sessions(), vec![SessionId(0)]);
        // A fresh id spawns fine.
        assert_eq!(mux.try_open(SessionId(1)), Ok(()));
        assert_eq!(mux.live_sessions(), vec![SessionId(0), SessionId(1)]);
        // An out-of-range id is refused by the host, and the refusal is
        // sticky: the second attempt reports it as retired.
        assert_eq!(mux.try_open(SessionId(9)), Err(SessionSpawnError::Refused(SessionId(9))));
        assert_eq!(mux.try_open(SessionId(9)), Err(SessionSpawnError::Retired(SessionId(9))));
        // Run session 0 to retirement; its id may never be reused.
        for r in 1..4 {
            drive(&mut mux, r, &[]);
        }
        assert!(!mux.live_sessions().contains(&SessionId(0)));
        assert_eq!(mux.try_open(SessionId(0)), Err(SessionSpawnError::Retired(SessionId(0))));
        // The schedule path still silently tolerates re-announcing an id
        // it already opened (hosts re-announce every stride): session 1
        // was due again at round 3 during the loop above while live, and
        // it simply keeps running — one instance, one retirement.
        drive(&mut mux, 4, &[]); // s1 reaches its lifetime and retires
        assert_eq!(mux.host().finished.iter().filter(|(sid, _)| *sid == SessionId(1)).count(), 1);
        let err = SessionSpawnError::Live(SessionId(1));
        assert_eq!(format!("{err}"), "session s1 is already live");
    }

    #[test]
    fn session_envelope_is_transparent_for_accounting() {
        let env = SessionEnvelope { session: SessionId(4), msg: Ping(0) };
        assert_eq!(env.words(), 1);
        assert_eq!(env.constituent_sigs(), 0);
        assert_eq!(env.session(), Some(4));
        // Envelope bytes = 9-byte session framing + inner encoding.
        assert_eq!(env.wire_bytes(), 9 + env.msg.wire_len());
        let back = SessionEnvelope::<Ping>::from_wire_bytes(&env.to_wire_bytes()).unwrap();
        assert_eq!(back.session, SessionId(4));
        assert_eq!(format!("{}", env.session), "s4");
    }

    #[test]
    fn instance_buffers_between_steps() {
        let mut inst = Instance::new(Echo { lifetime: 3, seen: 0, decided: None });
        inst.deliver(ProcessId(1), Ping(0));
        inst.deliver(ProcessId(2), Ping(0));
        let mut out = Vec::new();
        assert_eq!(inst.step(&mut out), 0);
        assert_eq!(inst.proto().seen, 2, "step 0 consumed both buffered messages");
        assert_eq!(inst.next_step(), 1);
        assert_eq!(inst.step(&mut out), 1);
        assert_eq!(inst.proto().seen, 2, "nothing new delivered");
        assert!(!inst.done());
    }
}

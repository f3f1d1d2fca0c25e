//! Attacks on the session-multiplexed replicated log.
//!
//! * [`SessionReplayer`] — the cross-instance replay attack: records
//!   every message it sees for slot `k` (certificates included) and
//!   re-broadcasts the payloads into slot `k + 1`'s session a configurable
//!   number of rounds later, landing them at the *same instance step* of
//!   the next slot. Against per-slot signature domain separation every
//!   replayed signature verifies under the wrong session and is rejected;
//!   without it, a slot-`k` certificate would decide slot `k + 1`.
//! * [`MuxHelpRequester`] — a correctly-signed `help_req` injected into a
//!   chosen session at a chosen round, used to show that a
//!   decided-but-not-done instance routed through the log still answers
//!   help requests.

use meba_core::bb::BbMsg;
use meba_core::signing::{sign_payload, HelpReqSig};
use meba_core::weak_ba::WeakBaMsg;
use meba_core::Value;
use meba_crypto::{ProcessId, SecretKey, WireCodec};
use meba_sim::{Actor, Message, RoundCtx, SessionEnvelope, SessionId};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Byzantine replica that replays one session's traffic into another.
///
/// With rushing delivery it sees slot `k`'s round-`r` messages in round
/// `r` and re-emits each payload, re-tagged for session `onto`, at round
/// `r + delay`. Choosing `delay` = the log's stride lands every replayed
/// message at exactly the step of slot `k + 1` at which the original was
/// sent in slot `k` — the strongest alignment a replay can achieve.
pub struct SessionReplayer<M> {
    me: ProcessId,
    from_session: SessionId,
    onto: SessionId,
    delay: u64,
    queued: BTreeMap<u64, Vec<M>>,
}

impl<M: Message + WireCodec> SessionReplayer<M> {
    /// Replays session `from_session` into `onto`, `delay` rounds later.
    pub fn new(me: ProcessId, from_session: SessionId, onto: SessionId, delay: u64) -> Self {
        SessionReplayer { me, from_session, onto, delay, queued: BTreeMap::new() }
    }
}

impl<M: Message + WireCodec> Actor for SessionReplayer<M> {
    type Msg = SessionEnvelope<M>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let r = ctx.round().as_u64();
        for e in ctx.inbox() {
            if e.msg.session == self.from_session {
                self.queued.entry(r + self.delay).or_default().push(e.msg.msg.clone());
            }
        }
        for msg in self.queued.remove(&r).unwrap_or_default() {
            ctx.broadcast(SessionEnvelope { session: self.onto, msg });
        }
    }

    fn done(&self) -> bool {
        true // never holds the run open
    }
}

/// Byzantine replica that injects one validly-signed `help_req` into a
/// multiplexed BB session at a fixed round.
///
/// The signature is made with this process's real key over the *target
/// instance's* signature domain (`crypto_session`), so it passes
/// verification; a decided instance must answer with a `Help` certificate
/// even though it has not finished its schedule.
pub struct MuxHelpRequester<V, FM> {
    me: ProcessId,
    key: SecretKey,
    wire_session: SessionId,
    crypto_session: u64,
    at_round: u64,
    _msg: PhantomData<fn() -> (V, FM)>,
}

impl<V: Value, FM: Message + WireCodec> MuxHelpRequester<V, FM> {
    /// Sends the help request into `wire_session` (signed for
    /// `crypto_session`) at round `at_round`.
    pub fn new(
        me: ProcessId,
        key: SecretKey,
        wire_session: SessionId,
        crypto_session: u64,
        at_round: u64,
    ) -> Self {
        MuxHelpRequester { me, key, wire_session, crypto_session, at_round, _msg: PhantomData }
    }
}

impl<V: Value, FM: Message + WireCodec> Actor for MuxHelpRequester<V, FM> {
    type Msg = SessionEnvelope<BbMsg<V, FM>>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        if ctx.round().as_u64() == self.at_round {
            let sig = sign_payload(&self.key, &HelpReqSig { session: self.crypto_session });
            ctx.broadcast(SessionEnvelope {
                session: self.wire_session,
                msg: BbMsg::Ba(WeakBaMsg::HelpReq { sig }),
            });
        }
    }

    fn done(&self) -> bool {
        true
    }
}

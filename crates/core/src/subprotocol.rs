//! Composition framework: sub-protocols, lockstep embedding, and the
//! paper's `2δ` skew-tolerant fallback adapter.
//!
//! The paper composes protocols as black boxes (Figure 1): BB runs a weak
//! BA after its vetting phases; weak BA and strong BA hand off to
//! `A_fallback` with round duration `δ' = 2δ` because correct processes may
//! start it up to `δ` apart (Lemmas 17–18). [`SubProtocol`] is the
//! composable state-machine interface (defined in `meba-sim`, re-exported
//! here); [`LockstepAdapter`] runs one as a top-level simulator actor,
//! lending it the round's inbox; [`SkewAdapter`] embeds one with the
//! paper's doubled-round, buffered window semantics on the
//! single-instance driver [`meba_sim::Instance`] — the same driver the
//! replicated log in `meba-smr` runs each slot's instance on. The
//! crate-private `FallbackHost` is the hand-off itself — safety-window
//! adoption, the `2δ` start delay, buffering, execution — shared by weak
//! BA and both strong BAs. A fallback message is never copied: its
//! [`SkewEnvelope`] holds it behind an [`Arc`], and everything that keeps
//! it past its round — the host's pending list, the adapter's per-vstep
//! buffer, the instance's inbox — keeps that handle.

use crate::value::Value;
use meba_crypto::{ProcessId, WireCodec};
use meba_sim::{Actor, Dest, Instance, Message, Round, RoundCtx};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

pub use meba_sim::SubProtocol;

/// Runs a [`SubProtocol`] directly as a simulator [`Actor`]
/// (step = round): one instance, no session tagging.
///
/// The step is read off [`RoundCtx::round`], not counted, so a runtime
/// that honours [`Actor::next_wakeup`] may jump over the rounds the
/// protocol declared silent. The round's inbox is lent to the protocol
/// as it is: nothing is copied and nothing is kept between rounds.
///
/// # Examples
///
/// ```ignore
/// let actor = LockstepAdapter::new(me, weak_ba);
/// ```
pub struct LockstepAdapter<P: SubProtocol> {
    me: ProcessId,
    proto: P,
}

impl<P: SubProtocol> LockstepAdapter<P> {
    /// Wraps `inner`, which will run for process `me` from round 0.
    pub fn new(me: ProcessId, inner: P) -> Self {
        LockstepAdapter { me, proto: inner }
    }

    /// The wrapped protocol, for inspecting decisions after a run.
    pub fn inner(&self) -> &P {
        &self.proto
    }
}

impl<P: SubProtocol> Actor for LockstepAdapter<P> {
    type Msg = P::Msg;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, P::Msg>) {
        let inbox: Vec<(ProcessId, &P::Msg)> =
            ctx.inbox().iter().map(|e| (e.from, &*e.msg)).collect();
        let mut out = Vec::new();
        self.proto.on_step(ctx.round().as_u64(), &inbox, &mut out);
        for (dest, msg) in out {
            ctx.push(dest, msg);
        }
    }

    fn done(&self) -> bool {
        self.proto.done()
    }

    fn refused_equivocations(&self) -> u64 {
        self.proto.refused_equivocations()
    }

    fn next_wakeup(&self, after: Round) -> Round {
        Round(self.proto.next_wakeup(after.as_u64()))
    }
}

/// The earliest `armed` step of a fixed `schedule` strictly after
/// `after`, or `u64::MAX` when none is left — the shape of a
/// [`SubProtocol::next_wakeup`] answer for a protocol whose unprompted
/// actions sit at known steps.
pub(crate) fn next_scheduled(after: u64, schedule: &[(bool, u64)]) -> u64 {
    schedule
        .iter()
        .filter(|&&(armed, step)| armed && step > after)
        .map(|&(_, step)| step)
        .min()
        .unwrap_or(u64::MAX)
}

crate::wire_schema! {
    /// A sub-protocol message tagged with its sender's *virtual step*, used
    /// by the [`SkewAdapter`]. The inner message is a shared handle:
    /// cloning an envelope — once per receiver that buffers it — copies no
    /// payload. The handle is invisible to the codec and to the word count:
    /// an envelope costs what its message costs.
    #[derive(Clone, Debug)]
    pub struct SkewEnvelope<M: Message + WireCodec>: Message {
        /// Virtual step at which the message was sent.
        pub vstep: u64 as Meta,
        /// The inner message.
        pub msg: Arc<M>,
    } in msg
}

/// Embeds a [`SubProtocol`] whose participants may start up to `δ` (one
/// round) apart — the fallback situation of Lemmas 17–18.
///
/// The inner protocol runs with round duration `2δ` (one virtual step per
/// two host rounds). Incoming messages are buffered by virtual step and
/// consumed when the local machine reaches the matching step, which
/// realizes the paper's acceptance window `[t_r − δ, t_r + 2δ]`: with
/// start skew ≤ 1 host round, a peer's step-`s` message (sent at
/// `peer_start + 2s`, delivered one round later) always arrives before the
/// local step `s + 1` executes at `local_start + 2(s + 1)`.
///
/// The buffer also rejects vsteps beyond the protocol's schedule, so a
/// Byzantine peer cannot grow it without bound by tagging envelopes with
/// far-future steps. It holds each message by the envelope's handle and
/// moves that handle into the instance at the step that consumes it; the
/// inner protocol's outbox is wrapped in one handle per entry.
pub struct SkewAdapter<P: SubProtocol> {
    inst: Instance<P>,
    start: u64,
    max_vsteps: u64,
    buffer: BTreeMap<u64, Held<P::Msg>>,
}

/// The messages kept for one virtual step, each by its sender's handle.
type Held<M> = Vec<(ProcessId, Arc<M>)>;

impl<P: SubProtocol> SkewAdapter<P> {
    /// Wraps `inner` (starting at host round `start`) whose schedule is at
    /// most `max_vsteps` virtual steps: envelopes tagged beyond it are
    /// rejected, which bounds the buffer at `max_vsteps + 1` slots.
    pub fn new(inner: P, start: u64, max_vsteps: u64) -> Self {
        SkewAdapter { inst: Instance::new(inner), start, max_vsteps, buffer: BTreeMap::new() }
    }

    /// Buffers an incoming tagged message.
    pub fn deliver(&mut self, from: ProcessId, env: SkewEnvelope<P::Msg>) {
        // Discard messages from virtual steps already consumed; they are
        // outside the paper's acceptance window (only a Byzantine sender
        // can produce them, since correct skew is bounded by δ). The tag
        // is the sender's, so `u64::MAX` must not overflow the test.
        if env.vstep.saturating_add(1) < self.inst.next_step() {
            return;
        }
        // Discard messages from beyond the schedule: no correct peer ever
        // reaches those steps, so they can only be Byzantine filler sent
        // to bloat the buffer.
        if env.vstep > self.max_vsteps {
            return;
        }
        self.buffer.entry(env.vstep).or_default().push((from, env.msg));
    }

    /// Advances the adapter by one host round; emits tagged outgoing
    /// messages when a virtual step fires.
    pub fn tick(&mut self, host_round: u64, out: &mut Vec<(Dest, SkewEnvelope<P::Msg>)>) {
        if host_round < self.start || !(host_round - self.start).is_multiple_of(2) {
            return;
        }
        let vstep = (host_round - self.start) / 2;
        if vstep != self.inst.next_step() || self.inst.done() {
            return;
        }
        // Step s consumes messages tagged s - 1.
        if vstep > 0 {
            for (from, msg) in self.buffer.remove(&(vstep - 1)).unwrap_or_default() {
                self.inst.deliver(from, msg);
            }
        }
        let mut inner_out = Vec::new();
        self.inst.step(&mut inner_out);
        for (dest, msg) in inner_out {
            out.push((dest, SkewEnvelope { vstep, msg: Arc::new(msg) }));
        }
    }

    /// Whether the inner protocol has finished.
    pub fn done(&self) -> bool {
        self.inst.done()
    }

    /// The inner protocol.
    pub fn inner(&self) -> &P {
        self.inst.proto()
    }
}

impl<P: SubProtocol> Debug for SkewAdapter<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkewAdapter")
            .field("start", &self.start)
            .field("next_vstep", &self.inst.next_step())
            .finish_non_exhaustive()
    }
}

/// Constructs a fallback strong BA instance (`A_fallback` in the paper).
///
/// The adaptive protocols treat the quadratic strong BA as a black box:
/// anything implementing this factory plugs in. The canonical
/// implementation is `meba_fallback::RecursiveBaFactory`; `meba-core`
/// ships [`crate::fallback::EchoFallbackFactory`] for crash-fault testing.
pub trait FallbackFactory<V: Value>: Clone + Send + 'static {
    /// The protocol type produced.
    type Protocol: SubProtocol<Output = V>;

    /// Instantiates the fallback for process `me` with initial value
    /// `input` (the paper's `bu_decision`).
    fn create(&self, me: ProcessId, input: V) -> Self::Protocol;

    /// Worst-case number of virtual steps an instance needs to complete.
    /// Multi-shot drivers (e.g. `meba-smr`) use this to size fixed,
    /// system-wide schedules; the host protocols themselves just tick the
    /// instance until [`SubProtocol::done`].
    fn max_steps(&self) -> u64;
}

/// Message type of the fallback protocol `F` builds for values `V`.
type InnerMsg<V, F> = <<F as FallbackFactory<V>>::Protocol as SubProtocol>::Msg;

/// Where a [`FallbackHost`] stands in the hand-off.
enum Handoff<P: SubProtocol> {
    /// No fallback certificate or echo accepted yet.
    Unscheduled,
    /// First receipt was at `start − 2`. Peers may have started a round
    /// earlier, so their inner traffic waits in `pending`.
    Scheduled { start: u64, pending: Vec<(ProcessId, SkewEnvelope<P::Msg>)> },
    /// `A_fallback` is executing with `δ' = 2δ`.
    Running(SkewAdapter<P>),
    /// `A_fallback` returned; its output was handed to the caller.
    Finished,
}

/// The hand-off from an adaptive protocol to `A_fallback` (Alg 3 lines
/// 15–29, Alg 5 lines 16–30; Lemmas 17–19), owned in one place: adopt a
/// certified decision during the `2δ` safety window, schedule the start
/// two rounds after the first fallback certificate or echo, buffer inner
/// traffic that arrives in between, run `A_fallback` on the decided (else
/// adopted, else own) value behind a bounded [`SkewAdapter`], and surface
/// its output once.
///
/// The host protocol keeps what differs between Algorithms 3 and 5: which
/// messages are admissible, how an attached `(value, proof)` is verified
/// (the host never sees an unverified one), the acceptance deadline, and
/// the message variants.
pub(crate) struct FallbackHost<V: Value, Pf, F: FallbackFactory<V>> {
    me: ProcessId,
    factory: F,
    /// The paper's `bu_decision` of an undecided process: its input until
    /// a certified decision is adopted.
    adopted: V,
    /// The proof that came with the adopted decision.
    adopted_proof: Option<Pf>,
    stage: Handoff<F::Protocol>,
}

impl<V: Value, Pf: Clone, F: FallbackFactory<V>> FallbackHost<V, Pf, F> {
    /// A host for process `me` whose own input is `input`.
    pub(crate) fn new(me: ProcessId, factory: F, input: V) -> Self {
        FallbackHost {
            me,
            factory,
            adopted: input,
            adopted_proof: None,
            stage: Handoff::Unscheduled,
        }
    }

    /// Whether `A_fallback` was started.
    pub(crate) fn ran(&self) -> bool {
        matches!(self.stage, Handoff::Running(_) | Handoff::Finished)
    }

    /// Whether a start has been scheduled (and possibly reached).
    pub(crate) fn scheduled(&self) -> bool {
        !matches!(self.stage, Handoff::Unscheduled)
    }

    /// Whether a fallback certificate or echo arriving at `step` still
    /// counts: the caller's acceptance window is open and `A_fallback`
    /// has not started.
    pub(crate) fn accepts(&self, step: u64, deadline: u64) -> bool {
        !self.ran() && step <= deadline
    }

    /// Safety-window adoption: `value`, certified by `proof` (verified by
    /// the caller, who is undecided), becomes the fallback input. Ignored
    /// once `A_fallback` has started.
    pub(crate) fn adopt(&mut self, value: V, proof: Pf) {
        if !self.ran() {
            self.adopted = value;
            self.adopted_proof = Some(proof);
        }
    }

    /// First receipt at `step`: schedules `A_fallback` for `step + 2` and
    /// returns `true` — the caller then re-broadcasts once. Later calls
    /// change nothing and return `false`.
    pub(crate) fn schedule(&mut self, step: u64) -> bool {
        let first = !self.scheduled();
        if first {
            self.stage = Handoff::Scheduled { start: step + 2, pending: Vec::new() };
        }
        first
    }

    /// What to attach to an outgoing fallback certificate or echo: the
    /// caller's own certified decision, else the adopted one.
    pub(crate) fn own_payload(&self, decided: Option<(&V, &Pf)>) -> Option<(V, Pf)> {
        decided
            .or(self.adopted_proof.as_ref().map(|p| (&self.adopted, p)))
            .map(|(v, p)| (v.clone(), p.clone()))
    }

    /// Routes one inner envelope: to the running instance, into the
    /// buffer while scheduled, and nowhere otherwise — fallback traffic
    /// with no certificate seen is Byzantine noise. The envelope is lent;
    /// what waits for its vstep is a clone of its handle, not of the
    /// message.
    pub(crate) fn deliver(&mut self, from: ProcessId, env: &SkewEnvelope<InnerMsg<V, F>>) {
        match &mut self.stage {
            Handoff::Running(adapter) => adapter.deliver(from, env.clone()),
            Handoff::Scheduled { pending, .. } => pending.push((from, env.clone())),
            Handoff::Unscheduled | Handoff::Finished => {}
        }
    }

    /// Runs `step`: starts `A_fallback` if it is due — on `decided`, the
    /// caller's own decision (Alg 3 line 15), else on the adopted value —
    /// ticks it, and pushes its traffic to `out` through `wrap`. Returns
    /// the fallback's output at the step it completes, and `None` before
    /// and after.
    pub(crate) fn tick<M>(
        &mut self,
        step: u64,
        decided: Option<&V>,
        wrap: impl Fn(SkewEnvelope<InnerMsg<V, F>>) -> M,
        out: &mut Vec<(Dest, M)>,
    ) -> Option<V> {
        if let Handoff::Scheduled { start, pending } = &mut self.stage {
            if *start == step {
                let input = decided.unwrap_or(&self.adopted).clone();
                let inner = self.factory.create(self.me, input);
                let mut adapter = SkewAdapter::new(inner, step, self.factory.max_steps());
                for (from, env) in pending.drain(..) {
                    adapter.deliver(from, env);
                }
                self.stage = Handoff::Running(adapter);
            }
        }
        let Handoff::Running(adapter) = &mut self.stage else { return None };
        let mut inner_out = Vec::new();
        adapter.tick(step, &mut inner_out);
        out.extend(inner_out.into_iter().map(|(dest, env)| (dest, wrap(env))));
        let output = if adapter.done() { adapter.inner().output() } else { None };
        if output.is_some() {
            self.stage = Handoff::Finished;
        }
        output
    }

    /// Whether a decided caller may finish at `step`: its acceptance
    /// window has closed and no fallback is running or still to start.
    pub(crate) fn quiescent(&self, step: u64, deadline: u64) -> bool {
        step > deadline
            && match &self.stage {
                Handoff::Unscheduled | Handoff::Finished => true,
                Handoff::Scheduled { start, .. } => *start <= step,
                Handoff::Running(_) => false,
            }
    }

    /// The host's term of [`SubProtocol::next_wakeup`]: while a fallback
    /// is scheduled or running, every step may act.
    pub(crate) fn next_wakeup(&self, after: u64) -> Option<u64> {
        matches!(self.stage, Handoff::Scheduled { .. } | Handoff::Running(_)).then_some(after + 1)
    }
}

/// The [`SubProtocol::next_wakeup`] contract, checked by running a
/// cluster twice in local lockstep: a twin that runs every step, and a
/// twin whose processes only run when something was delivered or their
/// last hint is due.
#[cfg(test)]
pub(crate) mod hint_contract {
    use super::*;

    /// Runs `build()`'s processes (`None` = silent from the start) for
    /// `steps` steps both ways and asserts that every step the sparse
    /// twin skipped sent nothing in the dense twin, and that the twins
    /// never differ in what they send, decide, or report as done.
    /// Returns how many process-steps were skipped.
    pub(crate) fn check<P: SubProtocol>(build: impl Fn() -> Vec<Option<P>>, steps: u64) -> u64 {
        let (mut dense, mut sparse) = (build(), build());
        let n = dense.len();
        let mut inbox_d: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); n];
        let mut inbox_s = inbox_d.clone();
        let mut wake = vec![0u64; n];
        let mut skipped = 0;
        for step in 0..steps {
            let mut next_d: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); n];
            let mut next_s = next_d.clone();
            for i in 0..n {
                let (Some(pd), Some(ps)) = (dense[i].as_mut(), sparse[i].as_mut()) else {
                    continue;
                };
                let me = ProcessId(i as u32);
                let mut out_d = Vec::new();
                pd.on_step(step, &lend(&inbox_d[i]), &mut out_d);
                if !inbox_s[i].is_empty() || step >= wake[i] {
                    let mut out_s = Vec::new();
                    ps.on_step(step, &lend(&inbox_s[i]), &mut out_s);
                    assert_eq!(format!("{out_s:?}"), format!("{out_d:?}"), "{me} step {step}");
                    wake[i] = ps.next_wakeup(step);
                    assert!(wake[i] > step, "{me} step {step}: a hint must look forward");
                    route(me, out_s, &mut next_s);
                } else {
                    assert!(out_d.is_empty(), "{me} slept through step {step}: {out_d:?}");
                    skipped += 1;
                }
                route(me, out_d, &mut next_d);
                assert_eq!(pd.done(), ps.done(), "{me} step {step}");
                assert_eq!(
                    format!("{:?}", pd.output()),
                    format!("{:?}", ps.output()),
                    "{me} step {step}"
                );
            }
            (inbox_d, inbox_s) = (next_d, next_s);
        }
        skipped
    }

    fn lend<M>(inbox: &[(ProcessId, M)]) -> Vec<(ProcessId, &M)> {
        inbox.iter().map(|(p, m)| (*p, m)).collect()
    }

    fn route<M: Clone>(from: ProcessId, out: Vec<(Dest, M)>, next: &mut [Vec<(ProcessId, M)>]) {
        for (dest, msg) in out {
            match dest {
                Dest::To(p) => next[p.index()].push((from, msg)),
                Dest::All => next.iter_mut().for_each(|inbox| inbox.push((from, msg.clone()))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::{EchoFallbackFactory, EchoMsg};

    crate::wire_schema! {
        #[derive(Clone, Debug)]
        struct Num(u64 as Meta): Message in "protocol";
    }

    /// Echoes its step count; decides after 3 steps on the count of
    /// step-tagged messages it received.
    struct Counter {
        received: Vec<(u64, usize)>,
        out_value: u64,
        decided: Option<u64>,
    }

    impl SubProtocol for Counter {
        type Msg = Num;
        type Output = u64;
        fn on_step(&mut self, step: u64, inbox: &[(ProcessId, &Num)], out: &mut Vec<(Dest, Num)>) {
            self.received.push((step, inbox.len()));
            if step < 3 {
                out.push((Dest::All, Num(self.out_value + step)));
            }
            if step == 3 {
                self.decided = Some(inbox.len() as u64);
            }
        }
        fn output(&self) -> Option<u64> {
            self.decided
        }
        fn done(&self) -> bool {
            self.decided.is_some()
        }
    }

    /// The [`Counter`]'s schedule: 4 vsteps, 0..=3.
    const COUNTER_VSTEPS: u64 = 3;

    #[test]
    fn skew_adapter_runs_every_other_round() {
        let c = Counter { received: vec![], out_value: 0, decided: None };
        let mut ad = SkewAdapter::new(c, 4, COUNTER_VSTEPS);
        let mut out = Vec::new();
        for r in 0..12 {
            ad.tick(r, &mut out);
        }
        // Steps fire at host rounds 4, 6, 8, 10.
        assert_eq!(
            ad.inner().received.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(ad.done());
        // Steps 0..2 each emitted one broadcast.
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].1.vstep, 1);
    }

    #[test]
    fn skew_adapter_buffers_by_vstep() {
        let c = Counter { received: vec![], out_value: 0, decided: None };
        let mut ad = SkewAdapter::new(c, 0, COUNTER_VSTEPS);
        // Deliver two step-0 messages and one step-2 message up front
        // (as if from peers one round ahead).
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: 0, msg: Arc::new(Num(1)) });
        ad.deliver(ProcessId(2), SkewEnvelope { vstep: 0, msg: Arc::new(Num(2)) });
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: 2, msg: Arc::new(Num(3)) });
        let mut out = Vec::new();
        for r in 0..8 {
            ad.tick(r, &mut out);
        }
        let steps = &ad.inner().received;
        assert_eq!(steps[0], (0, 0));
        assert_eq!(steps[1], (1, 2), "step 1 consumes the two step-0 messages");
        assert_eq!(steps[2], (2, 0));
        assert_eq!(steps[3], (3, 1), "step 3 consumes the step-2 message");
        assert_eq!(ad.inner().output(), Some(1));
    }

    #[test]
    fn skew_adapter_discards_stale_vsteps() {
        let c = Counter { received: vec![], out_value: 0, decided: None };
        let mut ad = SkewAdapter::new(c, 0, COUNTER_VSTEPS);
        let mut out = Vec::new();
        for r in 0..6 {
            ad.tick(r, &mut out);
        }
        // next_vstep is now 3; a vstep-0 message is stale Byzantine noise.
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: 0, msg: Arc::new(Num(9)) });
        assert!(ad.buffer.is_empty());
        // vstep-2 is exactly the window edge and still accepted.
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: 2, msg: Arc::new(Num(9)) });
        assert_eq!(ad.buffer.len(), 1);
    }

    #[test]
    fn skew_adapter_rejects_far_future_vsteps() {
        let c = Counter { received: vec![], out_value: 0, decided: None };
        let mut ad = SkewAdapter::new(c, 0, COUNTER_VSTEPS);
        // A Byzantine peer floods envelopes tagged far past the schedule:
        // none may be buffered.
        for v in (4..100u64).chain([u64::MAX - 1, u64::MAX]) {
            ad.deliver(ProcessId(1), SkewEnvelope { vstep: v, msg: Arc::new(Num(v)) });
        }
        assert!(ad.buffer.is_empty(), "far-future vsteps must be rejected");
        // Also once the window has moved: `vstep + 1` must not overflow.
        ad.tick(0, &mut Vec::new());
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: u64::MAX, msg: Arc::new(Num(0)) });
        assert!(ad.buffer.is_empty(), "u64::MAX is past the schedule too");
        // In-schedule envelopes still work end to end.
        ad.deliver(ProcessId(1), SkewEnvelope { vstep: 2, msg: Arc::new(Num(1)) });
        let mut out = Vec::new();
        for r in 0..8 {
            ad.tick(r, &mut out);
        }
        assert_eq!(ad.inner().output(), Some(1), "step 3 consumed the step-2 message");
    }

    type Host = FallbackHost<u64, &'static str, EchoFallbackFactory>;

    /// One scripted call on a [`Host`] whose own input is [`OWN`].
    enum Op {
        /// `adopt(value, "proof")`.
        Adopt(u64),
        /// `schedule(step)`, with the expected answer.
        Schedule(u64, bool),
        /// `deliver` an echo of `value` tagged `vstep` from `p1`.
        Deliver { vstep: u64, value: u64 },
        /// `tick(step, decided)`.
        Tick(u64, Option<u64>),
        /// Ticks every step of the range, undecided.
        Run(std::ops::Range<u64>),
        /// Asserts how many envelopes the host currently holds.
        Held(usize),
    }
    use Op::*;

    const OWN: u64 = 1;

    fn held(host: &Host) -> usize {
        match &host.stage {
            Handoff::Scheduled { pending, .. } => pending.len(),
            Handoff::Running(adapter) => adapter.buffer.values().map(Vec::len).sum(),
            Handoff::Unscheduled | Handoff::Finished => 0,
        }
    }

    /// `(step, value)` observations, in order.
    type Seen = Vec<(u64, u64)>;

    /// Runs `script`; returns the host with what it broadcast and what it
    /// returned.
    fn drive(name: &str, script: &[Op]) -> (Host, Seen, Seen) {
        let mut host = Host::new(ProcessId(0), EchoFallbackFactory, OWN);
        let (mut sent, mut returned) = (Vec::new(), Vec::new());
        let mut tick = |host: &mut Host, step: u64, decided: Option<u64>| {
            let mut out = Vec::new();
            let output = host.tick(step, decided.as_ref(), |env| env, &mut out);
            sent.extend(out.into_iter().map(|(_, env)| (step, env.msg.0)));
            returned.extend(output.map(|v| (step, v)));
        };
        for op in script {
            match op {
                Adopt(value) => host.adopt(*value, "proof"),
                Schedule(step, first) => assert_eq!(host.schedule(*step), *first, "{name}"),
                Deliver { vstep, value } => host.deliver(
                    ProcessId(1),
                    &SkewEnvelope { vstep: *vstep, msg: Arc::new(EchoMsg(*value)) },
                ),
                Tick(step, decided) => tick(&mut host, *step, *decided),
                Run(steps) => steps.clone().for_each(|step| tick(&mut host, step, None)),
                Held(count) => assert_eq!(held(&host), *count, "{name}"),
            }
        }
        (host, sent, returned)
    }

    /// The echo fallback broadcasts its input at vstep 0 (host step
    /// `start`) and decides at vstep 1 (`start + 2`) on the most frequent
    /// echo it received, or on its input when it received none — so what
    /// is sent shows the input the host chose and what is returned shows
    /// which envelopes reached the instance.
    #[test]
    fn fallback_host_lifecycle() {
        type Case = (&'static str, Vec<Op>, Seen, Seen);
        let cases: Vec<Case> = vec![
            ("never scheduled: nothing runs", vec![Adopt(9), Run(0..12)], vec![], vec![]),
            (
                "own input when nothing was adopted; output surfaces exactly once",
                vec![Schedule(3, true), Run(0..20)],
                vec![(5, OWN)],
                vec![(7, OWN)],
            ),
            (
                "adoption before the start feeds the fallback",
                vec![Schedule(3, true), Adopt(9), Run(4..12)],
                vec![(5, 9)],
                vec![(7, 9)],
            ),
            (
                "adoption after the start is ignored",
                vec![Schedule(3, true), Run(4..6), Adopt(9), Run(6..12)],
                vec![(5, OWN)],
                vec![(7, OWN)],
            ),
            (
                "a second schedule keeps the first start",
                vec![Schedule(3, true), Schedule(4, false), Run(4..12)],
                vec![(5, OWN)],
                vec![(7, OWN)],
            ),
            (
                "the decided value overrides the adopted one at the start",
                vec![Adopt(9), Schedule(3, true), Tick(4, Some(2)), Tick(5, Some(2)), Run(6..12)],
                vec![(5, 2)],
                vec![(7, 2)],
            ),
            (
                "envelopes buffered before the start are delivered at the start",
                vec![
                    Schedule(3, true),
                    Deliver { vstep: 0, value: 4 },
                    Held(1),
                    Run(4..6),
                    Held(1),
                    Run(6..12),
                ],
                vec![(5, OWN)],
                vec![(7, 4)],
            ),
            (
                "envelopes with no schedule are dropped",
                vec![Deliver { vstep: 0, value: 4 }, Held(0), Schedule(3, true), Run(4..12)],
                vec![(5, OWN)],
                vec![(7, OWN)],
            ),
            (
                "envelopes reach the running instance directly",
                vec![Schedule(3, true), Run(4..6), Deliver { vstep: 0, value: 4 }, Run(6..12)],
                vec![(5, OWN)],
                vec![(7, 4)],
            ),
            (
                "far-future vsteps are rejected by the bounded adapter",
                vec![
                    Schedule(3, true),
                    Deliver { vstep: 50, value: 4 },
                    Held(1),
                    Run(4..6),
                    Held(0),
                    Deliver { vstep: 3, value: 4 },
                    Held(0),
                    Run(6..12),
                ],
                vec![(5, OWN)],
                vec![(7, OWN)],
            ),
        ];
        for (name, script, sent, returned) in cases {
            let (host, got_sent, got_returned) = drive(name, &script);
            assert_eq!(got_sent, sent, "{name}: broadcasts");
            assert_eq!(got_returned, returned, "{name}: outputs");
            assert_eq!(host.ran(), !sent.is_empty(), "{name}: ran");
        }
    }

    #[test]
    fn fallback_host_accepts_until_the_deadline_or_the_start() {
        // (script, step, deadline, accepts)
        let cases: [(&[Op], u64, u64, bool); 5] = [
            (&[], 6, 6, true),
            (&[], 7, 6, false),
            (&[Schedule(3, true), Run(4..5)], 5, 6, true),
            (&[Schedule(3, true), Run(4..6)], 6, 6, false),
            (&[Schedule(3, true), Run(4..8)], 6, 6, false),
        ];
        for (script, step, deadline, accepts) in cases {
            let (host, ..) = drive("accepts", script);
            assert_eq!(host.accepts(step, deadline), accepts, "step {step}, deadline {deadline}");
        }
    }

    #[test]
    fn fallback_host_is_quiescent_only_after_the_deadline_with_nothing_pending() {
        // (script, step, deadline, quiescent, hint after `step`)
        type Case = (&'static [Op], u64, u64, bool, Option<u64>);
        let cases: [Case; 6] = [
            (&[], 6, 6, false, None),
            (&[], 7, 6, true, None),
            (&[Schedule(6, true)], 7, 6, false, Some(8)),
            (&[Schedule(6, true), Run(7..9)], 9, 6, false, Some(10)),
            (&[Schedule(6, true), Run(7..11)], 11, 6, true, None),
            // A start that was slept through (crash-recovery gap) never
            // runs, and does not hold a decided process open.
            (&[Schedule(3, true)], 9, 6, true, Some(10)),
        ];
        for (script, step, deadline, quiescent, hint) in cases {
            let (host, ..) = drive("quiescent", script);
            assert_eq!(host.quiescent(step, deadline), quiescent, "step {step}");
            assert_eq!(host.next_wakeup(step), hint, "step {step}");
        }
    }

    #[test]
    fn fallback_host_attaches_own_decision_else_the_adopted_one() {
        let (mut host, ..) = drive("payload", &[]);
        assert_eq!(host.own_payload(None), None, "nothing decided, nothing adopted");
        assert_eq!(host.own_payload(Some((&7, &"mine"))), Some((7, "mine")));
        host.adopt(9, "theirs");
        assert_eq!(host.own_payload(None), Some((9, "theirs")));
        assert_eq!(host.own_payload(Some((&7, &"mine"))), Some((7, "mine")), "own decision wins");
    }

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    crate::wire_schema! {
        /// A message that counts its clones.
        #[derive(Debug)]
        struct Counted(u64 as Meta): Message in "protocol";
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.set(CLONES.get() + 1);
            Counted(self.0)
        }
    }

    /// Broadcasts at steps 0..3; decides at step 3 on how many messages
    /// it was lent.
    struct Tally(u64, Option<u64>);
    impl SubProtocol for Tally {
        type Msg = Counted;
        type Output = u64;
        fn on_step(
            &mut self,
            step: u64,
            inbox: &[(ProcessId, &Counted)],
            out: &mut Vec<(Dest, Counted)>,
        ) {
            self.0 += inbox.len() as u64;
            if step < 3 {
                out.push((Dest::All, Counted(step)));
            } else {
                self.1 = Some(self.0);
            }
        }
        fn output(&self) -> Option<u64> {
            self.1
        }
        fn done(&self) -> bool {
            self.1.is_some()
        }
    }

    #[derive(Clone)]
    struct TallyFactory;
    impl FallbackFactory<u64> for TallyFactory {
        type Protocol = Tally;
        fn create(&self, _me: ProcessId, _input: u64) -> Tally {
            Tally(0, None)
        }
        fn max_steps(&self) -> u64 {
            3
        }
    }

    #[test]
    fn the_lockstep_adapter_lends_every_delivery() {
        use meba_engine::{run_des_cluster, DesConfig};
        use meba_sim::AnyActor;
        let n = 4;
        let actors: Vec<Box<dyn AnyActor<Msg = Counted>>> = (0..n)
            .map(|i| Box::new(LockstepAdapter::new(ProcessId(i), Tally(0, None))) as _)
            .collect();
        let start = CLONES.get();
        let config = DesConfig { max_rounds: 10, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed);
        for (i, a) in run.actors.iter().enumerate() {
            let a: &LockstepAdapter<Tally> = a.as_any().downcast_ref().unwrap();
            assert_eq!(a.inner().output(), Some(3 * u64::from(n)), "p{i} read every broadcast");
        }
        assert_eq!(CLONES.get() - start, 0, "no delivery is copied on its way to the protocol");
    }

    #[test]
    fn the_fallback_buffer_holds_each_delivery_by_handle() {
        let mut host: FallbackHost<u64, (), TallyFactory> =
            FallbackHost::new(ProcessId(0), TallyFactory, 1);
        let start = CLONES.get();
        let mut out = Vec::new();
        let mut tick = |host: &mut FallbackHost<u64, (), TallyFactory>, steps| {
            for step in steps {
                if let Some(v) = host.tick(step, None, |env| env, &mut out) {
                    return Some(v);
                }
            }
            None
        };
        host.schedule(3);
        // Held while scheduled, then handed to the adapter at the start…
        host.deliver(ProcessId(1), &SkewEnvelope { vstep: 0, msg: Arc::new(Counted(7)) });
        assert_eq!(tick(&mut host, 4..7), None);
        // …and buffered by vstep once it runs.
        host.deliver(ProcessId(1), &SkewEnvelope { vstep: 1, msg: Arc::new(Counted(8)) });
        assert_eq!(tick(&mut host, 7..20), Some(2), "both deliveries reached the instance");
        assert_eq!(CLONES.get() - start, 0, "what outlives its round is the sender's handle");
    }

    #[test]
    fn a_fallback_run_copies_no_fallback_message() {
        use crate::validity::AlwaysValid;
        use crate::weak_ba::{WeakBa, WeakBaMsg};
        use meba_engine::{run_des_cluster, DesConfig};
        use meba_sim::{AnyActor, IdleActor};
        type Wba = WeakBa<u64, AlwaysValid, TallyFactory>;
        // f = t: p4..p6 are silent, so weak BA hands off to the fallback,
        // whose every message counts its clones.
        let (n, t) = (7, 3);
        let cfg = crate::SystemConfig::new(n, 7).unwrap();
        let (pki, keys) = meba_crypto::trusted_setup(n, 11);
        let actors: Vec<Box<dyn AnyActor<Msg = WeakBaMsg<u64, Counted>>>> = (keys.into_iter())
            .enumerate()
            .map(|(i, key)| {
                let id = ProcessId(i as u32);
                if i >= n - t {
                    return Box::new(IdleActor::new(id)) as _;
                }
                let wba = Wba::new(cfg, id, key, pki.clone(), AlwaysValid, TallyFactory, 5);
                Box::new(LockstepAdapter::new(id, wba)) as _
            })
            .collect();
        let corrupt = (n - t..n).map(|i| ProcessId(i as u32)).collect();
        let start = CLONES.get();
        let report = run_des_cluster(actors, None, DesConfig { corrupt, ..Default::default() })
            .expect("valid config");
        assert!(report.completed);
        for a in &report.actors[..n - t] {
            let wba = a.as_any().downcast_ref::<LockstepAdapter<Wba>>().unwrap().inner();
            assert!(wba.used_fallback(), "the fallback ran");
        }
        assert!(report.metrics.by_component.contains_key("protocol"), "and its messages moved");
        assert_eq!(CLONES.get() - start, 0, "no fallback message is copied end to end");
    }

    #[test]
    fn skewed_peers_stay_within_window() {
        // Two peers starting one round apart exchange all messages in time.
        let mk = |v| Counter { received: vec![], out_value: v, decided: None };
        let mut a = SkewAdapter::new(mk(10), 4, COUNTER_VSTEPS);
        let mut b = SkewAdapter::new(mk(20), 5, COUNTER_VSTEPS);
        for r in 0..16u64 {
            let mut out_a = Vec::new();
            let mut out_b = Vec::new();
            a.tick(r, &mut out_a);
            b.tick(r, &mut out_b);
            // Deliver next round (δ = 1): here we just deliver immediately
            // after both ticked, which is equivalent for cross-delivery.
            for (_, env) in out_a {
                b.deliver(ProcessId(0), env);
            }
            for (_, env) in out_b {
                a.deliver(ProcessId(1), env);
            }
        }
        // Each peer consumed exactly one message per step 1..3.
        assert_eq!(a.inner().output(), Some(1));
        assert_eq!(b.inner().output(), Some(1));
        let got_a: Vec<usize> = a.inner().received.iter().map(|(_, c)| *c).collect();
        assert_eq!(got_a, vec![0, 1, 1, 1]);
    }
}

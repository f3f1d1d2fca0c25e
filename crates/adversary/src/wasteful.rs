//! Cost-maximizing Byzantine leaders.
//!
//! Crashed leaders keep their phases *silent*, which costs nothing — so a
//! crash adversary never realizes the paper's `O(n(f+1))` upper bound.
//! These leaders do: each Byzantine phase leader initiates its phase
//! (a broadcast plus an all-to-leader reply wave, `Θ(n)` words of correct
//! traffic) and then withholds the certificate, so nobody decides and the
//! next leader must spend again. With leaders `p1..pf` corrupted this
//! yields the `(f + 1)·Θ(n)` staircase of Table 1 — the workload of the
//! E1/E2 benches.

use meba_core::bb::{BbBaValue, BbMsg, VET_ROUNDS};
use meba_core::weak_ba::{WeakBaMsg, PHASE_ROUNDS};
use meba_core::{SystemConfig, Value};
use meba_crypto::{ProcessId, WireCodec};
use meba_sim::{Actor, Message, RoundCtx};
use std::marker::PhantomData;

/// A weak BA leader that proposes a value in its phase and then goes
/// silent, wasting one `Θ(n)` reply wave without letting anyone decide.
pub struct WastefulWeakLeader<V, FM> {
    cfg: SystemConfig,
    me: ProcessId,
    phase: u32,
    value: V,
    _fm: PhantomData<fn() -> FM>,
}

impl<V: Value, FM: Message + WireCodec> WastefulWeakLeader<V, FM> {
    /// Creates the leader for the phase it owns.
    pub fn new(cfg: SystemConfig, me: ProcessId, phase: u32, value: V) -> Self {
        assert_eq!(cfg.leader_of_phase(phase), me, "must lead the phase");
        WastefulWeakLeader { cfg, me, phase, value, _fm: PhantomData }
    }
}

impl<V: Value, FM: Message + WireCodec> Actor for WastefulWeakLeader<V, FM> {
    type Msg = WeakBaMsg<V, FM>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let base = (self.phase as u64 - 1) * PHASE_ROUNDS;
        if ctx.round().as_u64() == base {
            ctx.broadcast(WeakBaMsg::Propose { phase: self.phase, value: self.value.clone() });
        }
        let _ = self.cfg;
    }

    fn done(&self) -> bool {
        true
    }
}

/// A BB participant that wastes its vetting phase (help request, then
/// drops the answers) *and* its embedded weak BA phase (a proposal built
/// from the sender's replayed signed value, then silence).
pub struct WastefulBbLeader<V, FM> {
    cfg: SystemConfig,
    me: ProcessId,
    phase: u32,
    captured: Option<BbBaValue<V>>,
    _fm: PhantomData<fn() -> FM>,
}

impl<V: Value, FM: Message + WireCodec> WastefulBbLeader<V, FM> {
    /// Creates the leader for the phase it owns (both the vetting phase
    /// and the weak BA phase rotate the same way).
    pub fn new(cfg: SystemConfig, me: ProcessId, phase: u32) -> Self {
        assert_eq!(cfg.leader_of_phase(phase), me, "must lead the phase");
        WastefulBbLeader { cfg, me, phase, captured: None, _fm: PhantomData }
    }
}

impl<V: Value, FM: Message + WireCodec> Actor for WastefulBbLeader<V, FM> {
    type Msg = BbMsg<V, FM>;

    fn id(&self) -> ProcessId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) {
        // Capture the sender's signed value for later replay.
        if self.captured.is_none() {
            for e in ctx.inbox() {
                if let BbMsg::SenderValue { value, sig } = &*e.msg {
                    self.captured =
                        Some(BbBaValue::Signed { value: value.clone(), sig: sig.clone() });
                    break;
                }
            }
        }
        let r = ctx.round().as_u64();
        let vet_base = 1 + (self.phase as u64 - 1) * VET_ROUNDS;
        if r == vet_base {
            ctx.broadcast(BbMsg::VetHelpReq { phase: self.phase });
        }
        let ba_start = 1 + self.cfg.n() as u64 * VET_ROUNDS;
        let ba_base = ba_start + (self.phase as u64 - 1) * PHASE_ROUNDS;
        if r == ba_base {
            if let Some(v) = &self.captured {
                ctx.broadcast(BbMsg::Ba(WeakBaMsg::Propose {
                    phase: self.phase,
                    value: v.clone(),
                }));
            }
        }
    }

    fn done(&self) -> bool {
        true
    }
}

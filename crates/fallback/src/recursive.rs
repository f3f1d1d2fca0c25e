//! The quadratic fallback strong BA: recursive halving over graded
//! agreements, in the shape of Momose–Ren's optimal-communication BA.
//!
//! `RecBA(P)` for a participant scope `P`:
//!
//! 1. If `|P| ≤ B` (base size): run interactive consistency
//!    ([`crate::ds::IcInstance`]) and return its decision.
//! 2. Otherwise split `P` into halves `L`, `R` and run
//!    `GA(P) → RecBA(L) → Cert(L) → GA(P) → RecBA(R) → Cert(R)`,
//!    where `Cert(C)` has each member of `C` broadcast a signed share of
//!    its recursive decision to all of `P`, and every member of `P` whose
//!    last grade is `< 2` adopts the value carried by `⌊|C|/2⌋ + 1`
//!    distinct shares.
//!
//! # Correctness sketch (induction over scopes with honest majority)
//!
//! *Strong unanimity*: unanimous honest inputs give grade 2 in every GA
//! (GA validity), so certificates are never adopted and the common value
//! survives to the output.
//!
//! *Agreement*: at most one half of an honest-majority scope can be
//! Byzantine-majority (pigeonhole, tested exhaustively in
//! `instance::tests`). Consider the good half `C`. By GA consistency,
//! when any honest process holds grade 2 on `v`, *all* honest hold `v`,
//! so `C`'s honest members enter `RecBA(C)` unanimously with `v`, decide
//! `v` (induction), and the unique certificate (a Byzantine minority in
//! `C` cannot reach `⌊|C|/2⌋ + 1` distinct shares) re-distributes `v` —
//! adopters and grade-2 keepers agree. When no honest grade 2 exists,
//! everyone adopts the unique certificate. If the *bad* half comes second
//! it cannot undo this: the GA before it turns the already-unanimous
//! honest value into grade 2 everywhere, and grade-2 holders ignore
//! certificates.
//!
//! *Termination* is structural: the schedule is a fixed function of `n`.
//!
//! # Complexity
//!
//! Each level runs two GAs and two certificate exchanges over `m`
//! processes — `O(m²)` words — and recurses on halves:
//! `T(m) = 2·T(m/2) + O(m²) = O(m²)`, the quadratic shape the paper needs
//! from `A_fallback` (§6). The measured constant is validated in
//! experiment E3.

use crate::ds::{ic_steps, IcInstance};
use crate::ga::{GaInstance, GA_STEPS};
use crate::instance::{InstanceId, Scope};
use crate::messages::{RecBaMsg, RecDecideSig};
use meba_core::signing::ShareCollector;
use meba_core::{FallbackFactory, SubProtocol, SystemConfig, Value};
use meba_crypto::{Digest, Pki, ProcessId, SecretKey, Signable};
use meba_sim::{Dest, Inbox, Recipients, Sink};
use std::collections::BTreeMap;

/// Scopes of at most this many members run the interactive-consistency
/// base case instead of recursing.
pub const BASE_SCOPE: usize = 4;

/// Sequence tag for certificate instances (distinct from the GA tags 0/1).
const CERT_SEQ: u8 = 250;

#[derive(Clone, Copy, Debug)]
enum SegKind {
    Ga(u8),
    Ic,
    Cert { child: Scope },
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    len: u64,
    scope: Scope,
    kind: SegKind,
}

fn build_plan(scope: Scope, start: u64, segs: &mut Vec<Segment>, base: usize) -> u64 {
    if scope.len() <= base {
        let len = ic_steps(&scope);
        segs.push(Segment { start, len, scope, kind: SegKind::Ic });
        return start + len;
    }
    let (l, r) = scope.split();
    let mut s = start;
    segs.push(Segment { start: s, len: GA_STEPS, scope, kind: SegKind::Ga(0) });
    s += GA_STEPS;
    s = build_plan(l, s, segs, base);
    segs.push(Segment { start: s, len: 2, scope, kind: SegKind::Cert { child: l } });
    s += 2;
    segs.push(Segment { start: s, len: GA_STEPS, scope, kind: SegKind::Ga(1) });
    s += GA_STEPS;
    s = build_plan(r, s, segs, base);
    segs.push(Segment { start: s, len: 2, scope, kind: SegKind::Cert { child: r } });
    s += 2;
    s
}

/// Total virtual steps the recursive BA needs for a system of `n`
/// processes (default base size).
pub fn recursive_ba_steps(n: usize) -> u64 {
    recursive_ba_steps_with_base(n, BASE_SCOPE)
}

/// Total virtual steps with an explicit base-case size (ablation E10).
pub fn recursive_ba_steps_with_base(n: usize, base: usize) -> u64 {
    let mut segs = Vec::new();
    build_plan(Scope::full(n), 0, &mut segs, base.max(1)) + 1
}

/// One participant of the recursive fallback BA.
pub struct RecursiveBa<V: Value> {
    cfg: SystemConfig,
    me: ProcessId,
    key: SecretKey,
    pki: Pki,
    input: V,
    plan: Vec<Segment>,
    end: u64,
    seg_idx: usize,
    /// Stack of `(scope, value, grade)` — one level per recursion depth
    /// this process is currently a member of.
    levels: Vec<(Scope, V, u8)>,
    active_ga: Option<GaInstance<V>>,
    active_ic: Option<IcInstance<V>>,
    cert_shares: BTreeMap<V, ShareCollector>,
    output: Option<V>,
}

impl<V: Value> RecursiveBa<V> {
    /// Creates a participant with initial value `input` and the default
    /// base-case size.
    pub fn new(cfg: SystemConfig, me: ProcessId, key: SecretKey, pki: Pki, input: V) -> Self {
        Self::with_base(cfg, me, key, pki, input, BASE_SCOPE)
    }

    /// Creates a participant with an explicit base-case size: scopes of
    /// at most `base` members run interactive consistency instead of
    /// recursing (the base-size ablation, experiment E10). Larger bases
    /// trade recursion overhead for the IC's `O(B³)`-ish base cost.
    pub fn with_base(
        cfg: SystemConfig,
        me: ProcessId,
        key: SecretKey,
        pki: Pki,
        input: V,
        base: usize,
    ) -> Self {
        let base = base.max(1);
        let mut plan = Vec::new();
        let end = build_plan(Scope::full(cfg.n()), 0, &mut plan, base);
        RecursiveBa {
            cfg,
            me,
            key,
            pki,
            plan,
            end,
            seg_idx: 0,
            levels: vec![(Scope::full(cfg.n()), input.clone(), 0)],
            input,
            active_ga: None,
            active_ic: None,
            cert_shares: BTreeMap::new(),
            output: None,
        }
    }

    /// The value this participant proposed.
    pub fn input(&self) -> &V {
        &self.input
    }

    fn cert_inst(child: Scope) -> InstanceId {
        InstanceId::new(child, CERT_SEQ)
    }

    fn top(&mut self) -> &mut (Scope, V, u8) {
        self.levels.last_mut().expect("root level always present")
    }

    /// Every member of `scope`, as one entry's recipients: `Dest::All`
    /// for the full system, the span of members otherwise — the same
    /// copies, in the same order, as one `Dest::To` per member, but one
    /// payload for the runtime to share among them.
    fn members(&self, scope: Scope) -> Recipients {
        if scope == Scope::full(self.cfg.n()) {
            Recipients::Dest(Dest::All)
        } else {
            Recipients::Span { lo: scope.lo, hi: scope.hi }
        }
    }

    fn enter_segment(&mut self, seg: Segment, out: &mut dyn Sink<RecBaMsg<V>>) {
        // Descend one recursion level when a child segment begins.
        if seg.scope.contains(self.me) {
            let (top_scope, top_value, _) = self.top().clone();
            if seg.scope != top_scope && seg.scope.len() < top_scope.len() {
                self.levels.push((seg.scope, top_value, 0));
            }
        }
        match seg.kind {
            SegKind::Ga(seq) => {
                if seg.scope.contains(self.me) {
                    let input = self.top().1.clone();
                    self.active_ga = Some(GaInstance::new(
                        InstanceId::new(seg.scope, seq),
                        self.cfg.session(),
                        self.me,
                        self.key.clone(),
                        self.pki.clone(),
                        input,
                    ));
                }
            }
            SegKind::Ic => {
                if seg.scope.contains(self.me) {
                    let input = self.top().1.clone();
                    self.active_ic = Some(IcInstance::new(
                        InstanceId::new(seg.scope, 0),
                        self.cfg.session(),
                        self.me,
                        self.key.clone(),
                        self.pki.clone(),
                        input,
                    ));
                }
            }
            SegKind::Cert { child } => {
                self.cert_shares.clear();
                if child.contains(self.me) {
                    // Pop the child level: its value is this member's
                    // recursive decision, to be attested.
                    let (popped_scope, decision, _) =
                        self.levels.pop().expect("child level present");
                    debug_assert_eq!(popped_scope, child, "stack discipline");
                    let payload = RecDecideSig {
                        session: self.cfg.session(),
                        inst: Self::cert_inst(child),
                        value: &decision,
                    };
                    let sig = self.key.sign(&payload.signing_bytes());
                    let share =
                        RecBaMsg::CertShare { inst: Self::cert_inst(child), value: decision, sig };
                    out.put(self.members(seg.scope), share);
                }
            }
        }
    }
}

impl<V: Value> SubProtocol for RecursiveBa<V> {
    type Msg = RecBaMsg<V>;
    type Output = V;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, RecBaMsg<V>>,
        out: &mut dyn Sink<RecBaMsg<V>>,
    ) {
        if self.output.is_some() {
            return;
        }
        if step >= self.end {
            debug_assert_eq!(self.levels.len(), 1, "all child levels popped");
            self.output = Some(self.levels[0].1.clone());
            return;
        }
        // Advance to the segment containing `step` (the plan is
        // contiguous, so entry happens exactly at each segment's start).
        while self.seg_idx < self.plan.len() {
            let seg = self.plan[self.seg_idx];
            if step < seg.start + seg.len {
                break;
            }
            self.seg_idx += 1;
        }
        let seg = self.plan[self.seg_idx];
        let k = step - seg.start;
        if k == 0 {
            self.enter_segment(seg, out);
        }
        let mut to_scope = ToScope { out, members: self.members(seg.scope) };

        match seg.kind {
            SegKind::Ga(_) => {
                if let Some(ga) = &mut self.active_ga {
                    ga.on_step(k, inbox, &mut to_scope);
                    if k == GA_STEPS - 1 {
                        if let Some((v, g)) = ga.result().cloned() {
                            let top = self.top();
                            debug_assert_eq!(top.0, seg.scope);
                            top.1 = v;
                            top.2 = g;
                        }
                        self.active_ga = None;
                    }
                }
            }
            SegKind::Ic => {
                if let Some(ic) = &mut self.active_ic {
                    ic.on_step(k, inbox, &mut to_scope);
                    if k == seg.len - 1 {
                        if let Some(v) = ic.decision().cloned() {
                            let top = self.top();
                            debug_assert_eq!(top.0, seg.scope);
                            top.1 = v;
                        }
                        self.active_ic = None;
                    }
                }
            }
            SegKind::Cert { child } => {
                // Only a member below grade 2 adopts a certified value, so
                // only it tallies: a grade-2 holder keeps its value whatever
                // the shares say.
                let adopts = self.levels.last().is_some_and(|(_, _, grade)| *grade < 2);
                if k == 1 && seg.scope.contains(self.me) && adopts {
                    let inst = Self::cert_inst(child);
                    let (session, maj, pki) = (self.cfg.session(), child.majority(), &self.pki);
                    // As in graded agreement, a child member's share counts
                    // for its signer whoever delivered it; each value's
                    // collector digests its payload once.
                    for (_, msg) in inbox {
                        if let RecBaMsg::CertShare { inst: i, value, sig } = msg {
                            if *i == inst && child.contains(sig.signer()) {
                                self.cert_shares
                                    .entry(value.clone())
                                    .or_insert_with(|| {
                                        let payload = RecDecideSig { session, inst, value };
                                        ShareCollector::new(pki, &payload, maj)
                                    })
                                    .defer(sig.signer(), sig);
                            }
                        }
                    }
                    // A value needs `maj` verified signers. Only when
                    // equivocating child members bring two values there do
                    // exact counts decide: more signers win, and a tie goes
                    // to the smaller value.
                    let mut reached: Vec<(&V, &mut ShareCollector)> = (self.cert_shares.iter_mut())
                        .filter_map(|(v, shares)| shares.reached().then_some((v, shares)))
                        .collect();
                    let winner = if reached.len() < 2 {
                        reached.pop().map(|(v, _)| v.clone())
                    } else {
                        (reached.into_iter())
                            .map(|(v, shares)| (shares.admitted(), v))
                            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(a.1)))
                            .map(|(_, v)| v.clone())
                    };
                    if let Some(v) = winner {
                        let top = self.top();
                        debug_assert_eq!(top.0, seg.scope);
                        top.1 = v;
                    }
                }
            }
        }
    }

    fn output(&self) -> Option<V> {
        self.output.clone()
    }

    fn done(&self) -> bool {
        self.output.is_some()
    }

    /// Read off the static plan: every step of each segment whose scope
    /// contains this process, then `end`, where the output is taken. A
    /// segment of another scope only moves the cursor through the plan:
    /// its instance, its shares and its level belong to its members.
    /// Once the output is taken, only a message could make it act, and
    /// none does.
    fn next_wakeup(&self, after: u64) -> u64 {
        if self.output.is_some() {
            return u64::MAX;
        }
        let next = after + 1;
        self.plan[self.seg_idx..]
            .iter()
            .find(|seg| seg.scope.contains(self.me) && seg.start + seg.len > next)
            .map_or(self.end, |seg| seg.start.max(next))
    }
}

/// The sink a scope's instance (graded agreement, interactive
/// consistency) sends into: each of its broadcasts reaches every member
/// of the scope, as one entry; it refuses any other destination.
struct ToScope<'o, V> {
    out: &'o mut dyn Sink<RecBaMsg<V>>,
    members: Recipients,
}

impl<V: Value> Sink<RecBaMsg<V>> for ToScope<'_, V> {
    fn put(&mut self, to: Recipients, msg: RecBaMsg<V>) {
        assert_eq!(to, Recipients::Dest(Dest::All), "a scope's instance only broadcasts");
        self.out.put(self.members, msg);
    }

    fn signed(&mut self, context: &dyn Fn() -> Vec<u8>, digest: Digest) {
        self.out.signed(context, digest);
    }
}

impl<V: Value> std::fmt::Debug for RecursiveBa<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursiveBa")
            .field("me", &self.me)
            .field("levels", &self.levels.len())
            .field("output", &self.output)
            .finish_non_exhaustive()
    }
}

/// Factory wiring [`RecursiveBa`] into the adaptive protocols as their
/// `A_fallback`.
#[derive(Clone)]
pub struct RecursiveBaFactory {
    cfg: SystemConfig,
    key: SecretKey,
    pki: Pki,
}

impl RecursiveBaFactory {
    /// Creates the factory for one process (holding its signing key).
    pub fn new(cfg: SystemConfig, key: SecretKey, pki: Pki) -> Self {
        RecursiveBaFactory { cfg, key, pki }
    }
}

impl std::fmt::Debug for RecursiveBaFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursiveBaFactory").finish_non_exhaustive()
    }
}

impl<V: Value> FallbackFactory<V> for RecursiveBaFactory {
    type Protocol = RecursiveBa<V>;

    fn create(&self, me: ProcessId, input: V) -> RecursiveBa<V> {
        debug_assert_eq!(self.key.id(), me, "factory key must belong to the running process");
        RecursiveBa::new(self.cfg, me, self.key.clone(), self.pki.clone(), input)
    }

    fn max_steps(&self) -> u64 {
        recursive_ba_steps(self.cfg.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_core::LockstepAdapter;
    use meba_crypto::trusted_setup;
    use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    use meba_sim::{AnyActor, IdleActor, Outbox};

    type Msg = RecBaMsg<u64>;

    fn lockstep(inputs: &[u64], crashed: &[u32], max_rounds: u64) -> ClusterReport<Msg> {
        let n = inputs.len();
        let cfg = SystemConfig::new(n, 1).unwrap();
        let (pki, keys) = trusted_setup(n, 3);
        let mut actors: Vec<Box<dyn AnyActor<Msg = Msg>>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            if crashed.contains(&(i as u32)) {
                actors.push(Box::new(IdleActor::new(id)));
            } else {
                let rb = RecursiveBa::new(cfg, id, key, pki.clone(), inputs[i]);
                actors.push(Box::new(LockstepAdapter::new(id, rb)));
            }
        }
        let corrupt = crashed.iter().map(|&c| ProcessId(c)).collect();
        let config = DesConfig { max_rounds, corrupt, ..DesConfig::default() };
        let run = run_des_cluster(actors, None, config).unwrap();
        assert!(run.completed, "not done within {max_rounds} rounds");
        run
    }

    fn outputs(run: &ClusterReport<Msg>, crashed: &[u32]) -> Vec<u64> {
        (0..run.actors.len() as u32)
            .filter(|i| !crashed.contains(i))
            .map(|i| {
                let a: &LockstepAdapter<RecursiveBa<u64>> =
                    run.actors[i as usize].as_any().downcast_ref().unwrap();
                a.inner().output().expect("decided")
            })
            .collect()
    }

    #[test]
    fn plan_is_contiguous_and_quadratic() {
        for n in [5usize, 9, 17, 33, 65] {
            let mut segs = Vec::new();
            let end = build_plan(Scope::full(n), 0, &mut segs, BASE_SCOPE);
            let mut cursor = 0;
            for seg in &segs {
                assert_eq!(seg.start, cursor, "plan must be gap-free");
                cursor += seg.len;
            }
            assert_eq!(cursor, end);
            // Rounds are linear-ish in n (2 T(m/2) + c recursion).
            assert!(end <= 30 * n as u64);
        }
    }

    #[test]
    fn every_scope_step_is_one_entry_per_message() {
        let n = 9;
        let cfg = SystemConfig::new(n, 1).unwrap();
        let (pki, mut keys) = trusted_setup(n, 3);
        let mut rb = RecursiveBa::new(cfg, ProcessId(0), keys.remove(0), pki, 7u64);
        let mut out = Outbox::new();
        rb.on_step(0, std::iter::empty(), &mut out);
        // GA(0) over all 9 processes: one entry for the one `GaInput`.
        let all = Recipients::Dest(Dest::All);
        assert!(matches!(&out[..], [(to, RecBaMsg::GaInput { .. })] if *to == all), "{out:?}");
        for step in 1..=GA_STEPS {
            out = Outbox::new();
            rb.on_step(step, std::iter::empty(), &mut out);
        }
        // Step `GA_STEPS` opens GA(0) over the left half, p0..p4: one
        // entry for its `GaInput` too, naming the half.
        let half = Recipients::Span { lo: 0, hi: 5 };
        assert!(matches!(&out[..], [(to, RecBaMsg::GaInput { .. })] if *to == half), "{out:?}");
        // And so at every step of the plan: whatever p0 sends, each
        // message is one entry for the whole scope of its segment.
        for step in GA_STEPS + 1..rb.end {
            out = Outbox::new();
            rb.on_step(step, std::iter::empty(), &mut out);
            let seg = rb.plan[rb.seg_idx];
            let scope = match seg.scope {
                scope if scope == Scope::full(n) => all,
                Scope { lo, hi } => Recipients::Span { lo, hi },
            };
            assert!(out.iter().all(|(to, _)| *to == scope), "step {step}: {out:?}");
        }
    }

    /// p0's tally of the plan's last certificate exchange — `Cert(R)` over
    /// the whole system, `R = p5..p8`, majority 3 — fed one inbox of
    /// `(signer, value, genuine)` shares; a share that is not genuine
    /// carries its signer's tag on another payload. Every other step runs
    /// on an empty inbox, so p0 reaches the exchange holding its input 0
    /// at grade 0 and adopts whatever the tally selects.
    fn cert_tally(shares: &[(u32, u64, bool)]) -> u64 {
        let n = 9;
        let cfg = SystemConfig::new(n, 1).unwrap();
        let (pki, keys) = trusted_setup(n, 3);
        let mut rb = RecursiveBa::new(cfg, ProcessId(0), keys[0].clone(), pki, 0u64);
        let last = *rb.plan.last().unwrap();
        let SegKind::Cert { child } = last.kind else { panic!("the plan ends in a Cert") };
        assert_eq!((last.scope, child.majority()), (Scope::full(n), 3));
        let inst = RecursiveBa::<u64>::cert_inst(child);
        let inbox: Vec<(ProcessId, Msg)> = shares
            .iter()
            .map(|&(signer, value, genuine)| {
                let payload = RecDecideSig { session: cfg.session(), inst, value: &value };
                let signed = if genuine { payload.signing_bytes() } else { b"other".to_vec() };
                let sig = keys[signer as usize].sign(&signed);
                (ProcessId(signer), RecBaMsg::CertShare { inst, value, sig })
            })
            .collect();
        let mut out = Outbox::new();
        for step in 0..=rb.end {
            let lent = if step == last.start + 1 { &inbox[..] } else { &[] };
            rb.on_step(step, lent.iter().map(|(p, m)| (*p, m)), &mut out);
        }
        rb.output().expect("decided at the end of the plan")
    }

    #[test]
    fn a_certificate_counts_verified_child_shares_and_a_tie_goes_to_the_smaller_value() {
        // Three genuine child shares are a majority: adopted.
        assert_eq!(cert_tally(&[(5, 7, true), (6, 7, true), (7, 7, true)]), 7);
        // A forged tag, a signer outside the child scope and a repeated
        // signer each leave two shares: no certificate, the input stays.
        assert_eq!(cert_tally(&[(5, 7, true), (6, 7, true), (7, 7, false)]), 0);
        assert_eq!(cert_tally(&[(5, 7, true), (6, 7, true), (1, 7, true)]), 0);
        assert_eq!(cert_tally(&[(5, 7, true), (6, 7, true), (6, 7, true)]), 0);
        // Equivocating child members back two values: more signers win,
        // and a tie goes to the smaller value, whichever arrived first.
        let nine = [(5, 9, true), (6, 9, true), (7, 9, true)];
        let four = [(5, 4, true), (6, 4, true), (7, 4, true)];
        assert_eq!(cert_tally(&[&four[..], &nine, &[(8, 9, true)]].concat()), 9);
        assert_eq!(cert_tally(&[nine, four].concat()), 4);
        assert_eq!(cert_tally(&[four, nine].concat()), 4);
    }

    #[test]
    fn a_tally_verifies_a_majority_unless_two_values_reach_it() {
        let verifies = |shares: &[(u32, u64, bool)]| {
            let before = meba_crypto::pki::verify_calls().0;
            (cert_tally(shares), meba_crypto::pki::verify_calls().0 - before)
        };
        // What p0 verifies outside the tally (its own base-case traffic).
        let (_, own) = verifies(&[]);
        let tally = |shares: &[(u32, u64, bool)]| {
            let (value, count) = verifies(shares);
            (value, count - own)
        };
        // Four genuine shares on one value: three fix its certificate.
        assert_eq!(tally(&[(5, 7, true), (6, 7, true), (7, 7, true), (8, 7, true)]), (7, 3));
        // Two values reach the majority of three: only exact counts pick
        // between them, so all seven shares are verified, and the value
        // with more signers wins as it did when every share was.
        let nine = [(5, 9, true), (6, 9, true), (7, 9, true), (8, 9, true)];
        let four = [(5, 4, true), (6, 4, true), (7, 4, true)];
        assert_eq!(tally(&[&four[..], &nine].concat()), (9, 7));
        assert_eq!(tally(&[&nine[..3], &four].concat()), (4, 6));
    }

    /// The `next_wakeup` contract over the fallback itself, at n = 9 and
    /// 17: unanimous and split inputs, each with everyone running and
    /// with `p1..pt` silent. A process sleeps through every segment of a
    /// scope it is not in; the floors are the skips measured when the
    /// hint was introduced (the same for both inputs: the plan, not the
    /// traffic, decides them).
    #[test]
    fn hint_skips_only_silent_steps() {
        // (n, silent members, skipped process-steps at least)
        for (n, silent, floor) in [(9usize, 0, 126), (9, 4, 92), (17, 0, 702), (17, 8, 392)] {
            for split in [false, true] {
                let build = || {
                    let cfg = SystemConfig::new(n, 1).unwrap();
                    let (pki, keys) = trusted_setup(n, 3);
                    (keys.into_iter().enumerate())
                        .map(|(i, key)| {
                            let input = if split { i as u64 % 3 } else { 7 };
                            let id = ProcessId(i as u32);
                            let rb = || RecursiveBa::new(cfg, id, key, pki.clone(), input);
                            (!(1..=silent).contains(&i)).then(rb)
                        })
                        .collect::<Vec<_>>()
                };
                let steps = recursive_ba_steps(n);
                let skipped = meba_core::subprotocol::hint_contract::check(build, steps);
                assert!(
                    skipped >= floor,
                    "n = {n}, {silent} silent, split {split}: {skipped} of {} skipped",
                    (n - silent) as u64 * steps
                );
            }
        }
    }

    #[test]
    fn unanimous_small_system() {
        let run = lockstep(&[5, 5, 5], &[], 100);
        assert!(outputs(&run, &[]).iter().all(|&v| v == 5));
    }

    #[test]
    fn unanimous_recursive_system() {
        // n = 9 recurses: 9 -> (5, 4) -> ((3, 2), 4).
        let run = lockstep(&[7; 9], &[], 400);
        assert!(outputs(&run, &[]).iter().all(|&v| v == 7), "strong unanimity");
    }

    #[test]
    fn mixed_inputs_agree() {
        let run = lockstep(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[], 400);
        let outs = outputs(&run, &[]);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement: {outs:?}");
    }

    #[test]
    fn unanimity_survives_max_crashes() {
        // n = 9, t = 4 crashes — the regime the adaptive protocols
        // delegate to this fallback.
        let crashed = [0u32, 2, 5, 7];
        let run = lockstep(&[3; 9], &crashed, 400);
        assert!(outputs(&run, &crashed).iter().all(|&v| v == 3), "strong unanimity");
    }

    #[test]
    fn agreement_survives_max_crashes_mixed_inputs() {
        let crashed = [1u32, 3, 6, 8];
        let run = lockstep(&[2, 9, 2, 9, 2, 9, 2, 9, 2], &crashed, 400);
        let outs = outputs(&run, &crashed);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement: {outs:?}");
    }

    #[test]
    fn words_scale_quadratically() {
        let mut words = Vec::new();
        for n in [9usize, 17, 33] {
            let run = lockstep(&vec![1u64; n], &[], 2000);
            words.push((n, run.metrics.correct_words()));
        }
        // Quadratic shape: words(2n)/words(n) should be around 4 and well
        // below the cubic ratio 8.
        for w in words.windows(2) {
            let ratio = w[1].1 as f64 / w[0].1 as f64;
            assert!(ratio > 2.0 && ratio < 7.0, "ratio {ratio} for {:?}", w);
        }
    }
}

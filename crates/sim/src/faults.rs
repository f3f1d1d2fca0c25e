//! Link-fault injection policies.
//!
//! A [`LinkPolicy`] decides, per directed link and per round, whether a
//! message is delivered on time, dropped, delayed by `k` rounds, or lost
//! together with the connection that carried it — the beyond-model
//! network hazards (message loss, late delivery past `δ`, reordering
//! across round boundaries, transient partitions, torn connections).
//! [`LinkFate`] and [`LinkPolicy`] are the workspace's only fault
//! vocabulary; every backend interprets them directly, so one seeded
//! plan runs unchanged on all of them. The discrete-event backend (the
//! lockstep simulation is its lockstep configuration), the threaded
//! cluster and the TCP cluster all take a factory invoked once per
//! sender (`meba-engine`'s `LinkPolicyFactory`), so each sender owns a
//! policy instance for its outbound links, and the same seed yields the
//! same fate for the same `(link, round, nth message)` triple. A run on
//! the discrete-event backend is a pure function of the seed, so lossy-
//! link tests reproduce exactly. The words a policy drops are billed
//! where they were sent: a faulty link is one more faulty process, not a
//! cheaper run.
//!
//! [`LinkFate::Sever`] tears a connection down only where there is one:
//! over TCP the socket is closed and the link re-dials and re-handshakes
//! before carrying further traffic; the channel mesh and the
//! discrete-event queue have no connections and treat it as
//! [`LinkFate::Drop`].
//!
//! Determinism: stock policies never consult ambient randomness. Every
//! decision is a pure function of `(seed, from, to, round, seq)` where
//! `seq` is the per-link message sequence number, so two runs in which a
//! process sends the same messages over a link see the same fates.
//!
//! # Examples
//!
//! ```
//! use meba_crypto::ProcessId;
//! use meba_sim::faults::{BernoulliDrop, Link, LinkFate, LinkPolicy};
//!
//! let mut p = BernoulliDrop::new(7, 0.5);
//! let link = Link { from: ProcessId(0), to: ProcessId(1) };
//! let a = p.fate(link, 0);
//! // Same policy state rebuilt from the same seed: identical decision.
//! let mut q = BernoulliDrop::new(7, 0.5);
//! assert_eq!(a, q.fate(link, 0));
//! ```

use meba_crypto::ProcessId;
use std::collections::BTreeMap;
use std::fmt;

/// A directed link `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Link {
    /// Sending endpoint.
    pub from: ProcessId,
    /// Receiving endpoint.
    pub to: ProcessId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// A link keys a JSON map by its [`fmt::Display`] text, `"p0->p1"`.
impl serde::MapKey for Link {
    fn to_key(&self) -> String {
        self.to_string()
    }

    fn from_key(key: &str) -> Result<Self, serde::Error> {
        let id = |s: &str| s.strip_prefix('p')?.parse().ok().map(ProcessId);
        key.split_once("->")
            .and_then(|(from, to)| Some(Link { from: id(from)?, to: id(to)? }))
            .ok_or_else(|| serde::Error::msg(format!("bad link key {key:?}")))
    }
}

/// The fate of one message on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered within `δ` (the next round).
    Deliver,
    /// Lost.
    Drop,
    /// Delivered `k` rounds later than `δ` allows: a message sent in round
    /// `r` reaches its recipient's inbox in round `r + 1 + k`. Because
    /// later traffic overtakes it, a positive delay also *reorders*
    /// deliveries relative to send order. A delay that would overflow the
    /// round counter saturates: the message is never released, and is
    /// still billed as delayed.
    DelayRounds(u64),
    /// Lost, and the connection that carried it is torn down: the TCP
    /// runtime closes the socket, so the link must re-dial and
    /// re-handshake before it carries further traffic. A backend without
    /// connections (channels, discrete-event and its lockstep
    /// configuration) treats it as [`LinkFate::Drop`].
    Sever,
}

/// A per-link fault schedule.
///
/// `fate` is consulted once per point-to-point message (a broadcast asks
/// once per recipient); self-links are never consulted — a process's own
/// memory cannot fail. Implementations may keep state (sequence counters,
/// partition timers), which is why the receiver is `&mut self`.
///
/// Closures implement the trait, so one-off policies need no struct:
///
/// ```
/// use meba_sim::faults::{Link, LinkFate, LinkPolicy};
/// use meba_crypto::ProcessId;
///
/// let mut mute_p2 = |l: Link, _round: u64| {
///     if l.from == ProcessId(2) { LinkFate::Drop } else { LinkFate::Deliver }
/// };
/// let l = Link { from: ProcessId(2), to: ProcessId(0) };
/// assert_eq!(mute_p2.fate(l, 9), LinkFate::Drop);
/// ```
pub trait LinkPolicy: Send {
    /// Decides the fate of the next message on `link` sent in `round`.
    fn fate(&mut self, link: Link, round: u64) -> LinkFate;
}

impl<F> LinkPolicy for F
where
    F: FnMut(Link, u64) -> LinkFate + Send,
{
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        self(link, round)
    }
}

/// SplitMix64 finalizer: maps equal inputs to equal, well-mixed outputs.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic per-link randomness: a pure function of
/// `(seed, link, round, seq)` with one sequence counter per link.
#[derive(Clone, Debug, Default)]
struct LinkRng {
    seq: BTreeMap<(u32, u32), u64>,
}

impl LinkRng {
    /// Draws a uniform `u64` for the next message on `link` in `round`.
    fn draw(&mut self, seed: u64, link: Link, round: u64) -> u64 {
        let seq = self.seq.entry((link.from.0, link.to.0)).or_insert(0);
        let n = *seq;
        *seq += 1;
        splitmix(
            seed ^ splitmix(u64::from(link.from.0))
                ^ splitmix(u64::from(link.to.0)).rotate_left(17)
                ^ splitmix(round).rotate_left(34)
                ^ splitmix(n).rotate_left(51),
        )
    }

    /// Maps a draw to `[0, 1)` with 53 bits of precision.
    fn fraction(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The identity policy: every message delivered within `δ`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableLinks;

impl LinkPolicy for ReliableLinks {
    fn fate(&mut self, _link: Link, _round: u64) -> LinkFate {
        LinkFate::Deliver
    }
}

/// Drops each message independently with probability `p`, seeded.
///
/// # Examples
///
/// ```
/// use meba_sim::faults::{BernoulliDrop, Link, LinkFate, LinkPolicy};
/// use meba_crypto::ProcessId;
///
/// let mut p = BernoulliDrop::new(1, 1.0); // always drop
/// let l = Link { from: ProcessId(0), to: ProcessId(1) };
/// assert_eq!(p.fate(l, 0), LinkFate::Drop);
/// ```
#[derive(Clone, Debug)]
pub struct BernoulliDrop {
    seed: u64,
    prob: f64,
    rng: LinkRng,
}

impl BernoulliDrop {
    /// Creates a drop policy with per-message drop probability
    /// `prob ∈ [0, 1]`.
    pub fn new(seed: u64, prob: f64) -> Self {
        BernoulliDrop { seed, prob: prob.clamp(0.0, 1.0), rng: LinkRng::default() }
    }
}

impl LinkPolicy for BernoulliDrop {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        let x = self.rng.draw(self.seed, link, round);
        if LinkRng::fraction(x) < self.prob {
            LinkFate::Drop
        } else {
            LinkFate::Deliver
        }
    }
}

/// Delays each message independently with probability `prob`, by a
/// uniform `1..=max_delay` rounds — which also reorders deliveries, since
/// undelayed later messages overtake delayed earlier ones.
#[derive(Clone, Debug)]
pub struct RandomDelay {
    seed: u64,
    prob: f64,
    max_delay: u64,
    rng: LinkRng,
}

impl RandomDelay {
    /// Creates a delay policy; `max_delay ≥ 1` is the largest delay in
    /// rounds.
    pub fn new(seed: u64, prob: f64, max_delay: u64) -> Self {
        RandomDelay {
            seed,
            prob: prob.clamp(0.0, 1.0),
            max_delay: max_delay.max(1),
            rng: LinkRng::default(),
        }
    }
}

impl LinkPolicy for RandomDelay {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        let x = self.rng.draw(self.seed, link, round);
        if LinkRng::fraction(x) < self.prob {
            // Reuse high bits so the delay draw is independent of the
            // coin flip's low-order threshold comparison.
            LinkFate::DelayRounds(1 + splitmix(x) % self.max_delay)
        } else {
            LinkFate::Deliver
        }
    }
}

/// A transient partition: for rounds in `[from_round, from_round + duration)`
/// every message crossing between `left` and its complement is dropped;
/// links inside either side are untouched. The partition heals by itself —
/// a one-shot fault — unless the end saturates past the round counter, in
/// which case it never heals.
///
/// # Examples
///
/// ```
/// use meba_sim::faults::{Link, LinkFate, LinkPolicy, OneShotPartition};
/// use meba_crypto::ProcessId;
///
/// let mut p = OneShotPartition::new(5, 3, vec![ProcessId(0), ProcessId(1)]);
/// let cross = Link { from: ProcessId(0), to: ProcessId(2) };
/// let inside = Link { from: ProcessId(0), to: ProcessId(1) };
/// assert_eq!(p.fate(cross, 6), LinkFate::Drop);
/// assert_eq!(p.fate(inside, 6), LinkFate::Deliver);
/// assert_eq!(p.fate(cross, 8), LinkFate::Deliver); // healed
/// ```
#[derive(Clone, Debug)]
pub struct OneShotPartition {
    from_round: u64,
    duration: u64,
    left: Vec<ProcessId>,
}

impl OneShotPartition {
    /// Creates a partition separating `left` from everyone else for
    /// `duration` rounds starting at `from_round`.
    pub fn new(from_round: u64, duration: u64, left: Vec<ProcessId>) -> Self {
        OneShotPartition { from_round, duration, left }
    }

    fn is_left(&self, p: ProcessId) -> bool {
        self.left.contains(&p)
    }
}

impl LinkPolicy for OneShotPartition {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        let active =
            round >= self.from_round && round < self.from_round.saturating_add(self.duration);
        if active && self.is_left(link.from) != self.is_left(link.to) {
            LinkFate::Drop
        } else {
            LinkFate::Deliver
        }
    }
}

/// Severs one directed link for every message sent on it in one round
/// and delivers everything else; compose it with other policies through
/// [`PolicyStack`]. Deterministic by construction.
///
/// # Examples
///
/// ```
/// use meba_sim::faults::{Link, LinkFate, LinkPolicy, SeverAt};
/// use meba_crypto::ProcessId;
///
/// let link = Link { from: ProcessId(3), to: ProcessId(0) };
/// let mut p = SeverAt::new(link, 2);
/// assert_eq!(p.fate(link, 1), LinkFate::Deliver);
/// assert_eq!(p.fate(link, 2), LinkFate::Sever);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeverAt {
    link: Link,
    round: u64,
}

impl SeverAt {
    /// Severs `link` for messages sent in `round`.
    pub fn new(link: Link, round: u64) -> Self {
        SeverAt { link, round }
    }
}

impl LinkPolicy for SeverAt {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        if link == self.link && round == self.round {
            LinkFate::Sever
        } else {
            LinkFate::Deliver
        }
    }
}

/// Composes policies: sever dominates drop dominates delay. The message
/// is severed if **any** layer severs it, else dropped if any layer drops
/// it, and otherwise delayed by the (saturating) **sum** of the layers'
/// delays. Every layer is consulted for every message, so a stateful
/// layer's sequence does not depend on what the layers before it said.
#[derive(Default)]
pub struct PolicyStack {
    layers: Vec<Box<dyn LinkPolicy>>,
}

impl fmt::Debug for PolicyStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyStack").field("layers", &self.layers.len()).finish()
    }
}

impl PolicyStack {
    /// An empty stack (equivalent to [`ReliableLinks`]).
    pub fn new() -> Self {
        PolicyStack::default()
    }

    /// Adds a layer; applied in insertion order.
    pub fn with(mut self, layer: Box<dyn LinkPolicy>) -> Self {
        self.layers.push(layer);
        self
    }
}

impl LinkPolicy for PolicyStack {
    fn fate(&mut self, link: Link, round: u64) -> LinkFate {
        let (mut delay, mut dropped, mut severed) = (0u64, false, false);
        for layer in &mut self.layers {
            match layer.fate(link, round) {
                LinkFate::Deliver => {}
                LinkFate::Drop => dropped = true,
                LinkFate::DelayRounds(k) => delay = delay.saturating_add(k),
                LinkFate::Sever => severed = true,
            }
        }
        match (severed, dropped, delay) {
            (true, _, _) => LinkFate::Sever,
            (_, true, _) => LinkFate::Drop,
            (_, _, 0) => LinkFate::Deliver,
            (_, _, k) => LinkFate::DelayRounds(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: u32, b: u32) -> Link {
        Link { from: ProcessId(a), to: ProcessId(b) }
    }

    #[test]
    fn reliable_always_delivers() {
        let mut p = ReliableLinks;
        for r in 0..10 {
            assert_eq!(p.fate(link(0, 1), r), LinkFate::Deliver);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut never = BernoulliDrop::new(3, 0.0);
        let mut always = BernoulliDrop::new(3, 1.0);
        for r in 0..20 {
            assert_eq!(never.fate(link(0, 1), r), LinkFate::Deliver);
            assert_eq!(always.fate(link(0, 1), r), LinkFate::Drop);
        }
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let fates = |seed| {
            let mut p = BernoulliDrop::new(seed, 0.5);
            (0..100).map(|r| p.fate(link(r % 3, (r + 1) % 3), u64::from(r))).collect::<Vec<_>>()
        };
        assert_eq!(fates(42), fates(42));
        assert_ne!(fates(42), fates(43), "different seeds should disagree somewhere");
    }

    #[test]
    fn bernoulli_rate_is_roughly_right() {
        let mut p = BernoulliDrop::new(9, 0.3);
        let drops = (0..10_000).filter(|&r| p.fate(link(0, 1), r) == LinkFate::Drop).count();
        assert!((2_500..3_500).contains(&drops), "got {drops} drops at p=0.3");
    }

    #[test]
    fn per_link_sequences_are_independent() {
        // Two messages on the same (link, round) get distinct draws; the
        // same message index on different links is decided independently.
        let mut p = BernoulliDrop::new(7, 0.5);
        let mut q = BernoulliDrop::new(7, 0.5);
        let a1 = p.fate(link(0, 1), 0);
        let _ = p.fate(link(0, 2), 0); // interleaved other-link traffic
        let a2 = p.fate(link(0, 1), 0);
        let b1 = q.fate(link(0, 1), 0);
        let b2 = q.fate(link(0, 1), 0);
        assert_eq!((a1, a2), (b1, b2), "per-link seq makes interleaving irrelevant");
    }

    #[test]
    fn random_delay_bounds() {
        let mut p = RandomDelay::new(5, 1.0, 3);
        for r in 0..200 {
            match p.fate(link(0, 1), r) {
                LinkFate::DelayRounds(k) => assert!((1..=3).contains(&k)),
                other => panic!("prob=1.0 must always delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_respects_membership_and_window() {
        let mut p = OneShotPartition::new(2, 4, vec![ProcessId(0)]);
        assert_eq!(p.fate(link(0, 1), 1), LinkFate::Deliver); // before
        assert_eq!(p.fate(link(0, 1), 2), LinkFate::Drop); // crossing
        assert_eq!(p.fate(link(1, 0), 5), LinkFate::Drop); // both directions
        assert_eq!(p.fate(link(1, 2), 3), LinkFate::Deliver); // same side
        assert_eq!(p.fate(link(0, 1), 6), LinkFate::Deliver); // healed
    }

    #[test]
    fn a_partition_that_never_heals_does_not_overflow() {
        let mut p = OneShotPartition::new(5, u64::MAX, vec![ProcessId(0)]);
        assert_eq!(p.fate(link(0, 1), 4), LinkFate::Deliver); // not yet
        assert_eq!(p.fate(link(0, 1), 6), LinkFate::Drop);
        assert_eq!(p.fate(link(0, 1), u64::MAX - 1), LinkFate::Drop, "never heals");
    }

    #[test]
    fn stack_drops_dominate_and_delays_add() {
        let mut p = PolicyStack::new()
            .with(Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(1)))
            .with(Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(2)));
        assert_eq!(p.fate(link(0, 1), 0), LinkFate::DelayRounds(3));

        let mut q = PolicyStack::new()
            .with(Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(1)))
            .with(Box::new(BernoulliDrop::new(0, 1.0)));
        assert_eq!(q.fate(link(0, 1), 0), LinkFate::Drop);

        let mut empty = PolicyStack::new();
        assert_eq!(empty.fate(link(0, 1), 0), LinkFate::Deliver);
    }

    #[test]
    fn stack_sever_dominates_drop_dominates_delay() {
        let sever = || Box::new(SeverAt::new(link(0, 1), 4));
        let drop_all = || Box::new(BernoulliDrop::new(0, 1.0));
        let delay = |k: u64| Box::new(move |_l: Link, _r: u64| LinkFate::DelayRounds(k));

        // Whatever the order, the strongest fate wins.
        let mut first = PolicyStack::new().with(sever()).with(drop_all()).with(delay(2));
        let mut last = PolicyStack::new().with(delay(2)).with(drop_all()).with(sever());
        for p in [&mut first, &mut last] {
            assert_eq!(p.fate(link(0, 1), 4), LinkFate::Sever);
            assert_eq!(p.fate(link(0, 1), 5), LinkFate::Drop, "sever is one round only");
            assert_eq!(p.fate(link(0, 2), 4), LinkFate::Drop, "and one link only");
        }
    }

    #[test]
    fn stack_consults_every_layer_for_every_message() {
        // A drop in an earlier layer must not starve a later stateful
        // layer of its per-link sequence: the jitter layer behind a
        // one-round partition sees the same draws as one running alone.
        let mut stacked = PolicyStack::new()
            .with(Box::new(OneShotPartition::new(0, 1, vec![ProcessId(0)])))
            .with(Box::new(RandomDelay::new(5, 1.0, 3)));
        let mut alone = RandomDelay::new(5, 1.0, 3);
        assert_eq!(stacked.fate(link(0, 1), 0), LinkFate::Drop);
        let _ = alone.fate(link(0, 1), 0);
        assert_eq!(stacked.fate(link(0, 1), 1), alone.fate(link(0, 1), 1));
    }

    #[test]
    fn stack_delay_sum_saturates() {
        let mut p = PolicyStack::new()
            .with(Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(u64::MAX)))
            .with(Box::new(|_l: Link, _r: u64| LinkFate::DelayRounds(2)));
        assert_eq!(p.fate(link(0, 1), 0), LinkFate::DelayRounds(u64::MAX));
    }

    #[test]
    fn sever_at_fires_once_per_link_round() {
        let (target, other) = (link(0, 2), link(0, 1));
        let mut p = SeverAt::new(target, 5);
        assert_eq!(p.fate(target, 4), LinkFate::Deliver);
        assert_eq!(p.fate(target, 5), LinkFate::Sever);
        assert_eq!(p.fate(other, 5), LinkFate::Deliver);
        assert_eq!(p.fate(target, 6), LinkFate::Deliver);
    }

    #[test]
    fn closure_policies_work() {
        let mut p = |l: Link, r: u64| {
            if l.to == ProcessId(9) && r > 3 {
                LinkFate::Drop
            } else {
                LinkFate::Deliver
            }
        };
        assert_eq!(LinkPolicy::fate(&mut p, link(0, 9), 2), LinkFate::Deliver);
        assert_eq!(LinkPolicy::fate(&mut p, link(0, 9), 4), LinkFate::Drop);
    }

    #[test]
    fn link_display() {
        assert_eq!(link(3, 7).to_string(), "p3->p7");
    }
}

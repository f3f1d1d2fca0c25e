//! Socket-level fault injection.
//!
//! The TCP runtime intercepts every outbound frame at the sender's edge
//! — the last point before bytes hit the socket — and asks a
//! [`SocketPolicy`] for its fate. The first three fates mirror
//! [`meba_sim::faults::LinkFate`] exactly, so every policy written for
//! the lockstep simulator or the threaded cluster drives the TCP runtime
//! unchanged through [`adapt_link_policy`]. The fourth, [`SocketFate::Sever`],
//! is TCP-specific: it tears down the underlying connection (the frame is
//! lost and the writer must re-dial and re-handshake), exercising the
//! reconnect path that channel-based runtimes cannot model.

use meba_crypto::ProcessId;
use meba_sim::faults::{Link, LinkFate, LinkPolicy};
use std::sync::Arc;

/// The fate of one frame at the socket edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFate {
    /// Written to the socket now.
    Forward,
    /// Silently discarded (message loss).
    Drop,
    /// Held back `k` rounds past the synchrony bound, then written with
    /// its original send round (late delivery + reordering).
    DelayRounds(u64),
    /// Discarded *and* the connection is torn down; the link re-dials and
    /// re-handshakes before carrying further traffic.
    Sever,
}

impl From<LinkFate> for SocketFate {
    fn from(f: LinkFate) -> Self {
        match f {
            LinkFate::Deliver => SocketFate::Forward,
            LinkFate::Drop => SocketFate::Drop,
            LinkFate::DelayRounds(k) => SocketFate::DelayRounds(k),
        }
    }
}

/// A per-frame fault schedule for one sender's outbound sockets.
///
/// Same contract as [`LinkPolicy`]: consulted once per point-to-point
/// frame, never for self-delivery, `&mut self` so policies may keep
/// state. Closures implement it.
pub trait SocketPolicy: Send {
    /// Decides the fate of the next frame on `link` sent in `round`.
    fn fate(&mut self, link: Link, round: u64) -> SocketFate;
}

impl<F> SocketPolicy for F
where
    F: FnMut(Link, u64) -> SocketFate + Send,
{
    fn fate(&mut self, link: Link, round: u64) -> SocketFate {
        self(link, round)
    }
}

/// Per-sender factory for [`SocketPolicy`] instances, mirroring
/// [`meba_engine::LinkPolicyFactory`].
pub type SocketPolicyFactory = Arc<dyn Fn(ProcessId) -> Box<dyn SocketPolicy> + Send + Sync>;

/// Wraps a [`LinkPolicy`] as a [`SocketPolicy`], mapping each
/// [`LinkFate`] to the equivalent [`SocketFate`]. This is how
/// [`crate::run_tcp_cluster`] reuses `ClusterConfig::link_policy`
/// unchanged.
pub struct LinkPolicyAdapter(pub Box<dyn LinkPolicy>);

impl SocketPolicy for LinkPolicyAdapter {
    fn fate(&mut self, link: Link, round: u64) -> SocketFate {
        self.0.fate(link, round).into()
    }
}

/// Convenience: adapt a whole [`meba_engine::LinkPolicyFactory`] into a
/// [`SocketPolicyFactory`].
pub fn adapt_link_policy(factory: meba_engine::LinkPolicyFactory) -> SocketPolicyFactory {
    Arc::new(move |me| Box::new(LinkPolicyAdapter(factory(me))) as Box<dyn SocketPolicy>)
}

/// Adapts a [`SocketPolicy`] to the round engine's
/// [`SendPolicy`](meba_engine::SendPolicy), mapping each [`SocketFate`]
/// to the equivalent [`meba_engine::SendFate`]. This is how the TCP
/// runtime drives [`meba_engine::run_threaded_cluster`] with socket-edge
/// fault injection — including the TCP-only [`SocketFate::Sever`], which
/// becomes [`meba_engine::SendFate::Sever`] and tears the connection
/// down through the transport.
pub struct SocketSendAdapter(pub Box<dyn SocketPolicy>);

impl meba_engine::SendPolicy for SocketSendAdapter {
    fn fate(&mut self, link: Link, round: u64) -> meba_engine::SendFate {
        match self.0.fate(link, round) {
            SocketFate::Forward => meba_engine::SendFate::Deliver,
            SocketFate::Drop => meba_engine::SendFate::Drop,
            SocketFate::DelayRounds(k) => meba_engine::SendFate::DelayRounds(k),
            SocketFate::Sever => meba_engine::SendFate::Sever,
        }
    }
}

/// Severs one directed link in one specific round, delegating every
/// other decision to an inner policy. Deterministic by construction.
pub struct SeverAt {
    link: Link,
    round: u64,
    inner: Box<dyn SocketPolicy>,
}

impl SeverAt {
    /// Severs `link` for frames sent in `round`; all other traffic is
    /// judged by `inner`.
    pub fn new(link: Link, round: u64, inner: Box<dyn SocketPolicy>) -> Self {
        SeverAt { link, round, inner }
    }

    /// Severs `link` in `round` and forwards everything else.
    pub fn otherwise_forward(link: Link, round: u64) -> Self {
        SeverAt::new(link, round, Box::new(|_: Link, _: u64| SocketFate::Forward))
    }
}

impl SocketPolicy for SeverAt {
    fn fate(&mut self, link: Link, round: u64) -> SocketFate {
        if link == self.link && round == self.round {
            SocketFate::Sever
        } else {
            self.inner.fate(link, round)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meba_sim::faults::BernoulliDrop;

    #[test]
    fn link_fates_map_one_to_one() {
        assert_eq!(SocketFate::from(LinkFate::Deliver), SocketFate::Forward);
        assert_eq!(SocketFate::from(LinkFate::Drop), SocketFate::Drop);
        assert_eq!(SocketFate::from(LinkFate::DelayRounds(3)), SocketFate::DelayRounds(3));
    }

    #[test]
    fn adapter_matches_underlying_policy() {
        let link = Link { from: ProcessId(0), to: ProcessId(1) };
        let mut raw = BernoulliDrop::new(11, 0.5);
        let mut adapted = LinkPolicyAdapter(Box::new(BernoulliDrop::new(11, 0.5)));
        for round in 0..64 {
            assert_eq!(adapted.fate(link, round), SocketFate::from(raw.fate(link, round)));
        }
    }

    #[test]
    fn sever_at_fires_once_per_link_round() {
        let link = Link { from: ProcessId(0), to: ProcessId(2) };
        let other = Link { from: ProcessId(0), to: ProcessId(1) };
        let mut p = SeverAt::otherwise_forward(link, 5);
        assert_eq!(p.fate(link, 4), SocketFate::Forward);
        assert_eq!(p.fate(link, 5), SocketFate::Sever);
        assert_eq!(p.fate(other, 5), SocketFate::Forward);
        assert_eq!(p.fate(link, 6), SocketFate::Forward);
    }
}

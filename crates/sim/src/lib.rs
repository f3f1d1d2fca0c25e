//! The synchronous round model every `meba` backend runs: actors,
//! messages, sessions, the link-fault vocabulary and the ledger.
//!
//! Models the paper's network (§2): a static set `Π` of `n` processes,
//! reliable authenticated point-to-point links, and a known delay bound
//! `δ`, normalized to one round. Protocols are [`Actor`] state machines
//! exchanging [`Message`]s; Byzantine behaviour is just another `Actor`
//! implementation (see `meba-adversary`). [`session`] tags and drives
//! sub-protocol instances (which ones run is their host's business),
//! [`faults`] names what a link does to a copy, and [`metrics`] is the
//! ledger a copy is billed to.
//!
//! This crate holds neither a clock nor a round body: `meba-engine`'s
//! `EngineProcess::step` runs a process's round on every backend, and
//! when a round runs is the backend's business.
//!
//! Communication complexity is accounted exactly as the paper defines it:
//! words sent by correct processes ([`Metrics::correct_words`]), with
//! per-component and per-round breakdowns and constituent-signature
//! counting for the Dolev–Reischuk experiments.
//!
//! # Examples
//!
//! One round of an actor, driven by hand — the core of what
//! `EngineProcess::step` does on every backend:
//!
//! ```
//! use meba_crypto::ProcessId;
//! use meba_sim::{Actor, Dest, Envelope, Message, Round, RoundCtx};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {
//!     fn words(&self) -> u64 { 1 }
//! }
//!
//! struct Node { id: ProcessId, heard: usize }
//! impl Actor for Node {
//!     type Msg = Hello;
//!     fn id(&self) -> ProcessId { self.id }
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Hello>) {
//!         if ctx.round() == Round(0) { ctx.broadcast(Hello); }
//!         self.heard += ctx.inbox().len();
//!     }
//!     fn done(&self) -> bool { self.heard >= 3 }
//! }
//!
//! let mut node = Node { id: ProcessId(0), heard: 0 };
//! let inbox = [Envelope { from: ProcessId(1), msg: Hello }];
//! let mut ctx = RoundCtx::new(Round(0), node.id, 3, &inbox);
//! node.on_round(&mut ctx);
//! let outbox = ctx.take_outbox();
//! assert_eq!(outbox.len(), 1);
//! assert_eq!(outbox[0].0, Dest::All);
//! assert_eq!(node.heard, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod faults;
pub mod metrics;
pub mod round;
pub mod session;

pub use actor::{Actor, AnyActor, Dest, Envelope, IdleActor, Message, RoundCtx};
pub use faults::{
    BernoulliDrop, Link, LinkFate, LinkPolicy, OneShotPartition, PolicyStack, RandomDelay,
    ReliableLinks, SeverAt,
};
pub use metrics::{
    ClientStats, Counters, LatencyHistogram, LinkStats, Metrics, RecoveryStats, ServiceStats,
    SessionStats,
};
pub use round::Round;
pub use session::{Instance, RecoveryEvent, SessionEnvelope, SessionId, SubProtocol};

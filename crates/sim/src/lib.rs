//! Deterministic lockstep synchronous network simulator.
//!
//! Models the paper's network (§2): a static set `Π` of `n` processes,
//! reliable authenticated point-to-point links, and a known delay bound
//! `δ`, normalized to one round. Protocols are [`Actor`] state machines;
//! Byzantine behaviour is just another `Actor` implementation (see
//! `meba-adversary`), scheduled with *rushing* delivery.
//!
//! [`body::run_live_round`] is the round body of every backend — this
//! crate's [`Simulation`] and `meba-engine`'s threaded, TCP and
//! discrete-event runtimes — so one execution model underlies them all.
//!
//! Communication complexity is accounted exactly as the paper defines it:
//! words sent by correct processes ([`Metrics::correct_words`]), with
//! per-component and per-round breakdowns and constituent-signature
//! counting for the Dolev–Reischuk experiments.
//!
//! # Examples
//!
//! ```
//! use meba_crypto::ProcessId;
//! use meba_sim::{Actor, AnyActor, Message, Round, RoundCtx, SimBuilder};
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
//! let actors: Vec<Box<dyn AnyActor<Msg = Hello>>> = (0..3)
//!     .map(|i| Box::new(Node { id: ProcessId(i), heard: 0 }) as _)
//!     .collect();
//! let mut sim = SimBuilder::new(actors).build();
//! sim.run_until_done(10)?;
//! assert_eq!(sim.metrics().correct_words(), 6); // 3 broadcasts × 2 remote copies
//! # Ok::<(), meba_sim::RunError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod body;
pub mod faults;
pub mod metrics;
pub mod round;
pub mod runner;
pub mod session;

pub use actor::{Actor, Dest, Envelope, IdleActor, Message, RoundCtx};
pub use faults::{
    BernoulliDrop, Link, LinkFate, LinkPolicy, OneShotPartition, PolicyStack, RandomDelay,
    ReliableLinks, SeverAt,
};
pub use metrics::{
    ClientStats, Counters, LatencyHistogram, LinkStats, Metrics, RecoveryStats, ServiceStats,
    SessionStats,
};
pub use round::Round;
pub use runner::{AnyActor, RunError, SimBuilder, Simulation};
pub use session::{
    Instance, Mux, MuxHost, RecoveryEvent, SessionEnvelope, SessionId, SessionSpawnError,
    SubProtocol,
};

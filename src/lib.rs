//! # meba — Make Every Word Count
//!
//! A production-quality Rust reproduction of *"Make Every Word Count:
//! Adaptive Byzantine Agreement with Fewer Words"* (Cohen, Keidar,
//! Spiegelman — PODC 2022): Byzantine Broadcast and weak Byzantine
//! Agreement with **adaptive** `O(n(f+1))` communication at optimal
//! resilience `n = 2t + 1`, plus a binary strong BA that is linear when
//! failure-free — together with every substrate they need (ideal
//! threshold signatures, a deterministic synchronous simulator, a
//! quadratic fallback BA, a Byzantine strategy library, and a threaded
//! real-time runtime).
//!
//! This crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `meba-core` | Algorithms 1–5: adaptive BB, adaptive weak BA, failure-free-linear strong BA |
//! | [`crypto`] | `meba-crypto` | SHA-256, HMAC, PKI, individual/threshold/aggregate signatures |
//! | [`sim`] | `meba-sim` | the synchronous round model: actors, the shared round body, link faults, word accounting |
//! | [`fallback`] | `meba-fallback` | recursive quadratic strong BA, Dolev–Strong baseline |
//! | [`journal`] | `meba-journal` | crash-recovery write-ahead journal with CRC framing |
//! | [`adversary`] | `meba-adversary` | Byzantine strategies |
//! | [`smr`] | `meba-smr` | replicated log over repeated BB instances |
//! | [`service`] | `meba-service` | client front door: sessions, batching, admission control, reads |
//! | [`testkit`] | `meba-testkit` | fault-matrix harness for adversarial testing |
//! | [`engine`] | `meba-engine` | backend-agnostic round engine: transports, pacers, fates, and the discrete-event backend every lockstep run goes through |
//! | [`wire`] | `meba-wire` | real TCP transport: canonical codec, handshake, byte accounting |
//!
//! # Quickstart
//!
//! Run adaptive Byzantine Broadcast among 7 simulated processes:
//!
//! ```
//! use meba::prelude::*;
//!
//! let n = 7;
//! let cfg = SystemConfig::new(n, 0)?;
//! let (pki, keys) = trusted_setup(n, 42);
//! let sender = ProcessId(0);
//!
//! let mut actors: Vec<Box<dyn AnyActor<Msg = _>>> = Vec::new();
//! for (i, key) in keys.into_iter().enumerate() {
//!     let id = ProcessId(i as u32);
//!     let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
//!     let bb = if id == sender {
//!         Bb::new_sender(cfg, id, key, pki.clone(), factory, 42u64)
//!     } else {
//!         Bb::new(cfg, id, key, pki.clone(), factory, sender)
//!     };
//!     actors.push(Box::new(LockstepAdapter::new(id, bb)));
//! }
//! let run = run_des_cluster(actors, None, DesConfig { max_rounds: 1_000, ..DesConfig::default() })?;
//! assert!(run.completed);
//!
//! // Every process decided the sender's value, in O(n) words (f = 0).
//! for actor in &run.actors {
//!     let actor: &LockstepAdapter<Bb<u64, RecursiveBaFactory>> =
//!         actor.as_any().downcast_ref().unwrap();
//!     assert_eq!(actor.inner().output(), Some(Decision::Value(42)));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use meba_adversary as adversary;
pub use meba_core as core;
pub use meba_crypto as crypto;
pub use meba_engine as engine;
pub use meba_fallback as fallback;
pub use meba_journal as journal;
pub use meba_service as service;
pub use meba_sim as sim;
pub use meba_smr as smr;
pub use meba_testkit as testkit;
pub use meba_wire as wire;

/// The most common imports for building and running the protocols.
pub mod prelude {
    pub use meba_core::{
        AlwaysValid, Bb, BbBaValue, BbMsg, BbValidity, Decision, EchoFallbackFactory,
        FallbackFactory, LockstepAdapter, StrongBa, StrongBaMsg, SubProtocol, SystemConfig,
        Validity, Value, WeakBa, WeakBaMsg,
    };
    pub use meba_crypto::{trusted_setup, Pki, ProcessId, SecretKey, WordCost};
    pub use meba_engine::{run_des_cluster, ClusterReport, DesConfig};
    pub use meba_fallback::{DolevStrongBb, RecursiveBa, RecursiveBaFactory};
    pub use meba_service::{
        Batch, BatchPolicy, Op, ServiceClient, ServiceConfig, ServiceGateway, ServicePort,
        ServiceReplica,
    };
    pub use meba_sim::{
        Actor, AnyActor, IdleActor, Message, Metrics, Round, SessionEnvelope, SessionId,
    };
    pub use meba_smr::{LogEntry, ReplicatedLog, SmrMsg};
}

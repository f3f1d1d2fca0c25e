//! The client front door for the `meba` replicated log.
//!
//! The protocol crates agree on *values*; this crate turns that into a
//! *service*: clients connect over TCP, submit keyed writes, and read
//! replicated state, while each replica amortizes the per-slot
//! O(n(f+1))-word agreement cost across whole batches of client
//! operations — the paper's economy of words, applied to a workload.
//!
//! Layers (DESIGN.md §15):
//!
//! * [`protocol`] — the canonical client wire protocol: versioned
//!   [`ClientHello`] handshake (mirroring the replica link handshake),
//!   [`ClientRequest`] / [`ServiceReply`] frames.
//! * [`batch`] — [`Op`]s, the [`Batch`] slot value, and the
//!   size/byte/age-bounded [`Batcher`].
//! * [`admission`] — the bounded [`ServicePort`] between clients and a
//!   replica; a full pipeline yields the typed
//!   [`SubmitError::Overloaded`], never a silent drop.
//! * [`replica`] — [`ServiceReplica`]: the [`meba_smr::ReplicatedLog`]
//!   plus batching, WAL discipline, apply-with-dedup, and reads, as one
//!   backend-agnostic [`meba_sim::Actor`].
//! * [`transfer`] — certified anti-entropy state transfer: a restarted
//!   replica fetches the committed prefix it missed and verifies every
//!   slot against its quorum commit certificate (or `t + 1` matching
//!   donors) before applying (DESIGN.md §16).
//! * [`gateway`] / [`client`] — the readiness-driven TCP gateway thread
//!   and the blocking [`ServiceClient`].
//!
//! # Examples
//!
//! ```
//! use meba_core::SystemConfig;
//! use meba_crypto::{trusted_setup, ProcessId};
//! use meba_fallback::RecursiveBaFactory;
//! use meba_service::{Op, ServiceConfig, ServicePort, ServiceReplica};
//! use meba_engine::{run_des_cluster, DesConfig};
//! use meba_sim::AnyActor;
//!
//! // A 3-replica service; client 7 submits one op to replica 0.
//! let n = 3;
//! let cfg = SystemConfig::new(n, 0x5e).unwrap();
//! let (pki, keys) = trusted_setup(n, 0xc11);
//! let service = ServiceConfig { total_slots: 3, ..ServiceConfig::default() };
//! let ports: Vec<_> = (0..n).map(|_| ServicePort::new(16)).collect();
//! let actors: Vec<Box<dyn AnyActor<Msg = _>>> = keys
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, key)| {
//!         let factory = RecursiveBaFactory::new(cfg, key.clone(), pki.clone());
//!         Box::new(ServiceReplica::new(
//!             cfg, ProcessId(i as u32), key, pki.clone(), factory,
//!             service, ports[i].clone(), None,
//!         )) as _
//!     })
//!     .collect();
//! ports[0].submit(Op { client: 7, seq: 0, key: 1, value: 42 }).unwrap();
//! let run = run_des_cluster(actors, None, DesConfig::default()).unwrap();
//! assert!(run.completed);
//! let r0: &ServiceReplica<RecursiveBaFactory> = run.actors[0].as_any().downcast_ref().unwrap();
//! assert_eq!(r0.kv().get(&1), Some(&42));
//! assert!(r0.committed_at(7, 0).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod batch;
pub mod client;
pub mod gateway;
pub mod protocol;
pub mod replica;
pub mod transfer;

pub use admission::{PortCounters, ReadRequest, ServicePort, SubmitError};
pub use batch::{Batch, BatchPolicy, Batcher, Op, OP_WORDS};
pub use client::ServiceClient;
pub use gateway::ServiceGateway;
pub use protocol::{
    service_config_digest, validate_client_hello, ClientHello, ClientRequest, HelloError, ReadMode,
    ServiceReply, SERVICE_VERSION,
};
pub use replica::{ReplicaMsg, ServiceConfig, ServiceFbMsg, ServiceMsg, ServiceReplica};
pub use transfer::{
    claimed_decision, verify_certified, TransferEntry, TransferMsg, DEFAULT_FETCH_BUDGET,
};

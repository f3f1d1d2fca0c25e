//! Real TCP transport for the `meba` protocols.
//!
//! The discrete-event backend and the threaded cluster (`meba-engine`)
//! move Rust values in memory; this crate puts the same
//! actor state machines on actual sockets, closing the loop between the
//! paper's word model and bytes on a wire:
//!
//! * [`frame`] — length-prefixed frames with a hard size cap;
//! * [`handshake`] — a versioned hello pinning protocol version,
//!   identity, configuration digest, and session domain per link;
//! * [`poller`] — a minimal `poll(2)` readiness layer plus a self-wake
//!   pipe, the only `unsafe` in the crate;
//! * [`reactor`] — per-link nonblocking state machines (dial →
//!   handshake → established → backoff) driven by one I/O thread;
//! * [`mesh`] — a full mesh of handshaked `std::net::TcpStream` links
//!   behind a single readiness-driven reactor thread per process (O(n)
//!   threads for an n-process host, not O(n²)), with bounded outboxes
//!   and capped-backoff reconnect;
//! * [`cluster`] — [`run_tcp_cluster`], mirroring
//!   [`meba_engine::run_cluster`]'s configuration and report so any
//!   scenario — its [`meba_sim::faults::LinkPolicy`] fault plan
//!   included — moves from channels to loopback TCP unchanged (a
//!   `LinkFate::Sever` closes the socket here and exercises reconnect);
//! * [`budget`] — the [`budget::BYTES_PER_WORD`] constant tying the
//!   canonical codec's byte costs back to the paper's word costs.
//!
//! Every message crosses the wire in its canonical
//! [`meba_crypto::WireCodec`] encoding — the same bytes the signatures
//! are computed over — so transport introduces no second, unsigned
//! serialization (see `docs/CORRECTNESS.md` §9).

#![warn(missing_docs)]
#![deny(unsafe_code)] // allowed only inside `poller::sys` (FFI to poll/rlimit)

pub mod budget;
pub mod cluster;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod mesh;
pub mod poller;
pub mod pool;
pub mod reactor;

pub use budget::BYTES_PER_WORD;
pub use cluster::{
    drive_mesh, run_tcp_cluster, run_tcp_cluster_with_recovery, MeshDriveConfig, MeshTransport,
    TcpClusterConfig, TcpClusterReport,
};
pub use error::WireError;
pub use frame::MAX_FRAME_BYTES;
pub use handshake::{config_digest, Hello, PROTOCOL_VERSION};
pub use mesh::{Inbound, MeshConfig, MeshSnapshot, MeshStats, TcpMesh};
pub use poller::raise_nofile_limit;
pub use pool::BufPool;
pub use reactor::{dial_jitter, reconnect_delay};

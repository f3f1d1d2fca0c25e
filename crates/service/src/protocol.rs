//! The client-facing wire protocol.
//!
//! Mirrors the replica-to-replica link discipline of
//! `meba_wire::handshake`: before any request flows, a client sends one
//! [`ClientHello`] frame pinning the protocol version and the digest of
//! the cluster configuration it believes it is talking to, and the
//! gateway validates it. Every frame is declared once in
//! [`wire_schema!`], which derives its canonical
//! [`WireCodec`](meba_crypto::WireCodec): one value, one byte
//! representation. None is hand-coded, and none is billed: client
//! traffic is outside the protocol's word count.

use crate::batch::Op;
use meba_core::{wire_schema, SystemConfig};
use meba_crypto::{Digest, ProcessId};

/// Client protocol version. Bumped on any change to the request/reply
/// codecs; there is no cross-version negotiation.
pub const SERVICE_VERSION: u32 = 1;

wire_schema! {
    /// How a read is served.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ReadMode: WireCodec {
        /// Leader-local fast read: answered from the replica's own applied
        /// state immediately. May trail the cluster by in-flight slots.
        0 => Fast,
        /// Quorum-confirmed read: held until every slot that had opened when
        /// the read arrived has committed and been applied, so the answer
        /// reflects a quorum-certified prefix covering all in-flight writes.
        1 => Confirmed,
    }
}

wire_schema! {
    /// The first (and only) handshake frame a client sends.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ClientHello: WireCodec {
        /// Sender's client protocol version ([`SERVICE_VERSION`]).
        pub version: u32 as Meta,
        /// The client's self-assigned identity; the gateway routes this
        /// client's [`ServiceReply::Committed`] acks by it.
        pub client: u64 as Meta,
        /// Digest of the cluster configuration the client expects
        /// ([`service_config_digest`]).
        pub config_digest: Digest,
    }
}

/// The configuration digest a client pins in its hello: the same
/// `(n, t, quorum, session)` digest replica links agree on.
pub fn service_config_digest(cfg: &SystemConfig) -> Digest {
    meba_wire::config_digest(cfg)
}

/// A rejected client handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelloError {
    /// Client built against a different client-protocol version.
    VersionMismatch {
        /// The gateway's version.
        ours: u32,
        /// The client's version.
        theirs: u32,
    },
    /// Client configured for a different cluster.
    ConfigMismatch,
}

impl std::fmt::Display for HelloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HelloError::VersionMismatch { ours, theirs } => {
                write!(f, "client protocol version mismatch: ours {ours}, theirs {theirs}")
            }
            HelloError::ConfigMismatch => write!(f, "client pinned a different cluster config"),
        }
    }
}

impl std::error::Error for HelloError {}

/// Validates a client hello against the serving cluster.
///
/// # Errors
///
/// Returns the typed mismatch; the gateway closes the connection on any.
pub fn validate_client_hello(expected: &Digest, hello: &ClientHello) -> Result<(), HelloError> {
    if hello.version != SERVICE_VERSION {
        return Err(HelloError::VersionMismatch { ours: SERVICE_VERSION, theirs: hello.version });
    }
    if hello.config_digest != *expected {
        return Err(HelloError::ConfigMismatch);
    }
    Ok(())
}

wire_schema! {
    /// A client request frame (post-handshake).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ClientRequest: WireCodec {
        /// Submit one operation for replication. `op.client`/`op.seq`
        /// identify it for dedup and for the eventual
        /// [`ServiceReply::Committed`] ack.
        0 => Submit {
            /// The operation.
            op: Op,
        },
        /// Read a key from the replicated state.
        1 => Read {
            /// Requesting client (routes the [`ServiceReply::ReadResult`]).
            client: u64 as Meta,
            /// Key to read.
            key: u64 as Meta,
            /// Consistency mode.
            mode: ReadMode,
        },
    }
}

wire_schema! {
    /// A reply frame from the service to a client.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ServiceReply: WireCodec {
        /// Handshake accepted.
        0 => HelloOk {
            /// The replica serving this connection.
            replica: ProcessId,
        },
        /// The submit was admitted into the batching pipeline. Not yet
        /// durable — wait for [`ServiceReply::Committed`].
        1 => Accepted {
            /// Echoed dedup key.
            client: u64 as Meta,
            /// Echoed dedup key.
            seq: u64 as Meta,
        },
        /// The submit was rejected: the replica's admission queue is full
        /// (pipeline window exhausted). The op was **not** enqueued; retry
        /// later. A full service never drops silently — it says so.
        2 => Overloaded {
            /// Echoed dedup key.
            client: u64 as Meta,
            /// Echoed dedup key.
            seq: u64 as Meta,
            /// Queue occupancy at rejection time.
            queue_len: u64 as Meta,
            /// The queue's capacity bound.
            capacity: u64 as Meta,
        },
        /// The op's batch committed in the replicated log and was applied.
        3 => Committed {
            /// Echoed dedup key.
            client: u64 as Meta,
            /// Echoed dedup key.
            seq: u64 as Meta,
            /// The log slot the op's batch occupies.
            slot: u64 as Meta,
            /// The op's index within the batch.
            batch_index: u32 as Meta,
        },
        /// Answer to a [`ClientRequest::Read`].
        4 => ReadResult {
            /// Requesting client.
            client: u64 as Meta,
            /// Key read.
            key: u64 as Meta,
            /// The value, or `None` if the key was never written.
            value: Option<u64> as Option<Meta>,
            /// Number of contiguously applied slots backing the answer.
            applied_slots: u64 as Meta,
            /// The mode the read was served under.
            mode: ReadMode,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_validation_pins_version_and_config() {
        let cfg = SystemConfig::new(5, 0x51).unwrap();
        let digest = service_config_digest(&cfg);
        let ok = ClientHello { version: SERVICE_VERSION, client: 1, config_digest: digest };
        assert_eq!(validate_client_hello(&digest, &ok), Ok(()));
        let bad_ver = ClientHello { version: SERVICE_VERSION + 1, ..ok };
        assert_eq!(
            validate_client_hello(&digest, &bad_ver),
            Err(HelloError::VersionMismatch { ours: SERVICE_VERSION, theirs: SERVICE_VERSION + 1 })
        );
        let other = SystemConfig::new(5, 0x52).unwrap();
        let bad_cfg = ClientHello { config_digest: service_config_digest(&other), ..ok };
        assert_eq!(validate_client_hello(&digest, &bad_cfg), Err(HelloError::ConfigMismatch));
    }
}

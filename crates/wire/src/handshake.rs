//! Versioned link handshake.
//!
//! Before any protocol traffic, each side of a TCP link sends one
//! [`Hello`] frame and validates the peer's. The hello pins down four
//! things a link must agree on before a single protocol word flows:
//!
//! | field | rejects |
//! |-------|---------|
//! | `version` | peers built against an incompatible wire format |
//! | `id` | impersonation of a different slot, out-of-range identities |
//! | `config_digest` | peers configured with different `(n, t, quorum, session)` |
//! | `domain` | traffic from a stale cluster run still bound to the same ports |
//!
//! The dialer (client) sends first; the acceptor (server) validates and
//! only then answers with its own hello, so a rejected client learns
//! nothing but a closed connection while the server counts the reject
//! ([`crate::MeshStats::handshake_rejects`]). Both sides run inside the
//! reactor's nonblocking link state machines ([`crate::reactor`]). **Version policy:** [`PROTOCOL_VERSION`] bumps on any
//! change to the frame layout, the hello fields, any message codec, or
//! the signature construction — there is no cross-version negotiation;
//! mismatched peers refuse to link. (Were it not bumped, a peer signing
//! under another construction would link, fail every share check and
//! cost a correct process its quorum.)

use crate::error::WireError;
use meba_core::SystemConfig;
use meba_crypto::{DecodeError, Decoder, Digest, Encoder, ProcessId, WireCodec};

/// Wire-format version. Bumped on any codec, framing or signature
/// change; 2 since individual signatures MAC the message digest.
pub const PROTOCOL_VERSION: u32 = 2;

/// The first (and only) handshake frame each side sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Sender's wire-format version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Sender's process identity.
    pub id: ProcessId,
    /// Digest of the sender's system configuration ([`config_digest`]).
    pub config_digest: Digest,
    /// Cluster-run domain tag: both sides of a link must come from the
    /// same run. [`crate::run_tcp_cluster`] derives it per invocation.
    pub domain: u64,
}

impl WireCodec for Hello {
    fn encode_wire(&self, enc: &mut Encoder) {
        enc.put_u32(self.version);
        enc.put_id(self.id);
        enc.put_digest(&self.config_digest);
        enc.put_u64(self.domain);
    }

    fn decode_wire(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Hello {
            version: dec.get_u32()?,
            id: dec.get_id()?,
            config_digest: dec.get_digest()?,
            domain: dec.get_u64()?,
        })
    }
}

/// Canonical digest of the configuration facts a link must agree on:
/// `n`, `t`, the quorum threshold, and the session id.
pub fn config_digest(cfg: &SystemConfig) -> Digest {
    let mut enc = Encoder::new();
    enc.put_u64(cfg.n() as u64);
    enc.put_u64(cfg.t() as u64);
    enc.put_u64(cfg.quorum() as u64);
    enc.put_u64(cfg.session());
    Digest::of(&enc.into_bytes())
}

/// Validates a received hello against ours. `expect_peer` pins the
/// identity when the caller dialed a specific slot; acceptors pass
/// `None` and only range-check. The reactor's nonblocking link state
/// machines (`crate::reactor`) are the one caller, on the dialing and the
/// accepting side alike.
pub(crate) fn validate(
    ours: &Hello,
    theirs: &Hello,
    expect_peer: Option<ProcessId>,
    n: usize,
) -> Result<(), WireError> {
    if theirs.version != ours.version {
        return Err(WireError::VersionMismatch { ours: ours.version, theirs: theirs.version });
    }
    if theirs.config_digest != ours.config_digest {
        return Err(WireError::ConfigMismatch {
            ours: ours.config_digest,
            theirs: theirs.config_digest,
        });
    }
    if theirs.domain != ours.domain {
        return Err(WireError::DomainMismatch { ours: ours.domain, theirs: theirs.domain });
    }
    if theirs.id.index() >= n || theirs.id == ours.id {
        return Err(WireError::IdentityInvalid { got: theirs.id, n });
    }
    if let Some(expected) = expect_peer {
        if theirs.id != expected {
            return Err(WireError::PeerMismatch { expected, got: theirs.id });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(id: u32, session: u64, domain: u64) -> (Hello, SystemConfig) {
        let cfg = SystemConfig::new(5, session).unwrap();
        let h = Hello {
            version: PROTOCOL_VERSION,
            id: ProcessId(id),
            config_digest: config_digest(&cfg),
            domain,
        };
        (h, cfg)
    }

    #[test]
    fn hello_round_trips() {
        let (h, _) = hello(3, 9, 0xd0);
        assert_eq!(Hello::from_wire_bytes(&h.to_wire_bytes()).unwrap(), h);
    }

    #[test]
    fn config_digest_separates_configurations() {
        let a = config_digest(&SystemConfig::new(5, 1).unwrap());
        let b = config_digest(&SystemConfig::new(7, 1).unwrap());
        let c = config_digest(&SystemConfig::new(5, 2).unwrap());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, config_digest(&SystemConfig::new(5, 1).unwrap()));
    }

    #[test]
    fn validate_rejects_each_field() {
        let (ours, _) = hello(0, 1, 7);
        let (peer, _) = hello(1, 1, 7);
        assert!(validate(&ours, &peer, Some(ProcessId(1)), 5).is_ok());

        for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let bad = Hello { version, ..peer };
            assert!(matches!(
                validate(&ours, &bad, None, 5),
                Err(WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs }) if theirs == version
            ));
        }
        // A version-1 peer MACs whole messages, so its shares would fail
        // every check: it is refused at the hello instead.
        let v1 = Hello { version: 1, ..peer };
        assert!(matches!(
            validate(&ours, &v1, None, 5),
            Err(WireError::VersionMismatch { ours: 2, theirs: 1 })
        ));

        let (bad_cfg, _) = hello(1, 99, 7);
        assert!(matches!(
            validate(&ours, &bad_cfg, None, 5),
            Err(WireError::ConfigMismatch { .. })
        ));

        let (bad_domain, _) = hello(1, 1, 8);
        assert!(matches!(
            validate(&ours, &bad_domain, None, 5),
            Err(WireError::DomainMismatch { ours: 7, theirs: 8 })
        ));

        let (out_of_range, _) = hello(5, 1, 7);
        assert!(matches!(
            validate(&ours, &out_of_range, None, 5),
            Err(WireError::IdentityInvalid { .. })
        ));

        let (self_id, _) = hello(0, 1, 7);
        assert!(matches!(
            validate(&ours, &self_id, None, 5),
            Err(WireError::IdentityInvalid { .. })
        ));

        assert!(matches!(
            validate(&ours, &peer, Some(ProcessId(2)), 5),
            Err(WireError::PeerMismatch { expected: ProcessId(2), got: ProcessId(1) })
        ));
    }
}

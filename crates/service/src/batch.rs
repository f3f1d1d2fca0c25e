//! Client operations and the batcher that amortizes them into slot
//! values.
//!
//! The paper prices agreement per *word*; the service front door makes
//! every word count by packing many small client operations into one
//! [`Batch`] per log slot, so the per-slot O(n(f+1)) agreement cost is
//! amortized across the whole batch. A [`Batcher`] closes a batch when it
//! reaches the size/byte policy or ages past the delay bound, whichever
//! comes first.

use meba_core::{wire_schema, Value};
use meba_crypto::{DecodeError, Decoder, Encoder, WireCodec};

/// Words one [`Op`] occupies on the wire (client, seq, key, value).
pub const OP_WORDS: u64 = 4;

wire_schema! {
    /// One client operation: a keyed 64-bit write, identified by the
    /// client-assigned `(client, seq)` pair the service dedups on.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Op: WireCodec {
        /// Submitting client's identity.
        pub client: u64 as Meta,
        /// Client-assigned sequence number; `(client, seq)` is the dedup key.
        pub seq: u64 as Meta,
        /// Key written.
        pub key: u64 as Meta,
        /// Value written.
        pub value: u64 as Meta,
    }
}

wire_schema! {
    /// A slot value: the ordered client operations one BB instance agrees
    /// on. The empty batch is the log's no-op.
    #[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Batch(pub Vec<Op>): WireCodec;
}

impl Batch {
    /// The empty batch — the value a proposer binds when it has nothing
    /// queued.
    pub fn noop() -> Self {
        Batch(Vec::new())
    }

    /// The batched operations, in submission order.
    pub fn ops(&self) -> &[Op] {
        &self.0
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the no-op batch.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// As a slot value, a batch is its schema encoding, and it costs
/// [`OP_WORDS`] per operation.
impl Value for Batch {
    fn encode_value(&self, enc: &mut Encoder) {
        self.encode_wire(enc);
    }

    fn decode_value(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Self::decode_wire(dec)
    }

    fn value_words(&self) -> u64 {
        (self.0.len() as u64 * OP_WORDS).max(1)
    }

    fn value_len(&self) -> u64 {
        self.wire_len()
    }
}

/// When an open batch closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Close once this many operations are batched.
    pub max_batch_ops: usize,
    /// Close once the batch's canonical encoding reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Close once the oldest batched op has waited this many rounds —
    /// the latency bound a lone op pays when traffic is light.
    pub max_batch_delay: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch_ops: 256, max_batch_bytes: 1 << 13, max_batch_delay: 4 }
    }
}

/// Accumulates admitted operations into the next slot value.
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    open: Vec<Op>,
    open_bytes: usize,
    opened_at: u64,
}

impl Batcher {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher { policy, open: Vec::new(), open_bytes: 0, opened_at: 0 }
    }

    /// The close policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Adds `op` at `round`; returns the closed batch when the push
    /// reaches the op-count or byte policy.
    pub fn push(&mut self, op: Op, round: u64) -> Option<Batch> {
        if self.open.is_empty() {
            self.opened_at = round;
        }
        self.open_bytes += op.wire_len() as usize;
        self.open.push(op);
        if self.open.len() >= self.policy.max_batch_ops
            || self.open_bytes >= self.policy.max_batch_bytes
        {
            self.close()
        } else {
            None
        }
    }

    /// Closes the open batch if its oldest op has aged past
    /// [`BatchPolicy::max_batch_delay`] rounds.
    pub fn tick(&mut self, round: u64) -> Option<Batch> {
        if !self.open.is_empty()
            && round.saturating_sub(self.opened_at) >= self.policy.max_batch_delay
        {
            self.close()
        } else {
            None
        }
    }

    /// Force-closes the open batch (shutdown path).
    pub fn close(&mut self) -> Option<Batch> {
        if self.open.is_empty() {
            return None;
        }
        self.open_bytes = 0;
        Some(Batch(std::mem::take(&mut self.open)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64) -> Op {
        Op { client: 1, seq, key: seq, value: 100 + seq }
    }

    #[test]
    fn batch_is_a_canonical_value() {
        let b = Batch(vec![op(0), op(1)]);
        let bytes = b.to_wire_bytes();
        let back = Batch::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_wire_bytes(), bytes);
        assert_eq!(b.value_words(), 2 * OP_WORDS);
        assert_eq!(Batch::noop().value_words(), 1, "no-op still costs one word");
        for cut in 0..bytes.len() {
            assert!(Batch::from_wire_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn batcher_closes_on_op_count() {
        let mut b = Batcher::new(BatchPolicy { max_batch_ops: 3, ..BatchPolicy::default() });
        assert!(b.push(op(0), 0).is_none());
        assert!(b.push(op(1), 0).is_none());
        let closed = b.push(op(2), 0).expect("third op closes");
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn batcher_closes_on_bytes() {
        let per_op = op(0).wire_len() as usize;
        let mut b = Batcher::new(BatchPolicy {
            max_batch_ops: 100,
            max_batch_bytes: 2 * per_op,
            ..BatchPolicy::default()
        });
        assert!(b.push(op(0), 0).is_none());
        assert_eq!(b.push(op(1), 0).expect("byte bound closes").len(), 2);
    }

    #[test]
    fn batcher_ages_out_on_tick() {
        let mut b = Batcher::new(BatchPolicy { max_batch_delay: 2, ..BatchPolicy::default() });
        assert!(b.push(op(0), 10).is_none());
        assert!(b.tick(11).is_none(), "not yet aged");
        let closed = b.tick(12).expect("aged out");
        assert_eq!(closed.len(), 1);
        assert!(b.tick(13).is_none(), "empty batcher never closes");
    }
}

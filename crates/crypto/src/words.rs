//! The paper's word-complexity model (§2).
//!
//! "A word contains a constant number of signatures and values from a
//! finite domain, and each message contains at least 1 word."
//!
//! [`WordCost::words`] is the quantity summed by the communication
//! complexity of a protocol; [`WordCost::constituent_sigs`] counts how many
//! *individual* signatures an object represents, which is the quantity the
//! Dolev–Reischuk `Ω(nt)` lower bound speaks about (experiment E4): a
//! `(k, n)`-threshold signature is one word but `k` constituent signatures.

use crate::pki::{AggregateSignature, Signature, ThresholdSignature};
use crate::sha256::Digest;

/// Cost of an object under the paper's word model.
pub trait WordCost {
    /// Number of words this object occupies on the wire.
    fn words(&self) -> u64;

    /// Number of individual signatures compacted into this object.
    fn constituent_sigs(&self) -> u64 {
        0
    }
}

impl WordCost for Signature {
    fn words(&self) -> u64 {
        1
    }
    fn constituent_sigs(&self) -> u64 {
        1
    }
}

impl WordCost for ThresholdSignature {
    fn words(&self) -> u64 {
        1
    }
    fn constituent_sigs(&self) -> u64 {
        self.threshold() as u64
    }
}

impl WordCost for AggregateSignature {
    fn words(&self) -> u64 {
        1
    }
    fn constituent_sigs(&self) -> u64 {
        self.len() as u64
    }
}

impl WordCost for Digest {
    fn words(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::trusted_setup;

    #[test]
    fn threshold_sig_is_one_word_k_sigs() {
        let (pki, keys) = trusted_setup(7, 3);
        let shares: Vec<_> = keys.iter().take(5).map(|k| k.sign(b"v")).collect();
        let qc = pki.combine(5, b"v", &shares).unwrap();
        assert_eq!(qc.words(), 1);
        assert_eq!(qc.constituent_sigs(), 5);
    }

    #[test]
    fn aggregate_counts_signer_set() {
        let (pki, keys) = trusted_setup(4, 3);
        let shares: Vec<_> = keys.iter().take(3).map(|k| k.sign(b"v")).collect();
        let agg = pki.aggregate(b"v", &shares).unwrap();
        assert_eq!(agg.words(), 1);
        assert_eq!(agg.constituent_sigs(), 3);
    }
}

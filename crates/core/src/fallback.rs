//! The `A_fallback` black box and a minimal crash-fault implementation.
//!
//! The adaptive protocols only require three properties from the fallback
//! (§6): strong unanimity, agreement + termination at `n = 2t + 1`, and
//! quadratic-order words. The production implementation lives in the
//! `meba-fallback` crate (recursive-halving strong BA in the shape of
//! Momose–Ren); this module provides [`EchoFallback`], a two-step protocol
//! that satisfies those properties **under crash faults only**, so that
//! `meba-core`'s own tests can exercise the full fallback path without a
//! dependency cycle.

use crate::subprotocol::{FallbackFactory, SubProtocol};
use crate::value::Value;
use meba_crypto::ProcessId;
use meba_sim::{Dest, Inbox, Sink};
use std::collections::BTreeMap;

crate::wire_schema! {
    /// Message of [`EchoFallback`]: the sender's initial value.
    #[derive(Clone, Debug)]
    pub struct EchoMsg<V: Value>(pub V): Message in "fallback";
}

/// Crash-fault-only strong BA: broadcast inputs, decide the most frequent
/// value received (ties broken toward the smaller value).
///
/// Correct under crash faults because every correct process receives the
/// same multiset of echoes. **Not Byzantine-safe** — use
/// `meba_fallback::RecursiveBa` for adversarial runs.
#[derive(Debug)]
pub struct EchoFallback<V> {
    input: V,
    received: Vec<V>,
    decision: Option<V>,
}

impl<V: Value> EchoFallback<V> {
    /// Creates an instance with the given initial value.
    pub fn new(input: V) -> Self {
        EchoFallback { input, received: Vec::new(), decision: None }
    }
}

impl<V: Value> SubProtocol for EchoFallback<V> {
    type Msg = EchoMsg<V>;
    type Output = V;

    fn on_step<'a>(
        &mut self,
        step: u64,
        inbox: impl Inbox<'a, EchoMsg<V>>,
        out: &mut dyn Sink<EchoMsg<V>>,
    ) {
        match step {
            0 => out.push(Dest::All, EchoMsg(self.input.clone())),
            1 => {
                self.received.extend(inbox.map(|(_, m)| m.0.clone()));
                let mut counts: BTreeMap<&V, usize> = BTreeMap::new();
                for v in &self.received {
                    *counts.entry(v).or_default() += 1;
                }
                // Most frequent; BTreeMap iteration order breaks ties
                // toward the smaller value deterministically.
                let winner = counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(v, _)| (*v).clone())
                    .unwrap_or_else(|| self.input.clone());
                self.decision = Some(winner);
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<V> {
        self.decision.clone()
    }

    fn done(&self) -> bool {
        self.decision.is_some()
    }
}

/// Factory for [`EchoFallback`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EchoFallbackFactory;

impl<V: Value> FallbackFactory<V> for EchoFallbackFactory {
    type Protocol = EchoFallback<V>;
    fn create(&self, _me: ProcessId, input: V) -> EchoFallback<V> {
        EchoFallback::new(input)
    }
    fn max_steps(&self) -> u64 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_group(inputs: &[u64]) -> Vec<u64> {
        let n = inputs.len();
        let mut nodes: Vec<EchoFallback<u64>> =
            inputs.iter().map(|&v| EchoFallback::new(v)).collect();
        // Step 0: everyone broadcasts.
        let mut sent: Vec<(ProcessId, EchoMsg<u64>)> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut out = meba_sim::Outbox::new();
            node.on_step(0, std::iter::empty(), &mut out);
            for (_, m) in out {
                sent.push((ProcessId(i as u32), m));
            }
        }
        // Step 1: everyone receives all broadcasts.
        for node in nodes.iter_mut() {
            let mut out = meba_sim::Outbox::new();
            node.on_step(1, sent.iter().map(|(p, m)| (*p, m)), &mut out);
            assert!(out.is_empty());
        }
        assert_eq!(sent.len(), n);
        nodes.iter().map(|n| n.output().unwrap()).collect()
    }

    #[test]
    fn unanimity_decides_the_value() {
        assert_eq!(run_group(&[5, 5, 5]), vec![5, 5, 5]);
    }

    #[test]
    fn majority_wins() {
        assert_eq!(run_group(&[5, 5, 9]), vec![5, 5, 5]);
    }

    #[test]
    fn tie_breaks_to_smaller() {
        let out = run_group(&[9, 5, 5, 9]);
        assert!(out.iter().all(|&v| v == 5));
    }

    #[test]
    fn factory_builds_fresh_instances() {
        let f = EchoFallbackFactory;
        let p: EchoFallback<u64> = f.create(ProcessId(0), 3);
        assert_eq!(p.input, 3);
        assert!(!p.done());
    }
}

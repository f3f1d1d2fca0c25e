//! Seeded open-loop request schedules.
//!
//! A schedule is a pure function of `(seed, connection, rate, mix,
//! warm-up, window)`: arrival times, kinds and keys all come from one
//! splitmix64 stream. The program under test only ever sees the
//! generated requests; nothing in a schedule depends on how the system
//! responds.

/// splitmix64 — the repo's DES uses the same mixer for link latencies.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// What one request asks of the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Write,
    ReadFast,
    ReadConfirmed,
}

/// Request mix as shares of all requests; the remainder is writes.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read_fast: f64,
    pub read_confirmed: f64,
}

impl Mix {
    pub const WRITES_ONLY: Mix = Mix { read_fast: 0.0, read_confirmed: 0.0 };
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Due time in nanoseconds after the load window opens.
    pub due_ns: u64,
    pub kind: Kind,
    /// For a write: its 1-based sequence number (0 is reserved — the
    /// gateway's read-overload reply carries `seq: 0`). For a read: the
    /// sequence number of the write whose key it reads.
    pub seq: u64,
}

/// Client id of connection `conn` (1-based, as in `smr_service`).
pub fn client_id(conn: usize) -> u64 {
    conn as u64 + 1
}

/// The key written by `(client, seq)`: every key is written exactly once.
pub fn key_of(client: u64, seq: u64) -> u64 {
    (client << 40) | seq
}

/// `f(key)`: the only value ever written to `key`, so every read is
/// checkable without knowing what committed first.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23) | 1
}

/// Builds connection `conn`'s schedule over a warm-up segment followed
/// by the scored window. Arrivals are a Poisson process conditioned on
/// its count: each segment holds exactly `rate x length` arrivals at
/// independent uniform times, so the offered load is the same for every
/// seed while the spacing stays random. Reads target a key this
/// connection scheduled to write earlier (the first request of a
/// connection is always a write).
pub fn schedule(
    seed: u64,
    conn: usize,
    rate_per_s: f64,
    mix: Mix,
    warmup_ns: u64,
    window_ns: u64,
) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut due: Vec<u64> = Vec::new();
    for (start, len) in [(0, warmup_ns), (warmup_ns, window_ns)] {
        let count = (rate_per_s * len as f64 / 1e9).round() as usize;
        let mut segment: Vec<u64> =
            (0..count).map(|_| start + (rng.next_unit() * len as f64) as u64).collect();
        segment.sort_unstable();
        due.extend(segment);
    }
    let mut writes = 0u64;
    due.into_iter()
        .map(|due_ns| {
            let u = rng.next_unit();
            let pick = rng.next_u64();
            let kind = if writes == 0 || u >= mix.read_fast + mix.read_confirmed {
                Kind::Write
            } else if u < mix.read_fast {
                Kind::ReadFast
            } else {
                Kind::ReadConfirmed
            };
            let seq = match kind {
                Kind::Write => {
                    writes += 1;
                    writes
                }
                _ => 1 + pick % writes,
            };
            Request { due_ns, kind, seq }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix { read_fast: 0.7, read_confirmed: 0.1 };

    #[test]
    fn same_seed_same_schedule_and_seeds_differ() {
        let a = schedule(7, 0, 300.0, MIXED, 1_000_000_000, 5_000_000_000);
        let b = schedule(7, 0, 300.0, MIXED, 1_000_000_000, 5_000_000_000);
        assert_eq!(a, b, "a schedule is a pure function of its arguments");
        assert_ne!(a, schedule(8, 0, 300.0, MIXED, 1_000_000_000, 5_000_000_000));
        assert_ne!(
            a,
            schedule(7, 1, 300.0, MIXED, 1_000_000_000, 5_000_000_000),
            "connections draw apart"
        );
    }

    #[test]
    fn schedule_is_sorted_with_fixed_counts_and_checkable_reads() {
        let s = schedule(42, 1, 300.0, MIXED, 2_000_000_000, 18_000_000_000);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Every seed offers the same load: 600 warm-up + 5400 scored.
        assert_eq!(s.iter().filter(|r| r.due_ns < 2_000_000_000).count(), 600);
        assert_eq!(s.len(), 6000);
        assert_eq!(schedule(43, 1, 300.0, MIXED, 2_000_000_000, 18_000_000_000).len(), 6000);
        // Spacing stays random: gaps are far from the constant 3.33 ms.
        let gaps: Vec<u64> = s.windows(2).map(|w| w[1].due_ns - w[0].due_ns).collect();
        assert!(gaps.iter().filter(|g| **g < 1_000_000).count() > 1000);
        let writes = s.iter().filter(|r| r.kind == Kind::Write).count() as f64;
        assert!((writes / s.len() as f64 - 0.2).abs() < 0.03);
        // Write seqs are 1..=k in order; every read names an earlier write.
        let mut next = 1;
        for r in &s {
            match r.kind {
                Kind::Write => {
                    assert_eq!(r.seq, next);
                    next += 1;
                }
                _ => assert!(r.seq >= 1 && r.seq < next),
            }
        }
    }

    #[test]
    fn keys_are_unique_per_write_and_values_nonzero() {
        assert_ne!(key_of(1, 5), key_of(2, 5));
        assert_ne!(key_of(1, 5), key_of(1, 6));
        assert_ne!(value_of(key_of(1, 5)), 0);
    }
}

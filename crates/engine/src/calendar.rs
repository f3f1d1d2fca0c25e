//! Monotone calendar (bucket) queue for the discrete-event backend.
//!
//! The DES schedules two kinds of timestamped items — round deadlines
//! and, under the quorum-or-timeout driver, payload-free arrival pokes
//! (one per copy; the copy itself waits in its receiver's mailbox) — and
//! consumes them strictly in virtual-time order. A general-purpose
//! `BinaryHeap` pays `O(log n)` comparisons and pointer-chasing sift
//! operations per push *and* pop; at n = 4097 a quorum-mode broadcast
//! round pushes ~n² pokes, and a lockstep run ~n deadlines per round of
//! scattered sleepers, so the heap would be the simulator's bottleneck.
//! This queue exploits the two properties the DES guarantees:
//!
//! 1. **Monotone pops**: the virtual clock never goes backwards, so
//!    items are popped in non-decreasing time order.
//! 2. **No past pushes**: every item is scheduled at or after the
//!    current clock (`latency ≥ 1` for pokes, `timeout ≥ 1` for
//!    deadlines) — that is, at or after the last *popped* item. The
//!    front may be far ahead of the clock (a sleeping process's next
//!    deadline, see the sparse schedule in [`crate::des`]), so `peek`
//!    must not move the window: only `pop` slides it.
//!
//! Layout: a ring of `NB` buckets, each `width` virtual nanoseconds
//! wide, covering the sliding window `[base_day, base_day + NB)` of
//! "days" (`day = time / width`). Each in-window day maps to exactly one
//! bucket slot (`day % NB`), so a slot never mixes items from different
//! days. Items beyond the window wait in an overflow `BinaryHeap` and
//! migrate into the ring exactly once, when the window slides over their
//! day. Pushes append unsorted in `O(1)`; a bucket is sorted once
//! (descending, so pops are `Vec::pop` from the tail) when it becomes
//! the front bucket. An occupancy bitmap makes "first non-empty bucket"
//! a handful of word scans. Bucket `Vec`s keep their capacity across the
//! window wrapping around the ring, so steady-state scheduling reuses
//! the same allocations — this is the event-struct pool.
//!
//! Total order: ties within a day are broken by the item's full `Ord`
//! (the DES keys items by `(time, seq)` with unique `seq`), and the
//! per-bucket sort uses that same order, so the pop sequence is
//! *identical* to `BinaryHeap<Reverse<T>>` — property-checked against
//! the heap in the tests below.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of ring buckets. Power of two so `day % NB` is a mask.
const NB: usize = 1024;

/// An item schedulable on the virtual timeline. `Ord` must order by
/// time first (ties broken arbitrarily but totally), and `time_ns` must
/// agree with that order.
pub trait TimeKeyed: Ord {
    /// The virtual instant this item is scheduled at.
    fn time_ns(&self) -> u128;
}

/// Min-queue over [`TimeKeyed`] items; see the module docs for the
/// layout and the monotonicity contract.
#[derive(Debug)]
pub struct CalendarQueue<T: TimeKeyed> {
    buckets: Vec<Vec<T>>,
    /// One bit per slot: does the bucket hold any items?
    occupied: [u64; NB / 64],
    /// First day of the ring window; every bucketed item's day is in
    /// `[base_day, base_day + NB)`.
    base_day: u128,
    /// The day whose bucket is currently sorted (descending) for
    /// popping, if any.
    active_day: Option<u128>,
    /// Bucket width in virtual nanoseconds.
    width: u128,
    /// Items scheduled at or beyond `base_day + NB`.
    overflow: BinaryHeap<Reverse<T>>,
    /// Items currently in ring buckets (excludes overflow).
    in_buckets: usize,
}

impl<T: TimeKeyed> CalendarQueue<T> {
    /// Creates a queue whose buckets are `width_ns` wide (clamped to at
    /// least 1). The DES uses `δ / 256`, putting a round's arrivals and
    /// deadlines a few buckets apart and the whole window at 4δ.
    pub fn new(width_ns: u64) -> Self {
        CalendarQueue {
            buckets: (0..NB).map(|_| Vec::new()).collect(),
            occupied: [0; NB / 64],
            base_day: 0,
            active_day: None,
            width: u128::from(width_ns.max(1)),
            overflow: BinaryHeap::new(),
            in_buckets: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot_of(day: u128) -> usize {
        (day % NB as u128) as usize
    }

    fn day_of(&self, t: &T) -> u128 {
        t.time_ns() / self.width
    }

    /// Inserts `item`. Items scheduled before the queue's current front
    /// (which the monotonicity contract rules out) are still handled
    /// correctly: they join the front bucket and sort to its head.
    pub fn push(&mut self, item: T) {
        let day = self.day_of(&item).max(self.base_day);
        if day >= self.base_day + NB as u128 {
            self.overflow.push(Reverse(item));
            return;
        }
        let slot = Self::slot_of(day);
        let bucket = &mut self.buckets[slot];
        if self.active_day == Some(day) {
            // The front bucket is kept sorted descending; insert in
            // place so tail pops stay in order.
            let pos = bucket.partition_point(|x| *x > item);
            bucket.insert(pos, item);
        } else {
            bucket.push(item);
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.in_buckets += 1;
    }

    /// First occupied slot in day order from `base_day`, as `(slot, day)`.
    fn first_occupied(&self) -> Option<(usize, u128)> {
        if self.in_buckets == 0 {
            return None;
        }
        let start = Self::slot_of(self.base_day);
        // Scan the occupancy bitmap circularly from `start`; the first
        // set bit in circular slot order is the earliest in-window day.
        let mut offset = 0usize;
        while offset < NB {
            let slot = (start + offset) & (NB - 1);
            let word = self.occupied[slot / 64];
            if word == 0 {
                // Skip to the next word boundary.
                offset += 64 - (slot % 64);
                continue;
            }
            let masked = word >> (slot % 64);
            if masked == 0 {
                offset += 64 - (slot % 64);
                continue;
            }
            let found = (start + offset + masked.trailing_zeros() as usize) & (NB - 1);
            let day = self.base_day + ((found + NB - start) & (NB - 1)) as u128;
            return Some((found, day));
        }
        None
    }

    /// Moves overflow items whose day entered the window into buckets.
    fn migrate_overflow(&mut self) {
        let end = self.base_day + NB as u128;
        while let Some(Reverse(t)) = self.overflow.peek() {
            if self.day_of(t) >= end {
                break;
            }
            let Some(Reverse(item)) = self.overflow.pop() else { unreachable!() };
            let slot = Self::slot_of(self.day_of(&item));
            debug_assert_ne!(self.active_day, Some(self.day_of(&item)));
            self.buckets[slot].push(item);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.in_buckets += 1;
        }
    }

    /// Slides the window / sorts the front bucket so the minimum item is
    /// the tail of `buckets[slot]`; returns that slot.
    fn prepare_front(&mut self) -> Option<usize> {
        if self.in_buckets == 0 {
            // Everything queued (if anything) is in overflow: slide the
            // window to the overflow minimum and pull its day in.
            let front_day = match self.overflow.peek() {
                Some(Reverse(t)) => self.day_of(t),
                None => return None,
            };
            self.base_day = front_day;
            self.migrate_overflow();
        }
        let (slot, day) = self.first_occupied().expect("in_buckets > 0 after migration");
        if day > self.base_day {
            // The window advanced past empty buckets; expose the newly
            // covered days to the overflow before popping.
            self.base_day = day;
            self.migrate_overflow();
            // Migration can only add items at `day` or later, and items
            // at `day` land in this same slot, so `slot` still fronts
            // the queue.
        }
        self.sort_front(slot, day);
        Some(slot)
    }

    /// The minimum item, if any. `&mut` because the front bucket is
    /// sorted lazily on first access. Leaves the window where the last
    /// pop put it, so an item pushed between this front and the clock
    /// still lands in a bucket of its own. (Ring days all precede
    /// overflow days, so the first occupied bucket fronts the queue
    /// without sliding.)
    pub fn peek(&mut self) -> Option<&T> {
        if self.in_buckets == 0 {
            return self.overflow.peek().map(|Reverse(t)| t);
        }
        let (slot, day) = self.first_occupied().expect("in_buckets > 0");
        self.sort_front(slot, day);
        self.buckets[slot].last()
    }

    /// Sorts `day`'s bucket (descending, so pops are tail pops) unless
    /// it already is the sorted front.
    fn sort_front(&mut self, slot: usize, day: u128) {
        if self.active_day != Some(day) {
            self.buckets[slot].sort_unstable_by(|a, b| b.cmp(a));
            self.active_day = Some(day);
        }
    }

    /// Removes and returns the minimum item.
    pub fn pop(&mut self) -> Option<T> {
        let slot = self.prepare_front()?;
        let item = self.buckets[slot].pop();
        debug_assert!(item.is_some());
        if self.buckets[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.active_day = None;
        }
        self.in_buckets -= 1;
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TimeKeyed for (u128, u64) {
        fn time_ns(&self) -> u128 {
            self.0
        }
    }

    #[test]
    fn drains_in_time_then_seq_order() {
        let mut q = CalendarQueue::<(u128, u64)>::new(4);
        for (t, s) in [(50u128, 0u64), (3, 1), (3, 2), (700, 3), (50, 4), (0, 5)] {
            q.push((t, s));
        }
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![(0, 5), (3, 1), (3, 2), (50, 0), (50, 4), (700, 3)]);
    }

    #[test]
    fn overflow_items_migrate_into_the_window() {
        let mut q = CalendarQueue::<(u128, u64)>::new(1);
        // Far beyond the NB-day window, forcing overflow + later slides.
        q.push((5 * NB as u128, 1));
        q.push((2, 2));
        q.push((11 * NB as u128, 3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((5 * NB as u128, 1)));
        // Push into the newly slid window between pops.
        q.push((5 * NB as u128 + 1, 4));
        assert_eq!(q.pop(), Some((5 * NB as u128 + 1, 4)));
        assert_eq!(q.pop(), Some((11 * NB as u128, 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_sorted_front_bucket_keeps_order() {
        let mut q = CalendarQueue::<(u128, u64)>::new(100);
        q.push((10, 0));
        q.push((30, 1));
        assert_eq!(q.peek(), Some(&(10, 0))); // sorts the front bucket
        q.push((20, 2)); // binary-inserted into the active bucket
        q.push((5, 3));
        assert_eq!(q.pop(), Some((5, 3)));
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 1)));
    }

    #[test]
    fn peek_at_a_far_front_leaves_room_for_nearer_pushes() {
        // The sparse DES: the only queued deadline is far ahead, the
        // loop peeks at it, then a send re-arms processes to much
        // nearer deadlines. Those must get buckets of their own, not
        // pile into the far item's bucket.
        let mut q = CalendarQueue::<(u128, u64)>::new(1);
        let far = 50 * NB as u128;
        q.push((far, 0));
        assert_eq!(q.peek(), Some(&(far, 0)));
        for k in 1..=5u64 {
            q.push((u128::from(k) * 7, k));
        }
        assert_eq!(q.in_buckets, 5, "near items sit in the ring, the far one in overflow");
        assert!(q.buckets.iter().all(|b| b.len() <= 1));
        for k in 1..=5u64 {
            assert_eq!(q.pop(), Some((u128::from(k) * 7, k)));
        }
        assert_eq!(q.pop(), Some((far, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_binary_heap_on_seeded_random_interleaving() {
        // Deterministic pseudo-random push/pop interleaving mirroring the
        // DES contract: pushes never precede the last popped time.
        let mut rng = 0x5eed_cafe_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for width in [1u64, 3, 256, 1_000_000] {
            let mut q = CalendarQueue::<(u128, u64)>::new(width);
            let mut model: BinaryHeap<Reverse<(u128, u64)>> = BinaryHeap::new();
            let mut now = 0u128;
            let mut seq = 0u64;
            for _ in 0..4_000 {
                if next() % 3 != 0 || model.is_empty() {
                    let horizon = if next() % 7 == 0 { 1 << 20 } else { 4096 };
                    let t = now + u128::from(next() % horizon);
                    q.push((t, seq));
                    model.push(Reverse((t, seq)));
                    seq += 1;
                } else {
                    if next() % 2 == 0 {
                        assert_eq!(q.peek(), model.peek().map(|Reverse(x)| x));
                    }
                    let got = q.pop();
                    let want = model.pop().map(|Reverse(x)| x);
                    assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
            let mut rest_q = Vec::new();
            while let Some(x) = q.pop() {
                rest_q.push(x);
            }
            let mut rest_m = Vec::new();
            while let Some(Reverse(x)) = model.pop() {
                rest_m.push(x);
            }
            assert_eq!(rest_q, rest_m, "width {width}");
        }
    }
}

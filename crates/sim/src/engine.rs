//! Execution-engine building blocks shared by both machine loops: the
//! wake-time queue that drives the event core and the pipelined-unit
//! reservation primitive every timed resource goes through.
//!
//! ## The wake-time contract
//!
//! Every schedulable unit (a wavefront, from the machine's perspective)
//! reports a *conservative* wake tick: the earliest tick at which stepping
//! it could possibly make progress. The queue may additionally hold
//! **stale** entries — a unit re-armed to a later tick leaves its old
//! entry behind rather than paying for in-heap deletion — so consumers
//! must re-check the unit's actual `ready_at` on pop and skip entries
//! that no longer match (lazy invalidation). Any event that can *shorten*
//! a wait (a barrier release, a freed CU dispatching a new group) pushes
//! a fresh entry; nothing ever needs to move an existing one earlier.
//!
//! Pop order is lexicographic on `(tick, unit)`: the earliest tick first,
//! and among units waking on the same tick, the smallest unit id first.
//! This total order is the single scheduling contract both engines
//! implement — the event core realizes it with this heap, the lock-step
//! reference realizes it by scanning unit ids in ascending order at every
//! tick — and is what makes their observable behavior bit-identical.
//!
//! After a step the event core re-arms the stepped unit and takes the next
//! entry in one operation, [`WakeQueue::push_pop`]: while the unit stays
//! ahead of the head it comes straight back without touching the heap,
//! and otherwise it replaces the head with one sift.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

// A key keeps a unit id in its low 64 bits.
const _: () = assert!(usize::BITS <= u64::BITS);

/// Min-heap of `(wake_tick, unit)` pairs with lazy stale-entry deletion.
///
/// Each entry is the single integer `tick << 64 | unit`. A unit id fits
/// the low 64 bits, so the packing is injective and orders keys exactly
/// as their `(tick, unit)` pairs for every tick and unit.
#[derive(Debug, Default)]
pub(crate) struct WakeQueue(BinaryHeap<Reverse<u128>>);

fn key(tick: u64, unit: usize) -> Reverse<u128> {
    Reverse(u128::from(tick) << u64::BITS | unit as u128)
}

fn pair(Reverse(key): Reverse<u128>) -> (u64, usize) {
    ((key >> u64::BITS) as u64, key as u64 as usize)
}

impl WakeQueue {
    /// Empties the queue, keeping its storage.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Arms `unit` to wake at `tick`. O(log n). Duplicate and stale
    /// entries are permitted (see the module docs).
    pub(crate) fn push(&mut self, tick: u64, unit: usize) {
        self.0.push(key(tick, unit));
    }

    /// Removes and returns the lexicographically smallest
    /// `(tick, unit)`, or `None` when the queue is drained.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        self.0.pop().map(pair)
    }

    /// Arms `unit` to wake at `tick` and removes and returns the smallest
    /// entry: a [`Self::push`] then a [`Self::pop`] in one operation.
    /// When nothing is earlier, `(tick, unit)` comes straight back and
    /// the heap is untouched; otherwise it replaces the head, which comes
    /// back, with one sift.
    pub(crate) fn push_pop(&mut self, tick: u64, unit: usize) -> (u64, usize) {
        let k = key(tick, unit);
        match self.0.peek_mut() {
            // `Reverse` flips the order: the head is earlier than `k`.
            Some(mut head) if *head > k => pair(std::mem::replace(&mut *head, k)),
            _ => pair(k),
        }
    }

    /// The smallest `(tick, unit)` without removing it. May be stale.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        self.0.peek().copied().map(pair)
    }
}

/// A fully-pipelined timed resource: one transaction enters per
/// occupancy interval, in arrival order.
///
/// Every throughput-limited unit in the machine — SIMD issue slots, the
/// scalar unit, the vector-memory and LDS pipes, the write-buffer drain
/// clock, each L2 bank, the DRAM bandwidth pipe — is an instance of this
/// single primitive: a monotone `free` tick plus the reservation rule
/// `start = max(at, free); free = start + occupancy`. Centralizing the
/// rule makes the intra-step reservation order (documented in
/// `machine.rs`) auditable: a resource's clock advances exactly where
/// `reserve` is called, never implicitly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PipeUnit {
    /// First tick at which the unit can accept the next transaction.
    free: u64,
}

impl PipeUnit {
    /// A unit that is free from tick 0.
    pub(crate) fn new() -> Self {
        PipeUnit { free: 0 }
    }

    /// Reserves the unit for `occupancy` ticks starting no earlier than
    /// `at`. Returns the actual start tick (`max(at, free)`); the
    /// reservation ends at `start + occupancy`, which [`Self::free_at`]
    /// reports afterwards.
    pub(crate) fn reserve(&mut self, at: u64, occupancy: u64) -> u64 {
        let start = at.max(self.free);
        self.free = start + occupancy;
        start
    }

    /// The tick the unit becomes free (the end of the last reservation).
    pub(crate) fn free_at(&self) -> u64 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_queue_pops_lexicographic_min() {
        let mut q = WakeQueue::default();
        q.push(20, 1);
        q.push(10, 7);
        q.push(10, 3);
        q.push(20, 0);
        assert_eq!(q.peek(), Some((10, 3)));
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), Some((10, 7)));
        assert_eq!(q.pop(), Some((20, 0)));
        assert_eq!(q.pop(), Some((20, 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn wake_queue_keeps_stale_duplicates() {
        // Lazy invalidation: re-arming pushes a second entry; both come
        // back out and the consumer is responsible for skipping.
        let mut q = WakeQueue::default();
        q.push(5, 2);
        q.push(9, 2);
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((9, 2)));
    }

    /// A seeded xorshift stream.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Runs `ops` seeded push/pop/peek/push_pop operations against a
    /// sorted-`Vec` model, drawing ticks and units from `ticks` and
    /// `units` so that duplicates and stale re-arms are frequent.
    fn check_against_model(seed: u64, ops: usize, ticks: &[u64], units: &[usize]) {
        let mut next = stream(seed);
        let mut q = WakeQueue::default();
        let mut model: Vec<(u64, usize)> = Vec::new();
        let pick = |next: &mut dyn FnMut() -> u64| {
            let t = ticks[(next() % ticks.len() as u64) as usize];
            let u = units[(next() % units.len() as u64) as usize];
            (t, u)
        };
        let insert = |model: &mut Vec<(u64, usize)>, e: (u64, usize)| {
            let at = model.partition_point(|&x| x <= e);
            model.insert(at, e);
        };
        for step in 0..ops {
            match next() % 4 {
                0 => {
                    let (t, u) = pick(&mut next);
                    q.push(t, u);
                    insert(&mut model, (t, u));
                }
                1 => {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop(), want, "seed {seed} step {step}: pop");
                }
                2 => assert_eq!(q.peek(), model.first().copied(), "seed {seed} step {step}"),
                _ => {
                    let (t, u) = pick(&mut next);
                    insert(&mut model, (t, u));
                    let want = model.remove(0);
                    assert_eq!(q.push_pop(t, u), want, "seed {seed} step {step}: push_pop");
                }
            }
        }
        while let Some(want) = (!model.is_empty()).then(|| model.remove(0)) {
            assert_eq!(q.pop(), Some(want), "seed {seed}: drain");
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wake_queue_matches_a_sorted_model() {
        // Small ticks and units, many collisions.
        let ticks: Vec<u64> = (0..40).collect();
        let units: Vec<usize> = (0..12).collect();
        for seed in 1..40 {
            check_against_model(seed, 600, &ticks, &units);
        }
    }

    #[test]
    fn wake_queue_keys_at_the_field_limits_never_alias() {
        // Pairs that would alias one another in a key with fewer bits per
        // field: (t, 2^24) and (t + 1, 0) in a 24-bit unit field, a tick
        // at 2^40 wrapping to 0 in a 40-bit tick field, and the extremes
        // of both fields.
        let (tick_limit, unit_limit) = (1u64 << 40, 1usize << 24);
        let ticks = [
            0,
            1,
            2,
            7,
            tick_limit - 1,
            tick_limit,
            tick_limit + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let units = [
            0,
            1,
            3,
            unit_limit - 1,
            unit_limit,
            unit_limit + 1,
            usize::MAX - 1,
            usize::MAX,
        ];
        for seed in 1..40 {
            check_against_model(seed, 400, &ticks, &units);
        }
        for (tick, unit) in [(0, 0), (u64::MAX, usize::MAX), (tick_limit, unit_limit)] {
            assert_eq!(pair(key(tick, unit)), (tick, unit));
        }
    }

    #[test]
    fn pipe_unit_reserves_back_to_back() {
        let mut u = PipeUnit::new();
        assert_eq!(u.reserve(10, 4), 10); // idle unit starts on request
        assert_eq!(u.free_at(), 14);
        assert_eq!(u.reserve(11, 4), 14); // busy unit queues the request
        assert_eq!(u.reserve(100, 2), 100); // gap: starts on request again
        assert_eq!(u.free_at(), 102);
    }

    #[test]
    fn pipe_unit_zero_occupancy_does_not_regress() {
        let mut u = PipeUnit::new();
        u.reserve(8, 0);
        assert_eq!(u.free_at(), 8);
        assert_eq!(u.reserve(3, 1), 8); // free tick stays monotone
    }
}

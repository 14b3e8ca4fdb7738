//! A stable timed event queue.
//!
//! [`EventQueue`] orders events by their firing time; events scheduled for
//! the same instant pop in insertion (FIFO) order. Stability matters for
//! determinism: GPU schedulers frequently enqueue several events for the
//! same nanosecond (e.g. a squad's kernels all arriving after the same
//! launch delay) and the pop order must not depend on heap internals.
//!
//! The queue is a flat four-ary min-heap over `(at, seq)` keys. Compared
//! to `std::collections::BinaryHeap` (binary, max-heap with inverted
//! `Ord`), the wider fan-out halves the tree depth, sift-down touches one
//! contiguous cache line of children per level, and the backing `Vec`
//! never shrinks — so a queue that has reached its steady-state high-water
//! mark pushes and pops without allocating. Keys compare as one packed
//! `u128` built on the fly (entries keep two `u64` fields, so they do not
//! grow to `u128` alignment). Push and pop move a hole instead of swapping
//! entries, which needs payloads to be `Copy`. Keys are unique, so the pop
//! order does not depend on the heap's internal layout.
//! The original `BinaryHeap` wrapper is retained (test-only) as
//! `legacy::LegacyEventQueue`, and a differential test drives both through
//! random interleaved operation sequences to pin the pop order
//! bit-for-bit.

use crate::time::SimTime;

/// Children per node. Four keeps the tree shallow (depth log4 n) while a
/// node's children stay adjacent in memory.
const ARITY: usize = 4;

/// One pending entry: fire time, insertion sequence number, payload.
#[derive(Clone, Copy)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The heap key: earliest time first; FIFO (insertion order) on ties.
    /// Packing `(at, seq)` into one integer makes every comparison a
    /// single branch-free compare with the tuple's exact order.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.as_nanos() as u128) << 64) | self.seq as u128
    }
}

/// A priority queue of `(SimTime, E)` pairs with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Flat four-ary min-heap: `heap[0]` is the earliest entry; the
    /// children of node `i` are nodes `4i + 1 ..= 4i + 4`.
    heap: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some((last.at, last.payload));
        };
        self.heap[0] = last;
        self.sift_down(0);
        Some((top.at, top.payload))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events. Keeps the backing capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Moves `heap[i]` toward the root: parents with larger keys shift
    /// down into the hole until the entry's place is found.
    fn sift_up(&mut self, mut i: usize) {
        let moving = self.heap[i];
        let key = moving.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moving;
    }

    /// Moves `heap[i]` toward the leaves: the smallest child shifts up
    /// into the hole while its key is below the entry's.
    fn sift_down(&mut self, mut i: usize) {
        let moving = self.heap[i];
        let key = moving.key();
        let len = self.heap.len();
        loop {
            let first_child = ARITY * i + 1;
            if first_child >= len {
                break;
            }
            let end = (first_child + ARITY).min(len);
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for (c, e) in self.heap[first_child + 1..end].iter().enumerate() {
                let k = e.key();
                if k < best_key {
                    best = first_child + 1 + c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = moving;
    }
}

/// The original `BinaryHeap`-backed implementation, kept as a differential
/// twin: the four-ary queue above must reproduce its pop order exactly for
/// any operation sequence. Compiled for tests only.
#[cfg(test)]
pub mod legacy {
    use core::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // `BinaryHeap` is a max-heap; invert so the earliest (and, on
            // ties, the first-inserted) entry is at the top.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The old queue: a max-`BinaryHeap` of inverted-`Ord` entries.
    pub struct LegacyEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> Default for LegacyEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> LegacyEventQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            LegacyEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Schedules `payload` to fire at `at`.
        pub fn push(&mut self, at: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, payload });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.at, e.payload))
        }

        /// The firing time of the earliest pending event.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 5);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(9), 9);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 9);
    }

    #[test]
    fn capacity_is_reused_across_refills() {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i % 7), i);
        }
        let cap = q.heap.capacity();
        while q.pop().is_some() {}
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i % 11), i);
        }
        assert_eq!(q.heap.capacity(), cap, "steady-state refill reallocated");
    }

    #[test]
    fn entries_keep_two_u64_keys() {
        // A packed `u128` key field would raise entry alignment to 16 and
        // pad a 24-byte payload (e.g. a request arrival) from 40 to 48
        // bytes; the key is therefore built on the fly.
        assert_eq!(std::mem::size_of::<Entry<[u64; 3]>>(), 40);
        assert_eq!(std::mem::size_of::<Entry<()>>(), 16);
    }

    proptest! {
        /// Popping the entire queue yields a non-decreasing time sequence,
        /// and equal-time events keep their relative insertion order.
        #[test]
        fn prop_stable_time_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Differential twin: for any interleaving of pushes and pops
        /// (heavy on same-nanosecond ties), the four-ary heap and the old
        /// `BinaryHeap` implementation produce identical results — same
        /// pops, same peeks, same final drain, element for element. Times
        /// span the whole `u64` range, so the packed key's high half is
        /// exercised up to `u64::MAX`, and bursts of equal-time pushes pin
        /// FIFO ties in the low half.
        #[test]
        fn prop_matches_legacy_binary_heap(
            ops in proptest::collection::vec(
                // (op, small time, wide time, burst length): op 0 pops,
                // 1 pushes at a small time (many ties), 2 pushes just
                // below `u64::MAX`, 3 pushes a burst at one wide time.
                (0u8..4, 0u64..16, any::<u64>(), 1usize..8), 1..400),
        ) {
            let mut new_q = EventQueue::new();
            let mut old_q = legacy::LegacyEventQueue::new();
            let mut payload = 0u64;
            for (op, t, wide, burst) in ops {
                let (at, n) = match op {
                    0 => {
                        prop_assert_eq!(new_q.peek_time(), old_q.peek_time());
                        prop_assert_eq!(new_q.pop(), old_q.pop());
                        continue;
                    }
                    1 => (t, 1),
                    2 => (u64::MAX - t, 1),
                    _ => (wide, burst),
                };
                for _ in 0..n {
                    new_q.push(SimTime::from_nanos(at), payload);
                    old_q.push(SimTime::from_nanos(at), payload);
                    payload += 1;
                }
            }
            loop {
                let (a, b) = (new_q.pop(), old_q.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

//! A stable priority queue of timestamped events.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: ordered by time, then by insertion sequence.
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event.
        // Ties break on the *lower* sequence number (FIFO among equals),
        // which is what makes the whole simulation deterministic.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue.
///
/// Events are popped in timestamp order; events with the same timestamp
/// are popped in insertion order. This stability is a correctness
/// property, not an optimisation: the kernel protocol relies on FIFO
/// channel ordering (§4.3.1), which the NoC implements on top of this
/// queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycles,
    popped: u64,
    virtual_pops: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
            popped: 0,
            virtual_pops: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events processed so far, virtual pops included (see
    /// [`EventQueue::add_virtual_pops`]).
    pub fn processed(&self) -> u64 {
        self.popped + self.virtual_pops
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — an event scheduled before `now`
    /// indicates a bug in a cost computation.
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {} < now {}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.at)
    }

    // ----- entries that stand for a range of sequence numbers ------------
    //
    // The stall lanes (`crate::sched`) let one heap entry stand for a run
    // of consecutive sequence numbers. These helpers expose exactly what
    // that needs and nothing more.

    /// [`EventQueue::pop`], also returning the entry's sequence number.
    #[inline]
    pub(crate) fn pop_keyed(&mut self) -> Option<(Cycles, u64, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.seq, entry.event))
    }

    /// The sequence number the next [`EventQueue::schedule`] would draw.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumes `k` sequence numbers without scheduling anything;
    /// returns the first. Pair with [`EventQueue::reinsert`] to key one
    /// entry by the first number of a reserved range.
    pub(crate) fn reserve(&mut self, k: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += k;
        first
    }

    /// Schedules `event` under an already-consumed sequence number
    /// `seq`, which no other pending entry may hold.
    pub(crate) fn reinsert(&mut self, at: Cycles, seq: u64, event: E) {
        debug_assert!(at >= self.now && seq < self.next_seq);
        self.heap.push(Entry { at, seq, event });
    }

    /// Counts `k` pops that a range entry stands for but that never
    /// touched the heap.
    pub(crate) fn add_virtual_pops(&mut self, k: u64) {
        self.virtual_pops += k;
    }

    /// Real heap pops so far, virtual pops excluded.
    #[cfg(test)]
    pub(crate) fn heap_pops(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), "c");
        q.schedule(Cycles(10), "a");
        q.schedule(Cycles(20), "b");
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert_eq!(q.pop(), Some((Cycles(20), "b")));
        assert_eq!(q.pop(), Some((Cycles(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(10));
        q.schedule_in(5, ());
        assert_eq!(q.pop(), Some((Cycles(15), ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        q.pop();
        q.schedule(Cycles(5), ());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles(1), ());
        q.schedule(Cycles(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        q.pop();
        assert_eq!(q.processed(), 1);
        assert_eq!(q.len(), 1);
    }
}

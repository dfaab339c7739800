//! Per-PE stall lanes over the deterministic event queue.
//!
//! Every PE of the simulated machine serializes its handlers: an event
//! arriving while the PE is still executing must wait until the PE
//! frees. The original engine expressed that wait by pushing the event
//! back into the global heap, timestamped at `busy_until`, every time it
//! popped too early. That retry loop is the ordering contract this
//! module reproduces exactly, at a fraction of its host cost: under a
//! wide fan-in it re-popped every waiting event each time the PE freed,
//! so draining n messages parked at one PE cost O(n²) heap operations.
//!
//! [`PeSchedule`] parks a deferred event once, in its destination PE's
//! stall lane (a slab; the event is not moved again until delivery),
//! and links parked events into *runs*. A run is a chain of parked
//! events of one PE standing for consecutive sequence numbers at one
//! timestamp: exactly the retry loop's entries `(t, s)`, `(t, s+1)`, …,
//! `(t, s+k-1)`. The heap carries one entry per run, keyed `(t, s)`.
//!
//! # Ordering contract (bit-identical to the retry loop)
//!
//! The global heap remains the sole ordering authority, and each rule
//! below is the retry loop's own behaviour restated for a run of k
//! events:
//!
//! - **PE still busy when a run pops.** The retry loop would pop the
//!   run's k entries back to back: no other entry holds a sequence
//!   number in `s..s+k`, every other entry at `t` sorts after them, and
//!   no handler runs in between, so `busy_until` cannot change. It would
//!   push each one back at `busy_until` under the next k fresh sequence
//!   numbers, in run order. The run therefore re-defers whole under k
//!   consecutive fresh numbers, and [`PeSchedule::processed`] grows by k.
//! - **PE free when a run pops.** The head delivers, as its entry
//!   `(t, s)` would have. The remainder goes back to the heap under its
//!   already-consumed key `(t, s+1)`.
//! - **Coalescing.** Parking an event, or re-deferring a run, appends to
//!   the newest run (the one that drew sequence numbers last) instead of
//!   adding a heap entry when that run belongs to the same PE, is at the
//!   same timestamp and ends exactly at the queue's next sequence number.
//!   Nothing was scheduled since, so the appended numbers are exactly the
//!   ones the retry loop would have drawn, and the merged run still
//!   stands for one consecutive range.
//!
//! Every handler thus runs at the same cycle in the same order, and
//! `processed` counts the same pops. But a busy PE's parked events
//! re-defer as a few runs rather than one heap entry each, so draining
//! a wide fan-in takes heap work linear in its width (pinned on a
//! 4,096-event burst by this module's tests). `tests/scheduler.rs` checks the equivalence against a retry-loop
//! reference on randomized workloads, wide fan-in included; the golden
//! assertions in `tests/determinism.rs` pin it to recorded cycle counts.

use crate::queue::EventQueue;
use crate::time::Cycles;

/// End of a slot chain; also "no run".
const NIL: u32 = u32::MAX;

/// Heap entry: a fresh delivery or a run of parked events.
enum Tok<E> {
    /// An event on its first trip through the queue.
    Deliver {
        /// Destination PE.
        pe: u32,
        /// The event itself.
        event: E,
    },
    /// A run of parked events: an index into `PeSchedule::runs`.
    Run(u32),
}

/// A parked event and the link to the next event of its run.
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

/// One PE's stall lane: a slab of parked events with a free list. The
/// runs thread their order through the slots' links.
struct Lane<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> Default for Lane<E> {
    fn default() -> Self {
        Lane { slots: Vec::new(), free: Vec::new() }
    }
}

impl<E> Lane<E> {
    /// Parks `event` as a one-event chain; returns its slot.
    fn park(&mut self, event: E) -> u32 {
        let slot = Slot { event: Some(event), next: NIL };
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Takes the event out of `slot`; returns it with the slot's link.
    fn take(&mut self, slot: u32) -> (E, u32) {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take().expect("a run links only parked events");
        self.free.push(slot);
        (event, s.next)
    }
}

/// A run: the `len` parked events `head..=tail` of PE `pe`, linked
/// through their slots. They stand for `len` consecutive sequence
/// numbers, starting at the key of the run's heap entry.
#[derive(Clone, Copy)]
struct Run {
    pe: u32,
    head: u32,
    tail: u32,
    len: u32,
}

/// The run that drew sequence numbers last, with its timestamp and the
/// number after its range: the only run that may still end at the
/// queue's next sequence number.
#[derive(Clone, Copy)]
struct Newest {
    run: u32,
    at: Cycles,
    end: u64,
}

/// A deterministic event schedule over a fixed set of serializing PEs.
///
/// Owns the event queue, the per-PE `busy_until` times, and the stall
/// lanes. The driver loop calls [`PeSchedule::pop_ready`] to obtain the
/// next event whose PE is free, runs the handler, and reports the
/// handler's end time via [`PeSchedule::set_busy`].
pub struct PeSchedule<E> {
    queue: EventQueue<Tok<E>>,
    busy_until: Vec<Cycles>,
    lanes: Vec<Lane<E>>,
    /// Run records; the free ones are listed in `free_runs`.
    runs: Vec<Run>,
    free_runs: Vec<u32>,
    newest: Option<Newest>,
    parked: usize,
}

impl<E> PeSchedule<E> {
    /// Creates a schedule for `pes` PEs, all idle, at time zero.
    pub fn new(pes: usize) -> PeSchedule<E> {
        PeSchedule {
            queue: EventQueue::new(),
            busy_until: vec![Cycles::ZERO; pes],
            lanes: (0..pes).map(|_| Lane::default()).collect(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            newest: None,
            parked: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped entry).
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Pops the retry loop would have made so far. A run re-deferring k
    /// events counts k pops for its one heap pop, so event totals stay
    /// comparable with the retry-loop engine.
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Events currently parked in stall lanes (diagnostics).
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// The time `pe` is busy until.
    pub fn busy_until(&self, pe: usize) -> Cycles {
        self.busy_until[pe]
    }

    /// Marks `pe` busy until `until` (handler completion).
    pub fn set_busy(&mut self, pe: usize, until: Cycles) {
        self.busy_until[pe] = until;
    }

    /// Extends `pe`'s busy time to at least `until` (boot sequencing).
    pub fn extend_busy(&mut self, pe: usize, until: Cycles) {
        if self.busy_until[pe] < until {
            self.busy_until[pe] = until;
        }
    }

    /// Schedules `event` for PE `pe` at absolute time `at`.
    pub fn schedule(&mut self, at: Cycles, pe: usize, event: E) {
        self.queue.schedule(at, Tok::Deliver { pe: pe as u32, event });
    }

    /// Pops the next event whose PE is free at its delivery time,
    /// advancing `now`; returns `None` when the queue is empty.
    ///
    /// Events popping while their PE is busy are parked in the PE's
    /// stall lane (once: the event is not touched again until delivery)
    /// and deferred to the PE's free time in a run; a run popping while
    /// its PE is busy again (an earlier same-cycle event won the PE)
    /// re-defers whole. See the module docs for why this is the retry
    /// loop's exact order.
    pub fn pop_ready(&mut self) -> Option<(Cycles, usize, E)> {
        self.pop_ready_before(Cycles::MAX)
    }

    /// Like [`PeSchedule::pop_ready`], but never pops a heap entry
    /// with a timestamp after `deadline`. This is the exact granularity
    /// of the old retry loop's deadline-bounded driver (`Machine::
    /// run_until`): deferrals whose wake time lies past the deadline
    /// stay parked rather than delivering early — the retry loop left
    /// their requeued entries in the heap the same way. May park
    /// in-deadline entries (consuming pops) and still return `None`.
    pub fn pop_ready_before(&mut self, deadline: Cycles) -> Option<(Cycles, usize, E)> {
        loop {
            if self.queue.peek_time()? > deadline {
                return None;
            }
            let (t, seq, tok) = self.queue.pop_keyed()?;
            match tok {
                Tok::Deliver { pe, event } => {
                    let busy = self.busy_until[pe as usize];
                    if busy <= t {
                        return Some((t, pe as usize, event));
                    }
                    self.park(pe, busy, event);
                }
                Tok::Run(r) => {
                    if let Some(ready) = self.pop_run(t, seq, r) {
                        return Some(ready);
                    }
                }
            }
        }
    }

    // `park` and `pop_run` stay out of line so that the uncontended
    // delivery path, most of all pops, remains a tight loop.

    /// Parks `event`, which found `pe` busy until `busy`.
    #[inline(never)]
    fn park(&mut self, pe: u32, busy: Cycles, event: E) {
        let slot = self.lanes[pe as usize].park(event);
        self.parked += 1;
        self.defer(pe, busy, slot, slot, 1, NIL);
    }

    /// Handles run `r` popped under key `(t, seq)`: delivers its head if
    /// the PE is free, else re-defers the whole run.
    #[inline(never)]
    fn pop_run(&mut self, t: Cycles, seq: u64, r: u32) -> Option<(Cycles, usize, E)> {
        let Run { pe, head, tail, len } = self.runs[r as usize];
        let busy = self.busy_until[pe as usize];
        if busy > t {
            self.queue.add_virtual_pops(u64::from(len - 1));
            self.defer(pe, busy, head, tail, len, r);
            return None;
        }
        let (event, next) = self.lanes[pe as usize].take(head);
        self.parked -= 1;
        if len == 1 {
            self.free_run(r);
        } else {
            self.runs[r as usize].head = next;
            self.runs[r as usize].len = len - 1;
            self.queue.reinsert(t, seq + 1, Tok::Run(r));
        }
        Some((t, pe as usize, event))
    }

    /// Defers the chain `head..=tail` of `k` parked events of `pe` to
    /// `at` under `k` fresh sequence numbers. `r` is the chain's run
    /// record, out of the heap, or `NIL` for a freshly parked event.
    fn defer(&mut self, pe: u32, at: Cycles, head: u32, tail: u32, k: u32, r: u32) {
        let next_seq = self.queue.next_seq();
        if let Some(newest) = &mut self.newest {
            let run = &mut self.runs[newest.run as usize];
            if run.pe == pe && newest.at == at && newest.end == next_seq {
                self.lanes[pe as usize].slots[run.tail as usize].next = head;
                run.tail = tail;
                run.len += k;
                newest.end += u64::from(k);
                self.queue.reserve(u64::from(k));
                if r != NIL {
                    // `r` popped at an earlier time than `at`, so it is
                    // not the newest run and needs no `free_run`.
                    debug_assert_ne!(newest.run, r);
                    self.free_runs.push(r);
                }
                return;
            }
        }
        let run = Run { pe, head, tail, len: k };
        let r = if r != NIL {
            self.runs[r as usize] = run;
            r
        } else if let Some(r) = self.free_runs.pop() {
            self.runs[r as usize] = run;
            r
        } else {
            self.runs.push(run);
            (self.runs.len() - 1) as u32
        };
        let seq = self.queue.reserve(u64::from(k));
        self.queue.reinsert(at, seq, Tok::Run(r));
        self.newest = Some(Newest { run: r, at, end: seq + u64::from(k) });
    }

    /// Returns run record `r` to the free list.
    fn free_run(&mut self, r: u32) {
        if self.newest.is_some_and(|n| n.run == r) {
            self.newest = None;
        }
        self.free_runs.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pes_deliver_in_time_order() {
        let mut s: PeSchedule<&str> = PeSchedule::new(2);
        s.schedule(Cycles(20), 1, "b");
        s.schedule(Cycles(10), 0, "a");
        assert_eq!(s.pop_ready(), Some((Cycles(10), 0, "a")));
        assert_eq!(s.pop_ready(), Some((Cycles(20), 1, "b")));
        assert_eq!(s.pop_ready(), None);
    }

    #[test]
    fn busy_pe_parks_and_drains_in_arrival_order() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(10), 0, 1);
        s.schedule(Cycles(11), 0, 2);
        s.schedule(Cycles(12), 0, 3);
        let (t, pe, e) = s.pop_ready().unwrap();
        assert_eq!((t, pe, e), (Cycles(10), 0, 1));
        s.set_busy(0, Cycles(50));
        // Both remaining events arrive while busy: parked, then drained
        // at the free time in arrival order.
        assert_eq!(s.pop_ready(), Some((Cycles(50), 0, 2)));
        assert_eq!(s.parked(), 1);
        s.set_busy(0, Cycles(60));
        assert_eq!(s.pop_ready(), Some((Cycles(60), 0, 3)));
        assert_eq!(s.parked(), 0);
        assert_eq!(s.pop_ready(), None);
    }

    #[test]
    fn interleaves_fresh_arrivals_at_the_free_boundary() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(10), 0, 1);
        // Scheduled before the deferral below, arriving exactly when
        // the PE frees: its lower sequence number wins the PE.
        s.schedule(Cycles(50), 0, 99);
        s.schedule(Cycles(11), 0, 2);
        assert_eq!(s.pop_ready(), Some((Cycles(10), 0, 1)));
        s.set_busy(0, Cycles(50));
        assert_eq!(s.pop_ready(), Some((Cycles(50), 0, 99)));
        s.set_busy(0, Cycles(70));
        assert_eq!(s.pop_ready(), Some((Cycles(70), 0, 2)));
    }

    #[test]
    fn zero_cost_handlers_do_not_stall() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(5), 0, 1);
        s.schedule(Cycles(5), 0, 2);
        assert_eq!(s.pop_ready(), Some((Cycles(5), 0, 1)));
        s.set_busy(0, Cycles(5));
        // busy_until == t means free (strict > defers).
        assert_eq!(s.pop_ready(), Some((Cycles(5), 0, 2)));
    }

    /// PE 1 traffic beside the burst: a tick, and the follow-up its
    /// handler schedules.
    const TICK: u64 = u64::MAX;
    const FOLLOW_UP: u64 = u64::MAX - 1;

    /// Schedules one round of the burst: `n` events for PE 0 arrive one
    /// per cycle while PE 0 is busy, each beside a tick on PE 1. Every
    /// tick's handler schedules a follow-up, which draws a sequence
    /// number between two parks, so each parked event starts a run of
    /// its own; the runs merge once they re-defer.
    fn burst_round(n: u64, base: u64, mut schedule: impl FnMut(Cycles, usize, u64)) -> Cycles {
        for i in 0..n {
            schedule(Cycles(base + 1 + i), 0, i);
            schedule(Cycles(base + 1 + i), 1, TICK);
        }
        Cycles(base + n + 10)
    }

    /// The handler of `e` on `pe` delivered at `t`: returns its end
    /// time and the follow-up it schedules, if any.
    fn handle(t: Cycles, pe: usize, e: u64, base: u64) -> (Cycles, Option<Cycles>) {
        match (pe, e) {
            (1, TICK) => (t, Some(Cycles(base + 500_000))),
            (1, _) => (t, None),
            _ => (t + 1, None),
        }
    }

    /// The retry loop's pop count for one [`burst_round`]: every event
    /// pops once on arrival, ticks and follow-ups never wait, and each
    /// delivery on PE 0 re-pops everything still waiting there.
    fn retry_loop_pops(n: u64) -> u64 {
        n + n * (n + 1) / 2 + 2 * n
    }

    /// [`retry_loop_pops`] by running the retry loop itself.
    fn run_retry_loop(n: u64) -> u64 {
        let mut q: EventQueue<(usize, u64)> = EventQueue::new();
        let mut busy = [burst_round(n, 0, |at, pe, e| q.schedule(at, (pe, e))), Cycles::ZERO];
        while let Some((t, (pe, e))) = q.pop() {
            if busy[pe] > t {
                q.schedule(busy[pe], (pe, e));
                continue;
            }
            let (end, follow_up) = handle(t, pe, e, 0);
            busy[pe] = end;
            if let Some(at) = follow_up {
                q.schedule(at, (pe, FOLLOW_UP));
            }
        }
        q.processed()
    }

    #[test]
    fn lane_slots_are_reused() {
        for n in 1..40 {
            assert_eq!(run_retry_loop(n), retry_loop_pops(n), "closed form, n = {n}");
        }
        // A 4,096-event burst onto one busy PE, three rounds over.
        const N: u64 = 4096;
        let mut s: PeSchedule<u64> = PeSchedule::new(2);
        let mut footprint = None;
        for round in 0..3u64 {
            let base = round * 1_000_000;
            let busy = burst_round(N, base, |at, pe, e| s.schedule(at, pe, e));
            s.set_busy(0, busy);
            let (pops, heap_pops) = (s.processed(), s.queue.heap_pops());
            let (mut next, mut delivered) = (0, 0);
            while let Some((t, pe, e)) = s.pop_ready() {
                delivered += 1;
                if pe == 0 {
                    assert_eq!(e, next, "round {round}: arrival order");
                    next += 1;
                }
                let (end, follow_up) = handle(t, pe, e, base);
                s.set_busy(pe, end);
                if let Some(at) = follow_up {
                    s.schedule(at, pe, FOLLOW_UP);
                }
            }
            assert_eq!(next, N);
            assert_eq!(s.parked(), 0);
            // Logical pops: the quadratic retry-loop count, exactly.
            assert_eq!(s.processed() - pops, retry_loop_pops(N), "round {round}");
            // Real heap work is linear. The heap drains, so its pushes
            // equal its pops.
            assert!(s.queue.is_empty());
            let real = s.queue.heap_pops() - heap_pops;
            assert!(
                real <= 4 * delivered,
                "round {round}: {real} heap pops, {delivered} deliveries"
            );
            // Lane slots and run records come back for the next round.
            let now = (s.lanes[0].slots.len(), s.runs.len());
            assert_eq!(*footprint.get_or_insert(now), now, "round {round}: storage grew");
        }
    }
}

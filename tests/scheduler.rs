//! Property tests for the stall-lane event engine.
//!
//! The engine ([`semper_sim::PeSchedule`]) replaced the original
//! "requeue into the global heap until the PE is free" retry loop. Its
//! contract is *exact trace equivalence*: for any workload, every event
//! is delivered at the same cycle, in the same order, with the same
//! pop count, as the retry loop produced — including
//! same-cycle tie-breaks, where a deferred event competes with freshly
//! arriving traffic at the instant its PE frees.
//!
//! The reference model below *is* the old engine, reimplemented on the
//! raw [`EventQueue`] exactly as `Machine::step` used to: pop, and if
//! the destination is busy, push the whole event back at `busy_until`.
//! [`DetRng`]-randomized workloads (bursty arrivals on a small time
//! window, zero-cost handlers, fan-out follow-up events) then drive
//! both engines and compare full traces. The pop count compared is
//! [`PeSchedule::processed`], which reports the retry loop's pops even
//! though a run of parked events re-defers as one heap entry.

use semper_sim::{Cycles, DetRng, EventQueue, PeSchedule};

/// One simulated event: an id whose handler cost and follow-up fan-out
/// are derived deterministically from the id, so both engines compute
/// identical workloads without sharing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    id: u64,
    pe: usize,
    /// Spawning generation: deliveries of generation > 0 spawn
    /// follow-up events (handler output traffic).
    gen: u8,
}

/// Deterministic per-event parameters (cost, fan-out, delays).
struct Workload {
    seed: u64,
    pes: usize,
}

impl Workload {
    fn cost(&self, id: u64) -> u64 {
        // Small costs with plenty of zeros force busy windows that end
        // exactly on other events' arrival cycles.
        DetRng::split(self.seed, id ^ 0xC0).below(7)
    }

    fn followups(&self, ev: Ev, end: Cycles) -> Vec<(Cycles, Ev)> {
        if ev.gen == 0 {
            return Vec::new();
        }
        let mut rng = DetRng::split(self.seed, ev.id ^ 0xFA);
        let n = rng.below(3);
        (0..n)
            .map(|i| {
                let child = Ev {
                    id: ev.id * 31 + i + 1,
                    pe: rng.below(self.pes as u64) as usize,
                    gen: ev.gen - 1,
                };
                // Zero-delay children land on the exact cycle the
                // handler finishes — the adversarial boundary tie.
                (end + rng.below(5), child)
            })
            .collect()
    }
}

/// A delivered-event trace entry: (cycle, event id, pe).
type Trace = Vec<(u64, u64, usize)>;

/// The pre-refactor engine: retry loop on the raw stable queue.
fn reference_trace(w: &Workload, initial: &[(Cycles, Ev)]) -> (Trace, u64, u64) {
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut busy_until = vec![Cycles::ZERO; w.pes];
    for (at, ev) in initial {
        queue.schedule(*at, *ev);
    }
    let mut trace = Trace::new();
    while let Some((t, ev)) = queue.pop() {
        if busy_until[ev.pe] > t {
            // The PE is still executing; retry when it frees up (the
            // original Machine::step logic, verbatim).
            let at = busy_until[ev.pe];
            queue.schedule(at, ev);
            continue;
        }
        let end = t + w.cost(ev.id);
        busy_until[ev.pe] = end;
        trace.push((t.0, ev.id, ev.pe));
        for (at, child) in w.followups(ev, end) {
            queue.schedule(at, child);
        }
    }
    (trace, queue.processed(), queue.now().0)
}

/// The stall-lane engine on the same workload.
fn stall_lane_trace(w: &Workload, initial: &[(Cycles, Ev)]) -> (Trace, u64, u64) {
    let mut sched: PeSchedule<Ev> = PeSchedule::new(w.pes);
    for (at, ev) in initial {
        sched.schedule(*at, ev.pe, *ev);
    }
    let mut trace = Trace::new();
    while let Some((t, pe, ev)) = sched.pop_ready() {
        assert_eq!(pe, ev.pe, "schedule() PE must round-trip");
        let end = t + w.cost(ev.id);
        sched.set_busy(pe, end);
        trace.push((t.0, ev.id, ev.pe));
        for (at, child) in w.followups(ev, end) {
            sched.schedule(at, child.pe, child);
        }
    }
    assert_eq!(sched.parked(), 0, "drained engine must have empty stall lanes");
    (trace, sched.processed(), sched.now().0)
}

fn initial_burst(seed: u64, pes: usize, n: u64, window: u64, gen: u8) -> Vec<(Cycles, Ev)> {
    let mut rng = DetRng::seed_from(seed);
    (0..n)
        .map(|id| {
            let at = Cycles(rng.below(window));
            let pe = rng.below(pes as u64) as usize;
            (at, Ev { id, pe, gen })
        })
        .collect()
}

/// The property: for randomized bursty workloads with follow-up
/// traffic, the stall-lane engine delivers the exact same
/// (cycle, event, pe) trace as the retry-loop reference — same
/// delivery order among same-cycle contenders, same final time, and
/// the same pop count (so `Machine::events` is comparable across
/// engines).
#[test]
fn randomized_workloads_match_reference_trace() {
    for seed in 0..16u64 {
        let w = Workload { seed: 0xA11CE ^ (seed * 0x9E37_79B9), pes: 4 };
        // 300 events over a 50-cycle window: most deliveries contend,
        // and busy windows constantly end on other arrivals' cycles.
        let initial = initial_burst(w.seed, w.pes, 300, 50, 2);
        let (ref_trace, ref_pops, ref_now) = reference_trace(&w, &initial);
        let (lane_trace, lane_pops, lane_now) = stall_lane_trace(&w, &initial);
        assert_eq!(
            lane_trace, ref_trace,
            "seed {seed}: stall-lane engine diverged from the retry-loop reference"
        );
        assert_eq!(lane_pops, ref_pops, "seed {seed}: pop counts diverged");
        assert_eq!(lane_now, ref_now, "seed {seed}: final time diverged");
        // Sanity: the workload actually exercised deferrals.
        assert!(ref_pops > ref_trace.len() as u64, "seed {seed}: no deferrals happened");
    }
}

/// Same-cycle burst onto one PE: every event arrives at cycle 10, so
/// the entire schedule is tie-breaks. Delivery must follow arrival
/// (insertion) order with each handler pushing the next delivery out
/// by its cost — on both engines identically.
#[test]
fn same_cycle_burst_delivers_in_arrival_order() {
    let w = Workload { seed: 7, pes: 1 };
    let initial: Vec<(Cycles, Ev)> =
        (0..64).map(|id| (Cycles(10), Ev { id, pe: 0, gen: 0 })).collect();
    let (ref_trace, ..) = reference_trace(&w, &initial);
    let (lane_trace, ..) = stall_lane_trace(&w, &initial);
    assert_eq!(lane_trace, ref_trace);
    let ids: Vec<u64> = lane_trace.iter().map(|(_, id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>(), "ties must deliver in arrival order");
    // Cycles are monotonically non-decreasing and start at the burst.
    assert_eq!(lane_trace[0].0, 10);
    assert!(lane_trace.windows(2).all(|w| w[0].0 <= w[1].0));
}

/// Deep deferral chains: a PE kept busy by a steady drip of work while
/// a low-priority burst waits. Exercises repeated re-deferral (a run
/// losing the free cycle to an earlier same-cycle contender several
/// times in a row).
#[test]
fn repeated_redeferral_matches_reference() {
    for seed in 0..8u64 {
        let w = Workload { seed: 0xBEEF ^ seed, pes: 2 };
        let mut initial = initial_burst(w.seed, w.pes, 64, 8, 1);
        // A same-cycle wall at the window edge: many events landing at
        // the exact cycle earlier busy windows tend to end on.
        for id in 1000..1032 {
            initial.push((Cycles(8), Ev { id, pe: (id % 2) as usize, gen: 0 }));
        }
        let (ref_trace, ref_pops, _) = reference_trace(&w, &initial);
        let (lane_trace, lane_pops, _) = stall_lane_trace(&w, &initial);
        assert_eq!(lane_trace, ref_trace, "seed {seed}");
        assert_eq!(lane_pops, ref_pops, "seed {seed}");
    }
}

/// Deadline-bounded draining (`Machine::run_until`): the old driver
/// popped heap entries one at a time while the head was within the
/// deadline, so a stalled message whose retry landed past the deadline
/// stayed queued *unhandled*. `pop_ready_before` must reproduce that —
/// never delivering an event at a cycle past the deadline — and the
/// post-deadline continuation must then match the reference exactly.
#[test]
fn deadline_bounded_drain_matches_reference() {
    for seed in 0..8u64 {
        let w = Workload { seed: 0xDEAD ^ seed, pes: 3 };
        let initial = initial_burst(w.seed, w.pes, 200, 40, 2);
        for deadline in [Cycles(0), Cycles(17), Cycles(25), Cycles(60), Cycles(10_000)] {
            // Reference: the old Machine::run_until loop, verbatim.
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let mut busy_until = vec![Cycles::ZERO; w.pes];
            for (at, ev) in &initial {
                queue.schedule(*at, *ev);
            }
            let mut ref_trace = Trace::new();
            let drive = |queue: &mut EventQueue<Ev>,
                         busy_until: &mut Vec<Cycles>,
                         trace: &mut Trace,
                         bound: Option<Cycles>| {
                while let Some(pt) = queue.peek_time() {
                    if bound.is_some_and(|d| pt > d) {
                        break;
                    }
                    let (t, ev) = queue.pop().expect("peeked");
                    if busy_until[ev.pe] > t {
                        let at = busy_until[ev.pe];
                        queue.schedule(at, ev);
                        continue;
                    }
                    let end = t + w.cost(ev.id);
                    busy_until[ev.pe] = end;
                    trace.push((t.0, ev.id, ev.pe));
                    for (at, child) in w.followups(ev, end) {
                        queue.schedule(at, child);
                    }
                }
            };
            drive(&mut queue, &mut busy_until, &mut ref_trace, Some(deadline));
            let ref_cut = (ref_trace.len(), queue.processed(), queue.now().0);

            // Stall-lane engine, same workload, same deadline.
            let mut sched: PeSchedule<Ev> = PeSchedule::new(w.pes);
            for (at, ev) in &initial {
                sched.schedule(*at, ev.pe, *ev);
            }
            let mut lane_trace = Trace::new();
            while let Some((t, _pe, ev)) = sched.pop_ready_before(deadline) {
                assert!(t <= deadline, "delivered past the deadline");
                let end = t + w.cost(ev.id);
                sched.set_busy(ev.pe, end);
                lane_trace.push((t.0, ev.id, ev.pe));
                for (at, child) in w.followups(ev, end) {
                    sched.schedule(at, child.pe, child);
                }
            }
            assert_eq!(lane_trace, ref_trace, "seed {seed} deadline {deadline}: bounded phase");
            assert_eq!(
                (lane_trace.len(), sched.processed(), sched.now().0),
                ref_cut,
                "seed {seed} deadline {deadline}: bounded-phase counters"
            );

            // Continue both to idle: the leftover (parked/requeued)
            // state must produce the same tail.
            drive(&mut queue, &mut busy_until, &mut ref_trace, None);
            while let Some((t, _pe, ev)) = sched.pop_ready() {
                let end = t + w.cost(ev.id);
                sched.set_busy(ev.pe, end);
                lane_trace.push((t.0, ev.id, ev.pe));
                for (at, child) in w.followups(ev, end) {
                    sched.schedule(at, child.pe, child);
                }
            }
            assert_eq!(lane_trace, ref_trace, "seed {seed} deadline {deadline}: tail after resume");
        }
    }
}

/// The retry loop, one step of `Machine::step_bounded`: pops until it
/// delivers an event (running its handler) or the head of the queue
/// lies past `deadline`.
fn reference_step(
    w: &Workload,
    queue: &mut EventQueue<Ev>,
    busy_until: &mut [Cycles],
    deadline: Cycles,
) -> Option<(u64, u64, usize)> {
    loop {
        if queue.peek_time()? > deadline {
            return None;
        }
        let (t, ev) = queue.pop().expect("peeked");
        if busy_until[ev.pe] > t {
            queue.schedule(busy_until[ev.pe], ev);
            continue;
        }
        let end = t + w.cost(ev.id);
        busy_until[ev.pe] = end;
        for (at, child) in w.followups(ev, end) {
            queue.schedule(at, child);
        }
        return Some((t.0, ev.id, ev.pe));
    }
}

/// The fan-in of a spanning wide-tree revoke: thousands of events
/// converge on one PE with staggered arrivals. Traffic on the other PEs
/// spawns follow-ups that land on the hot PE too, and same-cycle walls
/// hit it and its neighbours, so the hot PE's runs constantly form,
/// split and merge. Zero-cost handlers come from the workload's costs.
fn wide_fan_in(seed: u64, pes: usize) -> Vec<(Cycles, Ev)> {
    let mut rng = DetRng::seed_from(seed);
    let mut initial: Vec<(Cycles, Ev)> =
        (0..2400).map(|id| (Cycles(rng.below(7000)), Ev { id, pe: 0, gen: 0 })).collect();
    for id in 10_000..10_300 {
        let pe = 1 + rng.below(pes as u64 - 1) as usize;
        initial.push((Cycles(rng.below(7000)), Ev { id, pe, gen: 2 }));
    }
    for (wall, at) in [37u64, 2500, 2501, 6000].into_iter().enumerate() {
        for j in 0..48u64 {
            let id = 20_000 + wall as u64 * 100 + j;
            initial.push((Cycles(at), Ev { id, pe: (j % 3) as usize, gen: 1 }));
        }
    }
    initial
}

/// Wide fan-in against the retry-loop reference: the same trace, pop
/// count and final time, both draining freely and stepping one
/// delivery at a time under moving deadlines. Some deadlines fall
/// below the current cycle, right after a run's head delivered, and
/// so must leave the run's remainder pending until a later step.
#[test]
fn wide_fan_in_matches_reference() {
    for seed in 0..2u64 {
        let w = Workload { seed: 0xFA41 ^ seed, pes: 4 };
        let initial = wide_fan_in(w.seed, w.pes);
        let (ref_trace, ref_pops, ref_now) = reference_trace(&w, &initial);
        let (lane_trace, lane_pops, lane_now) = stall_lane_trace(&w, &initial);
        assert_eq!(lane_trace, ref_trace, "seed {seed}: free drain");
        assert_eq!((lane_pops, lane_now), (ref_pops, ref_now), "seed {seed}: free drain");
        // The hot PE really stalled: quadratic retry-loop pops.
        assert!(ref_pops > 50 * ref_trace.len() as u64, "seed {seed}: {ref_pops} pops");

        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut busy_until = vec![Cycles::ZERO; w.pes];
        let mut sched: PeSchedule<Ev> = PeSchedule::new(w.pes);
        for (at, ev) in &initial {
            queue.schedule(*at, *ev);
            sched.schedule(*at, ev.pe, *ev);
        }
        let mut rng = DetRng::seed_from(w.seed ^ 0xD1);
        let (mut steps, mut held_back) = (0u64, 0u64);
        while !queue.is_empty() {
            let now = queue.now().0;
            let deadline = Cycles(match rng.below(5) {
                0 => now.saturating_sub(1 + rng.below(3)),
                1 => now,
                2 | 3 => now + rng.below(4),
                _ => now + 50,
            });
            let want = reference_step(&w, &mut queue, &mut busy_until, deadline);
            let got = sched.pop_ready_before(deadline).map(|(t, pe, ev)| {
                let end = t + w.cost(ev.id);
                sched.set_busy(pe, end);
                for (at, child) in w.followups(ev, end) {
                    sched.schedule(at, child.pe, child);
                }
                (t.0, ev.id, pe)
            });
            assert_eq!(got, want, "seed {seed} step {steps}: deadline {deadline}");
            assert_eq!(
                (sched.processed(), sched.now()),
                (queue.processed(), queue.now()),
                "seed {seed} step {steps}: counters"
            );
            if want.is_none() && deadline.0 < now && sched.parked() > 0 {
                held_back += 1;
            }
            steps += 1;
        }
        assert_eq!(sched.parked(), 0);
        assert!(held_back > 100, "seed {seed}: deadlines below now held back {held_back} times");
    }
}

/// An idle machine (every handler free when its event arrives) must
/// never park anything: the stall lanes are pure overhead-free
/// passthrough in the uncontended case.
#[test]
fn uncontended_events_never_park() {
    let w = Workload { seed: 3, pes: 4 };
    // One event every 100 cycles — far apart, costs ≤ 6.
    let initial: Vec<(Cycles, Ev)> =
        (0..32).map(|id| (Cycles(id * 100), Ev { id, pe: (id % 4) as usize, gen: 0 })).collect();
    let (trace, pops, _) = stall_lane_trace(&w, &initial);
    assert_eq!(pops, trace.len() as u64, "no deferral pops expected");
}

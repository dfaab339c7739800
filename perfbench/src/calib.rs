//! Host-speed calibration.
//!
//! The benchmark shares its host with other work, which changes how fast
//! the host runs any program from one minute to the next: on a two-CPU
//! host, runs of the same code differed by up to a third. After each
//! repetition the benchmark therefore times a fixed reference kernel and
//! scales the repetition's host timings to a host that runs the kernel
//! at [`NOMINAL_ITERS_PER_S`].
//!
//! The kernel is binary-heap and hash-map traffic like the event queue
//! and the mapping database, on a working set small enough to stay in
//! cache, with buffers allocated once. It so tracks the host's compute
//! speed; it does not track contention for memory bandwidth, which a
//! larger kernel would exaggerate. The kernel is part of the benchmark,
//! not of the program, so no change to the program moves it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel speed of the host the benchmark was defined on (a
/// two-CPU x86-64 virtual machine); scaled figures are reported for a
/// host of this speed.
pub const NOMINAL_ITERS_PER_S: f64 = 1.4e7;

const ITERS: u64 = 100_000;
const TIMINGS: usize = 5;
const HEAP_ENTRIES: usize = 1024;
const MAP_KEYS: u64 = 4096;

/// The reference kernel and its buffers.
pub struct Calibrator {
    heap: BinaryHeap<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            heap: BinaryHeap::with_capacity(HEAP_ENTRIES + 1),
            map: HashMap::with_capacity_and_hasher(
                MAP_KEYS as usize,
                BuildHasherDefault::default(),
            ),
        }
    }
}

impl Calibrator {
    /// Times the reference kernel a few times; returns the median speed
    /// in iterations per host second, so that one interruption of the
    /// benchmark's thread does not skew the scale.
    pub fn speed(&mut self) -> f64 {
        let mut speeds: Vec<f64> = (0..TIMINGS).map(|_| self.time_once()).collect();
        speeds.sort_by(f64::total_cmp);
        speeds[TIMINGS / 2]
    }

    fn time_once(&mut self) -> f64 {
        self.heap.clear();
        self.map.clear();
        let start = Instant::now();
        let mut x = 1u64;
        for i in 0..ITERS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            self.heap.push(x >> 20);
            if self.heap.len() > HEAP_ENTRIES {
                self.heap.pop();
            }
            self.map.insert((x >> 40) % MAP_KEYS, i);
        }
        black_box((&self.heap, &self.map));
        ITERS as f64 / start.elapsed().as_secs_f64()
    }
}

/// A rate measured on a host running the kernel at `ref_speed`, scaled
/// to the nominal host.
pub fn scale_rate(rate: f64, ref_speed: f64) -> f64 {
    rate * NOMINAL_ITERS_PER_S / ref_speed
}

/// A duration measured on a host running the kernel at `ref_speed`,
/// scaled to the nominal host.
pub fn scale_time(secs: f64, ref_speed: f64) -> f64 {
    secs * ref_speed / NOMINAL_ITERS_PER_S
}

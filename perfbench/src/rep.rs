//! What one repetition of a workload measures, and the bookkeeping the
//! workloads share: per-kind latency samples, kernel-counter deltas, the
//! end-of-run correctness checks and the simulation digest.

use std::collections::BTreeMap;
use std::time::Instant;

use semper_base::{KernelId, VpeId};
use semper_sim::Cycles;
use semperos::Machine;

/// The kinds of benchmark call whose latency is reported separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `CreateMem`.
    Create,
    /// `DeriveMem`.
    Derive,
    /// Obtain or delegate with both VPEs in one group.
    ExchangeLocal,
    /// Obtain or delegate across two groups.
    ExchangeSpanning,
    /// Revoke of a subtree held within the caller's group.
    RevokeLocal,
    /// Revoke of a subtree with holders in other groups.
    RevokeSpanning,
    /// One `Syscall::Batch` of revokes.
    BatchRevoke,
    /// One hop of a capability-group migration.
    MigrateHop,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::Create,
        Kind::Derive,
        Kind::ExchangeLocal,
        Kind::ExchangeSpanning,
        Kind::RevokeLocal,
        Kind::RevokeSpanning,
        Kind::BatchRevoke,
        Kind::MigrateHop,
    ];

    /// The kind's metric name (and span name).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Derive => "derive",
            Kind::ExchangeLocal => "exchange_local",
            Kind::ExchangeSpanning => "exchange_spanning",
            Kind::RevokeLocal => "revoke_local",
            Kind::RevokeSpanning => "revoke_spanning",
            Kind::BatchRevoke => "batch_revoke",
            Kind::MigrateHop => "migrate_hop",
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted samples; 0 if empty.
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Median of unsorted values; 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Kernel counters summed over every kernel at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pops: u64,
    dispatches: u64,
    kcalls: u64,
    credit_stalled: u64,
    busy_cycles: u64,
    retries: u64,
    ops_aborted: u64,
    fault_anomalies: u64,
    caps_created: u64,
    caps_deleted: u64,
    now: u64,
}

impl Counters {
    /// Reads the counters of `m`.
    pub fn read(m: &Machine) -> Counters {
        let mut c = Counters { pops: m.events(), now: m.now().0, ..Counters::default() };
        for s in m.kernel_stats() {
            c.dispatches += s.handler_dispatches;
            c.kcalls += s.kcalls_out;
            c.credit_stalled += s.kcalls_credit_stalled;
            c.busy_cycles += s.busy_cycles;
            c.retries += s.retries;
            c.ops_aborted += s.ops_aborted;
            c.fault_anomalies += s.fault_anomalies;
            c.caps_created += s.caps_created;
            c.caps_deleted += s.caps_deleted;
        }
        c
    }

    /// Capabilities deleted so far.
    pub fn caps_deleted(&self) -> u64 {
        self.caps_deleted
    }
}

/// The outcome of one repetition.
#[derive(Default)]
pub struct RepOut {
    /// Host seconds of each set-up step (`core.build_s`, ...).
    pub setup_steps: Vec<(&'static str, f64)>,
    /// Host nanoseconds spent inside the program during the measured
    /// phase.
    pub measured_ns: u64,
    /// Work units completed in the measured phase (syscalls, requests
    /// or capabilities deleted, per workload).
    pub units: u64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Calls answered with `Err`.
    pub errs: u64,
    /// Capabilities still held after a revoke of their subtree answered
    /// `Ok` (possible only under a fault plan).
    pub revoke_survivors: u64,
    /// Operations whose outcome the checker rejected.
    pub wrong: u64,
    /// Why the checker rejected them (first few).
    pub problems: Vec<String>,
    /// Deterministic simulation metrics.
    pub sim: BTreeMap<String, f64>,
    /// Hash of every simulation metric and every kernel's state digest.
    pub digest: u64,
    /// Host milliseconds of the end-of-run invariant check.
    pub check_invariants_ms: f64,
    /// Peak heap bytes allocated during the repetition, above what was
    /// live when it started.
    pub peak_heap_bytes: usize,
    /// Speed of the reference kernel measured right after the
    /// repetition (see [`crate::calib`]).
    pub ref_iters_per_s: f64,
    /// Host rates (units per second) of the windows the measured phase
    /// was cut into; the median over many windows is steadier than one
    /// rate per repetition.
    pub window_rates: Vec<f64>,
    /// Units and measured nanoseconds at the last window boundary.
    window_mark: (u64, u64),
}

impl RepOut {
    /// Total set-up seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup_steps.iter().map(|(_, s)| s).sum()
    }

    /// Work units per host second of the measured phase.
    pub fn host_ops_per_s(&self) -> f64 {
        self.units as f64 / (self.measured_ns.max(1) as f64 / 1e9)
    }

    /// Closes a measurement window with `units` units done since the
    /// measured phase began.
    pub fn close_window(&mut self, units: u64) {
        let (units_before, ns_before) = self.window_mark;
        let ns = self.measured_ns - ns_before;
        if units > units_before && ns > 0 {
            self.window_rates.push((units - units_before) as f64 / (ns as f64 / 1e9));
        }
        self.window_mark = (units, self.measured_ns);
    }

    /// Records a rejected outcome.
    pub fn reject(&mut self, why: String) {
        self.wrong += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// Per-kind latency samples (simulated cycles) of the measured phase.
#[derive(Default)]
pub struct Samples {
    calls: Vec<(Kind, u64)>,
}

impl Samples {
    /// Room for `calls` samples up front, so the heap the benchmark uses
    /// for them does not depend on the mix of kinds.
    pub fn with_capacity(calls: usize) -> Samples {
        Samples { calls: Vec::with_capacity(calls) }
    }

    /// Records one call of `kind` that took `cycles`.
    pub fn push(&mut self, kind: Kind, cycles: u64) {
        self.calls.push((kind, cycles));
    }

    /// Writes `op_*` and `kernel.<kind>.*` cycle metrics into `sim`.
    fn report(&self, sim: &mut BTreeMap<String, f64>) {
        let mut all: Vec<u64> = self.calls.iter().map(|&(_, c)| c).collect();
        for kind in Kind::ALL {
            let mut v: Vec<u64> =
                self.calls.iter().filter(|&&(k, _)| k == kind).map(|&(_, c)| c).collect();
            v.sort_unstable();
            let v = &v;
            let name = kind.name();
            sim.insert(format!("kernel.{name}.count"), v.len() as f64);
            sim.insert(format!("kernel.{name}.cycles_p50"), percentile(v, 50) as f64);
            sim.insert(format!("kernel.{name}.cycles_p99"), percentile(v, 99) as f64);
        }
        all.sort_unstable();
        sim.insert("kernel.op_samples".into(), all.len() as f64);
        sim.insert("kernel.op_p50_cycles".into(), percentile(&all, 50) as f64);
        sim.insert("kernel.op_p99_cycles".into(), percentile(&all, 99) as f64);
    }
}

/// Where the workload looks for per-VPE table sizes and which kernels
/// it checks at the end.
pub struct Scope<'a> {
    /// VPEs whose tables count towards `caps.table_max`, with the
    /// kernel that owns each at the end of the run.
    pub vpes: &'a [(VpeId, KernelId)],
    /// Largest table seen during the run (the workload's own samples).
    pub table_max: usize,
    /// Whether every surviving kernel must be quiescent at the end.
    pub quiescent: bool,
}

/// Closes a repetition: derives the simulation metrics of the measured
/// phase from `before`/`after` and `samples`, runs the invariant (and,
/// if asked, quiescence) checks, and hashes the kernels' state.
pub fn finish(
    m: &Machine,
    out: &mut RepOut,
    before: Counters,
    after: Counters,
    samples: Samples,
    scope: Scope<'_>,
    requests: u64,
) {
    let kernels = m.cfg().kernels;
    let makespan = after.now - before.now;
    let units = out.units.max(1) as f64;
    let dispatches = after.dispatches - before.dispatches;
    let pops = after.pops - before.pops;
    let sim = &mut out.sim;
    sim.insert("makespan_cycles".into(), makespan as f64);
    sim.insert("units".into(), out.units as f64);
    sim.insert("attempted".into(), out.attempted as f64);
    sim.insert("sim.heap_pops".into(), pops as f64);
    sim.insert("sim.pops_per_dispatch".into(), pops as f64 / dispatches.max(1) as f64);
    sim.insert("sim.faults_injected".into(), m.fault_stats().map_or(0, |f| f.injected) as f64);
    let kcalls = after.kcalls - before.kcalls;
    sim.insert("kernel.kcalls_per_op".into(), kcalls as f64 / units);
    sim.insert("kernel.dispatches_per_op".into(), dispatches as f64 / units);
    sim.insert(
        "kernel.credit_stalled".into(),
        (after.credit_stalled - before.credit_stalled) as f64,
    );
    let busy = after.busy_cycles - before.busy_cycles;
    sim.insert("kernel.busy_cycles".into(), busy as f64);
    sim.insert(
        "kernel.utilization".into(),
        busy as f64 / (f64::from(kernels) * makespan.max(1) as f64),
    );
    let stats = m.kernel_stats();
    sim.insert(
        "kernel.max_pending_ops".into(),
        stats.iter().map(|s| s.max_pending_ops).max().unwrap_or(0) as f64,
    );
    sim.insert("kernel.retries".into(), (after.retries - before.retries) as f64);
    sim.insert("kernel.ops_aborted".into(), (after.ops_aborted - before.ops_aborted) as f64);
    sim.insert(
        "kernel.fault_anomalies".into(),
        (after.fault_anomalies - before.fault_anomalies) as f64,
    );
    sim.insert("kernel.ops_failed_ratio".into(), out.errs as f64 / out.attempted.max(1) as f64);
    sim.insert("kernel.revoke_survivors".into(), out.revoke_survivors as f64);
    sim.insert("caps.created".into(), (after.caps_created - before.caps_created) as f64);
    sim.insert("caps.deleted".into(), (after.caps_deleted - before.caps_deleted) as f64);
    let live: usize = (0..kernels).map(|k| m.kernel(KernelId(k)).mapdb().len()).sum();
    sim.insert("caps.live_end".into(), live as f64);
    let table_end = scope
        .vpes
        .iter()
        .filter_map(|&(v, k)| m.kernel(k).table(v).map(|t| t.len()))
        .max()
        .unwrap_or(0);
    sim.insert("caps.table_max".into(), scope.table_max.max(table_end) as f64);
    sim.insert("apps.requests_completed".into(), requests as f64);
    sim.insert(
        "apps.requests_per_sim_s".into(),
        requests as f64 / Cycles(makespan.max(1)).as_secs(),
    );
    sim.insert(
        "m3fs.sessions_opened".into(),
        stats.iter().map(|s| s.sessions_opened).sum::<u64>() as f64,
    );
    samples.report(sim);

    let t = Instant::now();
    for k in 0..kernels {
        let id = KernelId(k);
        if m.dead_kernels().contains(&id) {
            continue;
        }
        if let Err(e) = m.kernel(id).check_invariants() {
            out.reject(format!("kernel {k} invariant: {e}"));
        }
    }
    out.check_invariants_ms = t.elapsed().as_secs_f64() * 1e3;
    if scope.quiescent {
        for k in 0..kernels {
            let id = KernelId(k);
            if m.dead_kernels().contains(&id) {
                continue;
            }
            if let Err(e) = m.kernel(id).check_quiescent() {
                out.reject(format!("not quiescent: {e}"));
            }
        }
    }

    let mut h = Fnv::new();
    for (name, value) in &out.sim {
        h.write(name.as_bytes());
        h.write(&value.to_bits().to_le_bytes());
    }
    for k in 0..kernels {
        for line in m.kernel(KernelId(k)).state_digest() {
            h.write(line.as_bytes());
            h.write(b"\n");
        }
    }
    out.digest = h.finish();
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

//! The repository benchmark: seeded workloads that drive the SemperOS
//! reproduction through its public entry points, check every result,
//! and report end-to-end metrics (untraced) or per-layer metrics
//! (traced). See `README.md` next to this crate for the workloads, the
//! metrics and what each layer metric is expected to move.

pub mod calib;
pub mod capmodel;
pub mod caps_probe;
pub mod heap;
pub mod rep;
pub mod rng;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use rep::{median, percentile, Kind, RepOut};
use trace::{Clock, Layer};
pub use workloads::{Bench, Scale};

/// The seed the benchmark is tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to check that a claim holds on inputs it
/// was not fitted to.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Fewest repetitions a run makes, whatever its time budget.
const MIN_REPS: usize = 3;
/// A run stops starting repetitions after this long, whatever
/// `--seconds` asks for.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
pub struct Report {
    /// True when every check passed.
    pub correct: bool,
    /// Why a check failed (first few reasons).
    pub problems: Vec<String>,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations whose outcome was wrong over all repetitions.
    pub failed: u64,
    /// Repetitions made.
    pub reps: usize,
    /// Hash of the simulation metrics and kernel state of a repetition.
    pub digest: u64,
    /// The simulation digest line: every deterministic metric.
    pub digest_line: String,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs `bench` on `seed` for about `budget`: repetitions of set-up plus
/// measured phase, each on a fresh machine, until the budget is spent.
/// Traced runs alternate untraced and traced repetitions, so tracing
/// overhead and traced-versus-untraced determinism are measured in one
/// process; the spans of the last traced repetition are written to
/// `trace_dir` when given.
pub fn run(
    bench: Bench,
    seed: u64,
    budget: Duration,
    traced: bool,
    scale: Scale,
    trace_dir: Option<&Path>,
) -> Report {
    let started = Instant::now();
    let mut reps: Vec<(RepOut, bool)> = Vec::new();
    let mut summaries: Vec<TraceSummary> = Vec::new();
    let mut last_traced: Option<Clock> = None;
    let min_reps = if traced { MIN_REPS + 1 } else { MIN_REPS };
    let mut calibrator = calib::Calibrator::default();
    loop {
        let trace_this = traced && reps.len() % 2 == 1;
        let mut clock = Clock::new(trace_this);
        let live = heap::reset_peak();
        let mut out = bench.run(seed, scale, &mut clock);
        out.peak_heap_bytes = heap::peak().saturating_sub(live);
        out.ref_iters_per_s = calibrator.speed();
        reps.push((out, trace_this));
        if trace_this {
            summaries.push(TraceSummary::of(&clock));
            last_traced = Some(clock);
        }
        let spent = started.elapsed();
        let per_rep = spent / reps.len() as u32;
        if reps.len() >= min_reps && (spent + per_rep > budget || spent > HARD_LIMIT) {
            break;
        }
    }

    let first = &reps[0].0;
    let mut problems: Vec<String> = Vec::new();
    for (i, (r, t)) in reps.iter().enumerate() {
        for p in &r.problems {
            if problems.len() < 8 {
                problems.push(format!("repetition {i}: {p}"));
            }
        }
        if r.digest != first.digest {
            problems.push(format!(
                "repetition {i} ({}) simulated differently from repetition 0",
                if *t { "traced" } else { "untraced" }
            ));
        }
    }
    let attempted = reps.iter().map(|(r, _)| r.attempted).sum::<u64>().max(1);
    let failed = reps.iter().map(|(r, _)| r.wrong).sum();

    let mut digest_line =
        format!("sim_digest {} seed={seed} digest={:016x}", bench.name(), first.digest);
    for (k, v) in &first.sim {
        let _ = write!(digest_line, " {k}={v}");
    }

    let metrics = if traced {
        if let (Some(dir), Some(clock)) = (trace_dir, &last_traced) {
            let path = dir.join(format!("trace_{}.json", bench.name()));
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, clock.chrome_json()))
            {
                problems.push(format!("writing {}: {e}", path.display()));
            }
        }
        per_layer(&reps, &summaries)
    } else {
        end_to_end(&reps)
    };
    Report {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        reps: reps.len(),
        digest: first.digest,
        digest_line,
        metrics,
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The end-to-end metrics, from untraced repetitions.
fn end_to_end(reps: &[(RepOut, bool)]) -> Vec<Metric> {
    let setup: Vec<f64> =
        reps.iter().map(|(r, _)| calib::scale_time(r.setup_s(), r.ref_iters_per_s)).collect();
    let speed: Vec<f64> = reps
        .iter()
        .flat_map(|(r, _)| r.window_rates.iter().map(|&w| calib::scale_rate(w, r.ref_iters_per_s)))
        .collect();
    let heap: Vec<f64> =
        reps.iter().map(|(r, _)| r.peak_heap_bytes as f64 / (1 << 20) as f64).collect();
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("host_ops_per_s", median(&speed), "1/s"),
        metric("peak_heap_mb", median(&heap), "MB"),
        metric("makespan_cycles", reps[0].0.sim["makespan_cycles"], "cycles"),
    ]
}

/// What the per-layer report needs from the spans of one traced
/// repetition; only the last repetition's spans are kept whole.
struct TraceSummary {
    /// Host p50 and p99 (ns) of each call kind in the measured phase,
    /// in [`Kind::ALL`] order.
    kinds: Vec<(u64, u64)>,
    /// Self time per layer (ns).
    self_ns: Vec<(Layer, u64)>,
    spans: usize,
}

impl TraceSummary {
    fn of(clock: &Clock) -> TraceSummary {
        let measure = clock.find("measure");
        let kinds = Kind::ALL
            .iter()
            .map(|k| {
                let mut ns = measure.map(|m| clock.durations(k.name(), m)).unwrap_or_default();
                ns.sort_unstable();
                (percentile(&ns, 50), percentile(&ns, 99))
            })
            .collect();
        TraceSummary { kinds, self_ns: clock.self_ns_by_layer(), spans: clock.spans().len() }
    }
}

/// The per-layer metrics: simulation counts from the first repetition
/// (every repetition simulates identically), host timings from the
/// traced repetitions.
fn per_layer(reps: &[(RepOut, bool)], traces: &[TraceSummary]) -> Vec<Metric> {
    let sim = &reps[0].0.sim;
    let traced: Vec<&RepOut> = reps.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let untraced: Vec<&RepOut> = reps.iter().filter(|(_, t)| !*t).map(|(r, _)| r).collect();
    let med = |rs: &[&RepOut], f: &dyn Fn(&RepOut) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };
    let mut out = Vec::new();
    let from_sim = |out: &mut Vec<Metric>, name: &str, unit: &'static str| {
        out.push(metric(name, sim.get(name).copied().unwrap_or(0.0), unit));
    };

    from_sim(&mut out, "sim.heap_pops", "count");
    from_sim(&mut out, "sim.pops_per_dispatch", "ratio");
    let pops = sim["sim.heap_pops"].max(1.0);
    out.push(metric("sim.ns_per_pop", med(&traced, &|r| r.measured_ns as f64 / pops), "ns"));
    from_sim(&mut out, "sim.faults_injected", "count");

    for name in ["kernel.kcalls_per_op", "kernel.dispatches_per_op", "kernel.utilization"] {
        from_sim(&mut out, name, "ratio");
    }
    for name in ["kernel.credit_stalled", "kernel.max_pending_ops", "kernel.op_samples"] {
        from_sim(&mut out, name, "count");
    }
    for name in ["kernel.busy_cycles", "kernel.op_p50_cycles", "kernel.op_p99_cycles"] {
        from_sim(&mut out, name, "cycles");
    }
    let over_traces =
        |f: &dyn Fn(&TraceSummary) -> f64| median(&traces.iter().map(f).collect::<Vec<f64>>());
    for (i, kind) in Kind::ALL.iter().enumerate() {
        let k = kind.name();
        from_sim(&mut out, &format!("kernel.{k}.count"), "count");
        from_sim(&mut out, &format!("kernel.{k}.cycles_p50"), "cycles");
        from_sim(&mut out, &format!("kernel.{k}.cycles_p99"), "cycles");
        let p50 = over_traces(&|t| t.kinds[i].0 as f64 / 1e3);
        let p99 = over_traces(&|t| t.kinds[i].1 as f64 / 1e3);
        out.push(metric(format!("kernel.{k}.host_us_p50"), p50, "us"));
        out.push(metric(format!("kernel.{k}.host_us_p99"), p99, "us"));
    }
    for name in ["kernel.retries", "kernel.ops_aborted", "kernel.fault_anomalies"] {
        from_sim(&mut out, name, "count");
    }
    from_sim(&mut out, "kernel.ops_failed_ratio", "ratio");
    from_sim(&mut out, "kernel.revoke_survivors", "count");
    let all: Vec<&RepOut> = reps.iter().map(|(r, _)| r).collect();
    out.push(metric("kernel.check_invariants_ms", med(&all, &|r| r.check_invariants_ms), "ms"));

    for name in ["caps.created", "caps.deleted", "caps.live_end", "caps.table_max"] {
        from_sim(&mut out, name, "count");
    }
    let size = sim["caps.live_end"].max(sim["caps.table_max"]) as usize;
    let mut probe_clock = Clock::new(false);
    let caps = caps_probe::measure(size, &mut probe_clock);
    out.push(metric("caps.insert_ns", caps.insert_ns, "ns"));
    out.push(metric("caps.remove_key_ns", caps.remove_key_ns, "ns"));
    out.push(metric("caps.subtree_delete_ns_per_cap", caps.subtree_delete_ns_per_cap, "ns"));
    out.push(metric("caps.rehydrate_ns_per_cap", caps.rehydrate_ns_per_cap, "ns"));

    from_sim(&mut out, "apps.requests_completed", "count");
    from_sim(&mut out, "apps.requests_per_sim_s", "1/s");
    from_sim(&mut out, "m3fs.sessions_opened", "count");

    for step in ["core.build_s", "core.boot_s", "core.prefill_s", "core.warmup_s"] {
        let secs =
            |r: &RepOut| r.setup_steps.iter().find(|(n, _)| *n == step).map_or(0.0, |(_, s)| *s);
        out.push(metric(step, med(&all, &secs), "s"));
    }
    for layer in [Layer::Sim, Layer::Kernel, Layer::M3fs, Layer::Apps, Layer::Core] {
        let self_ms = over_traces(&|t| {
            t.self_ns.iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, ns)| *ns as f64 / 1e6)
        });
        out.push(metric(format!("{}.self_ms", layer.name()), self_ms, "ms"));
    }
    let speed = |r: &RepOut| calib::scale_rate(r.host_ops_per_s(), r.ref_iters_per_s);
    out.push(metric(
        "trace.overhead_ops_per_s",
        med(&untraced, &speed) - med(&traced, &speed),
        "1/s",
    ));
    out.push(metric("core.host_ops_per_s_raw", med(&untraced, &|r| r.host_ops_per_s()), "1/s"));
    out.push(metric("core.ref_iters_per_s", med(&all, &|r| r.ref_iters_per_s), "1/s"));
    out.push(metric("trace.spans", over_traces(&|t| t.spans as f64), "count"));
    out
}

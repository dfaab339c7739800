//! Every workload, at small size, on the default and the held-out seed:
//! the checks pass, repeat runs simulate identically, tracing does not
//! change the simulation, and each run reports exactly the metrics
//! `BENCHMARK.json` lists.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use semper_perfbench::{heap, run, Bench, Report, Scale, DEFAULT_SEED, HELD_OUT_SEED};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let end = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|k| text[start + 1..].find(k).map(|i| start + 1 + i))
        .min()
        .unwrap_or(text.len());
    text[start..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap_or_default().to_string())
        .collect()
}

fn small(bench: Bench, seed: u64, traced: bool) -> Report {
    let r = run(bench, seed, Duration::ZERO, traced, Scale::Small, None);
    assert!(r.correct, "{} seed {seed}: {:?}", bench.name(), r.problems);
    assert_eq!(r.failed, 0, "{} seed {seed}", bench.name());
    assert!(r.attempted > 0);
    r
}

fn check(bench: Bench) {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert!(listed("workloads").iter().any(|w| w == bench.name()));
    let mut digests = Vec::new();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let plain = small(bench, seed, false);
        let again = small(bench, seed, false);
        let traced = small(bench, seed, true);
        assert_eq!(plain.digest, again.digest, "repeat runs differ");
        assert_eq!(plain.digest_line, traced.digest_line, "tracing changed the simulation");
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, e2e, "end-to-end metrics differ from BENCHMARK.json");
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, layers, "per-layer metrics differ from BENCHMARK.json");
        // The heap peak is process-wide, and tests run concurrently, so
        // it is not checked here.
        for m in plain.metrics.iter().filter(|m| m.name != "peak_heap_mb") {
            assert!(m.value > 0.0, "{} is {} on {}", m.name, m.value, bench.name());
        }
        digests.push(plain.digest);
    }
    assert_ne!(digests[0], digests[1], "the seed does not change the inputs");
}

#[test]
fn capops() {
    check(Bench::Capops);
}

#[test]
fn webserver() {
    check(Bench::Webserver);
}

#[test]
fn bulk_lifecycle() {
    check(Bench::BulkLifecycle);
}

#[test]
fn capops_faulted() {
    check(Bench::CapopsFaulted);
}

#[test]
fn wide_tree_revoke_wastes_heap_pops() {
    let pops = |bench, scale| {
        let r = run(bench, DEFAULT_SEED, Duration::ZERO, true, scale, None);
        r.get("sim.pops_per_dispatch").expect("reported")
    };
    let capops = pops(Bench::Capops, Scale::Small);
    let bulk = pops(Bench::BulkLifecycle, Scale::Full);
    assert!(bulk > 10.0 * capops, "bulk_lifecycle {bulk} vs capops {capops}");
}

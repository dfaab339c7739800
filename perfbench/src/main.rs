//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload capops --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable table, the simulation digest line and, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use semper_perfbench::{heap, run, Bench, Scale, DEFAULT_SEED};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage: semper-perfbench --workload <capops|webserver|bulk_lifecycle|\
capops_faulted> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn main() -> ExitCode {
    let mut bench = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let ok = match flag.as_str() {
            "--workload" => {
                args.next().and_then(|v| Bench::parse(&v)).map(|b| bench = Some(b)).is_some()
            }
            "--seed" => args.next().and_then(|v| v.parse().ok()).map(|v| seed = v).is_some(),
            "--seconds" => args.next().and_then(|v| v.parse().ok()).map(|v| seconds = v).is_some(),
            "--trace" => match args.next().as_deref() {
                Some("0") => true,
                Some("1") => {
                    traced = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {flag}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(bench) = bench else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let trace_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let report = run(
        bench,
        seed,
        Duration::from_secs(seconds),
        traced,
        Scale::Full,
        Some(trace_dir.as_path()),
    );
    println!("# {} seed {seed}: {} repetitions", bench.name(), report.reps);
    for m in &report.metrics {
        println!("{:<40} {:>20.4} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.digest_line);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

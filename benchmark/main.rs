//! The repository benchmark: five seeded workloads over planning,
//! serving, supervision and simulation. See `README.md` beside this
//! file for why each workload exists and what each metric means.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! An untraced run prints the end-to-end metrics; `--trace 1` runs the
//! same window, then replays its ops through the traced decomposition
//! and prints the per-layer metrics instead. Either way the last line
//! of standard output is one JSON object, and the process exits nonzero
//! if any op failed or any output check did not hold.

mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::LayerTime;

const USAGE: &str =
    "usage: benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]";

/// Length of the timed window unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

/// Where traces are kept and temporary files live, under the working
/// directory (the same directory the build uses).
const OUT_DIR: &str = ".bench_build/benchmark";

/// Metrics an untraced run prints: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("speedup_vs_dp", "x"),
];

/// Metrics a traced run prints: (name, unit). A layer a workload never
/// reaches reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("dnn.train_view_us", "us"),
    ("dnn.iso_us", "us"),
    ("dnn.iso_collapse_ratio", "ratio"),
    ("search.us", "us"),
    ("search.share", "ratio"),
    ("search.cells_requested", "count"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.level_hit_ratio", "ratio"),
    ("runtime.cpu_per_wall", "ratio"),
    ("runtime.parallel_speedup", "x"),
    ("sim.bsp_us", "us"),
    ("sim.des_us", "us"),
    ("sim.des_tasks", "count"),
    ("sim.des_ns_per_task", "ns"),
    ("sim.compute_share", "ratio"),
    ("sim.psum_share", "ratio"),
    ("sim.conversion_share", "ratio"),
    ("cache.open_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.crosscheck_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.snapshot_mb", "MB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_req", "ratio"),
    ("replan.us", "us"),
    ("replan.count", "count"),
    ("supervise.buffer_us", "us"),
    ("supervise.hold_us", "us"),
    ("supervise.search_us", "us"),
    ("supervise.fallback_us", "us"),
    ("supervise.hold_ratio", "ratio"),
    ("supervise.events_per_decision", "ratio"),
    ("supervise.replans", "count"),
    ("supervise.degradation_mean", "x"),
    ("harness.late_p99_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
];

type Run = fn(&Ctx) -> Result<Report, String>;

const WORKLOADS: [(&str, Run); 5] = [
    ("plan_cold_cnn", workloads::plan_cold_cnn),
    ("plan_cold_stacks", workloads::plan_cold_stacks),
    ("serve_persist", workloads::serve_persist),
    ("supervise_chaos", workloads::supervise_chaos),
    ("sim_step", workloads::sim_step),
];

/// What a workload runs with.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads of the parallel replay of a traced run: `min(2, nproc)`.
    pub threads: usize,
    /// Kept after the run (span files).
    pub out_dir: PathBuf,
    /// Temporary files of this process, removed at exit.
    pub run_dir: PathBuf,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: f64,
    /// One latency per op of the timed window.
    pub latencies_ms: Vec<f64>,
    /// Summed op time of the timed window.
    pub busy_s: f64,
    /// Ops per busy second of each closed block of the window.
    pub block_rates: Vec<f64>,
    /// Ops and busy seconds of the block still open.
    block: (usize, f64),
    /// Failed ops and failed output checks.
    pub failures: Vec<String>,
    pub speedup_vs_dp: f64,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: BTreeMap<&'static str, LayerTime>,
    pub header: Vec<String>,
    pub traced_ops: usize,
}

impl Report {
    /// Records one op that completed `latency_ms` after it was due,
    /// having kept the program busy for `busy_s`.
    pub fn record(&mut self, latency_ms: f64, busy_s: f64) {
        self.latencies_ms.push(latency_ms);
        self.busy_s += busy_s;
        self.block.0 += 1;
        self.block.1 += busy_s;
    }

    /// Records one op of a closed loop.
    pub fn record_op(&mut self, took: Duration) {
        self.record(took.as_secs_f64() * 1e3, took.as_secs_f64());
    }

    /// Closes a block of ops. `ops_per_s` is the median over blocks, so a
    /// burst of contention from outside the process spoils one block
    /// rather than the whole window.
    pub fn end_block(&mut self) {
        if self.block.0 > 0 {
            self.block_rates.push(self.block.0 as f64 / self.block.1);
        }
        self.block = (0, 0.0);
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        let message = message.into();
        if self.failures.len() < 20 {
            eprintln!("FAIL: {message}");
        }
        self.failures.push(message);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    stats::fix_malloc_thresholds();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(&(workload, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown workload `{}`; one of: all, {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(OUT_DIR);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: nproc.min(2),
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("creating {}: {e}", ctx.run_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "benchmark {workload}: seed {} | {} s window | trace {} | nproc {nproc}: window on 1 planner thread and 1 serve worker, traced plan replay also on {} | commit {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads,
        stats::commit()
    );
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    match result {
        Ok(report) => print_report(&ctx, report),
        Err(e) => {
            eprintln!("FAIL: {workload} could not run: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn print_report(ctx: &Ctx, mut report: Report) -> ExitCode {
    let n = report.latencies_ms.len();
    for line in &report.header {
        println!("  {line}");
    }
    let tail = stats::tail_percentile(n).map_or_else(|| "none".to_owned(), |p| format!("p{p}"));
    println!(
        "  ops: {n} timed{}, {} failed; tail rule allows {tail}",
        if ctx.trace {
            format!(" + {} traced", report.traced_ops)
        } else {
            String::new()
        },
        report.failures.len()
    );
    let mut sorted = report.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let end_to_end = [
        report.setup_s,
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 99.0),
        stats::median(&mut report.block_rates),
        report.peak_rss_mb,
        report.speedup_vs_dp,
    ];
    let metrics: Vec<(&str, &str, f64)> = if ctx.trace {
        for (span, layer) in &report.spans {
            println!(
                "  span {span:<22} count {:>7}  p50 self {:>10.1} us  share {:>6.3}",
                layer.count, layer.p50_self_us, layer.share
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let mut json = Vec::new();
    for (name, unit, value) in metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
        if !value.is_finite() {
            report.fail(format!("{name} is not a finite number"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        n + report.traced_ops,
        report.failures.len(),
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let declared = include_str!("../BENCHMARK.json");
        let names = WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(name, _)| *name));
        for name in names {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        let count = declared.matches("\"name\":").count();
        assert_eq!(count, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let args = parse("--workload sim_step --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("sim_step", 3, 10.0, true)
        );
        assert!(parse("--workload sim_step").is_err());
        assert!(parse("--workload sim_step --seed 1 --trace yes").is_err());
        assert!(parse("--workload sim_step --seed 1 --seconds 0").is_err());
        assert!(parse("--workload sim_step --seed 1 --bogus 1").is_err());
    }
}

//! `lakebench`: the LAKE deployment's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path lakebench/Cargo.toml -- \
//!     --workload <linnos_sync|kleio_batch|mixed_queue|store_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload. It generates the workload's fixed
//! op list from the seed and computes every expected answer, then
//! repeats passes — each a fresh deployment, its set-up, and the whole
//! op list — until `--seconds` have run (at least three passes). The
//! end-to-end metrics are medians over passes. With `--trace 1`, traced
//! passes alternate with the untraced ones within the same time, so
//! both sample the same host conditions, and the per-layer metrics are
//! reported. The last line of standard output is one JSON object; see
//! `lakebench/README.md`.

mod drive;
mod gen;
mod oracle;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use gen::{Plan, Workload};

/// Environment variables that silently override `LakeBuilder` settings.
const OVERRIDES: [&str; 7] = [
    "LAKE_LINK",
    "WAIT_STRATEGY",
    "LAKE_QUEUE_DEPTH",
    "LAKE_DAEMON_WORKERS",
    "LAKE_MODEL_BUDGET",
    "LAKE_SIMD",
    "LAKE_SHARDS",
];

/// Fewest untraced passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, not {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One `"name": {"value": v, "unit": u}` entry of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The end-to-end metrics: medians over passes, except the answered
/// share (over every op) and peak RSS (the process high-water mark).
fn end_to_end(passes: &[drive::Pass]) -> Vec<Metric> {
    let med = |f: fn(&drive::Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let answered: usize = passes.iter().map(|p| p.answered).sum();
    vec![
        Metric { name: "rows_per_s", value: med(drive::Pass::rows_per_s), unit: "rows/s" },
        Metric { name: "latency_p50_us", value: med(|p| p.p50_us), unit: "us" },
        Metric { name: "latency_p99_us", value: med(|p| p.p99_us), unit: "us" },
        Metric { name: "cpu_us_per_row", value: med(drive::Pass::cpu_us_per_row), unit: "us/row" },
        Metric { name: "answered_share", value: answered as f64 / attempted as f64, unit: "share" },
        Metric { name: "setup_s", value: med(|p| p.setup_s), unit: "s" },
        Metric { name: "peak_rss_mb", value: stats::peak_rss_mb(), unit: "MiB" },
    ]
}

fn main() -> ExitCode {
    let set: Vec<&str> =
        OVERRIDES.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "lakebench: refusing to run with {} set: these override the benchmark's builder \
             settings without a word. Unset them and run again.",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lakebench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "lakebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let plan = Plan::generate(args.workload, args.seed);
    let answers = oracle::answers(&plan);
    println!(
        "plan: ops={} warmup_ops={} blobs={} digest={:016x}",
        plan.ops.len(),
        plan.warmup.len(),
        plan.blobs.len(),
        plan.digest()
    );

    let baseline_threads = stats::threads();
    let start = Instant::now();
    let mut passes: Vec<drive::Pass> = Vec::new();
    let mut traced_passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        stats::wait_for_threads(baseline_threads);
        let p = drive::run_pass(&plan, &answers);
        println!(
            "pass {}: setup_s={:.4} ops={} rows={} wall_s={:.4} rows_per_s={:.1} p50_us={:.2} \
             p99_us={:.2} cpu_us_per_row={:.3} failed={}",
            passes.len() + 1,
            p.setup_s,
            p.attempted,
            p.rows,
            p.wall_s,
            p.rows_per_s(),
            p.p50_us,
            p.p99_us,
            p.cpu_us_per_row(),
            p.failed + p.warmup_failed,
        );
        passes.push(p);
        if args.trace {
            stats::wait_for_threads(baseline_threads);
            traced_passes.push(traced::run_pass(&plan, &answers, traced_passes.len() + 1));
        }
    }

    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let answered: usize = passes.iter().map(|p| p.answered).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let warmup_failed: usize = passes.iter().map(|p| p.warmup_failed).sum();
    let samples: usize = passes.iter().map(|p| p.samples).sum();
    println!("config: {}", passes[0].effective.describe());
    println!(
        "ops: attempted={attempted} answered={answered} failed={failed} \
         warmup_failed={warmup_failed} passes={} ops_per_pass={} latency_samples={samples}",
        passes.len(),
        plan.ops.len()
    );
    let e2e = end_to_end(&passes);
    for m in &e2e {
        println!("untraced {} = {} {}", m.name, m.value, m.unit);
    }

    let correct = failed == 0 && warmup_failed == 0;
    let line = if args.trace {
        let (metrics, t_attempted, t_failed, _) = traced::report(&plan, &traced_passes, &e2e);
        result_line(correct && t_failed == 0, attempted + t_attempted, failed + t_failed, &metrics)
    } else {
        result_line(correct, attempted, failed, &e2e)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

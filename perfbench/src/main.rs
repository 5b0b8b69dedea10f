//! Paper-scale benchmark of repsim: served reads, reads under durable
//! churn, a citation index build and a sharded fleet, with a per-layer
//! self-time ledger read from the program's own spans.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <movies-read|movies-churn|citations-index|fleet-read|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every figure is logged to stderr as `name = value unit`. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`, which holds the end-to-end metrics (`--trace 0`) or
//! the per-layer ledger (`--trace 1`). A failed correctness check exits
//! with status 1. `--workload all` runs every workload in a child
//! process of its own, so each reports its own memory.
//!
//! End-to-end metrics are the same for every workload; the operation
//! they time is a served rank (`movies-read`, `fleet-read`), any served
//! request timed from its due time (`movies-churn`) or one cold index
//! build (`citations-index`):
//!
//! * `setup_s`: median of five set-ups (dataset generation, server boot
//!   and the first rank, or the first index build);
//! * `ops_per_s`: successful exact operations per second;
//! * `op_p50_us`: median latency;
//! * `peak_heap_mb`: the process's peak live heap.
//!
//! The log adds `op_tail_us`, the highest of p50, p90, p95 and p99 with
//! at least ten samples beyond it (left out of the result line: on a
//! 2-core host with bursts of stolen CPU it spread 27-35% between runs),
//! the figures under their workload's own names (`rps`, `rank_p50_us`,
//! `mutate_p50_us`, `mutate_p90_us`, `slo_miss_frac`, `fail_frac`,
//! `index_build_ms`, `peak_rss_mb`, ...) and `host_steal_frac`, the share
//! of CPU time the hypervisor gave to other guests during the run.
//!
//! With `--trace 1` the first half of the run is untraced and the second
//! traced; the ledger comes from the second. Per-request layer times are
//! means over the traced requests; sparse figures are per commuting-matrix
//! build. A layer the workload does not run reads 0.
//!
//! Scratch files (port files, WALs) go under `.bench_work/` in the
//! current directory and are removed on exit.

mod heap;
mod ledger;
mod load;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Metric, Report};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "movies-read",
    "movies-churn",
    "citations-index",
    "fleet-read",
];

/// The end-to-end metrics printed in the result line, in
/// `BENCHMARK.json` order. Every workload reports each of them.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "op_p50_us", "peak_heap_mb"];

/// The per-layer metrics printed in the traced result line, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0.
const PER_LAYER: [&str; 27] = [
    "serve.request.self_us",
    "serve.outside_request_us",
    "serve.mutate.self_us",
    "serve.wal.append_us",
    "serve.fingerprint_us",
    "serve.shed_count",
    "serve.coord.request.self_us",
    "graph.mutation.apply_us",
    "core.engine.rank_us",
    "core.engine.rank_ns_per_nnz",
    "core.engine.build_us",
    "core.engine.builds",
    "metawalk.cache.hit_frac",
    "metawalk.commuting.build.self_ms",
    "metawalk.delta.apply_us",
    "metawalk.delta.path_delta_frac",
    "sparse.chain.plan_us",
    "sparse.spgemm.symbolic_ms",
    "sparse.spgemm.numeric_ms",
    "sparse.spgemm.self_ms",
    "sparse.spgemm.flops",
    "sparse.spgemm.symbolic_ns_per_flop",
    "sparse.spgemm.numeric_ns_per_flop",
    "sparse.spgemm.out_nnz",
    "unattributed_frac",
    "trace_overhead_frac",
    "bench.gen_late_p99_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let out = match args.workload.as_str() {
        "movies-read" => workloads::movies_read(&ctx, false),
        "fleet-read" => workloads::movies_read(&ctx, true),
        "movies-churn" => workloads::movies_churn(&ctx),
        "citations-index" => workloads::citations_index(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    out
}

fn fmt_value(v: f64) -> String {
    // Shortest round-trip form: every digit as measured.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `names` picked from `metrics`, in order.
fn result_json(report: &Report, metrics: &[Metric], names: &[&str]) -> Result<String, String> {
    let mut body = Vec::new();
    for name in names {
        let x = metrics
            .iter()
            .find(|x| x.name == *name)
            .ok_or_else(|| format!("workload did not report {name}"))?;
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            fmt_value(x.value),
            x.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    ))
}

fn log_report(workload: &str, report: &Report) {
    for note in &report.notes {
        eprintln!("[{workload}] {note}");
    }
    for x in report.end_to_end.iter().chain(&report.layers) {
        eprintln!(
            "[{workload}] {} = {} {}",
            x.name,
            fmt_value(x.value),
            x.unit
        );
    }
    eprintln!(
        "[{workload}] correct = {}, attempted = {}, failed = {}",
        report.correct, report.attempted, report.failed
    );
}

/// Runs each workload in a child process with the same arguments and
/// relays their result lines; fails if any child fails.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        println!(
            "{{\"workload\": \"{w}\", \"result\": {}}}",
            if last.is_empty() { "null" } else { last }
        );
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    log_report(&args.workload, &report);
    let line = if args.trace {
        result_json(&report, &report.layers, &PER_LAYER)
    } else {
        result_json(&report, &report.end_to_end, &END_TO_END)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: correctness check failed", args.workload);
        ExitCode::FAILURE
    }
}

//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints notes and a metric table, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Spans of a traced run are written to
//! `perfbench/out/spans-<workload>-<seed>.tsv`. `--workload all` runs
//! every workload in its own child process, so each reports its own
//! memory high-water mark.
//! Exits 1 when an output check fails, 2 on bad arguments.

#![forbid(unsafe_code)]

use std::fs;
use std::io::BufWriter;
use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::{span, Metric, Outcome, Params, WORKLOADS};

/// Default seed of each workload and one held-out seed, not used
/// while the benchmark was tuned.
const SEEDS: &[(&str, u64, u64)] = &[
    ("replay_desiccant", 42, 101),
    ("cluster_durable", 42, 103),
    ("freeze_study", 7, 107),
    ("checkpoint_cycle", 42, 109),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn write_spans(workload: &str, seed: u64, out: &Outcome) -> std::io::Result<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let mut w = BufWriter::new(fs::File::create(&path)?);
    span::write_spans(&mut w, &out.spans)?;
    std::io::Write::flush(&mut w)?;
    Ok(path.display().to_string())
}

fn run_one(args: &Args) -> ExitCode {
    let default_seed = SEEDS
        .iter()
        .find(|(w, ..)| *w == args.workload)
        .map_or(1, |s| s.1);
    let params = Params {
        seed: args.seed.unwrap_or(default_seed),
        seconds: args.seconds,
        trace: args.trace,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={}",
        args.workload,
        params.seed,
        params.seconds,
        u8::from(params.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = perfbench::run(&args.workload, &params).expect("workload name was validated");
    for note in &out.notes {
        println!("{note}");
    }
    if params.trace {
        match write_spans(&args.workload, params.seed, &out) {
            Ok(path) => println!("spans: {} written to {path}", out.spans.len()),
            Err(e) => {
                eprintln!("cannot write spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    for f in &out.checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let failed = out.failed + out.checks.failures.len() as u64;
    let attempted = out.attempted + out.checks.run;
    let correct = out.checks.failures.is_empty()
        && out.failed == 0
        && out
            .end_to_end
            .iter()
            .chain(&out.per_layer)
            .all(|m| m.value.is_finite());
    println!(
        "checks: {} run, {} failed; error_rate {} ({failed} of {attempted} operations)",
        out.checks.run,
        out.checks.failures.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = if params.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    print_table(
        &format!("{} (seed {}):", args.workload, params.seed),
        metrics,
    );
    println!("{}", result_line(correct, attempted, failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in its own child process, which
/// prints its own table and result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for &(workload, default_seed, held_out) in SEEDS {
        let seed = args.seed.unwrap_or(default_seed);
        println!("== {workload} (seed {seed}; held-out seed {held_out})");
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("re-run the benchmark as a child process");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

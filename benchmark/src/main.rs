//! `spear-benchmark`: five workloads, two clocks, per-layer attribution.
//!
//! ```text
//! spear-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//! spear-benchmark run [--seed N] [--seconds S] [--out FILE] [--twice]  all five, both modes
//! spear-benchmark compare A.json B.json                              two run reports
//! spear-benchmark calibrate [--seed N]                               every rung of every ladder
//! ```
//!
//! See `README.md` for what each workload and metric means.

mod alloc;
mod calibration;
mod inputs;
mod layers;
mod metrics;
mod quantile;
mod report;
mod rng;
mod runner;
mod spans;
mod workloads;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::Metrics;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Default seconds of timed passes per workload.
const DEFAULT_SECONDS: f64 = 10.0;

/// Outputs go here unless `--out` says otherwise; git ignores it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args(Vec<String>);

impl Args {
    /// The value after `--name`, parsed; `Err` when it is there but does not
    /// parse.
    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{name} needs a value")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// The last line of a driver run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

fn write_spans(path: &Path, seed: u64, spans: &[spans::Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = BufWriter::new(fs::File::create(path).map_err(io)?);
    writeln!(out, "{}", report::stamp(seed)).map_err(io)?;
    spans::write_jsonl(spans, &mut out).map_err(io)?;
    out.flush().map_err(io)
}

/// One workload in one mode, as the driver calls it.
fn drive(args: &Args, workload: &str) -> Result<(), String> {
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace: u8 = args.value("--trace")?.unwrap_or(0);
    if trace == 0 {
        let run = runner::end_to_end(workload, seed, seconds)?;
        eprintln!(
            "{workload}: N {} per pass, {} timed passes, seed {seed}, input {:016x}, exact p50 {} ms",
            run.n, run.passes, run.input_hash, run.virt_p50_ms
        );
        println!(
            "{}",
            result_line(true, run.attempted, run.failed, &run.metrics)
        );
    } else {
        let run = runner::traced(workload, seed)?;
        let path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
        write_spans(&path, seed, &run.spans)?;
        eprintln!(
            "{workload}: {} spans in {}",
            run.spans.len(),
            path.display()
        );
        println!(
            "{}",
            result_line(true, run.attempted, run.failed, &run.metrics)
        );
    }
    Ok(())
}

/// All five workloads in both modes; returns the report.
fn full_run(seed: u64, seconds: f64, spans_dir: &Path) -> Result<String, String> {
    let mut sections = Vec::new();
    for name in runner::WORKLOADS {
        eprintln!("{name}: untraced passes");
        let end_to_end = runner::end_to_end(name, seed, seconds)?;
        eprintln!("{name}: traced pass and replays");
        let traced = runner::traced(name, seed)?;
        write_spans(
            &spans_dir.join(format!("spans-{name}-{seed}.jsonl")),
            seed,
            &traced.spans,
        )?;
        println!(
            "{name}: N {} per pass, {} timed passes, {} failed of {} attempted",
            end_to_end.n, end_to_end.passes, end_to_end.failed, end_to_end.attempted
        );
        report::print_table("end to end", &end_to_end.metrics);
        report::print_table(
            "per layer (0 where the workload starves the layer)",
            &traced.metrics,
        );
        sections.push(format!(
            "\"{name}\": {}",
            report::workload_json(&end_to_end, &traced)
        ));
    }
    Ok(format!(
        "{{\"stamp\": {}, \"workloads\": {{{}}}}}\n",
        report::stamp(seed),
        sections.join(", ")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: PathBuf = args
        .value::<String>("--out")?
        .map_or_else(|| out_dir().join(format!("run-{seed}.json")), PathBuf::from);
    if args.flag("--twice") {
        return run_twice(seed, seconds, &out);
    }
    let dir = out.parent().map_or_else(out_dir, Path::to_path_buf);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = full_run(seed, seconds, &dir)?;
    fs::write(&out, report).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("report written to {}", out.display());
    Ok(())
}

/// Repeatability: the same code measured twice, each time in a fresh child
/// process as the driver runs it, must agree with itself within the
/// benchmark's own bounds.
fn run_twice(seed: u64, seconds: f64, out: &Path) -> Result<(), String> {
    let again = out.with_extension("again.json");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for path in [out, again.as_path()] {
        let status = std::process::Command::new(&exe)
            .args([
                "run",
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--out")
            .arg(path)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            return Err(format!("the run writing {} failed", path.display()));
        }
    }
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (table, differing) = report::compare(&read(out)?, &read(&again)?)?;
    print!("{table}");
    if differing > 0 {
        return Err(format!(
            "{differing} end-to-end metrics differ by more than their bound between two runs of \
             the same code"
        ));
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), String> {
    let [a, b] = &args.0[..] else {
        return Err("compare takes two run reports".into());
    };
    let read = |p: &String| fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, _) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(())
}

fn calibrate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    for name in ["serve_steady", "serve_pressure", "cluster_zipf"] {
        println!("{name} (seed {seed})");
        println!("  rung   rate 1/s     p50 ms       p99 ms   tail p99 ms  failed  severity");
        for (rung, row) in runner::ladder_table(name, seed)?.into_iter().enumerate() {
            println!(
                "  {rung:>4} {:>10.3} {:>10.1} {:>12.1} {:>13.1} {:>7.4}  {:>8.3}",
                row.rate_rps,
                row.p50_ms,
                row.p99_ms,
                row.tail_p99_ms,
                row.failed_share,
                row.severity
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => run(&Args(argv.split_off(1))),
        Some("compare") => compare(&Args(argv.split_off(1))),
        Some("calibrate") => calibrate(&Args(argv.split_off(1))),
        _ => {
            let args = Args(argv);
            match args.value::<String>("--workload") {
                Ok(Some(workload)) => drive(&args, &workload),
                Ok(None) => Err("usage: --workload NAME --seed N --seconds S --trace 0|1 \
                                 | run | compare A B | calibrate"
                    .into()),
                Err(e) => Err(e),
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // An output-check failure prints no result line.
            eprintln!("spear-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

//! Output: the environment stamp that heads every file, the `run` report,
//! and `compare`.

use std::fmt::Write as _;
use std::process::Command;

use serde_json::Value;

use crate::metrics::{json_number, Better, Metrics, END_TO_END};
use crate::quantile;
use crate::runner::{EndToEnd, Traced};

/// The repository's benchmark contract, read at build time; the bounds come
/// from here and nowhere else.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Machine, toolchain, commit, build profile and seed, as one JSON object.
pub fn stamp(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{profile}\", \
         \"seed\": {seed}, \"lanes\": {}, \"clocks\": \"virt_* is the simulator's clock and repeats \
         exactly for a seed; host_*, setup_s and peak_heap_mb are this machine's. Latency is timed \
         from the scheduled arrival; the generator is never late in virtual time.\"}}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        crate::workloads::LANES,
    )
}

/// One workload's section of a `run` report.
pub fn workload_json(end_to_end: &EndToEnd, traced: &Traced) -> String {
    let mut quartiles = String::new();
    for (name, samples) in &end_to_end.samples {
        let (q1, median, q3) = quantile::quartiles(samples);
        let _ = write!(
            quartiles,
            "{}\"{name}\": {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"samples\": {}}}",
            if quartiles.is_empty() { "" } else { ", " },
            json_number(q1),
            json_number(median),
            json_number(q3),
            samples.len()
        );
    }
    format!(
        "{{\"n\": {}, \"timed_passes\": {}, \"input_hash\": \"{:016x}\", \"attempted\": {}, \
         \"failed\": {}, \"virt_p50_ms_exact\": {}, \"end_to_end\": {}, \
         \"quartiles\": {{{quartiles}}}, \"per_layer\": {}}}",
        end_to_end.n,
        end_to_end.passes,
        end_to_end.input_hash,
        end_to_end.attempted,
        end_to_end.failed,
        json_number(end_to_end.virt_p50_ms),
        end_to_end.metrics.to_json(),
        traced.metrics.to_json(),
    )
}

/// A human-readable table of one workload's metrics.
pub fn print_table(name: &str, metrics: &Metrics) {
    println!("  {name}");
    for (def, value) in metrics.iter() {
        println!("    {:<44} {:>16.4} {}", def.name, value, def.unit);
    }
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(&'static str, f64)>, String> {
    let contract: Value = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let listed = contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|def| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(def.name))
                .and_then(|m| m.get("bound").and_then(Value::as_f64))
                .map(|bound| (def.name, bound))
                .ok_or_else(|| format!("BENCHMARK.json gives no bound for {}", def.name))
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `(q1, median, q3)` of a metric in one report; a metric with one value per
/// run has no spread.
fn spread_of(workload: &Value, metric: &str) -> Option<(f64, f64, f64)> {
    let value = workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()?;
    let quartile = |key: &str| workload.get("quartiles")?.get(metric)?.get(key)?.as_f64();
    Some((
        quartile("q1").unwrap_or(value),
        value,
        quartile("q3").unwrap_or(value),
    ))
}

/// Judge `b` against `a`. A spread wider than the bound leaves the pair
/// unresolved unless every quartile of one side beats the other side's.
pub fn judge(a: (f64, f64, f64), b: (f64, f64, f64), better: Better, bound: f64) -> Verdict {
    // Orient so that larger is worse.
    let flip = |(q1, m, q3): (f64, f64, f64)| match better {
        Better::Lower => (q1, m, q3),
        Better::Higher => (-q3, -m, -q1),
    };
    let (a, b) = (flip(a), flip(b));
    let scale = a.1.abs().max(f64::MIN_POSITIVE);
    let worse_by = (b.1 - a.1) / scale;
    let spread = ((a.2 - a.0) / scale).max((b.2 - b.0) / b.1.abs().max(f64::MIN_POSITIVE));
    if spread > bound && !(b.0 > a.2 || b.2 < a.0) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per (workload, end-to-end metric) of two `run` reports. Returns
/// the rows as text and how many pairs are better or worse by more than
/// their bound (an unresolved pair is shown, not counted).
pub fn compare(a: &str, b: &str) -> Result<(String, usize), String> {
    let parse = |text: &str| -> Result<Value, String> {
        serde_json::from_str(text).map_err(|e| format!("not a run report: {e}"))
    };
    let (a, b) = (parse(a)?, parse(b)?);
    let bounds = bounds()?;
    let mut table = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>7}  verdict\n",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound"
    );
    let mut differing = 0;
    for name in crate::runner::WORKLOADS {
        let section = |report: &Value| report.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(wa), Some(wb)) = (section(&a), section(&b)) else {
            continue;
        };
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (spread_of(&wa, def.name), spread_of(&wb, def.name)) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or(0.0, |b| b.1);
            let verdict = judge(sa, sb, def.better, bound);
            if matches!(verdict, Verdict::Better | Verdict::Worse) {
                differing += 1;
            }
            let _ = writeln!(
                table,
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>7.3}  {}",
                name,
                def.name,
                sa.0,
                sa.1,
                sa.2,
                sb.0,
                sb.1,
                sb.2,
                bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok((table, differing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| (m * 0.99, m, m * 1.01);
        assert_eq!(
            judge(tight(100.0), tight(104.0), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(tight(100.0), tight(120.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(120.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(tight(100.0), tight(80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // Spread wider than the bound and overlapping ranges: unresolved.
        let wide = |m: f64| (m * 0.8, m, m * 1.2);
        assert_eq!(
            judge(wide(100.0), wide(115.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of one side beats the other.
        assert_eq!(
            judge(wide(100.0), wide(200.0), Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric() {
        let bounds = bounds().unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }
}

//! Running the whole suite — each workload in a child process, so set-up
//! time and peak memory are its own — and the `repeat` noise protocol.

use std::path::{Path, PathBuf};
use std::process::Command;

use gradoop_dataflow::JsonValue;

use crate::cli::RunOptions;
use crate::report::{format_value, WorkloadReport};
use crate::spec::{self, Better};
use crate::stats::{median, quartile_spread};

/// Where a single-workload run leaves its report for the parent.
pub fn report_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{}.{workload}.json",
        if traced { "layers" } else { "result" }
    ))
}

pub fn write_report(out: &Path, report: &WorkloadReport) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = report_path(out, report.workload, report.traced);
    std::fs::write(&path, report.to_json_value().to_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process of this executable, waits for it
/// and reads the report it wrote. The child's table goes to our stdout.
fn run_child(
    workload: &'static str,
    traced: bool,
    options: &RunOptions,
) -> Result<WorkloadReport, String> {
    let executable = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = report_path(&options.out, workload, traced);
    // A stale report must not pass for this run's.
    let _ = std::fs::remove_file(&path);
    let mut command = Command::new(executable);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out);
    if let Some(passes) = options.passes {
        command.args(["--passes", &passes.to_string()]);
    }
    let status = command.status().map_err(|e| format!("{workload}: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|_| format!("{workload}: child exited with {status} and left no report"))?;
    WorkloadReport::from_json_value(&JsonValue::parse(&text)?)
}

/// Runs the selected workloads (all by default) in the selected modes
/// (untraced then traced by default), writes `result.json` and returns the
/// reports.
pub fn run_suite(options: &RunOptions) -> Result<Vec<WorkloadReport>, String> {
    let modes: &[bool] = match options.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut reports = Vec::new();
    for &traced in modes {
        for workload in &spec::WORKLOADS {
            if options.workload.is_some_and(|only| only != workload.name) {
                continue;
            }
            reports.push(run_child(workload.name, traced, options)?);
        }
    }
    let document = JsonValue::object(vec![
        ("seed", JsonValue::Number(options.seed as f64)),
        (
            "runs",
            JsonValue::Array(reports.iter().map(WorkloadReport::to_json_value).collect()),
        ),
    ]);
    let path = options.out.join("result.json");
    std::fs::write(&path, document.to_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: u64 = reports.iter().map(|report| report.failed).sum();
    println!(
        "suite: {} runs, {failed} failed operations, reports in {}",
        reports.len(),
        path.display()
    );
    Ok(reports)
}

/// `repeat N`: the suite N times on seeds seed, seed+1, … — what the
/// driver's acceptance check does. Prints min / median / max and the
/// quartile spread of every end-to-end metric and fails if a spread exceeds
/// the metric's bound (`setup_s` is reported, not judged, as in the driver),
/// if an operation failed, or if a count marked exact differs between runs.
pub fn repeat(count: usize, options: &RunOptions) -> Result<bool, String> {
    let mut runs: Vec<Vec<WorkloadReport>> = Vec::new();
    for i in 0..count {
        let mut options = options.clone();
        options.seed += i as u64;
        options.trace = Some(options.trace.unwrap_or(false));
        println!("-- repeat {}/{count}, seed {} --", i + 1, options.seed);
        runs.push(run_suite(&options)?);
    }
    let mut ok = runs.iter().flatten().all(WorkloadReport::correct);
    println!(
        "\n{:<18} {:<42} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for position in 0..runs[0].len() {
        let reports: Vec<&WorkloadReport> = runs.iter().map(|run| &run[position]).collect();
        for metric in &reports[0].metrics {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|report| report.metric(metric.name))
                .map(|m| m.value)
                .collect();
            let bound = spec::end_to_end(metric.name).map(|spec| spec.bound);
            let spread = quartile_spread(&values);
            let mut verdict = String::new();
            if let Some(bound) = bound {
                if spread > bound && metric.name != spec::SETUP_S {
                    ok = false;
                    verdict = " EXCEEDS BOUND".to_string();
                }
            } else if metric.exact == Some(true) {
                if values.iter().any(|value| *value != values[0]) {
                    ok = false;
                    verdict = " EXACT COUNT DIFFERS".to_string();
                }
            } else {
                continue;
            }
            println!(
                "{:<18} {:<42} {:>12} {:>12} {:>12} {:>7.1}% {:>7}{verdict}",
                reports[0].workload,
                metric.name,
                format_value(values.iter().copied().fold(f64::INFINITY, f64::min)),
                format_value(median(&values)),
                format_value(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                spread * 1e2,
                bound.map_or("exact".to_string(), |bound| format!("{:.0}%", bound * 1e2)),
            );
        }
    }
    println!(
        "\nrepeat: {}",
        if ok {
            "every spread within its bound, no failed operation"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// `list`: the benchmark's vocabulary.
pub fn list() {
    println!("workloads:");
    for workload in &spec::WORKLOADS {
        println!("  {:<18} {}", workload.name, workload.why);
    }
    let arrow = |better: Better| format!("{} is better", better.name());
    println!("\nend-to-end metrics (untraced run, per workload):");
    for metric in &spec::END_TO_END {
        println!(
            "  {:<18} {:<6} {:<18} bound {:.0}%",
            metric.name,
            metric.unit,
            arrow(metric.better),
            metric.bound * 1e2
        );
    }
    println!(
        "  {:<18} {:<6} {:<18} bound 0 (absolute): the result line's `failed` / `attempted`",
        "failed_share", "share", "lower is better"
    );
    println!("\nper-layer metrics (traced run) -> what each is expected to move:");
    for metric in &spec::PER_LAYER {
        println!(
            "  {:<44} {:<6} {:<17} -> {}",
            metric.name,
            metric.unit,
            arrow(metric.better),
            metric.moves
        );
    }
}

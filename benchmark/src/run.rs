//! The untraced run of one workload: where the end-to-end metrics come from.

use std::time::Instant;

use crate::cli::RunOptions;
use crate::golden::Golden;
use crate::process::peak_rss_mb;
use crate::report::{format_value, Metric, WorkloadReport};
use crate::spec;
use crate::stats::median;
use crate::workload::{nproc, PassResult, Prepared};

/// Fewest timed passes a run reports a median over.
const MIN_PASSES: usize = 3;

/// Runs timed passes for `seconds` (or exactly `passes`), numbering them
/// from `first_pass` so pool draws continue through the pool.
pub fn timed_passes(
    prepared: &Prepared,
    first_pass: usize,
    seconds: f64,
    passes: Option<usize>,
) -> Vec<PassResult> {
    let started = Instant::now();
    let mut results = Vec::new();
    loop {
        let pass_started = Instant::now();
        results.push(prepared.run_pass(first_pass + results.len(), None));
        let done = match passes {
            Some(passes) => results.len() >= passes,
            // Stop where another pass would overshoot `seconds` by more
            // than it now falls short, so runs centre on `seconds`.
            None => {
                let next_half = pass_started.elapsed().as_secs_f64() / 2.0;
                results.len() >= MIN_PASSES
                    && started.elapsed().as_secs_f64() + next_half >= seconds
            }
        };
        if done {
            return results;
        }
    }
}

/// Failures and attempts over `passes`, with the first failure's text.
pub fn tally(passes: &[&PassResult]) -> (u64, u64, Option<String>) {
    let failed: u64 = passes.iter().map(|pass| pass.failed()).sum();
    let attempted = failed + passes.iter().map(|pass| pass.completed()).sum::<u64>();
    let first = passes
        .iter()
        .find_map(|pass| pass.first_failure())
        .map(str::to_string);
    (attempted, failed, first)
}

/// With one client nothing is left to chance, so the counts a pass produces
/// — result rows, plan-cache hits, misses and evictions — must repeat
/// exactly from pass to pass. Returns a note per count that did not.
pub fn inexact_counts(prepared: &Prepared, passes: &[PassResult]) -> Vec<String> {
    if prepared.clients() > 1 {
        return Vec::new();
    }
    let mut notes = Vec::new();
    let mut check = |name: &str, count: &dyn Fn(&PassResult) -> u64| {
        let counts: Vec<u64> = passes.iter().map(count).collect();
        if counts.windows(2).any(|pair| pair[0] != pair[1]) {
            notes.push(format!(
                "exact count `{name}` differs between passes: {counts:?}"
            ));
        }
    };
    check("rows", &|pass| pass.rows());
    check("plan_cache.hits", &|pass| pass.cache.hits);
    check("plan_cache.misses", &|pass| pass.cache.misses);
    check("plan_cache.evictions", &|pass| pass.cache.evictions);
    notes
}

/// The median over `passes` of a per-pass value.
pub fn median_over(passes: &[PassResult], value: impl Fn(&PassResult) -> f64) -> f64 {
    median(&passes.iter().map(value).collect::<Vec<f64>>())
}

/// The per-pass median latencies, for the notes under a table: they show
/// how much the machine drifted during the run.
pub fn p50_per_pass(passes: &[PassResult]) -> String {
    let values: Vec<String> = passes
        .iter()
        .map(|pass| format_value(pass.p50_ms()))
        .collect();
    values.join(" ")
}

/// The end-to-end metrics of timed `passes`: each latency and throughput
/// value is the median over passes of the per-pass value.
pub fn end_to_end(prepared: &Prepared, passes: &[PassResult]) -> Vec<Metric> {
    let samples: u64 = passes
        .iter()
        .map(|pass| pass.latencies_ms().len() as u64)
        .sum();
    let completed: u64 = passes.iter().map(PassResult::completed).sum();
    let cpu_s: f64 = passes.iter().map(|pass| pass.cpu_s).sum();
    let setups: Vec<f64> = prepared.setups.iter().map(|setup| setup.total_s).collect();
    let metric = |name: &str, value: f64| {
        let spec = spec::end_to_end(name).expect("metric is in the spec");
        Metric::new(spec.name, spec.unit, value)
    };
    vec![
        metric(
            spec::LATENCY_P50_MS,
            median_over(passes, PassResult::p50_ms),
        )
        .samples(samples),
        metric(
            spec::LATENCY_P95_MS,
            median_over(passes, PassResult::p95_ms),
        )
        .samples(samples),
        metric(
            spec::THROUGHPUT_QPS,
            median_over(passes, PassResult::throughput_qps),
        )
        .samples(samples),
        metric(
            spec::CPU_MS_PER_QUERY,
            cpu_s * 1e3 / completed.max(1) as f64,
        )
        .samples(completed),
        metric(spec::PEAK_RSS_MB, peak_rss_mb()),
        metric(spec::SETUP_S, median(&setups)).samples(setups.len() as u64),
    ]
}

/// Sets up, warms up, measures for `options.seconds` with tracing off and
/// reports the end-to-end metrics.
pub fn run_untraced(
    workload: &'static str,
    options: &RunOptions,
) -> Result<WorkloadReport, String> {
    let golden = Golden::embedded()?;
    let prepared = Prepared::new(workload, options.seed, &golden)?;
    let warm_up = prepared.warm_up();
    let passes = timed_passes(&prepared, 0, options.seconds, options.passes);

    let mut all: Vec<&PassResult> = vec![&warm_up];
    all.extend(passes.iter());
    let (attempted, mut failed, mut first_failure) = tally(&all);
    let mut notes = inexact_counts(&prepared, &passes);
    let inexact = notes.len() as u64;
    if let Some(note) = notes.first() {
        failed += inexact;
        first_failure.get_or_insert_with(|| note.clone());
    }
    notes.push(format!(
        "latency_p50_ms per pass: {}",
        p50_per_pass(&passes)
    ));
    Ok(WorkloadReport {
        workload,
        seed: options.seed,
        traced: false,
        verified: prepared.verified.to_string(),
        nproc: nproc(),
        clients: prepared.clients(),
        passes: passes.len(),
        attempted: attempted + inexact,
        failed,
        first_failure,
        metrics: end_to_end(&prepared, &passes),
        notes,
    })
}

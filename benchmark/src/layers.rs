//! The traced run of one workload: where the per-layer metrics come from.
//!
//! Nothing inside the engine is instrumented. Three things are measured
//! from outside: traced passes (the untraced passes again, with the
//! benchmark's spans around every call and allocation counting on), a layer
//! pass that walks each distinct op through the engine's public functions
//! one layer at a time under spans that share the op's query id, and a few
//! direct probes (set-up steps, an empty dataflow stage, one client alone).

use std::sync::Arc;
use std::time::Instant;

use gradoop_core::{
    normalize_query_shape, plan_query_with_mode, stable_digest, CypherEngine, Estimator,
    MatchingConfig, MemoryQueryLog, PlanMode, ProfileNode,
};
use gradoop_cypher::lexer::lex;
use gradoop_cypher::{parse_pipeline, QueryGraph};
use gradoop_dataflow::{CollectingSink, StageReport};
use gradoop_epgm::GraphStatistics;

use crate::cli::RunOptions;
use crate::golden::Golden;
use crate::process::{allocation_counts, count_allocations};
use crate::report::{Metric, WorkloadReport};
use crate::run::{inexact_counts, median_over, p50_per_pass, tally};
use crate::spec;
use crate::stats::{median, spearman};
use crate::texts::Op;
use crate::trace::{write_trace, Recorder, Span};
use crate::workload::{nproc, PassResult, Prepared, Target};

/// Repetitions of each op in the layer pass; the median is kept.
const REPETITIONS: usize = 3;
/// Pool ops the layer pass of `concurrent_small` walks besides the 34
/// repeated ones.
const POOL_SAMPLE: usize = 32;

const OPERATOR_KINDS: [&str; 5] = ["scan", "expand", "join", "intersect", "filter_project"];

fn operator_kind(operator: &str) -> usize {
    if operator.starts_with("Scan") {
        0
    } else if operator.starts_with("ExpandEmbeddings") {
        1
    } else if operator.starts_with("JoinEmbeddings")
        || operator.starts_with("ValueJoinEmbeddings")
        || operator.starts_with("CartesianProduct")
    {
        2
    } else if operator.starts_with("ExpandIntersect") {
        3
    } else {
        4
    }
}

/// What one walk of one op through the layers measured. Times in seconds.
#[derive(Debug, Clone, Default)]
struct Walk {
    /// The real call the workload times.
    call: f64,
    admit: f64,
    attach: f64,
    lex: f64,
    /// `parse_pipeline`, which lexes again inside.
    parse: f64,
    query_graph: f64,
    fingerprint: f64,
    lookup: f64,
    plan: f64,
    execute: f64,
    materialize: f64,
    /// Fastest served call and fastest `engine.run` on an attached fork: the
    /// difference of two ~equal times needs an estimator noise cannot move.
    call_floor: f64,
    engine_run_floor: f64,
    /// The PROFILE run of the op, which measures more than `execute` does.
    profile: f64,
    tokens: f64,
    rows_out: f64,
    /// Wall seconds per operator kind, from PROFILE (children excluded).
    operators: [f64; 5],
    rows_examined: f64,
    max_intermediate_rows: f64,
    q_error_max: f64,
    executed: bool,
    is_pipeline: bool,
    stages: f64,
    records: f64,
    shuffled_bytes: f64,
    morsels: f64,
    stolen_morsels: f64,
    peak_memory_bytes: f64,
    collected_records: f64,
    simulated: f64,
}

impl Walk {
    /// Operator seconds of kind `kind` as a share of a plain execution:
    /// PROFILE measures every operator's output as well, so its operator
    /// times are scaled by how much longer it ran than `execute`.
    fn operator(&self, kind: usize) -> f64 {
        let scale = if self.profile > self.execute && self.profile > 0.0 {
            self.execute / self.profile
        } else {
            1.0
        };
        self.operators[kind] * scale
    }

    /// Seconds of the real call that separately measured layers account for.
    fn attributed(&self) -> f64 {
        let operators: f64 = (0..self.operators.len())
            .map(|kind| self.operator(kind))
            .sum();
        self.admit
            + self.attach
            + self.parse
            + self.query_graph
            + self.lookup
            + if self.executed {
                self.fingerprint + operators + self.materialize
            } else {
                // Plan-only requests plan instead of looking a plan up and
                // never compute a fingerprint.
                self.plan
            }
    }

    fn frontend(&self) -> f64 {
        self.parse + self.query_graph + self.fingerprint + self.plan
    }
}

fn fold_profile(node: &ProfileNode, walk: &mut Walk) {
    walk.operators[operator_kind(&node.operator)] += node.wall_seconds;
    walk.rows_examined += node.rows_in as f64;
    walk.max_intermediate_rows = walk.max_intermediate_rows.max(node.rows_out as f64);
    walk.q_error_max = walk.q_error_max.max(node.estimate_error);
    for child in &node.children {
        fold_profile(child, walk);
    }
}

fn fold_stages(stages: &[StageReport], walk: &mut Walk) {
    walk.stages = stages.len() as f64;
    for stage in stages {
        walk.records += stage.records_in as f64;
        walk.shuffled_bytes += stage.bytes_shuffled as f64;
        walk.morsels += stage.morsels as f64;
        walk.stolen_morsels += stage.stolen_morsels as f64;
        walk.peak_memory_bytes = walk.peak_memory_bytes.max(stage.peak_memory_bytes as f64);
        if stage.name == "collect" {
            walk.collected_records += stage.records_in as f64;
        }
    }
}

/// The engines the layer pass calls directly: the server's configuration
/// minus the server.
struct Engines {
    /// No plan cache: every call parses and plans.
    cold: CypherEngine,
    /// Shares the server's plan cache, like the server's own engine.
    cached: CypherEngine,
    matching: MatchingConfig,
}

/// Walks `op` once through the public functions a served query passes
/// through, one span per layer, all under one `layers` span.
fn walk_op(prepared: &Prepared, engines: &Engines, op: &Op, recorder: &mut Recorder) -> Walk {
    let server = &prepared.built.server;
    let snapshot = server.snapshot();
    let mut walk = Walk::default();
    // An untimed parse first: the microsecond-scale layers below should not
    // be charged the cache misses the previous op's execution left behind.
    std::hint::black_box(parse_pipeline(&op.text).is_ok());
    let root = recorder.begin("layers");

    let (tokens, seconds) = recorder.time("cypher.lex", || lex(&op.text));
    walk.lex = seconds;
    walk.tokens = tokens.map_or(0.0, |tokens| tokens.len() as f64);
    let (pipeline, seconds) = recorder.time("cypher.parse", || parse_pipeline(&op.text));
    walk.parse = seconds;
    let simple = pipeline.ok().and_then(|pipeline| pipeline.as_simple());
    walk.is_pipeline = simple.is_none();
    let (shape, seconds) = recorder.time("core.fingerprint", || {
        let shape = normalize_query_shape(&op.text);
        std::hint::black_box(stable_digest(&shape));
        shape
    });
    walk.fingerprint = seconds;
    let mut query_graph = None;
    if let Some(query) = &simple {
        let (graph, seconds) = recorder.time("cypher.query_graph", || {
            QueryGraph::from_query_with_params(query, &op.params)
        });
        walk.query_graph = seconds;
        query_graph = graph.ok();
    }
    if let Some(query_graph) = &query_graph {
        let estimator = Estimator::new(snapshot.statistics());
        let (plan, seconds) = recorder.time("core.plan", || {
            plan_query_with_mode(query_graph, &estimator, PlanMode::CostBased)
        });
        walk.plan = seconds;
        std::hint::black_box(plan.is_ok());
    }

    match &prepared.target {
        Target::Explain(engine) => {
            let (explain, seconds) = recorder.time("core.explain", || {
                engine.explain_with_params(&op.text, &op.params)
            });
            walk.call = seconds;
            std::hint::black_box(explain.is_ok());
        }
        Target::Server(_) => {
            walk.executed = true;
            // The served call against `engine.run` on an attached fork, in
            // ABBA order so neither side always runs on the warmer caches.
            let session = server.session();
            let mut serve = |recorder: &mut Recorder| {
                let (reply, seconds) = recorder.time("server.session_query", || {
                    session.query(&op.text, &op.params)
                });
                walk.rows_out = reply.map_or(0.0, |table| table.rows.len() as f64);
                seconds
            };
            let run_engine = |recorder: &mut Recorder| {
                let (_, graph) = snapshot.attach();
                let (table, seconds) = recorder.time("core.engine_run", || {
                    engines
                        .cached
                        .run(&graph, &op.text, &op.params, engines.matching)
                });
                std::hint::black_box(table.is_ok());
                seconds
            };
            let first_call = serve(recorder);
            let engine_runs = [run_engine(recorder), run_engine(recorder)];
            let last_call = serve(recorder);
            walk.call = (first_call + last_call) / 2.0;
            walk.call_floor = first_call.min(last_call);
            walk.engine_run_floor = engine_runs[0].min(engine_runs[1]);

            let timeout = server.config().admission_timeout;
            let (permit, seconds) =
                recorder.time("server.admit", || server.admission().admit(timeout));
            walk.admit = seconds;
            let ((env, graph), seconds) = recorder.time("server.attach", || snapshot.attach());
            walk.attach = seconds;
            if let Some(query_graph) = &query_graph {
                let (plan, seconds) = recorder.time("core.plancache_lookup", || {
                    server
                        .plan_cache()
                        .lookup(&shape, PlanMode::CostBased, query_graph)
                });
                walk.lookup = seconds;
                std::hint::black_box(plan.is_some());
            }

            let sink = Arc::new(CollectingSink::new());
            env.set_trace_sink(Some(sink.clone()));
            let simulated_before = env.simulated_seconds();
            if simple.is_some() {
                let (result, seconds) = recorder.time("core.execute", || {
                    engines
                        .cold
                        .execute(&graph, &op.text, &op.params, engines.matching)
                });
                walk.execute = seconds;
                if let Ok(result) = result {
                    let (rows, seconds) = recorder.time("core.materialize", || result.rows());
                    walk.materialize = seconds;
                    std::hint::black_box(rows.is_ok());
                }
            } else {
                let (table, seconds) = recorder.time("core.execute", || {
                    engines
                        .cold
                        .run(&graph, &op.text, &op.params, engines.matching)
                });
                walk.execute = seconds;
                std::hint::black_box(table.is_ok());
            }
            walk.simulated = env.simulated_seconds() - simulated_before;
            env.set_trace_sink(None);
            fold_stages(&sink.drain().stages, &mut walk);
            drop(permit);

            if simple.is_some() {
                let (_, graph) = snapshot.attach();
                let (profile, seconds) = recorder.time("core.profile", || {
                    engines
                        .cold
                        .profile(&graph, &op.text, &op.params, engines.matching)
                });
                walk.profile = seconds;
                if let Ok(profile) = profile {
                    fold_profile(&profile.root, &mut walk);
                }
            }
        }
    }
    recorder.end(root);
    walk
}

/// Field-wise median of several walks of one op.
fn median_walk(walks: &[Walk]) -> Walk {
    let pick = |field: &dyn Fn(&Walk) -> f64| -> f64 {
        median(&walks.iter().map(field).collect::<Vec<f64>>())
    };
    let floor = |field: &dyn Fn(&Walk) -> f64| -> f64 {
        walks.iter().map(field).fold(f64::INFINITY, f64::min)
    };
    let mut operators = [0.0; 5];
    for (kind, slot) in operators.iter_mut().enumerate() {
        *slot = pick(&|walk| walk.operators[kind]);
    }
    Walk {
        call: pick(&|w| w.call),
        admit: pick(&|w| w.admit),
        attach: pick(&|w| w.attach),
        lex: pick(&|w| w.lex),
        parse: pick(&|w| w.parse),
        query_graph: pick(&|w| w.query_graph),
        fingerprint: pick(&|w| w.fingerprint),
        lookup: pick(&|w| w.lookup),
        plan: pick(&|w| w.plan),
        execute: pick(&|w| w.execute),
        materialize: pick(&|w| w.materialize),
        profile: pick(&|w| w.profile),
        call_floor: floor(&|w| w.call_floor),
        engine_run_floor: floor(&|w| w.engine_run_floor),
        operators,
        ..walks[0].clone()
    }
}

/// Counts of a walk that must repeat exactly when one op runs again.
fn walk_counts(walk: &Walk) -> [f64; 8] {
    [
        walk.tokens,
        walk.rows_out,
        walk.rows_examined,
        walk.stages,
        walk.records,
        walk.shuffled_bytes,
        walk.collected_records,
        walk.max_intermediate_rows,
    ]
}

/// Median wall-clock milliseconds of `body` over five calls.
fn probe_ms<T>(mut body: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(body());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The fixed cost of a dataflow stage: a one-element `map` + `collect` on a
/// fresh fork, median of 200, in microseconds.
fn empty_stage_us(prepared: &Prepared) -> f64 {
    let env = prepared.built.server.snapshot().env().fork();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(env.from_collection([1u64]).map(|x| x + 1).collect());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sets up, measures for `options.seconds` alternating untraced and traced
/// passes, then walks the layers, and reports every per-layer metric.
pub fn run_traced(workload: &'static str, options: &RunOptions) -> Result<WorkloadReport, String> {
    let golden = Golden::embedded()?;
    let prepared = Prepared::new(workload, options.seed, &golden)?;
    let server = &prepared.built.server;
    let origin = Instant::now();

    // Cold pass, cache fill, then the same passes without and with spans,
    // alternating, so that drift of the machine hits both sides alike.
    let cold = prepared.run_pass(0, None);
    let warm_up = prepared.warm_up();
    let started = Instant::now();
    let mut untraced: Vec<PassResult> = Vec::new();
    let mut traced: Vec<PassResult> = Vec::new();
    loop {
        untraced.push(prepared.run_pass(1 + 2 * untraced.len(), None));
        traced.push(prepared.run_pass(2 * traced.len() + 2, Some(origin)));
        let done = match options.passes {
            Some(passes) => traced.len() >= passes,
            None => traced.len() >= 2 && started.elapsed().as_secs_f64() >= options.seconds,
        };
        if done {
            break;
        }
    }
    // Allocations are counted in a pass of their own: with several worker
    // threads the shared counters are contended, which would otherwise be
    // booked as the overhead of the spans.
    let (allocations_before, bytes_before) = allocation_counts();
    count_allocations(true);
    let counted = prepared.run_pass(1 + untraced.len() + traced.len(), None);
    count_allocations(false);
    let (allocations, bytes) = allocation_counts();
    let counted_ops = counted.completed() + counted.failed();

    let overhead_ratio =
        median_over(&traced, PassResult::p50_ms) / median_over(&untraced, PassResult::p50_ms);
    let cache_hits: u64 = untraced.iter().map(|pass| pass.cache.hits).sum();
    let cache_misses: u64 = untraced.iter().map(|pass| pass.cache.misses).sum();
    let cache_evictions: u64 = untraced.iter().map(|pass| pass.cache.evictions).sum();
    let rejected: u64 = untraced.iter().map(|pass| pass.rejected).sum();
    let deadline_exceeded: u64 = untraced.iter().map(|pass| pass.deadline_exceeded).sum();
    let plans_changed = untraced.first().map_or(0, PassResult::plans_changed);

    // One client alone, for the scaling efficiency of several.
    let scaling_efficiency = if prepared.clients() > 1 {
        let next = 2 + untraced.len() + traced.len();
        let alone = prepared.run_schedules(&[prepared.inputs.schedule(next, 0)], None);
        median_over(&untraced, PassResult::throughput_qps)
            / (prepared.clients() as f64 * alone.throughput_qps())
    } else {
        1.0
    };

    // The layer pass.
    let statistics = server.snapshot().statistics().clone();
    let engines = Engines {
        cold: CypherEngine::with_statistics(statistics.clone())
            .with_query_log(Arc::new(MemoryQueryLog::new())),
        cached: CypherEngine::with_statistics(statistics)
            .with_plan_cache(Arc::clone(server.plan_cache()))
            .with_query_log(Arc::new(MemoryQueryLog::new())),
        matching: server.config().matching,
    };
    let ops = &prepared.inputs.ops;
    let walked: Vec<&Op> = if workload == spec::CONCURRENT_SMALL {
        let standard = ops.len() - crate::texts::POOL_SIZE;
        ops[..standard + POOL_SAMPLE].iter().collect()
    } else {
        ops.iter().collect()
    };
    let mut recorder = Recorder::new(origin);
    let mut counts_exact = true;
    let walks: Vec<Walk> = walked
        .iter()
        .enumerate()
        .map(|(query, op)| {
            recorder.set_query(query as u32);
            let repeated: Vec<Walk> = (0..REPETITIONS)
                .map(|_| walk_op(&prepared, &engines, op, &mut recorder))
                .collect();
            counts_exact &= repeated
                .windows(2)
                .all(|pair| walk_counts(&pair[0]) == walk_counts(&pair[1]));
            median_walk(&repeated)
        })
        .collect();

    // Set-up steps: two come from the timed set-ups, two are probed here
    // because `GraphSnapshot::of` does both inside one call.
    let setup = |field: &dyn Fn(&crate::workload::SetupTimes) -> f64| -> f64 {
        median(&prepared.setups.iter().map(field).collect::<Vec<f64>>()) * 1e3
    };
    let graph = prepared.built.graph();
    let index_build_ms = probe_ms(|| graph.to_indexed());
    let statistics_ms = probe_ms(|| GraphStatistics::of(graph));

    let executed: Vec<&Walk> = walks.iter().filter(|walk| walk.executed).collect();
    let simple: Vec<&Walk> = executed
        .iter()
        .copied()
        .filter(|w| !w.is_pipeline)
        .collect();
    let pipelines: Vec<&Walk> = executed.iter().copied().filter(|w| w.is_pipeline).collect();
    let per_walk = |field: &dyn Fn(&Walk) -> f64| mean(walks.iter().map(field));
    let per_executed = |field: &dyn Fn(&Walk) -> f64| mean(executed.iter().map(|w| field(w)));
    let per_simple = |field: &dyn Fn(&Walk) -> f64| mean(simple.iter().map(|w| field(w)));
    let per_pipeline = |field: &dyn Fn(&Walk) -> f64| mean(pipelines.iter().map(|w| field(w)));
    let total = |field: &dyn Fn(&Walk) -> f64| executed.iter().map(|w| field(w)).sum::<f64>();

    let value = |name: &str| -> (f64, bool) {
        let exact = |value: f64| (value, counts_exact);
        let timed = |value: f64| (value, false);
        match name {
            "ldbc.generate_ms" => timed(setup(&|s| s.generate_s)),
            "epgm.index_build_ms" => timed(index_build_ms),
            "epgm.statistics_ms" => timed(statistics_ms),
            "server.snapshot_ms" => timed(setup(&|s| s.snapshot_s)),
            "cypher.lex_us" => timed(per_walk(&|w| w.lex) * 1e6),
            "cypher.parse_us" => timed(per_walk(&|w| (w.parse - w.lex).max(0.0)) * 1e6),
            "cypher.query_graph_us" => timed(per_walk(&|w| w.query_graph) * 1e6),
            "cypher.tokens_per_query" => exact(per_walk(&|w| w.tokens)),
            "core.fingerprint_us" => timed(per_walk(&|w| w.fingerprint) * 1e6),
            "core.plan_us" => timed(per_walk(&|w| w.plan) * 1e6),
            "core.plan_digest_changed" => (plans_changed as f64, true),
            "core.plancache_hit_rate" => timed(if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            }),
            "core.plancache_evictions" => (cache_evictions as f64, prepared.clients() == 1),
            "core.plancache_lookup_us" => timed(per_simple(&|w| w.lookup) * 1e6),
            "core.op.scan_ms" => timed(per_simple(&|w| w.operators[0]) * 1e3),
            "core.op.expand_ms" => timed(per_simple(&|w| w.operators[1]) * 1e3),
            "core.op.join_ms" => timed(per_simple(&|w| w.operators[2]) * 1e3),
            "core.op.intersect_ms" => timed(per_simple(&|w| w.operators[3]) * 1e3),
            "core.op.filter_project_ms" => timed(per_simple(&|w| w.operators[4]) * 1e3),
            "core.op.rows_examined_per_row_out" => exact(
                simple.iter().map(|w| w.rows_examined).sum::<f64>()
                    / simple.iter().map(|w| w.rows_out).sum::<f64>().max(1.0),
            ),
            "core.op.max_intermediate_rows" => exact(
                simple
                    .iter()
                    .map(|w| w.max_intermediate_rows)
                    .fold(0.0, f64::max),
            ),
            "core.plan_q_error_max" => {
                timed(simple.iter().map(|w| w.q_error_max).fold(0.0, f64::max))
            }
            "core.materialize_ms" => timed(per_simple(&|w| w.materialize) * 1e3),
            "core.rows_out_per_query" => exact(per_executed(&|w| w.rows_out)),
            "core.pipeline.stages_per_query" => exact(per_pipeline(&|w| w.stages)),
            "core.pipeline.collected_records_per_query" => {
                exact(per_pipeline(&|w| w.collected_records))
            }
            "core.pipeline.sim_s_per_query" => timed(per_pipeline(&|w| w.simulated)),
            "dataflow.stages_per_query" => exact(per_executed(&|w| w.stages)),
            "dataflow.records_per_query" => exact(per_executed(&|w| w.records)),
            "dataflow.shuffled_bytes_per_query" => exact(per_executed(&|w| w.shuffled_bytes)),
            "dataflow.morsels_per_query" => timed(per_executed(&|w| w.morsels)),
            "dataflow.stolen_share" => timed(if total(&|w| w.morsels) == 0.0 {
                0.0
            } else {
                total(&|w| w.stolen_morsels) / total(&|w| w.morsels)
            }),
            "dataflow.peak_memory_bytes" => timed(
                executed
                    .iter()
                    .map(|w| w.peak_memory_bytes)
                    .fold(0.0, f64::max),
            ),
            "dataflow.empty_stage_us" => timed(empty_stage_us(&prepared)),
            "dataflow.sim_s_per_query" => timed(per_executed(&|w| w.simulated)),
            "dataflow.sim_wall_rank_corr" => timed(spearman(
                &executed.iter().map(|w| w.simulated).collect::<Vec<f64>>(),
                &executed.iter().map(|w| w.call).collect::<Vec<f64>>(),
            )),
            "server.admit_us" => timed(per_executed(&|w| w.admit) * 1e6),
            "server.attach_us" => timed(per_executed(&|w| w.attach) * 1e6),
            "server.session_overhead_us" => {
                timed(per_executed(&|w| w.call_floor - w.engine_run_floor) * 1e6)
            }
            "server.scaling_efficiency" => timed(scaling_efficiency),
            "server.rejected" => (rejected as f64, true),
            "server.deadline_exceeded" => (deadline_exceeded as f64, true),
            "server.cold_pass_ms" => timed(cold.wall_s * 1e3),
            "alloc.count_per_query" => {
                timed((allocations - allocations_before) as f64 / counted_ops.max(1) as f64)
            }
            "alloc.bytes_per_query" => {
                timed((bytes - bytes_before) as f64 / counted_ops.max(1) as f64)
            }
            "trace.overhead_ratio" => timed(overhead_ratio),
            "trace.unattributed_share" => timed(per_walk(&|w| {
                if w.call > 0.0 {
                    (1.0 - w.attributed() / w.call).max(0.0)
                } else {
                    0.0
                }
            })),
            other => unreachable!("per-layer metric `{other}` has no measurement"),
        }
    };
    // A count may be claimed on only if it repeats on every seed too: the
    // serial query workloads run the same ops whatever the seed, the other
    // two draw their pool from it.
    let seed_independent =
        [spec::OPERATIONAL, spec::ANALYTICAL, spec::PIPELINE].contains(&workload);
    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .map(|layer| {
            let (value, exact) = value(layer.name);
            Metric::new(layer.name, layer.unit, value).exact(exact && seed_independent)
        })
        .collect();

    // How the layers separate on this workload — the reason it exists.
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let frontend_share = share(per_walk(&Walk::frontend), per_walk(&|w| w.call));
    let operator_total: f64 = (0..OPERATOR_KINDS.len())
        .map(|kind| per_simple(&|w| w.operators[kind]))
        .sum();
    let mut notes = vec![
        format!(
            "latency_p50_ms per pass, untraced: {}; traced: {}; layer pass over {} ops x {REPETITIONS}",
            p50_per_pass(&untraced),
            p50_per_pass(&traced),
            walks.len()
        ),
        format!(
            "separation: cypher.* + core.plan + core.fingerprint = {:.1} % of a call",
            frontend_share * 1e2
        ),
    ];
    if !simple.is_empty() {
        let kinds: Vec<String> = OPERATOR_KINDS
            .iter()
            .enumerate()
            .map(|(kind, name)| {
                format!(
                    "{name} {:.1} %",
                    share(per_simple(&|w| w.operators[kind]), operator_total) * 1e2
                )
            })
            .collect();
        notes.push(format!("separation: operator time = {}", kinds.join(", ")));
        // `Session::query` converts rows with a crate-private function that
        // is cheaper than `QueryResult::rows()`, so the share is taken of the
        // replica the layer pass ran, not of the served call.
        notes.push(format!(
            "separation: join + intersect + materialize = {:.1} % of execute + materialize",
            share(
                per_simple(&|w| w.operator(2) + w.operator(3) + w.materialize),
                per_simple(&|w| w.execute + w.materialize)
            ) * 1e2
        ));
    }
    notes.extend(inexact_counts(&prepared, &untraced));

    let mut spans: Vec<Span> = Vec::new();
    if let Some(last) = traced.pop().and_then(|pass| pass.recorder) {
        recorder.absorb(last);
    }
    spans.extend_from_slice(recorder.spans());
    std::fs::create_dir_all(&options.out).map_err(|e| format!("{}: {e}", options.out.display()))?;
    let path = options.out.join(format!("trace.{workload}.json"));
    write_trace(&path, workload, options.seed, &spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));

    let mut all: Vec<&PassResult> = vec![&cold, &warm_up, &counted];
    all.extend(untraced.iter());
    all.extend(traced.iter());
    let (attempted, failed, first_failure) = tally(&all);
    Ok(WorkloadReport {
        workload,
        seed: options.seed,
        traced: true,
        verified: prepared.verified.to_string(),
        nproc: nproc(),
        clients: prepared.clients(),
        passes: untraced.len(),
        attempted,
        failed,
        first_failure,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_fold_by_kind() {
        assert_eq!(operator_kind("ScanVertices(p:Person)"), 0);
        assert_eq!(operator_kind("ScanEdges(e:knows)"), 0);
        assert_eq!(operator_kind("ExpandEmbeddings(e *1..10)"), 1);
        assert_eq!(operator_kind("JoinEmbeddings(on a, b)"), 2);
        assert_eq!(operator_kind("ExpandIntersect(wco intersect c = e2∩e3)"), 3);
        assert_eq!(operator_kind("FilterEmbeddings(a.x <> b.x)"), 4);
    }

    #[test]
    fn attribution_scales_profiled_operators_to_the_plain_execution() {
        let walk = Walk {
            executed: true,
            call: 10.0,
            execute: 6.0,
            profile: 12.0,
            operators: [5.0, 4.0, 0.0, 0.0, 0.0],
            materialize: 1.0,
            ..Walk::default()
        };
        assert_eq!(walk.operator(0), 2.5);
        assert_eq!(walk.attributed(), 2.5 + 2.0 + 1.0);
    }
}

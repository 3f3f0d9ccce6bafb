//! Building the system under test, turning a seed into schedules, and
//! running passes of a workload against the engine's public entry points.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use gradoop_core::{stable_digest, CypherEngine, Explain, PlanCacheStats, TableResult};
use gradoop_cypher::{parse_pipeline, QueryGraph};
use gradoop_dataflow::{ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::{GradoopId, GraphHead, LogicalGraph, Properties};
use gradoop_ldbc::{generate, pick_names, LdbcConfig};
use gradoop_server::{GraphSnapshot, QueryServer, ServerConfig, Session};

use crate::golden::{answer_of, expected_answers, Answer, Golden};
use crate::process::cpu_seconds;
use crate::rng::Rng;
use crate::spec;
use crate::stats::{median, percentile};
use crate::texts::{self, Op, POOL_SIZE, ROTATION_NAMES};
use crate::trace::Recorder;

/// Worker and client count: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall-clock seconds of each step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub snapshot_s: f64,
    pub total_s: f64,
}

/// One built system: the server over its snapshot, and the names the
/// dataset offers for `$firstName`.
pub struct Built {
    pub server: Arc<QueryServer>,
    /// The dataset's rare name (few results).
    pub high: String,
    /// The dataset's most common name (many results).
    pub low: String,
    /// Names spread over the whole frequency ranking.
    pub rotation: Vec<String>,
}

impl Built {
    pub fn graph(&self) -> &LogicalGraph {
        self.server.snapshot().graph()
    }
}

/// Sets the system up the way a user would, passing no knobs: generate →
/// `LogicalGraph::from_data` → `GraphSnapshot::of` → `QueryServer::new`,
/// every configuration the crate's own default. The dataset is the LDBC
/// generator's default for `persons` whatever the benchmark seed, so every
/// seed measures the same amount of work in a different order.
pub fn build(persons: usize) -> (Built, SetupTimes) {
    let started = Instant::now();
    let data = generate(&LdbcConfig::with_persons(persons));
    let generate_s = started.elapsed().as_secs_f64();

    let names = pick_names(&data);
    let rotation = texts::rotation_names(&data, ROTATION_NAMES);
    let names_s = started.elapsed().as_secs_f64() - generate_s;

    let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(nproc()));
    let head = GraphHead::new(GradoopId(0), "LdbcSocialNetwork", Properties::new());
    let graph = LogicalGraph::from_data(&env, head, data.vertices, data.edges);

    let step = Instant::now();
    let snapshot = GraphSnapshot::of(graph);
    let snapshot_s = step.elapsed().as_secs_f64();

    let server = QueryServer::new(snapshot, ServerConfig::default());

    let times = SetupTimes {
        generate_s,
        snapshot_s,
        // Choosing names is the benchmark's input preparation, not set-up.
        total_s: started.elapsed().as_secs_f64() - names_s,
    };
    let built = Built {
        server,
        high: names.high,
        low: names.low,
        rotation,
    };
    (built, times)
}

/// Sets up repeatedly for about a second (at least `MIN_REBUILDS` times) and
/// returns the last system with every set-up's timings.
pub fn build_repeatedly(persons: usize) -> (Built, Vec<SetupTimes>) {
    const MIN_REBUILDS: usize = 9;
    const MAX_REBUILDS: usize = 60;
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let (built, time) = build(persons);
        times.push(time);
        let enough = times.len() >= MIN_REBUILDS && started.elapsed().as_secs_f64() >= 1.0;
        if enough || times.len() >= MAX_REBUILDS {
            return (built, times);
        }
    }
}

/// What a client calls.
pub enum Target {
    /// `Session::query` on the shared server: admission, attach, plan cache,
    /// execution, materialization.
    Server(Arc<QueryServer>),
    /// `CypherEngine::explain_with_params` on an engine without plan cache.
    Explain(Box<CypherEngine>),
}

impl Target {
    pub fn span_name(&self) -> &'static str {
        match self {
            Target::Server(_) => "server.session_query",
            Target::Explain(_) => "core.explain",
        }
    }
}

/// What a correct reply looks like, per op.
pub enum Expected {
    Answers(Vec<Answer>),
    /// For plan-only requests: the golden plan digest where there is one
    /// (a differing plan is information, not failure) and the edge
    /// variables of the query graph, which a correct plan must all cover.
    Plans {
        golden: Vec<Option<String>>,
        edge_variables: Vec<Vec<String>>,
    },
}

/// What a seed turns into: the distinct ops of a workload and the order in
/// which each client sends them.
pub struct Inputs {
    pub ops: Vec<Op>,
    /// The fixed part of each client's pass: indices into `ops`.
    pub schedules: Vec<Vec<usize>>,
    /// `concurrent_small` only: each pass also draws this many pool ops per
    /// client, continuing through `pool_order` from pass to pass.
    pub pool_draws: usize,
    pub pool_order: Vec<usize>,
}

/// Each distinct op `repetitions` times, in seeded order.
fn shuffled(ops: usize, repetitions: usize, rng: &mut Rng) -> Vec<usize> {
    let mut schedule: Vec<usize> = (0..ops)
        .flat_map(|op| std::iter::repeat_n(op, repetitions))
        .collect();
    rng.shuffle(&mut schedule);
    schedule
}

impl Inputs {
    /// Derives a workload's inputs from `seed` and the names the dataset
    /// offers. Counts are fixed and sized so that a pass takes 1.5–2.5 s on
    /// two cores.
    pub fn derive(
        workload: &str,
        seed: u64,
        high: &str,
        low: &str,
        rotation: &[String],
        clients: usize,
    ) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed, 1);
        let serial = |ops: Vec<Op>, repetitions: usize, rng: &mut Rng| Inputs {
            schedules: vec![shuffled(ops.len(), repetitions, rng)],
            ops,
            pool_draws: 0,
            pool_order: Vec::new(),
        };
        Ok(match workload {
            spec::OPERATIONAL => serial(texts::operational_ops(high, low), 13, &mut rng),
            spec::ANALYTICAL => serial(texts::analytical_ops(), 20, &mut rng),
            spec::PIPELINE => serial(texts::pipeline_ops(), 14, &mut rng),
            spec::FRONTEND_COLD => {
                let pool = texts::novel_pool(seed, rotation);
                serial(texts::frontend_ops(low, &pool), 100, &mut rng)
            }
            spec::CONCURRENT_SMALL => {
                let mut ops = texts::mixed_ops(rotation);
                let standard = ops.len();
                ops.extend(texts::novel_pool(seed, rotation));
                // 90 % repeated shapes: each of the 13 texts 24 times, Q1–Q3
                // cycling three times through the 8 names; 10 % pool shapes.
                let per_text = 24;
                let schedules = (0..clients)
                    .map(|client| {
                        let mut rng = Rng::new(seed, 100 + client as u64);
                        let mut schedule = Vec::new();
                        for (index, op) in ops[..standard].iter().enumerate() {
                            let repetitions = if op.first_name.is_some() {
                                per_text / ROTATION_NAMES
                            } else {
                                per_text
                            };
                            schedule.extend(std::iter::repeat_n(index, repetitions));
                        }
                        rng.shuffle(&mut schedule);
                        schedule
                    })
                    .collect();
                let mut pool_order: Vec<usize> = (standard..standard + POOL_SIZE).collect();
                rng.shuffle(&mut pool_order);
                Inputs {
                    ops,
                    schedules,
                    pool_draws: 13 * per_text / 9,
                    pool_order,
                }
            }
            other => return Err(format!("unknown workload `{other}`")),
        })
    }

    /// The ops client `client` runs in pass `pass`.
    pub fn schedule(&self, pass: usize, client: usize) -> Vec<usize> {
        let mut schedule = self.schedules[client].clone();
        if self.pool_draws > 0 {
            let clients = self.schedules.len();
            let start = (pass * clients + client) * self.pool_draws;
            let draws = (0..self.pool_draws).map(|i| self.pool_order[(start + i) % POOL_SIZE]);
            // Spread the pool draws evenly through the pass.
            let stride = schedule.len() / self.pool_draws;
            for (i, op) in draws.enumerate() {
                schedule.insert(i * (stride + 1), op);
            }
        }
        schedule
    }
}

/// A workload ready to run.
pub struct Prepared {
    pub built: Built,
    pub setups: Vec<SetupTimes>,
    pub target: Target,
    pub inputs: Inputs,
    pub expected: Expected,
    /// `golden` or `golden+oracle`.
    pub verified: &'static str,
}

impl Prepared {
    /// Sets the system up and derives the workload's inputs from `seed`.
    pub fn new(workload: &str, seed: u64, golden: &Golden) -> Result<Prepared, String> {
        let persons = if workload == spec::CONCURRENT_SMALL {
            100
        } else {
            1000
        };
        let (built, setups) = build_repeatedly(persons);
        // As many clients as cores, but never more than the server admits
        // at once: no request is refused by construction.
        let clients = if workload == spec::CONCURRENT_SMALL {
            nproc().min(built.server.config().max_in_flight)
        } else {
            1
        };
        let inputs = Inputs::derive(
            workload,
            seed,
            &built.high,
            &built.low,
            &built.rotation,
            clients,
        )?;
        let ops = &inputs.ops;

        let (target, expected, verified) = if workload == spec::FRONTEND_COLD {
            let statistics = built.server.snapshot().statistics().clone();
            let mut edge_variables = Vec::with_capacity(ops.len());
            for op in ops {
                let pipeline = parse_pipeline(&op.text).map_err(|e| e.to_string())?;
                edge_variables.push(match pipeline.as_simple() {
                    Some(query) => QueryGraph::from_query_with_params(&query, &op.params)
                        .map_err(|e| e.to_string())?
                        .edges
                        .iter()
                        .map(|edge| edge.variable.clone())
                        .collect(),
                    None => Vec::new(),
                });
            }
            let expected = Expected::Plans {
                golden: ops
                    .iter()
                    .map(|op| golden.plan(op).map(str::to_string))
                    .collect(),
                edge_variables,
            };
            (
                Target::Explain(Box::new(CypherEngine::with_statistics(statistics))),
                expected,
                "golden",
            )
        } else {
            let (answers, verified) =
                expected_answers(golden, persons, built.graph(), ops, nproc())?;
            (
                Target::Server(Arc::clone(&built.server)),
                Expected::Answers(answers),
                verified,
            )
        };
        Ok(Prepared {
            built,
            setups,
            target,
            inputs,
            expected,
            verified,
        })
    }

    /// Closed-loop clients of the workload.
    pub fn clients(&self) -> usize {
        self.inputs.schedules.len()
    }

    /// Untimed warm-up: one client sends every repeated op once, then the
    /// clients share out the pool ops, so that lazy set-up is done and the
    /// plan cache is at capacity before timing starts — a long-running
    /// server's steady state, in which each novel shape evicts an older one.
    pub fn warm_up(&self) -> PassResult {
        let pool = &self.inputs.pool_order;
        let repeated = self.inputs.ops.len() - pool.len();
        let mut schedules: Vec<Vec<usize>> = (0..self.clients())
            .map(|client| {
                pool.iter()
                    .copied()
                    .skip(client)
                    .step_by(self.clients())
                    .collect()
            })
            .collect();
        schedules[0].splice(0..0, 0..repeated);
        self.run_schedules(&schedules, None)
    }

    /// One client's closed loop over `schedule`: call, wait for the reply,
    /// check it, next. With a recorder, every op becomes an `op` span with
    /// the call and the check as children.
    fn run_client(
        &self,
        schedule: &[usize],
        pass: &mut ClientPass,
        mut recorder: Option<&mut Recorder>,
    ) {
        let session = match &self.target {
            Target::Server(server) => Some(server.session()),
            Target::Explain(_) => None,
        };
        let begin = |recorder: &mut Option<&mut Recorder>, name: &'static str| {
            recorder.as_deref_mut().map(|recorder| recorder.begin(name))
        };
        let end = |recorder: &mut Option<&mut Recorder>, span: Option<u32>| {
            if let (Some(recorder), Some(span)) = (recorder.as_deref_mut(), span) {
                recorder.end(span);
            }
        };
        pass.latencies_ms.reserve(schedule.len());
        for (position, &index) in schedule.iter().enumerate() {
            let op = &self.inputs.ops[index];
            if let Some(recorder) = recorder.as_deref_mut() {
                recorder.set_query(position as u32);
            }
            let root = begin(&mut recorder, "op");
            let call = begin(&mut recorder, self.target.span_name());
            let started = Instant::now();
            let reply = self.call(session.as_ref(), op);
            let elapsed = started.elapsed();
            end(&mut recorder, call);
            pass.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            pass.busy_s += elapsed.as_secs_f64();

            let verify = begin(&mut recorder, "bench.verify");
            self.check(index, &reply, pass);
            end(&mut recorder, verify);
            end(&mut recorder, root);
        }
    }

    fn call(&self, session: Option<&Session>, op: &Op) -> Reply {
        match (&self.target, session) {
            (Target::Server(_), Some(session)) => match session.query(&op.text, &op.params) {
                Ok(table) => Reply::Table(table),
                Err(error) => Reply::Error(error.to_string()),
            },
            (Target::Explain(engine), _) => {
                match engine.explain_with_params(&op.text, &op.params) {
                    Ok(explain) => Reply::Plan(Box::new(explain)),
                    Err(error) => Reply::Error(error.to_string()),
                }
            }
            (Target::Server(_), None) => unreachable!("server clients open a session"),
        }
    }

    /// Compares a reply with what is expected; a wrong, failed or refused
    /// operation counts as failed.
    fn check(&self, index: usize, reply: &Reply, pass: &mut ClientPass) {
        let ok = match (reply, &self.expected) {
            (Reply::Table(table), Expected::Answers(answers)) => {
                pass.rows += table.rows.len() as u64;
                answer_of(&table.columns, &table.rows, table.ordered) == answers[index]
            }
            (
                Reply::Plan(explain),
                Expected::Plans {
                    golden,
                    edge_variables,
                },
            ) => {
                let text = explain.root.to_text();
                if let Some(golden) = &golden[index] {
                    if *golden != stable_digest(&text) {
                        pass.plans_changed += 1;
                    }
                }
                plan_covers(&text, &edge_variables[index])
            }
            _ => false,
        };
        if ok {
            pass.completed += 1;
        } else {
            pass.failed += 1;
            if pass.first_failure.is_none() {
                let detail = match reply {
                    Reply::Error(error) => error.clone(),
                    Reply::Table(table) => format!("{} rows, wrong answer", table.rows.len()),
                    Reply::Plan(_) => "plan omits a query variable".to_string(),
                };
                pass.first_failure = Some(format!("{}: {detail}", self.inputs.ops[index].label));
            }
        }
    }

    /// Runs pass number `pass` with all clients started together.
    pub fn run_pass(&self, pass: usize, traced: Option<Instant>) -> PassResult {
        let schedules: Vec<Vec<usize>> = (0..self.clients())
            .map(|client| self.inputs.schedule(pass, client))
            .collect();
        self.run_schedules(&schedules, traced)
    }

    /// Runs one closed-loop client per schedule, started together.
    pub fn run_schedules(&self, schedules: &[Vec<usize>], traced: Option<Instant>) -> PassResult {
        let cache_before = self.cache_stats();
        let server_before = self.built.server.stats();
        let cpu_before = cpu_seconds();
        let barrier = Barrier::new(schedules.len());
        let started = Instant::now();
        let results: Vec<(ClientPass, Option<Recorder>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .iter()
                .map(|schedule| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut pass = ClientPass::default();
                        let mut recorder = traced.map(Recorder::new);
                        barrier.wait();
                        self.run_client(schedule, &mut pass, recorder.as_mut());
                        (pass, recorder)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_before;
        let cache_after = self.cache_stats();
        let server_after = self.built.server.stats();
        let mut recorder: Option<Recorder> = None;
        let mut clients = Vec::with_capacity(results.len());
        for (pass, spans) in results {
            clients.push(pass);
            match (&mut recorder, spans) {
                (Some(all), Some(spans)) => all.absorb(spans),
                (None, Some(spans)) => recorder = Some(spans),
                _ => {}
            }
        }
        PassResult {
            clients,
            wall_s,
            cpu_s,
            cache: PlanCacheStats {
                hits: cache_after.hits - cache_before.hits,
                misses: cache_after.misses - cache_before.misses,
                evictions: cache_after.evictions - cache_before.evictions,
                entries: cache_after.entries,
            },
            rejected: server_after.rejected - server_before.rejected,
            deadline_exceeded: server_after.deadline_exceeded - server_before.deadline_exceeded,
            recorder,
        }
    }

    fn cache_stats(&self) -> PlanCacheStats {
        self.built.server.stats().plan_cache
    }
}

/// A plan covers a query when every edge variable of the query graph shows
/// up in an operator label: an edge no operator scans or expands would be
/// silently dropped from the pattern.
fn plan_covers(plan_text: &str, edge_variables: &[String]) -> bool {
    edge_variables.iter().all(|variable| {
        plan_text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == variable)
    })
}

enum Reply {
    Table(TableResult),
    Plan(Box<Explain>),
    Error(String),
}

/// What one client saw in one pass.
#[derive(Debug, Default)]
pub struct ClientPass {
    pub latencies_ms: Vec<f64>,
    /// Seconds spent waiting for replies.
    pub busy_s: f64,
    pub completed: u64,
    pub failed: u64,
    pub rows: u64,
    pub plans_changed: u64,
    pub first_failure: Option<String>,
}

/// One pass of a workload, all clients.
pub struct PassResult {
    pub clients: Vec<ClientPass>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Plan-cache activity during the pass (`entries` is the final size).
    pub cache: PlanCacheStats,
    pub rejected: u64,
    pub deadline_exceeded: u64,
    pub recorder: Option<Recorder>,
}

impl PassResult {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|client| client.latencies_ms.iter().copied())
            .collect()
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms())
    }

    pub fn p95_ms(&self) -> f64 {
        percentile(&self.latencies_ms(), 0.95)
    }

    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|client| client.completed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|client| client.failed).sum()
    }

    pub fn rows(&self) -> u64 {
        self.clients.iter().map(|client| client.rows).sum()
    }

    pub fn plans_changed(&self) -> u64 {
        self.clients.iter().map(|client| client.plans_changed).sum()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.clients
            .iter()
            .find_map(|client| client.first_failure.as_deref())
    }

    /// Correct completions per second the clients spent waiting for replies,
    /// summed over clients: what closed-loop callers with no think time see.
    pub fn throughput_qps(&self) -> f64 {
        self.clients
            .iter()
            .filter(|client| client.busy_s > 0.0)
            .map(|client| client.completed as f64 / client.busy_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cover_matches_whole_words() {
        let plan = "JoinEmbeddings(on p)\n  ScanEdges(e1:knows)\n  ExpandEmbeddings(__e2 *1..3)";
        assert!(plan_covers(plan, &["e1".to_string(), "__e2".to_string()]));
        assert!(!plan_covers(plan, &["e".to_string()]));
        assert!(plan_covers(plan, &[]));
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let names: Vec<String> = [
            "Jan", "Maria", "Chen", "Ali", "Zora", "Enzo", "Priya", "Hedda",
        ]
        .iter()
        .map(|name| name.to_string())
        .collect();
        let derive = |workload: &str, seed: u64| {
            Inputs::derive(workload, seed, "Enzo", "Jan", &names, 2).unwrap()
        };
        for workload in spec::WORKLOADS {
            let (a, b, other) = (
                derive(workload.name, 42),
                derive(workload.name, 42),
                derive(workload.name, 43),
            );
            for pass in 0..3 {
                for client in 0..a.schedules.len() {
                    assert_eq!(a.schedule(pass, client), b.schedule(pass, client));
                }
            }
            assert_ne!(a.schedule(0, 0), other.schedule(0, 0), "{}", workload.name);
            let texts = |inputs: &Inputs| -> Vec<String> {
                inputs.ops.iter().map(|op| op.text.clone()).collect()
            };
            assert_eq!(texts(&a), texts(&b));
        }
    }

    #[test]
    fn a_tenth_of_concurrent_small_comes_from_the_pool_and_moves_on_each_pass() {
        let names: Vec<String> = (0..8).map(|i| format!("N{i}")).collect();
        let inputs = Inputs::derive(spec::CONCURRENT_SMALL, 42, "N7", "N0", &names, 2).unwrap();
        let repeated = inputs.ops.len() - POOL_SIZE;
        let mut seen = std::collections::HashSet::new();
        for pass in 0..8 {
            for client in 0..2 {
                let schedule = inputs.schedule(pass, client);
                let pool: Vec<usize> = schedule
                    .iter()
                    .copied()
                    .filter(|&op| op >= repeated)
                    .collect();
                let share = pool.len() as f64 / schedule.len() as f64;
                assert!((0.09..=0.11).contains(&share), "pool share {share}");
                seen.extend(pool);
            }
        }
        // 8 passes x 2 clients x 34 draws walk through the whole pool.
        assert_eq!(seen.len(), POOL_SIZE);
    }

    #[test]
    fn shuffled_repeats_every_op_equally() {
        let schedule = shuffled(5, 3, &mut Rng::new(9, 1));
        assert_eq!(schedule.len(), 15);
        for op in 0..5 {
            assert_eq!(schedule.iter().filter(|&&x| x == op).count(), 3);
        }
        assert_eq!(schedule, shuffled(5, 3, &mut Rng::new(9, 1)));
        assert_ne!(schedule, shuffled(5, 3, &mut Rng::new(10, 1)));
    }
}

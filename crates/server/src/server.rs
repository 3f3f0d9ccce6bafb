//! The query server and its sessions.
//!
//! One [`QueryServer`] owns a [`GraphSnapshot`], a shape-keyed
//! [`PlanCache`] shared by every session, a query log and an
//! [`AdmissionGate`]. Sessions are cheap handles; each call to
//! [`Session::query`] is admitted against the in-flight budget, attaches to
//! the snapshot (private environment, shared partitions), optionally arms a
//! deadline, runs through the engine and classifies the outcome.
//!
//! Concurrency model: the snapshot and statistics are immutable and
//! `Arc`-shared; the plan cache is internally synchronized; every query
//! gets its own [`ExecutionEnvironment`](gradoop_dataflow::ExecutionEnvironment)
//! fork, so no execution state — clock, metrics, trace sink, poison slot —
//! is ever shared between in-flight queries. Results are therefore
//! byte-identical to running the same queries serially.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gradoop_core::{
    CypherEngine, CypherError, MatchingConfig, MemoryQueryLog, PlanCache, PlanCacheStats,
    TableResult, DEFAULT_PLAN_CAPACITY,
};
use gradoop_cypher::Literal;
use gradoop_dataflow::ExecutionFailure;

use crate::admission::{AdmissionGate, AdmissionRejected};
use crate::deadline::{DeadlineSink, DEADLINE_SITE};
use crate::latency::Histogram;
use crate::snapshot::GraphSnapshot;

/// Tuning knobs of a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently executing queries; arrivals past it wait.
    pub max_in_flight: usize,
    /// How long an arrival may wait for an in-flight slot before it is
    /// rejected with [`ServerError::Overloaded`].
    pub admission_timeout: Duration,
    /// Deadline applied to every query that does not pass its own
    /// (measured from the call, i.e. including admission wait). `None`
    /// means no deadline.
    pub default_deadline: Option<Duration>,
    /// Plan-cache capacity in distinct query shapes (every query is planned
    /// with the engine's default plan mode).
    pub plan_cache_capacity: usize,
    /// Morphism semantics every query runs under.
    pub matching: MatchingConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 8,
            admission_timeout: Duration::from_secs(1),
            default_deadline: None,
            plan_cache_capacity: DEFAULT_PLAN_CAPACITY,
            matching: MatchingConfig::cypher_default(),
        }
    }
}

/// Any failure of a served query.
#[derive(Debug)]
pub enum ServerError {
    /// The in-flight budget stayed full for the whole admission timeout;
    /// no planning or execution work was spent on the query.
    Overloaded(AdmissionRejected),
    /// The query ran past its deadline. Carries the classified execution
    /// failure; all computed datasets were discarded — never partial rows.
    DeadlineExceeded(ExecutionFailure),
    /// The engine failed: parse, validation, planning or execution.
    Query(CypherError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded(rejected) => write!(
                f,
                "server overloaded: {} queries in flight, waited {:?}",
                rejected.limit, rejected.waited
            ),
            ServerError::DeadlineExceeded(failure) => write!(f, "{failure}"),
            ServerError::Query(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-server counters, read by [`QueryServer::stats`].
#[derive(Debug, Default)]
struct ServerCounters {
    queries: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    failed: AtomicU64,
    latency: Histogram,
}

/// Point-in-time view of a server's activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Queries admitted (successful or not, excluding rejections).
    pub queries: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
    /// Queries that ran past their deadline.
    pub deadline_exceeded: u64,
    /// Queries that failed for any other reason.
    pub failed: u64,
    /// p99 of end-to-end query latency in seconds (bucketed estimate, at
    /// most 1/8 octave above the true value).
    pub p99_latency_seconds: f64,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
}

/// A concurrent Cypher query server over one immutable graph snapshot.
pub struct QueryServer {
    snapshot: GraphSnapshot,
    engine: CypherEngine,
    plan_cache: Arc<PlanCache>,
    query_log: Arc<MemoryQueryLog>,
    admission: AdmissionGate,
    config: ServerConfig,
    next_session: AtomicU64,
    counters: ServerCounters,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("config", &self.config)
            .field("in_flight", &self.admission.in_flight())
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Builds a server over `snapshot`: one shared plan cache, one query
    /// log, one engine reusing the snapshot's statistics.
    pub fn new(snapshot: GraphSnapshot, config: ServerConfig) -> Arc<QueryServer> {
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_capacity));
        let query_log = Arc::new(MemoryQueryLog::new());
        let engine = CypherEngine::with_statistics(snapshot.statistics().clone())
            .with_plan_cache(Arc::clone(&plan_cache))
            .with_query_log(query_log.clone());
        Arc::new(QueryServer {
            snapshot,
            engine,
            plan_cache,
            query_log,
            admission: AdmissionGate::new(config.max_in_flight),
            config,
            next_session: AtomicU64::new(0),
            counters: ServerCounters::default(),
        })
    }

    /// Opens a session. Sessions are independent handles onto the shared
    /// server — cheap, thread-safe, and each tracking its own latency.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            server: Arc::clone(self),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::default(),
        }
    }

    /// The server's snapshot.
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.snapshot
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The server's query log: one record per engine-run query.
    pub fn query_log(&self) -> &Arc<MemoryQueryLog> {
        &self.query_log
    }

    /// The admission gate. Exposed so operators can reserve capacity (a
    /// held [`AdmissionPermit`](crate::AdmissionPermit) keeps one query
    /// slot out of circulation, e.g. to drain a server before a snapshot
    /// swap) and tests can provoke overload deterministically.
    pub fn admission(&self) -> &AdmissionGate {
        &self.admission
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// Point-in-time activity counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            p99_latency_seconds: self.counters.latency.quantile(0.99),
            plan_cache: self.plan_cache.stats(),
        }
    }
}

/// Aggregate view of one session's activity.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Queries issued through this session.
    pub queries: u64,
    /// Queries that returned any [`ServerError`].
    pub errors: u64,
    /// p99 of this session's end-to-end latency in seconds.
    pub p99_latency_seconds: f64,
    /// Sum of this session's end-to-end latencies in seconds.
    pub total_latency_seconds: f64,
}

/// A client handle onto a [`QueryServer`].
pub struct Session {
    server: Arc<QueryServer>,
    id: u64,
    queries: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).finish()
    }
}

impl Session {
    /// The session's server-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The owning server.
    pub fn server(&self) -> &Arc<QueryServer> {
        &self.server
    }

    /// Runs `query_text` with `params` under the server's default deadline.
    pub fn query(
        &self,
        query_text: &str,
        params: &HashMap<String, Literal>,
    ) -> Result<TableResult, ServerError> {
        self.query_with_deadline(query_text, params, self.server.config.default_deadline)
    }

    /// Runs `query_text` with `params` under an explicit deadline budget
    /// (measured from this call, so admission wait counts against it).
    ///
    /// The query is admitted against the in-flight budget, attached to the
    /// snapshot on a private environment fork, and executed through the
    /// shared engine — plan-cache hits re-bind this call's parameters onto
    /// the cached plan. A tripped deadline classifies as
    /// [`ServerError::DeadlineExceeded`] with every computed row discarded.
    pub fn query_with_deadline(
        &self,
        query_text: &str,
        params: &HashMap<String, Literal>,
        deadline: Option<Duration>,
    ) -> Result<TableResult, ServerError> {
        let started = Instant::now();
        let server = &*self.server;
        let permit = match server.admission.admit(server.config.admission_timeout) {
            Ok(permit) => permit,
            Err(rejected) => {
                server.counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Overloaded(rejected));
            }
        };
        server.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(1, Ordering::Relaxed);

        let (env, graph) = server.snapshot.attach();
        let mut expired = None;
        if let Some(budget) = deadline {
            let at = started + budget;
            let budget_millis = budget.as_millis() as u64;
            if Instant::now() >= at {
                // Admission (or the caller) already burned the budget:
                // fail before spending any planning or execution work.
                expired = Some(DeadlineSink::failure(budget_millis));
            } else {
                env.set_trace_sink(Some(Arc::new(DeadlineSink::new(
                    env.clone(),
                    at,
                    budget_millis,
                ))));
            }
        }
        let outcome = match expired {
            Some(failure) => Err(CypherError::Execution(failure)),
            None => server
                .engine
                .run(&graph, query_text, params, server.config.matching),
        };
        // The deadline sink holds the environment; clearing it breaks the
        // sink ↔ environment reference cycle before the fork is dropped.
        env.set_trace_sink(None);
        drop(permit);

        let elapsed = started.elapsed().as_secs_f64();
        server.counters.latency.observe(elapsed);
        self.latency.observe(elapsed);

        match outcome {
            Ok(table) => Ok(table),
            Err(CypherError::Execution(failure)) if failure.site == DEADLINE_SITE => {
                server
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::DeadlineExceeded(failure))
            }
            Err(error) => {
                server.counters.failed.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Query(error))
            }
        }
    }

    /// Aggregate view of this session's activity.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p99_latency_seconds: self.latency.quantile(0.99),
            total_latency_seconds: self.latency.sum(),
        }
    }
}

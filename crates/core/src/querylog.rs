//! The query event log.
//!
//! Every query a [`CypherEngine`](crate::CypherEngine) with a query log
//! runs — successful, rejected at parse/plan time, or failed at runtime —
//! produces one structured [`QueryLogRecord`], delivered to a pluggable
//! [`QueryLogSink`]. Records carry everything a fleet-level dashboard
//! needs to aggregate query behaviour without access to the data:
//!
//! * a **query-shape fingerprint**: the query text with literals
//!   normalized away plus a stable 64-bit hash of that shape, so repeated
//!   parameterizations of the same pattern group together;
//! * a **plan digest**: a stable hash of the annotated plan tree, so plan
//!   changes (statistics drift, optimizer changes) are visible as digest
//!   changes for an unchanged fingerprint;
//! * per-operator rows/bytes, the estimate-vs-actual q-error,
//!   recovery counters, and both wall-clock and simulated time;
//! * the [`QueryOutcome`]: `ok`, `error` (parse/plan rejection) or
//!   `faulted` (runtime failure after retry exhaustion).
//!
//! An engine logs nothing until
//! [`CypherEngine::with_query_log`](crate::CypherEngine::with_query_log)
//! installs a sink: a [`MemoryQueryLog`] (an in-memory ring of recent
//! records) or a [`JsonlQueryLog`] that streams records to a JSONL file.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gradoop_cypher::lexer::lex_shape;
use gradoop_dataflow::{ExecutionMetrics, JsonValue, SpanRecord, StageReport, TraceSink};

use crate::observe::ProfileNode;

/// How a query run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The query executed and returned a result.
    Ok,
    /// The query was rejected before execution (parse, query-graph or
    /// planning error).
    Error,
    /// Execution started but failed at runtime (fault-tolerance budget
    /// exhausted); no result was returned.
    Faulted,
}

impl QueryOutcome {
    /// Stable lower-case name used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Error => "error",
            QueryOutcome::Faulted => "faulted",
        }
    }
}

/// Rows and bytes produced by one operator (or dataflow stage) of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorLogEntry {
    /// Operator or stage label.
    pub name: String,
    /// Rows produced.
    pub rows_out: u64,
    /// Embedding bytes produced (0 for a pipeline's plain dataflow stages).
    pub bytes: u64,
}

/// One structured record of the query event log.
#[derive(Debug, Clone)]
pub struct QueryLogRecord {
    /// The raw query text.
    pub query: String,
    /// The query text with literals normalized away (see
    /// [`normalize_query_shape`]).
    pub shape: String,
    /// Stable 64-bit FNV-1a hash of [`shape`](QueryLogRecord::shape), hex.
    pub fingerprint: String,
    /// Stable hash of the annotated plan tree, hex. Empty when planning
    /// failed before a plan existed.
    pub plan_digest: String,
    /// `Some("hit")`/`Some("miss")` when the engine consulted a
    /// [`PlanCache`](crate::plancache::PlanCache) for this run — for a
    /// clause pipeline, `"hit"` only when every `MATCH` stage hit; `None`
    /// when no cache was installed, planning failed, or the pipeline has
    /// no `MATCH`.
    pub plan_cache: Option<&'static str>,
    /// How the run ended.
    pub outcome: QueryOutcome,
    /// Human-readable error when `outcome != Ok`.
    pub error: Option<String>,
    /// Final match count (0 unless `outcome == Ok`).
    pub matches: u64,
    /// Wall-clock seconds from query text to result (or error).
    pub wall_seconds: f64,
    /// Simulated seconds charged by the run.
    pub simulated_seconds: f64,
    /// Per-operator rows/bytes: the run's PROFILE tree in pre-order (empty
    /// unless `outcome == Ok` — a failed run's datasets are discarded).
    pub operators: Vec<OperatorLogEntry>,
    /// Worst estimate-vs-actual q-error observed (1.0 when unknown).
    pub max_q_error: f64,
    /// Recovery attempts consumed by the run.
    pub recovery_attempts: u64,
    /// Peak transient bytes on the most loaded worker (0 unless
    /// `outcome == Ok`).
    pub peak_memory_bytes: u64,
}

impl QueryLogRecord {
    /// The record as a JSON document (one JSONL line when compacted).
    pub fn to_json_value(&self) -> JsonValue {
        let mut pairs = vec![
            ("query", JsonValue::string(self.query.clone())),
            ("shape", JsonValue::string(self.shape.clone())),
            ("fingerprint", JsonValue::string(self.fingerprint.clone())),
            ("plan_digest", JsonValue::string(self.plan_digest.clone())),
            ("outcome", JsonValue::string(self.outcome.name())),
        ];
        if let Some(plan_cache) = self.plan_cache {
            pairs.push(("plan_cache", JsonValue::string(plan_cache)));
        }
        if let Some(error) = &self.error {
            pairs.push(("error", JsonValue::string(error.clone())));
        }
        pairs.push(("matches", JsonValue::Number(self.matches as f64)));
        pairs.push(("wall_seconds", JsonValue::Number(self.wall_seconds)));
        pairs.push((
            "simulated_seconds",
            JsonValue::Number(self.simulated_seconds),
        ));
        pairs.push(("max_q_error", JsonValue::Number(self.max_q_error)));
        pairs.push((
            "recovery_attempts",
            JsonValue::Number(self.recovery_attempts as f64),
        ));
        pairs.push((
            "peak_memory_bytes",
            JsonValue::Number(self.peak_memory_bytes as f64),
        ));
        pairs.push((
            "operators",
            JsonValue::Array(
                self.operators
                    .iter()
                    .map(|op| {
                        JsonValue::object(vec![
                            ("name", JsonValue::string(op.name.clone())),
                            ("rows_out", JsonValue::Number(op.rows_out as f64)),
                            ("bytes", JsonValue::Number(op.bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        JsonValue::object(pairs)
    }

    /// The record as one compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json_value().to_json()
    }
}

/// Receiver for query log records. Implementations must be thread-safe.
pub trait QueryLogSink: Send + Sync {
    /// Called once per finished (or rejected) query.
    fn log(&self, record: &QueryLogRecord);
}

/// Maximum records the in-memory log retains (oldest evicted first).
pub const MEMORY_LOG_CAPACITY: usize = 1024;

/// A [`QueryLogSink`] that buffers the most recent records in memory. A
/// ring: once full, each record evicts the oldest in constant time.
#[derive(Default)]
pub struct MemoryQueryLog {
    records: Mutex<VecDeque<QueryLogRecord>>,
}

impl MemoryQueryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        MemoryQueryLog::default()
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryLogRecord> {
        lock(&self.records).iter().cloned().collect()
    }

    /// Removes and returns the retained records, oldest first.
    pub fn drain(&self) -> Vec<QueryLogRecord> {
        std::mem::take(&mut *lock(&self.records)).into()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueryLogSink for MemoryQueryLog {
    fn log(&self, record: &QueryLogRecord) {
        let mut records = lock(&self.records);
        if records.len() >= MEMORY_LOG_CAPACITY {
            records.pop_front();
        }
        records.push_back(record.clone());
    }
}

/// A [`QueryLogSink`] that appends one JSONL line per record to a file.
/// Write errors are swallowed: telemetry must never fail a query.
pub struct JsonlQueryLog {
    file: Mutex<std::fs::File>,
}

impl JsonlQueryLog {
    /// Opens (creating or appending to) the JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlQueryLog {
            file: Mutex::new(file),
        })
    }
}

impl QueryLogSink for JsonlQueryLog {
    fn log(&self, record: &QueryLogRecord) {
        let _ = writeln!(lock(&self.file), "{}", record.to_jsonl());
    }
}

/// Locks `mutex`, taking it over if a thread panicked while holding it:
/// every update of the log's ring, file and run totals leaves whole values
/// behind, so one panicking query does not take telemetry down for the
/// others.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The trace sink of one query run: forwards every event to an optional
/// downstream sink *and* a collector — how the engine attributes stages and
/// spans to plan operators without clobbering a user-installed sink — and
/// folds every stage into the run's totals as it arrives, so they count
/// this run's stages only, failed runs included.
pub(crate) struct TeeSink {
    downstream: Option<Arc<dyn TraceSink>>,
    collector: Arc<dyn TraceSink>,
    metrics: Mutex<ExecutionMetrics>,
}

impl TeeSink {
    /// Creates a tee over `downstream` (kept, may be `None`) and
    /// `collector` (always fed).
    pub(crate) fn new(
        downstream: Option<Arc<dyn TraceSink>>,
        collector: Arc<dyn TraceSink>,
    ) -> Self {
        TeeSink {
            downstream,
            collector,
            metrics: Mutex::default(),
        }
    }

    /// Totals of the stages seen so far.
    pub(crate) fn metrics(&self) -> ExecutionMetrics {
        *lock(&self.metrics)
    }
}

impl TraceSink for TeeSink {
    fn on_stage(&self, report: &StageReport) {
        lock(&self.metrics).record(report);
        if let Some(downstream) = &self.downstream {
            downstream.on_stage(report);
        }
        self.collector.on_stage(report);
    }

    fn on_span(&self, span: &SpanRecord) {
        if let Some(downstream) = &self.downstream {
            downstream.on_span(span);
        }
        self.collector.on_span(span);
    }
}

/// The *shape* of a query text — literals and `$parameter`s replaced by
/// `?`, whitespace and comments collapsed, literal lists collapsed to
/// `[?]` — so the same query fingerprints identically across
/// parameterizations. This is [`gradoop_cypher::lexer::lex_shape`] for a
/// caller that wants the shape alone: the text is lexed and the shape
/// folded out of the tokens, so it cannot disagree with what the parser
/// reads. The engine takes shape and tokens from one lex instead.
pub fn normalize_query_shape(query: &str) -> String {
    lex_shape(query).0
}

/// Stable 64-bit FNV-1a hash, rendered as 16 hex digits. Used for both
/// query fingerprints and plan digests so values are reproducible across
/// runs, platforms and Rust versions.
pub fn stable_digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Builds the per-operator rows/bytes list and worst q-error from a
/// profiled plan tree.
pub(crate) fn operators_from_profile(root: &ProfileNode) -> (Vec<OperatorLogEntry>, f64) {
    let mut worst = 1.0f64;
    let operators = root
        .pre_order()
        .map(|node| {
            worst = worst.max(node.estimate_error);
            OperatorLogEntry {
                name: node.operator.clone(),
                rows_out: node.rows_out,
                bytes: node.embedding_bytes,
            }
        })
        .collect();
    (operators, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_normalize_literals_and_whitespace() {
        let a = normalize_query_shape(
            "MATCH (p:Person {name: 'Alice', age: 42})-->(b)\n  RETURN p.name",
        );
        let b =
            normalize_query_shape("MATCH (p:Person {name: \"Bob\", age: 7})-->(b) RETURN p.name");
        assert_eq!(a, b);
        assert_eq!(a, "MATCH (p:Person {name: ?, age: ?})-->(b) RETURN p.name");
        // Identifier-embedded digits are not literals.
        assert_eq!(normalize_query_shape("RETURN a1.x"), "RETURN a1.x");
        // Escaped quotes do not end the literal early.
        assert_eq!(
            normalize_query_shape(r#"MATCH (a {s: "x\"y"}) RETURN a"#),
            "MATCH (a {s: ?}) RETURN a"
        );
    }

    #[test]
    fn shapes_collapse_literal_lists_and_paging_literals() {
        // List literals of different lengths share one fingerprint…
        assert_eq!(
            normalize_query_shape("UNWIND [1, 2, 3] AS x RETURN x"),
            normalize_query_shape("UNWIND [70,80] AS x RETURN x"),
        );
        assert_eq!(
            normalize_query_shape("UNWIND [1, 2, 3] AS x RETURN x"),
            "UNWIND [?] AS x RETURN x"
        );
        // …as do SKIP/LIMIT with different cut-offs.
        assert_eq!(
            normalize_query_shape("MATCH (a) RETURN a ORDER BY a.name SKIP 10 LIMIT 5"),
            normalize_query_shape("MATCH (a) RETURN a ORDER BY a.name SKIP 2 LIMIT 700"),
        );
        // Property-map placeholders keep their keys: no over-collapsing.
        assert_eq!(
            normalize_query_shape("MATCH (p {name: 'Al', age: 4}) RETURN p"),
            "MATCH (p {name: ?, age: ?}) RETURN p"
        );
    }

    #[test]
    fn shapes_do_not_collapse_outside_list_literals() {
        // Regression: the old text-global `?, ?` collapse conflated a
        // two-item projection with a one-item projection, colliding
        // distinct plans under one fingerprint.
        assert_ne!(
            normalize_query_shape("RETURN 1, 2"),
            normalize_query_shape("RETURN 1"),
        );
        assert_eq!(normalize_query_shape("RETURN 1, 2"), "RETURN ?, ?");
        assert_ne!(
            normalize_query_shape("MATCH (n) RETURN n.a, n.b"),
            normalize_query_shape("MATCH (n) RETURN n.a"),
        );
        // Literal argument lists outside brackets keep their arity too.
        assert_ne!(
            normalize_query_shape("MATCH (a) WHERE a.x = 1 OR a.y = 2 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x = 1 RETURN a"),
        );
        // Inside brackets the collapse still applies, but a non-literal
        // element keeps the list expanded.
        assert_eq!(
            normalize_query_shape("UNWIND [1, x, 3] AS y RETURN y"),
            "UNWIND [?, x, ?] AS y RETURN y"
        );
    }

    #[test]
    fn shapes_normalize_scientific_and_leading_dot_numbers() {
        // Regression: `1e9` used to normalize to `?e9` — the exponent
        // leaked into the shape, so equal shapes fingerprinted apart.
        assert_eq!(
            normalize_query_shape("MATCH (a) WHERE a.x > 1e9 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x > 2e10 RETURN a"),
        );
        assert_eq!(
            normalize_query_shape("RETURN 1e9"),
            normalize_query_shape("RETURN 1.5E+10"),
        );
        assert_eq!(normalize_query_shape("RETURN 2e-3"), "RETURN ?");
        // Regression: leading-dot floats were not normalized at all.
        assert_eq!(
            normalize_query_shape("MATCH (a) WHERE a.x > .5 RETURN a"),
            normalize_query_shape("MATCH (a) WHERE a.x > 0.7 RETURN a"),
        );
        // Property access dots are untouched.
        assert_eq!(normalize_query_shape("RETURN a.b5"), "RETURN a.b5");
        // Var-length range bounds normalize per bound, keeping `..`.
        assert_eq!(
            normalize_query_shape("MATCH (a)-[*0..10]->(b) RETURN a"),
            "MATCH (a)-[*?..?]->(b) RETURN a"
        );
        assert_eq!(
            normalize_query_shape("MATCH (a)-[*0..10]->(b) RETURN a"),
            normalize_query_shape("MATCH (a)-[*2..5]->(b) RETURN a"),
        );
    }

    #[test]
    fn shapes_normalize_parameters_like_inline_literals() {
        // The cache-hit-across-users property: a `$param` spelling and an
        // inline-literal spelling of the same shape share one entry.
        assert_eq!(
            normalize_query_shape("MATCH (p:Person {age: $a}) RETURN p"),
            normalize_query_shape("MATCH (p:Person {age: 42}) RETURN p"),
        );
        assert_eq!(
            normalize_query_shape("MATCH (p) WHERE p.name = $name RETURN p"),
            normalize_query_shape("MATCH (p) WHERE p.name = 'Alice' RETURN p"),
        );
        assert_eq!(
            normalize_query_shape("MATCH (p {age: $a}) RETURN p"),
            "MATCH (p {age: ?}) RETURN p"
        );
        // Distinct parameters in distinct positions keep the arity.
        assert_ne!(
            normalize_query_shape("RETURN $a, $b"),
            normalize_query_shape("RETURN $a"),
        );
        // A bare `$` that is not a parameter survives unchanged.
        assert_eq!(normalize_query_shape("RETURN '$'"), "RETURN ?");
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        assert_eq!(stable_digest("abc"), stable_digest("abc"));
        assert_ne!(stable_digest("abc"), stable_digest("abd"));
        assert_eq!(stable_digest("").len(), 16);
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(stable_digest(""), "cbf29ce484222325");
    }

    #[test]
    fn memory_log_retains_and_evicts() {
        let log = MemoryQueryLog::new();
        let record = QueryLogRecord {
            query: "RETURN 1".into(),
            shape: "RETURN ?".into(),
            fingerprint: stable_digest("RETURN ?"),
            plan_digest: String::new(),
            plan_cache: None,
            outcome: QueryOutcome::Ok,
            error: None,
            matches: 1,
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            operators: vec![],
            max_q_error: 1.0,
            recovery_attempts: 0,
            peak_memory_bytes: 0,
        };
        for _ in 0..MEMORY_LOG_CAPACITY + 5 {
            log.log(&record);
        }
        assert_eq!(log.len(), MEMORY_LOG_CAPACITY);
        assert!(!log.is_empty());
        assert_eq!(log.drain().len(), MEMORY_LOG_CAPACITY);
        assert!(log.is_empty());
    }

    #[test]
    fn memory_log_keeps_the_newest_records_oldest_first() {
        let log = MemoryQueryLog::new();
        let record = |matches: u64| QueryLogRecord {
            query: "RETURN 1".into(),
            shape: "RETURN ?".into(),
            fingerprint: stable_digest("RETURN ?"),
            plan_digest: String::new(),
            plan_cache: None,
            outcome: QueryOutcome::Ok,
            error: None,
            matches,
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            operators: vec![],
            max_q_error: 1.0,
            recovery_attempts: 0,
            peak_memory_bytes: 0,
        };
        let logged = MEMORY_LOG_CAPACITY as u64 + 5;
        for matches in 0..logged {
            log.log(&record(matches));
        }
        let kept: Vec<u64> = (5..logged).collect();
        let matches = |records: Vec<QueryLogRecord>| -> Vec<u64> {
            records.iter().map(|r| r.matches).collect()
        };
        assert_eq!(matches(log.snapshot()), kept);
        assert_eq!(matches(log.drain()), kept);
    }

    #[test]
    fn a_poisoned_memory_log_keeps_recording() {
        let log = MemoryQueryLog::new();
        let record = |matches: u64| QueryLogRecord {
            query: "RETURN 1".into(),
            shape: "RETURN ?".into(),
            fingerprint: stable_digest("RETURN ?"),
            plan_digest: String::new(),
            plan_cache: None,
            outcome: QueryOutcome::Ok,
            error: None,
            matches,
            wall_seconds: 0.0,
            simulated_seconds: 0.0,
            operators: vec![],
            max_q_error: 1.0,
            recovery_attempts: 0,
            peak_memory_bytes: 0,
        };
        log.log(&record(1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.records.lock().unwrap();
            panic!("poison the ring");
        }));
        assert!(panicked.is_err());
        assert!(log.records.is_poisoned());
        log.log(&record(2));
        let matches: Vec<u64> = log.snapshot().iter().map(|r| r.matches).collect();
        assert_eq!(matches, [1, 2]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn records_render_as_parseable_jsonl() {
        let record = QueryLogRecord {
            query: "MATCH (a) RETURN a".into(),
            shape: "MATCH (a) RETURN a".into(),
            fingerprint: stable_digest("MATCH (a) RETURN a"),
            plan_digest: stable_digest("ScanVertices(a)"),
            plan_cache: Some("hit"),
            outcome: QueryOutcome::Faulted,
            error: Some("stage `join` exhausted retries".into()),
            matches: 0,
            wall_seconds: 0.01,
            simulated_seconds: 2.5,
            operators: vec![OperatorLogEntry {
                name: "ScanVertices(a)".into(),
                rows_out: 10,
                bytes: 240,
            }],
            max_q_error: 3.5,
            recovery_attempts: 2,
            peak_memory_bytes: 4096,
        };
        let line = record.to_jsonl();
        assert!(!line.contains('\n'));
        let parsed = JsonValue::parse(&line).expect("JSONL line parses");
        assert!(parsed.semantically_eq(&record.to_json_value()));
        assert_eq!(
            parsed.get("outcome").and_then(JsonValue::as_str),
            Some("faulted")
        );
        assert_eq!(
            parsed.get("plan_cache").and_then(JsonValue::as_str),
            Some("hit")
        );
        assert_eq!(
            parsed
                .get("operators")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn jsonl_sink_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join("gradoop-querylog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let sink = JsonlQueryLog::create(&path).unwrap();
            let record = QueryLogRecord {
                query: "RETURN 1".into(),
                shape: "RETURN ?".into(),
                fingerprint: stable_digest("RETURN ?"),
                plan_digest: String::new(),
                plan_cache: None,
                outcome: QueryOutcome::Ok,
                error: None,
                matches: 1,
                wall_seconds: 0.0,
                simulated_seconds: 0.0,
                operators: vec![],
                max_q_error: 1.0,
                recovery_attempts: 0,
                peak_memory_bytes: 0,
            };
            sink.log(&record);
            sink.log(&record);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(JsonValue::parse(line).is_ok());
        }
        let _ = std::fs::remove_file(&path);
    }
}

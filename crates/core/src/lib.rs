#![warn(missing_docs)]

//! # gradoop-core
//!
//! The Cypher query engine on a distributed dataflow — the primary
//! contribution of *"Cypher-based Graph Pattern Matching in Gradoop"*
//! (GRADES'17), reproduced in Rust.
//!
//! The engine parses a Cypher query (via `gradoop-cypher`), builds a query
//! graph, plans it with a greedy cost-based optimizer over pre-computed
//! graph statistics (Section 3.2), and executes the plan as dataflow
//! transformations over compact byte-array [`embedding::Embedding`]s
//! (Section 3.3) with the query operators of Section 3.1 — including
//! bulk-iteration-based variable-length path expansion. Morphism semantics
//! (`HOMO`/`ISO` for vertices and edges independently) are chosen per call,
//! and results are delivered both as a tabular view (Table 2) and as an
//! EPGM graph collection (Definition 2.4).
//!
//! ```
//! use gradoop_core::{CypherOperator, MatchingConfig};
//! use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
//! use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, LogicalGraph, Properties, Vertex};
//!
//! let env = ExecutionEnvironment::with_workers(2);
//! let graph = LogicalGraph::from_data(
//!     &env,
//!     GraphHead::new(GradoopId(100), "Community", Properties::new()),
//!     vec![
//!         Vertex::new(GradoopId(1), "Person", properties! {"name" => "Alice"}),
//!         Vertex::new(GradoopId(2), "Person", properties! {"name" => "Bob"}),
//!     ],
//!     vec![Edge::new(GradoopId(10), "knows", GradoopId(1), GradoopId(2), Properties::new())],
//! );
//! let matches = graph
//!     .cypher(
//!         "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.name, b.name",
//!         MatchingConfig::cypher_default(),
//!     )
//!     .unwrap();
//! assert_eq!(matches.graph_count(), 1);
//! ```

pub mod embedding;
pub mod engine;
pub mod executor;
pub mod matching;
pub mod memo;
pub mod observe;
pub mod operators;
pub mod pipeline;
pub mod plancache;
pub mod planner;
pub mod querylog;
pub mod reference;
pub mod result;
pub mod source;
pub mod values;

pub use embedding::{
    Embedding, EmbeddingMetaData, EmbeddingRead, EmbeddingWriter, Entry, EntryType,
};
pub use engine::{CypherEngine, CypherError, CypherOperator};
pub use executor::{choose_join_strategy, execute_plan};
pub use matching::{MatchingConfig, MorphismCheck, MorphismType};
pub use memo::{leaf_memo_stats, LeafMemoStats};
pub use observe::{
    ship_strategies, ExpandIteration, Explain, ExplainNode, PlannerCandidate, PlannerRound,
    PlannerTrace, Profile, ProfileNode, ShipStrategy,
};
pub use plancache::{PlanCache, PlanCacheStats, DEFAULT_PLAN_CAPACITY};
pub use planner::{
    plan_query, plan_query_with_mode, Estimator, PlanError, PlanMode, PlanNode, PlanOperator,
    QueryPlan,
};
pub use querylog::{
    normalize_query_shape, stable_digest, JsonlQueryLog, MemoryQueryLog, OperatorLogEntry,
    QueryLogRecord, QueryLogSink, QueryOutcome,
};
pub use reference::{reference_match, reference_pipeline, ReferenceMatch};
pub use result::{QueryResult, ReturnColumns, TableResult};
pub use source::GraphSource;
pub use values::{
    cmp_rows, cmp_values, compare_rows_by_keys, fold_aggregate, value_to_property, Row, RowKey,
    RowScope, Value,
};

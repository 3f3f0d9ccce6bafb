#![warn(missing_docs)]

//! # gradoop
//!
//! Rust reproduction of *"Cypher-based Graph Pattern Matching in Gradoop"*
//! (Junghanns et al., GRADES'17): declarative Cypher pattern matching as an
//! operator of the Extended Property Graph Model, executed on a (simulated)
//! distributed dataflow system.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`dataflow`] — the shared-nothing dataflow engine (Apache Flink
//!   substitute) with a simulated-time cost model;
//! * [`epgm`] — the Extended Property Graph Model: logical graphs, graph
//!   collections, the label index, statistics and CSV I/O;
//! * [`cypher`] — the Cypher front-end (parser, AST, predicates, query
//!   graph);
//! * [`core`] — the query engine: embeddings, query operators, greedy
//!   planner, morphism semantics, reference matcher;
//! * [`ldbc`] — the LDBC-SNB-like data generator and the paper's six
//!   benchmark queries.
//!
//! ## Quickstart
//!
//! ```
//! use gradoop::prelude::*;
//!
//! // A two-person social network on a 2-worker simulated cluster.
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
//!
//! // The pattern matching operator of the paper: g.cypher(q, semantics).
//! let matches = graph
//!     .cypher(
//!         "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a.name, b.name",
//!         MatchingConfig::cypher_default(),
//!     )
//!     .unwrap();
//! assert_eq!(matches.graph_count(), 1);
//! ```

pub use gradoop_core as core;
pub use gradoop_cypher as cypher;
pub use gradoop_dataflow as dataflow;
pub use gradoop_epgm as epgm;
pub use gradoop_ldbc as ldbc;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use gradoop_core::{
        reference_match, CypherEngine, CypherError, CypherOperator, Embedding, EmbeddingMetaData,
        EmbeddingRead, Entry, EntryType, GraphSource, MatchingConfig, MorphismType, QueryPlan,
        QueryResult, TableResult, Value,
    };
    pub use gradoop_cypher::{parse, Literal, QueryGraph};
    pub use gradoop_dataflow::{
        CostModel, Dataset, ExecutionConfig, ExecutionEnvironment, ExecutionFailure,
        ExecutionMetrics, FailureSchedule, FaultConfig, FaultEvent, FaultKind, FaultSite,
        JoinStrategy,
    };
    pub use gradoop_epgm::{
        properties, Edge, Element, GradoopId, GradoopIdSet, GraphCollection, GraphHead,
        GraphStatistics, IndexedLogicalGraph, Label, LogicalGraph, Properties, PropertyValue,
        Vertex,
    };
    pub use gradoop_ldbc::{
        generate, generate_graph, pick_names, table3_patterns, BenchmarkQuery, LdbcConfig,
        Selectivity,
    };
}

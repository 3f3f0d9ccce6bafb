#![warn(missing_docs)]

//! # gradoop-dataflow
//!
//! A miniature shared-nothing distributed dataflow engine, standing in for
//! Apache Flink in the Rust reproduction of *"Cypher-based Graph Pattern
//! Matching in Gradoop"* (GRADES'17).
//!
//! The engine executes the same programming abstractions the paper builds on
//! (Section 2.4): partitioned [`Dataset`]s and transformations among them —
//! `map`, `flat_map`, `filter`, equi-`join` (repartition or broadcast hash),
//! the filtered left outer join, `union`, `distinct`, `group_by`/`reduce`
//! and bulk iteration.
//!
//! Partitions are processed by real threads (one logical partition per
//! simulated worker). In addition to wall-clock execution, every stage is
//! charged against a **simulated clock** ([`cost::CostModel`]): CPU cost per
//! record, network cost for bytes that cross worker boundaries during
//! shuffles, and disk cost when a join build side exceeds the per-worker
//! memory budget. The stage time is the per-worker makespan, so skewed
//! partitions stall speedup exactly as observed in the paper's evaluation
//! (Section 4.1) and added memory produces the paper's super-linear speedups.
//!
//! ```
//! use gradoop_dataflow::{ExecutionEnvironment, ExecutionConfig};
//!
//! let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
//! let numbers = env.from_collection(0u64..1000);
//! let even = numbers.filter(|n| n % 2 == 0);
//! assert_eq!(even.count(), 500);
//! assert!(env.metrics().simulated_seconds > 0.0);
//! ```

pub mod chrome;
pub mod cost;
pub mod data;
pub mod dataset;
pub mod env;
pub mod fault;
pub mod index;
pub mod intersect;
pub mod iterate;
pub mod join;
pub mod json;
pub mod outer_join;
pub mod partition;
pub mod pool;
pub mod reduce;
pub mod topk;
pub mod trace;

pub use chrome::{chrome_trace, chrome_trace_json};
pub use cost::{CostModel, ExecutionMetrics, StageReport};
pub use data::Data;
pub use dataset::{Dataset, Parts};
pub use env::{ExecutionConfig, ExecutionEnvironment, RecordedStage};
pub use fault::{
    ExecutionFailure, FailureSchedule, FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultSite,
};
pub use index::AdjacencyIndex;
pub use intersect::{probe_intersect, IntersectStats};
pub use iterate::bulk_iterate_with_results;
pub use join::JoinStrategy;
pub use json::JsonValue;
pub use partition::{partition_for, PartitionKey, Partitioning, TableHasher};
pub use trace::{CollectedTrace, CollectingSink, SpanRecord, TraceSink};

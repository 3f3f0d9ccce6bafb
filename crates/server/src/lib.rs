//! # gradoop-server
//!
//! A concurrent Cypher query server over immutable graph snapshots — the
//! serving layer on top of the query engine.
//!
//! The pieces, and where the isolation boundaries sit:
//!
//! - [`GraphSnapshot`]: the graph, its per-label index and the planner
//!   statistics, all built once. Queries *attach*: a private
//!   [`ExecutionEnvironment`](gradoop_dataflow::ExecutionEnvironment) fork
//!   plus an O(labels) re-homing of the index — partitions are shared by
//!   `Arc`, execution state (clock, metrics, poison) is per query.
//! - [`QueryServer`] / [`Session`]: sessions run queries through one shared
//!   engine whose [`PlanCache`](gradoop_core::PlanCache) is keyed on the
//!   normalized query *shape* (literals and `$params` both collapse to
//!   `?`), so `{age: 42}` and `{age: $n}` share one plan while every
//!   execution re-binds its own literals.
//! - [`AdmissionGate`]: a bounded in-flight budget; arrivals that cannot be
//!   admitted within the timeout fail fast with
//!   [`ServerError::Overloaded`].
//! - [`DeadlineSink`]: per-query deadlines that poison the query's private
//!   environment, so a timed-out query surfaces a classified execution
//!   failure and never partial rows.

pub mod admission;
pub mod deadline;
mod latency;
pub mod server;
pub mod snapshot;

pub use admission::{AdmissionGate, AdmissionPermit, AdmissionRejected};
pub use deadline::{DeadlineSink, DEADLINE_SITE};
pub use server::{QueryServer, ServerConfig, ServerError, ServerStats, Session, SessionStats};
pub use snapshot::GraphSnapshot;

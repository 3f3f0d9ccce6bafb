//! Query operators (paper Section 3.1).
//!
//! Each operator translates a relational operation into dataflow
//! transformations over embedding datasets:
//!
//! * [`filter_and_project_vertices`] / [`filter_and_project_edges`] — the
//!   leaf operators, fusing Select → Project → Transform into a single
//!   `flat_map`;
//! * [`join_embeddings`] — connects two subqueries with a FlatJoin that
//!   enforces the chosen morphism semantics;
//! * [`expand_embeddings`] — variable-length path expressions via bulk
//!   iteration;
//! * [`filter_embeddings`] — predicates spanning multiple query elements;
//! * [`value_join_embeddings`] — joins subqueries on property values (the
//!   extension operator the paper names in Section 3.1);
//! * [`cartesian_embeddings`] — combines disconnected query components.

mod cartesian;
mod expand_embeddings;
mod expand_intersect;
mod filter_embeddings;
mod filter_project_edges;
mod filter_project_vertices;
mod join_embeddings;
mod value_join;

pub use cartesian::cartesian_embeddings;
pub use expand_embeddings::{expand_embeddings, EdgeTriple, ExpandConfig};
pub use expand_intersect::expand_intersect;
pub use filter_embeddings::filter_embeddings;
pub(crate) use filter_project_edges::edge_leaf_meta;
pub use filter_project_edges::{edge_triples, filter_and_project_edges};
pub use filter_project_vertices::filter_and_project_vertices;
pub(crate) use filter_project_vertices::vertex_leaf_meta;
pub use join_embeddings::{embedding_join_key, join_embeddings, join_embeddings_filtered};
pub use value_join::value_join_embeddings;

use crate::embedding::{Embedding, EmbeddingMetaData};
use crate::observe::selectivity;
use gradoop_dataflow::{Data, Dataset, ExecutionEnvironment, ExecutionFailure, SpanRecord};

/// An embedding dataset together with its (plan-time) layout.
#[derive(Clone, Debug)]
pub struct EmbeddingSet {
    /// The embeddings.
    pub data: Dataset<Embedding>,
    /// Their shared layout.
    pub meta: EmbeddingMetaData,
}

/// Records a malformed-plan failure on `set`'s environment and returns a
/// degenerate empty embedding set so downstream operators keep flowing
/// instead of panicking. The engine drains the recorded failure after the
/// run and surfaces it as a classified `CypherError::Execution` (the same
/// never-panic contract the fault paths follow).
pub(crate) fn malformed_plan(set: &EmbeddingSet, site: &str, message: String) -> EmbeddingSet {
    let env = set.data.env();
    env.record_execution_failure(ExecutionFailure {
        site: format!("operator `{site}`"),
        attempts: 0,
        message,
    });
    EmbeddingSet {
        data: env.from_collection(Vec::<Embedding>::new()),
        meta: EmbeddingMetaData::new(),
    }
}

/// Total serialized bytes of a result's embeddings.
pub fn embedding_bytes(set: &EmbeddingSet) -> u64 {
    set.data
        .partitions()
        .iter()
        .flatten()
        .map(|embedding| embedding.byte_size() as u64)
        .sum()
}

/// Reports an `operator/<name>` span with rows-in/out, selectivity and
/// result-byte counters to the environment's trace sink. Called by every
/// operator just before returning. The engine always runs with a sink
/// installed — the plan walker builds each PROFILE node and query-log entry
/// from this span — so the byte-size scan below is paid once per operator
/// per query; only direct operator calls on a sink-less environment skip it.
pub(crate) fn observe_operator(name: &str, rows_in: u64, result: &EmbeddingSet) {
    observe_operator_with(name, rows_in, result, Vec::new());
}

/// [`observe_operator`] with operator-specific `extra` counters appended.
pub(crate) fn observe_operator_with(
    name: &str,
    rows_in: u64,
    result: &EmbeddingSet,
    extra: Vec<(String, f64)>,
) {
    let env = result.data.env();
    if env.trace_sink().is_none() {
        return;
    }
    let rows_out = result.data.len_untracked() as u64;
    let totals = [rows_in, rows_out, embedding_bytes(result)];
    emit_operator_span(env, name, totals, extra);
}

/// Reports the `operator/<name>` span of [`observe_operator`] from totals
/// already known — `[rows in, rows out, embedding bytes]` — without
/// reading a row.
pub(crate) fn emit_operator_span(
    env: &ExecutionEnvironment,
    name: &str,
    [rows_in, rows_out, bytes]: [u64; 3],
    extra: Vec<(String, f64)>,
) {
    let mut counters = vec![
        ("rows_in".to_string(), rows_in as f64),
        ("rows_out".to_string(), rows_out as f64),
        ("selectivity".to_string(), selectivity(rows_in, rows_out)),
        ("embedding_bytes".to_string(), bytes as f64),
    ];
    counters.extend(extra);
    env.emit_span(SpanRecord {
        name: format!("operator/{name}"),
        wall_seconds: 0.0,
        simulated_seconds: 0.0,
        counters,
    });
}

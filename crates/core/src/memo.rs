//! The leaf memo: the rows of predicate-free scans, built once per graph.
//!
//! A scan leaf without an element predicate — `(p:Person)`, `[:knows]` —
//! answers the same on every run over one graph: its rows depend on the
//! graph and on the query's shape, never on a literal. The first such scan
//! builds its rows through the leaf operator (paper Section 3.1's fused
//! `FlatMap`) and the memo keeps the output partitions; every later run,
//! over any view of that graph (clone, re-homed session attachment,
//! label-indexed view), reuses them: one `Arc` clone, no row touched. A
//! leaf with an element predicate is built per query, as before.
//!
//! * **Where it lives.** In the graph's derived state
//!   ([`LogicalGraph::derived`]), beside the element index: it is shared
//!   by every view of the graph and dropped with the graph. Two graphs
//!   never share an entry, however alike they are.
//! * **Key.** Everything that decides the rows and where they sit: whether
//!   the source reads label datasets in place or filters the full datasets
//!   (the row order differs), the label set, the required keys in order,
//!   an edge's loop, undirected and vertex-isomorphism flags, and the
//!   worker count.
//! * **Charges.** A hit charges exactly what the build charged. The build
//!   runs under [`ExecutionEnvironment::recording`]; a hit finishes each
//!   recorded stage again ([`ExecutionEnvironment::finish_recorded`]), so
//!   the fault layer, the metrics and the trace sink see the same stages,
//!   and reports the operator span from the kept totals. The simulated
//!   clock models a cluster that reads its source on every job, so a
//!   skipped scan still costs simulated seconds; only the wall clock gains.
//! * **Bound.** The memo keeps rows only while their bytes stay within the
//!   graph's own element bytes (Σ [`Data::byte_size`] of its vertices and
//!   edges); past that a leaf is built per query and not kept. Kept rows
//!   are copied into chunks of their own, so they pin no other row's chunk.
//! * **Filling.** Only a build during which no execution failure was
//!   recorded fills an entry. Sessions racing on a cold key each build;
//!   the first result is kept.
//!
//! [`ExecutionEnvironment::recording`]: gradoop_dataflow::ExecutionEnvironment::recording
//! [`ExecutionEnvironment::finish_recorded`]: gradoop_dataflow::ExecutionEnvironment::finish_recorded

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gradoop_cypher::{QueryEdge, QueryVertex};
use gradoop_dataflow::{Data, Dataset, RecordedStage};
use gradoop_epgm::{Label, LogicalGraph};

use crate::embedding::{Embedding, EmbeddingMetaData};
use crate::matching::{MatchingConfig, MorphismType};
use crate::operators::{
    edge_leaf_meta, emit_operator_span, filter_and_project_edges, filter_and_project_vertices,
    vertex_leaf_meta, EmbeddingSet,
};
use crate::source::GraphSource;

/// One scan leaf of a plan.
pub(crate) enum Leaf<'a> {
    /// `ScanVertices`: a query vertex.
    Vertex(&'a QueryVertex),
    /// `ScanEdges`: a plain query edge between the vertices bound to
    /// `source` and `target`.
    Edge {
        edge: &'a QueryEdge,
        source: &'a str,
        target: &'a str,
        matching: &'a MatchingConfig,
    },
}

/// The kind of element a leaf emits, with the flags that decide an edge
/// leaf's rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Element {
    Vertex,
    Edge {
        is_loop: bool,
        undirected: bool,
        vertex_isomorphism: bool,
    },
}

/// What decides a leaf's rows and where they sit.
#[derive(Debug, PartialEq, Eq, Hash)]
struct LeafKey<'a> {
    label_indexed: bool,
    element: Element,
    labels: &'a [Label],
    keys: &'a [String],
    workers: usize,
}

impl LeafKey<'_> {
    fn hash_value(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

impl Leaf<'_> {
    /// The operator's name in its span.
    fn operator(&self) -> &'static str {
        match self {
            Leaf::Vertex(_) => "filter_and_project_vertices",
            Leaf::Edge { .. } => "filter_and_project_edges",
        }
    }

    /// The memo key, or `None` for a leaf with an element predicate.
    fn key<S: GraphSource + ?Sized>(&self, source: &S) -> Option<LeafKey<'_>> {
        let (predicates, labels, keys, element) = match *self {
            Leaf::Vertex(vertex) => (
                &vertex.predicates,
                &vertex.labels,
                &vertex.required_keys,
                Element::Vertex,
            ),
            Leaf::Edge {
                edge,
                source,
                target,
                matching,
            } => (
                &edge.predicates,
                &edge.labels,
                &edge.required_keys,
                Element::Edge {
                    is_loop: source == target,
                    undirected: edge.undirected,
                    vertex_isomorphism: matching.vertices == MorphismType::Isomorphism,
                },
            ),
        };
        predicates.is_trivial().then(|| LeafKey {
            label_indexed: source.label_indexed(),
            element,
            labels,
            keys,
            workers: source.env().workers(),
        })
    }

    /// The layout of the leaf's rows.
    fn meta(&self) -> EmbeddingMetaData {
        match *self {
            Leaf::Vertex(vertex) => vertex_leaf_meta(vertex),
            Leaf::Edge {
                edge,
                source,
                target,
                ..
            } => edge_leaf_meta(edge, source, target),
        }
    }

    /// Builds the leaf: reads its candidates from `source` and runs the
    /// leaf operator over them. Returns the rows next to the candidates'
    /// count.
    fn build<S: GraphSource + ?Sized>(&self, source: &S) -> (EmbeddingSet, u64) {
        match *self {
            Leaf::Vertex(vertex) => {
                let candidates = source.vertices_for_labels(&vertex.labels);
                let rows = filter_and_project_vertices(&candidates, vertex);
                (rows, candidates.len_untracked() as u64)
            }
            Leaf::Edge {
                edge,
                source: source_var,
                target,
                matching,
            } => {
                let candidates = source.edges_for_labels(&edge.labels);
                let rows =
                    filter_and_project_edges(&candidates, edge, source_var, target, matching);
                (rows, candidates.len_untracked() as u64)
            }
        }
    }
}

/// The rows kept for one key and what building them charged.
struct Kept {
    hash: u64,
    label_indexed: bool,
    element: Element,
    labels: Vec<Label>,
    keys: Vec<String>,
    workers: usize,
    /// The build's stages, in order.
    stages: Vec<RecordedStage>,
    rows: Arc<Vec<Vec<Embedding>>>,
    /// The operator span's rows in, rows out and embedding bytes.
    totals: [u64; 3],
}

impl Kept {
    fn key(&self) -> LeafKey<'_> {
        LeafKey {
            label_indexed: self.label_indexed,
            element: self.element,
            labels: &self.labels,
            keys: &self.keys,
            workers: self.workers,
        }
    }

    fn row_count(&self) -> u64 {
        self.totals[1]
    }

    fn row_bytes(&self) -> u64 {
        self.totals[2]
    }
}

/// One graph's leaf memo.
pub(crate) struct LeafMemo {
    /// The graph's element bytes: the most row bytes the memo keeps.
    bound: u64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    kept: Vec<Arc<Kept>>,
    /// Row bytes of everything kept.
    bytes: u64,
}

impl State {
    fn find(&self, key: &LeafKey<'_>, hash: u64) -> Option<&Arc<Kept>> {
        let mut kept = self.kept.iter();
        kept.find(|kept| kept.hash == hash && kept.key() == *key)
    }
}

impl LeafMemo {
    fn of(graph: &LogicalGraph) -> LeafMemo {
        fn bytes<T: Data>(partitions: &[Vec<T>]) -> u64 {
            let sizes = partitions
                .iter()
                .flatten()
                .map(|element| element.byte_size());
            sizes.sum::<usize>() as u64
        }
        LeafMemo {
            bound: bytes(graph.vertices().partitions()) + bytes(graph.edges().partitions()),
            state: Mutex::default(),
        }
    }

    /// The memo state, recovered if a session panicked while holding the
    /// lock: every update leaves it valid (an entry is pushed and its bytes
    /// counted under one guard), so one failed query does not take the
    /// memo down for the others.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &LeafKey<'_>, hash: u64) -> Option<Arc<Kept>> {
        self.state().find(key, hash).cloned()
    }

    /// Whether rows of `bytes` more would stay within the bound.
    fn fits(&self, bytes: u64) -> bool {
        self.state().bytes + bytes <= self.bound
    }

    /// Keeps `kept` unless its key is kept already (the first build wins)
    /// or its rows would take the memo past its bound.
    fn keep(&self, kept: Kept) {
        let mut state = self.state();
        let known = state.find(&kept.key(), kept.hash).is_some();
        if known || state.bytes + kept.row_bytes() > self.bound {
            return;
        }
        state.bytes += kept.row_bytes();
        state.kept.push(Arc::new(kept));
    }
}

/// The rows of `leaf` over `source`: served from the graph's memo when a
/// predicate-free leaf's rows are kept there, else built — and kept, when
/// the leaf is predicate-free, the build recorded no failure and the rows
/// fit the bound.
pub(crate) fn scan<S: GraphSource + ?Sized>(source: &S, leaf: Leaf<'_>) -> EmbeddingSet {
    let Some(key) = leaf.key(source) else {
        return leaf.build(source).0;
    };
    let env = source.env();
    let memo = source.graph().derived(LeafMemo::of);
    let hash = key.hash_value();
    if let Some(kept) = memo.get(&key, hash) {
        for stage in &kept.stages {
            env.finish_recorded(stage);
        }
        if env.trace_sink().is_some() {
            emit_operator_span(env, leaf.operator(), kept.totals, Vec::new());
        }
        return EmbeddingSet {
            data: Dataset::from_partitions_arc(env.clone(), kept.rows.clone()),
            meta: leaf.meta(),
        };
    }
    let ((built, rows_in), stages) = env.recording(|| leaf.build(source));
    let row_bytes = built.data.partitions().iter().flatten();
    let row_bytes = row_bytes.map(|row| row.byte_size() as u64).sum();
    if env.execution_failed() || !memo.fits(row_bytes) {
        return built;
    }
    let rows = Arc::new(Embedding::packed(built.data.partitions()));
    memo.keep(Kept {
        hash,
        label_indexed: key.label_indexed,
        element: key.element,
        labels: key.labels.to_vec(),
        keys: key.keys.to_vec(),
        workers: key.workers,
        stages,
        rows: rows.clone(),
        totals: [rows_in, built.data.len_untracked() as u64, row_bytes],
    });
    EmbeddingSet {
        data: Dataset::from_partitions_arc(env.clone(), rows),
        meta: built.meta,
    }
}

/// What one graph's leaf memo holds (see [`leaf_memo_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeafMemoStats {
    /// Leaves kept.
    pub entries: u64,
    /// Rows kept, over all leaves.
    pub rows: u64,
    /// Σ [`Data::byte_size`] of the kept rows.
    pub row_bytes: u64,
    /// The most row bytes the memo keeps: the graph's own element bytes.
    pub bound_bytes: u64,
}

/// What `graph`'s leaf memo holds; shared by every view of the graph.
pub fn leaf_memo_stats(graph: &LogicalGraph) -> LeafMemoStats {
    let memo = graph.derived(LeafMemo::of);
    let state = memo.state();
    LeafMemoStats {
        entries: state.kept.len() as u64,
        rows: state.kept.iter().map(|kept| kept.row_count()).sum(),
        row_bytes: state.bytes,
        bound_bytes: memo.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::{properties, Edge, GradoopId, GraphHead, Properties, Vertex};

    fn graph() -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let vertices = (0..6)
            .map(|i| Vertex::new(GradoopId(i), "Person", properties! {"name" => "p"}))
            .collect();
        let edges = vec![Edge::new(
            GradoopId(10),
            "knows",
            GradoopId(0),
            GradoopId(1),
            Properties::new(),
        )];
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vertices,
            edges,
        )
    }

    fn person() -> QueryVertex {
        let text = "MATCH (p:Person) RETURN p.name";
        let query = gradoop_cypher::parse(text).unwrap();
        let graph = gradoop_cypher::QueryGraph::from_query(&query).unwrap();
        graph.vertices[0].clone()
    }

    #[test]
    fn a_poisoned_memo_lock_still_serves() {
        let graph = graph();
        let vertex = person();
        let first = scan(&graph, Leaf::Vertex(&vertex));
        let memo = graph.derived(LeafMemo::of);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = memo.state.lock();
            panic!("a session panics holding the memo lock");
        }));
        assert!(panicked.is_err());
        assert!(memo.state.is_poisoned());
        let again = scan(&graph, Leaf::Vertex(&vertex));
        assert!(Arc::ptr_eq(
            &first.data.partitions_arc(),
            &again.data.partitions_arc()
        ));
        assert_eq!(leaf_memo_stats(&graph).entries, 1);
    }

    #[test]
    fn a_leaf_with_a_predicate_is_not_kept() {
        let graph = graph();
        let text = "MATCH (p:Person) WHERE p.name = 'p' RETURN p.name";
        let query = gradoop_cypher::parse(text).unwrap();
        let query = gradoop_cypher::QueryGraph::from_query(&query).unwrap();
        let rows = scan(&graph, Leaf::Vertex(&query.vertices[0]));
        assert_eq!(rows.data.len_untracked(), 6);
        assert_eq!(leaf_memo_stats(&graph).entries, 0);
    }
}

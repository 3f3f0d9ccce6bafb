//! Query results: tabular access (paper Table 2) and EPGM post-processing
//! into a graph collection (Definition 2.4).

use std::sync::Arc;

use gradoop_cypher::{QueryGraph, ReturnItem};
use gradoop_dataflow::pool::map_partitions;
use gradoop_dataflow::JoinStrategy;
use gradoop_epgm::graph::next_derived_graph_id;
use gradoop_epgm::{
    GradoopId, GraphCollection, GraphHead, LogicalGraph, Properties, PropertyValue,
};

use crate::embedding::{Embedding, EmbeddingMetaData, EmbeddingRead, Entry, EntryType};
use crate::engine::CypherError;
use crate::planner::QueryPlan;
use crate::values::{Row, Value};
use gradoop_dataflow::ExecutionFailure;

/// Classifies an unbound RETURN item as an execution failure: the plan
/// failed to materialize a binding the query returns. Surfaced as
/// [`CypherError::Execution`] instead of a panic (the engine's never-panic
/// contract covers planner bugs, not just fault paths).
fn unbound(message: String) -> CypherError {
    CypherError::Execution(ExecutionFailure {
        site: "result materialization".to_string(),
        attempts: 0,
        message,
    })
}

/// Where one RETURN item reads its value in a result embedding.
enum Source {
    Entry(usize, EntryType),
    Property(usize),
}

/// One cell as it sits in the embedding, before a view gives it its type.
enum Cell {
    Entry(Entry, EntryType),
    Property(PropertyValue),
}

/// The RETURN items of a query resolved against the layout of its result,
/// once per result: the column names (variables keep their name, properties
/// use the alias or `var.key`) and where each column reads its value. The
/// tabular view ([`QueryResult::rows`]) and the graph-collection view
/// ([`QueryResult::to_graph_collection`]) both read cells through it.
/// `count(*)` is not a per-row column; the table answers it before
/// resolving.
pub struct ReturnColumns {
    names: Vec<String>,
    sources: Vec<Source>,
    /// Property slots a row's one prefix walk has to locate.
    located: usize,
}

impl ReturnColumns {
    /// Resolves `query`'s RETURN items against `meta`. An item the layout
    /// does not bind (a malformed plan) is a classified
    /// [`CypherError::Execution`].
    pub fn resolve(query: &QueryGraph, meta: &EmbeddingMetaData) -> Result<Self, CypherError> {
        let mut columns = ReturnColumns {
            names: Vec::new(),
            sources: Vec::new(),
            located: 0,
        };
        for item in &query.return_items {
            match item {
                ReturnItem::Variable(variable) => {
                    let column = meta.column(variable).ok_or_else(|| {
                        unbound(format!("returned variable `{variable}` unbound"))
                    })?;
                    let (_, entry_type) = meta.entries().nth(column).expect("column just found");
                    columns.names.push(variable.clone());
                    columns.sources.push(Source::Entry(column, entry_type));
                }
                ReturnItem::Property {
                    variable,
                    key,
                    alias,
                } => {
                    let index = meta.property_index(variable, key).ok_or_else(|| {
                        unbound(format!("returned property `{variable}.{key}` unbound"))
                    })?;
                    let name = alias.clone().unwrap_or_else(|| format!("{variable}.{key}"));
                    columns.names.push(name);
                    columns.sources.push(Source::Property(index));
                    columns.located = columns.located.max(index + 1);
                }
                ReturnItem::CountStar => {}
                // The builder expands `RETURN *`; seeing it here means the
                // query graph was constructed by hand and is malformed.
                ReturnItem::All => {
                    return Err(unbound(
                        "RETURN * not expanded during query-graph construction".to_string(),
                    ))
                }
            }
        }
        Ok(columns)
    }

    /// The column names, in RETURN order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The cells of one row in RETURN order. Walks the row's property
    /// prefixes once for all returned properties; `offsets` is scratch to
    /// reuse across rows. Allocates only what a cell's value owns (a string,
    /// a list, a path).
    fn cells<'a>(
        &'a self,
        embedding: &'a Embedding,
        offsets: &'a mut Vec<usize>,
    ) -> impl Iterator<Item = Cell> + 'a {
        embedding.property_offsets(self.located, offsets);
        let offsets = &*offsets;
        self.sources.iter().map(move |source| match *source {
            Source::Entry(column, entry_type) => Cell::Entry(embedding.entry(column), entry_type),
            Source::Property(index) => Cell::Property(
                PropertyValue::from_bytes(&embedding.raw_property_at(offsets[index])[4..])
                    .expect("embedding property bytes are well-formed"),
            ),
        })
    }

    /// One row of the [`TableResult`] view: exactly one allocation for the
    /// row plus one per string cell (and per path or list), none per
    /// scalar.
    pub fn table_row(&self, embedding: &Embedding, offsets: &mut Vec<usize>) -> Row {
        self.cells(embedding, offsets)
            .map(|cell| match cell {
                Cell::Entry(Entry::Path(via), _) => Value::Path(via),
                Cell::Entry(Entry::Id(id), EntryType::Vertex) => Value::Vertex(id),
                Cell::Entry(Entry::Id(id), EntryType::Edge) => Value::Edge(id),
                Cell::Entry(Entry::Id(id), EntryType::Path) => Value::Path(vec![id]),
                Cell::Property(value) => Value::from(value),
            })
            .collect()
    }
}

/// The tabular result of a query (paper Table 2): named columns over value
/// rows. `ordered` is set when the final `RETURN` carried an `ORDER BY`,
/// in which case row order is part of the result. Every tabular answer is
/// one: [`CypherEngine::run`](crate::CypherEngine::run),
/// [`QueryResult::rows`] and the oracle
/// ([`reference_pipeline`](crate::reference_pipeline)).
#[derive(Debug, Clone, PartialEq)]
pub struct TableResult {
    /// Output column names, in projection order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Whether row order is significant.
    pub ordered: bool,
}

/// The result of a Cypher query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The final embeddings.
    pub embeddings: gradoop_dataflow::Dataset<Embedding>,
    /// Their layout.
    pub meta: EmbeddingMetaData,
    /// The executed query graph.
    pub query: QueryGraph,
    /// The executed plan (with its estimates), shared with the plan cache
    /// on a hit; `plan.root.explain(&query)` labels it for this run.
    pub plan: Arc<QueryPlan>,
}

impl QueryResult {
    /// Number of matches (distributed count — what the paper's evaluation
    /// measures).
    pub fn count(&self) -> usize {
        self.embeddings.count()
    }

    /// Materializes the tabular view (Table 2): one row per embedding with
    /// one column per RETURN item, named like the reference interpreter's
    /// (see [`ReturnColumns`]); for `RETURN count(*)` the single-row count
    /// table. A RETURN item the embeddings do not bind (a malformed plan)
    /// yields a classified [`CypherError::Execution`] instead of panicking.
    ///
    /// Each partition's rows are decoded as one task on the worker pool and
    /// the batches concatenated in partition order. This is conversion of a
    /// finished result for the caller, not a dataflow stage: it emits no
    /// stage report and stays outside the simulated clock.
    pub fn rows(&self) -> Result<TableResult, CypherError> {
        if self
            .query
            .return_items
            .iter()
            .any(|item| matches!(item, ReturnItem::CountStar))
        {
            return Ok(TableResult {
                columns: vec!["count(*)".to_string()],
                rows: vec![vec![Value::Int(self.embeddings.len_untracked() as i64)]],
                ordered: false,
            });
        }
        let columns = ReturnColumns::resolve(&self.query, &self.meta)?;
        let batches = map_partitions(self.embeddings.partitions(), |_, part| {
            let mut offsets = Vec::new();
            part.iter()
                .map(|embedding| columns.table_row(embedding, &mut offsets))
                .collect::<Vec<Row>>()
        });
        let mut rows = Vec::with_capacity(self.embeddings.len_untracked());
        for mut batch in batches {
            rows.append(&mut batch);
        }
        Ok(TableResult {
            columns: columns.names,
            rows,
            ordered: false,
        })
    }

    /// EPGM post-processing (Definition 2.4): one new logical graph per
    /// embedding, containing the matched vertices and edges (with path
    /// contents expanded). Variable bindings and returned property values
    /// are attached as graph-head properties, so arbitrary downstream
    /// operators can post-process the collection.
    pub fn to_graph_collection(
        &self,
        data_graph: &LogicalGraph,
    ) -> Result<GraphCollection, CypherError> {
        let env = data_graph.env().clone();
        let columns = ReturnColumns::resolve(&self.query, &self.meta)?;
        let mut offsets = Vec::new();
        let embeddings = self.embeddings.collect();

        let mut heads = Vec::with_capacity(embeddings.len());
        let mut vertex_memberships: Vec<(u64, u64)> = Vec::new();
        let mut edge_memberships: Vec<(u64, u64)> = Vec::new();

        let vertex_columns = self.meta.vertex_columns();
        let edge_columns = self.meta.edge_columns();
        let path_columns = self.meta.path_columns();

        for embedding in &embeddings {
            let graph_id = next_derived_graph_id();
            let mut properties = Properties::new();
            // Cells go straight from the embedding to head properties, so a
            // property keeps its exact type and a path is a list of ids.
            for (name, cell) in columns
                .names
                .iter()
                .zip(columns.cells(embedding, &mut offsets))
            {
                let property = match cell {
                    Cell::Entry(Entry::Id(id), _) => PropertyValue::Long(id as i64),
                    Cell::Entry(Entry::Path(ids), _) => PropertyValue::List(
                        ids.iter()
                            .map(|id| PropertyValue::Long(*id as i64))
                            .collect(),
                    ),
                    Cell::Property(value) => value,
                };
                properties.set(name, property);
            }
            heads.push(GraphHead::new(graph_id, "Match", properties));

            for &column in &vertex_columns {
                vertex_memberships.push((embedding.id(column), graph_id.0));
            }
            for &column in &edge_columns {
                edge_memberships.push((embedding.id(column), graph_id.0));
            }
            for &column in &path_columns {
                let path = embedding.path(column);
                for (position, id) in path.iter().enumerate() {
                    if position % 2 == 0 {
                        edge_memberships.push((*id, graph_id.0));
                    } else {
                        vertex_memberships.push((*id, graph_id.0));
                    }
                }
            }
        }

        let heads = env.from_collection(heads);

        // Group memberships per element and join them with the data graph,
        // extending each matched element's membership set.
        let vertex_groups = env.from_collection(vertex_memberships).group_reduce(
            |(id, _)| *id,
            |id, members| (*id, members.iter().map(|(_, g)| *g).collect::<Vec<u64>>()),
        );
        let vertices = data_graph.vertices().clone().join(
            vertex_groups,
            |v| v.id.0,
            |(id, _)| *id,
            JoinStrategy::RepartitionHash,
            |vertex, (_, graphs)| {
                let mut vertex = vertex.clone();
                for graph in graphs {
                    vertex.graph_ids.insert(GradoopId(*graph));
                }
                Some(vertex)
            },
        );
        let edge_groups = env.from_collection(edge_memberships).group_reduce(
            |(id, _)| *id,
            |id, members| (*id, members.iter().map(|(_, g)| *g).collect::<Vec<u64>>()),
        );
        let edges = data_graph.edges().clone().join(
            edge_groups,
            |e| e.id.0,
            |(id, _)| *id,
            JoinStrategy::RepartitionHash,
            |edge, (_, graphs)| {
                let mut edge = edge.clone();
                for graph in graphs {
                    edge.graph_ids.insert(GradoopId(*graph));
                }
                Some(edge)
            },
        );

        Ok(GraphCollection::new(heads, vertices, edges))
    }
}

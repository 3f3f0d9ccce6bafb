//! The id → element index of a logical graph.
//!
//! Clause pipelines carry element ids in their rows and resolve labels and
//! properties by id. The index answers those lookups on the graph's own
//! partitions: it holds the vertex and edge partition `Arc`s plus an
//! `id → (partition, row)` map per kind, so no element is copied. A graph
//! builds it once, on first use ([`LogicalGraph::element_index`]), and every
//! view that shares the graph's partitions — its clones, re-homed copies and
//! the label-indexed graph — shares that one index.
//!
//! [`LogicalGraph::element_index`]: crate::LogicalGraph::element_index

use std::collections::HashMap;
use std::sync::Arc;

use gradoop_dataflow::{Data, Dataset, TableHasher};

use crate::element::{Edge, Vertex};

/// Vertex and edge lookup by id over a graph's own partitions.
#[derive(Debug, Default)]
pub struct ElementIndex {
    vertices: Slots<Vertex>,
    edges: Slots<Edge>,
}

impl ElementIndex {
    /// Indexes the elements of `vertices` and `edges` in place. Reads the
    /// partitions directly, so no dataflow stage is charged. An id that
    /// occurs more than once resolves to its last occurrence in partition
    /// order.
    pub(crate) fn of(vertices: &Dataset<Vertex>, edges: &Dataset<Edge>) -> Self {
        ElementIndex {
            vertices: Slots::of(vertices, |v| v.id.0),
            edges: Slots::of(edges, |e| e.id.0),
        }
    }

    /// The vertex with id `id`, if the graph has one.
    pub fn vertex(&self, id: u64) -> Option<&Vertex> {
        self.vertices.get(id)
    }

    /// The edge with id `id`, if the graph has one.
    pub fn edge(&self, id: u64) -> Option<&Edge> {
        self.edges.get(id)
    }
}

/// One element kind: the shared partitions and where each id sits in them.
struct Slots<T> {
    partitions: Arc<Vec<Vec<T>>>,
    positions: HashMap<u64, (usize, usize), TableHasher>,
}

/// Like `Dataset`'s, sizes only: a graph's debug output stays small after
/// its index is built.
impl<T> std::fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slots")
            .field("ids", &self.positions.len())
            .finish()
    }
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            partitions: Arc::default(),
            positions: HashMap::default(),
        }
    }
}

impl<T: Data> Slots<T> {
    fn of(dataset: &Dataset<T>, id: fn(&T) -> u64) -> Self {
        let partitions = dataset.partitions_arc();
        let mut positions =
            HashMap::with_capacity_and_hasher(dataset.len_untracked(), TableHasher::default());
        for (p, partition) in partitions.iter().enumerate() {
            for (r, element) in partition.iter().enumerate() {
                positions.insert(id(element), (p, r));
            }
        }
        Slots {
            partitions,
            positions,
        }
    }

    fn get(&self, id: u64) -> Option<&T> {
        let &(p, r) = self.positions.get(&id)?;
        Some(&self.partitions[p][r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::GraphHead;
    use crate::graph::LogicalGraph;
    use crate::id::GradoopId;
    use crate::properties::{Properties, PropertyValue};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn graph() -> LogicalGraph {
        LogicalGraph::from_data(
            &env(),
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![
                Vertex::new(GradoopId(1), "Person", Properties::new()),
                Vertex::new(GradoopId(2), "City", Properties::new()),
            ],
            vec![Edge::new(
                GradoopId(10),
                "livesIn",
                GradoopId(1),
                GradoopId(2),
                Properties::new(),
            )],
        )
    }

    #[test]
    fn every_view_of_a_graph_shares_one_index() {
        let graph = graph();
        let indexed = graph.to_indexed();
        let fresh = env();
        // Built first through a re-homed view, then reached from all the
        // others. Each view is a temporary; the index outlives it.
        let index = indexed.rehomed(&fresh).element_index() as *const ElementIndex;
        let views: [*const ElementIndex; 5] = [
            graph.element_index(),
            graph.clone().element_index(),
            graph.rehomed(&fresh).element_index(),
            indexed.element_index(),
            indexed.graph().clone().element_index(),
        ];
        for view in views {
            assert!(std::ptr::eq(view, index));
        }
        // It reads the graph's own partitions: nothing was copied.
        let stored = &graph.vertices().partitions()[0][0];
        let found = graph.element_index().vertex(stored.id.0);
        assert!(std::ptr::eq(found.unwrap(), stored));
    }

    #[test]
    fn a_duplicated_id_resolves_to_its_last_occurrence_in_partition_order() {
        let env = env();
        let person = |name: &str| {
            let mut properties = Properties::new();
            properties.set("name", name);
            Vertex::new(GradoopId(7), "Person", properties)
        };
        // Partition 0 holds "a" then "c", partition 1 holds "b".
        let vertices = Dataset::from_partitions(
            env.clone(),
            vec![vec![person("a"), person("c")], vec![person("b")]],
        );
        let index = ElementIndex::of(&vertices, &env.empty());
        let name = index.vertex(7).and_then(|v| v.properties.get("name"));
        assert_eq!(name, Some(&PropertyValue::String("b".into())));
    }

    #[test]
    fn an_unknown_id_is_none() {
        let graph = graph();
        let index = graph.element_index();
        assert!(index.vertex(1).is_some() && index.edge(10).is_some());
        // Vertex and edge ids are separate spaces.
        assert!(index.vertex(10).is_none());
        assert!(index.edge(1).is_none());
        assert!(index.vertex(99).is_none());
        assert!(ElementIndex::default().vertex(1).is_none());
    }
}

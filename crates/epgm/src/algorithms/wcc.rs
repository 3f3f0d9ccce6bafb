//! Weakly connected components via iterative label propagation.

use gradoop_dataflow::{Dataset, JoinStrategy};

use crate::graph::LogicalGraph;
use crate::Element;

/// Computes the weakly connected component of every vertex and returns the
/// graph with a `component` property (the smallest vertex id in the
/// component) on each vertex.
///
/// Classic label propagation as a bulk iteration: every vertex starts with
/// its own id and repeatedly adopts the minimum label among itself and its
/// (undirected) neighbors until no label changes.
pub fn connected_components(graph: &LogicalGraph) -> LogicalGraph {
    // Undirected neighbor pairs (both directions of every edge).
    let pairs: Dataset<(u64, u64)> = graph.edges().flat_map(|edge, out| {
        out.push((edge.source.0, edge.target.0));
        out.push((edge.target.0, edge.source.0));
    });

    // (vertex, label), initially label = own id.
    let mut labels: Dataset<(u64, u64)> = graph.vertices().map(|v| (v.id.0, v.id.0));

    // The component label can only decrease, and strictly decreases for at
    // least one vertex per round until converged — so at most |V| rounds.
    let max_rounds = graph.vertices().len_untracked().max(1);
    for _ in 0..max_rounds {
        // Propagate labels to neighbors and keep the minimum per vertex.
        let proposals = labels
            .clone()
            .join(
                pairs.clone(),
                |(vid, _)| *vid,
                |(source, _)| *source,
                JoinStrategy::RepartitionHash,
                |(_, label), (_, target)| Some((*target, *label)),
            )
            .group_reduce(
                |(vid, _)| *vid,
                |vid, members| {
                    let min = members.iter().map(|(_, l)| *l).min().expect("non-empty");
                    (*vid, min)
                },
            );
        // Merge proposals into the current labels.
        let updated = labels.clone().join(
            proposals,
            |(vid, _)| *vid,
            |(vid, _)| *vid,
            JoinStrategy::RepartitionHash,
            |(vid, old), (_, proposed)| (proposed < old).then_some((*vid, *proposed)),
        );
        if updated.is_empty_untracked() {
            break;
        }
        // Vertices without an improvement keep their label (anti join).
        let unchanged = labels.anti_join(updated.clone(), |(vid, _)| *vid, |(vid, _)| *vid);
        labels = unchanged.union(updated);
    }

    annotate(graph, labels, "component")
}

/// Joins per-vertex values back onto the graph's vertices as a property.
/// Vertices without a value keep their original properties (outer-join
/// semantics — e.g. BFS leaves unreachable vertices unannotated).
pub(crate) fn annotate(
    graph: &LogicalGraph,
    values: Dataset<(u64, u64)>,
    key: &str,
) -> LogicalGraph {
    let key = key.to_string();
    let annotated = graph.vertices().clone().join(
        values.clone(),
        |v| v.id.0,
        |(vid, _)| *vid,
        JoinStrategy::RepartitionHash,
        move |vertex, (_, value)| {
            let mut vertex = vertex.clone();
            vertex.properties.set(&key, *value as i64);
            Some(vertex)
        },
    );
    let untouched = graph
        .vertices()
        .clone()
        .anti_join(values, |v| v.id.0, |(vid, _)| *vid);
    LogicalGraph::new(
        graph.head().clone(),
        annotated.union(untouched),
        graph.edges().clone(),
    )
}

/// Reads the computed component of every vertex into a map (test helper and
/// driver-side convenience).
pub fn component_assignments(graph: &LogicalGraph) -> std::collections::HashMap<u64, i64> {
    graph
        .vertices()
        .collect()
        .iter()
        .map(|v| {
            (
                v.id.0,
                v.property("component")
                    .and_then(|p| p.as_i64())
                    .expect("component property set"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::id::GradoopId;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn graph(edges: &[(u64, u64)], vertex_count: u64) -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(3).cost_model(CostModel::free()),
        );
        LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            (1..=vertex_count)
                .map(|id| Vertex::new(GradoopId(id), "V", Properties::new()))
                .collect(),
            edges
                .iter()
                .enumerate()
                .map(|(i, (s, t))| {
                    Edge::new(
                        GradoopId(1000 + i as u64),
                        "E",
                        GradoopId(*s),
                        GradoopId(*t),
                        Properties::new(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn two_components() {
        // 1-2-3 chain and 4-5 pair.
        let g = connected_components(&graph(&[(1, 2), (3, 2), (4, 5)], 5));
        let components = component_assignments(&g);
        assert_eq!(components[&1], 1);
        assert_eq!(components[&2], 1);
        assert_eq!(components[&3], 1);
        assert_eq!(components[&4], 4);
        assert_eq!(components[&5], 4);
    }

    #[test]
    fn direction_is_ignored() {
        // Directed chain 3 -> 2 -> 1: still one weak component.
        let g = connected_components(&graph(&[(3, 2), (2, 1)], 3));
        let components = component_assignments(&g);
        assert!(components.values().all(|&c| c == 1));
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let g = connected_components(&graph(&[], 3));
        let components = component_assignments(&g);
        assert_eq!(components[&1], 1);
        assert_eq!(components[&2], 2);
        assert_eq!(components[&3], 3);
    }

    #[test]
    fn long_chain_converges() {
        let edges: Vec<(u64, u64)> = (1..30).map(|i| (i, i + 1)).collect();
        let g = connected_components(&graph(&edges, 30));
        let components = component_assignments(&g);
        assert!(components.values().all(|&c| c == 1));
    }

    #[test]
    fn cycle_converges() {
        let g = connected_components(&graph(&[(1, 2), (2, 3), (3, 1), (4, 4)], 4));
        let components = component_assignments(&g);
        assert_eq!(components[&1], 1);
        assert_eq!(components[&3], 1);
        assert_eq!(components[&4], 4);
    }
}

//! Single-source shortest hop distances (BFS) as a bulk iteration.

use gradoop_dataflow::{Dataset, JoinStrategy};

use crate::graph::LogicalGraph;
use crate::id::GradoopId;

/// Computes the hop distance from `source` to every reachable vertex along
/// directed edges and returns the graph with a `distance` property (`Long`)
/// on the reachable vertices. Unreachable vertices get no property.
pub fn single_source_distances(graph: &LogicalGraph, source: GradoopId) -> LogicalGraph {
    let env = graph.env().clone();
    let adjacency: Dataset<(u64, u64)> = graph.edges().map(|e| (e.source.0, e.target.0));

    // Settled distances and the current frontier.
    let mut distances: Dataset<(u64, u64)> = env.from_collection(vec![(source.0, 0u64)]);
    let mut frontier = distances.clone();
    let max_rounds = graph.vertices().len_untracked().max(1);

    for _ in 0..max_rounds {
        if frontier.is_empty_untracked() {
            break;
        }
        // One hop from the frontier.
        let reached = frontier
            .join(
                adjacency.clone(),
                |(vid, _)| *vid,
                |(src, _)| *src,
                JoinStrategy::RepartitionHash,
                |(_, distance), (_, target)| Some((*target, distance + 1)),
            )
            .group_reduce(
                |(vid, _)| *vid,
                |vid, members| {
                    (
                        *vid,
                        members.iter().map(|(_, d)| *d).min().expect("non-empty"),
                    )
                },
            );
        // Keep only genuinely new vertices (distance monotone in BFS).
        frontier = reached.anti_join(distances.clone(), |(vid, _)| *vid, |(vid, _)| *vid);
        distances = distances.union(frontier.clone());
    }

    super::wcc::annotate(graph, distances, "distance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::properties::Properties;
    use crate::Element;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn graph(edges: &[(u64, u64)], vertex_count: u64) -> LogicalGraph {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
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

    fn distances_of(graph: &LogicalGraph) -> std::collections::HashMap<u64, Option<i64>> {
        graph
            .vertices()
            .collect()
            .iter()
            .map(|v| (v.id.0, v.property("distance").and_then(|p| p.as_i64())))
            .collect()
    }

    #[test]
    fn chain_distances() {
        let g = single_source_distances(&graph(&[(1, 2), (2, 3), (3, 4)], 4), GradoopId(1));
        let d = distances_of(&g);
        assert_eq!(d[&1], Some(0));
        assert_eq!(d[&2], Some(1));
        assert_eq!(d[&3], Some(2));
        assert_eq!(d[&4], Some(3));
    }

    #[test]
    fn shortest_path_wins() {
        // 1 -> 2 -> 4 and 1 -> 4 directly.
        let g = single_source_distances(&graph(&[(1, 2), (2, 4), (1, 4)], 4), GradoopId(1));
        let d = distances_of(&g);
        assert_eq!(d[&4], Some(1));
    }

    #[test]
    fn unreachable_vertices_have_no_distance() {
        // 3 -> 1: respecting direction, 3 is unreachable from 1.
        let g = single_source_distances(&graph(&[(1, 2), (3, 1)], 3), GradoopId(1));
        let d = distances_of(&g);
        assert_eq!(d[&1], Some(0));
        assert_eq!(d[&2], Some(1));
        assert_eq!(d[&3], None);
    }

    #[test]
    fn cycles_terminate() {
        let g = single_source_distances(&graph(&[(1, 2), (2, 3), (3, 1)], 3), GradoopId(1));
        let d = distances_of(&g);
        assert_eq!(d[&3], Some(2));
    }
}

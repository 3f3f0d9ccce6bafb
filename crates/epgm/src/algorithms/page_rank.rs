//! PageRank as a fixed-round bulk iteration.

use gradoop_dataflow::{Dataset, JoinStrategy};

use crate::graph::LogicalGraph;

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (classically 0.85).
    pub damping: f64,
    /// Number of iterations.
    pub iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            iterations: 20,
        }
    }
}

/// Computes PageRank over the directed edges and returns the graph with a
/// `pageRank` property (`Double`) on every vertex. Dangling vertices
/// redistribute their rank evenly, so the ranks sum to 1 each round.
pub fn page_rank(graph: &LogicalGraph, config: &PageRankConfig) -> LogicalGraph {
    let vertex_count = graph.vertices().len_untracked().max(1) as f64;
    let damping = config.damping;

    // (source, out-degree)
    let out_degrees: Dataset<(u64, u64)> = graph.edges().count_by_key(|e| e.source.0);

    // (vertex, rank), uniformly initialized.
    let initial_rank = 1.0 / vertex_count;
    let mut ranks: Dataset<(u64, f64)> = graph.vertices().map(move |v| (v.id.0, initial_rank));

    // (source, target) adjacency.
    let adjacency: Dataset<(u64, u64)> = graph.edges().map(|e| (e.source.0, e.target.0));

    for _ in 0..config.iterations {
        // Rank each source distributes per out-edge.
        let per_edge_share = ranks.clone().join(
            out_degrees.clone(),
            |(vid, _)| *vid,
            |(vid, _)| *vid,
            JoinStrategy::RepartitionHash,
            |(vid, rank), (_, degree)| Some((*vid, rank / *degree as f64)),
        );
        // Dangling vertices (no out-edges) spread their rank evenly: their
        // total is the overall rank minus what the linked vertices hold.
        let linked_rank = per_edge_share
            .clone()
            .join(
                out_degrees.clone(),
                |(vid, _)| *vid,
                |(vid, _)| *vid,
                JoinStrategy::RepartitionHash,
                |(_, share), (_, degree)| Some(share * *degree as f64),
            )
            .aggregate(0.0f64, |acc, r| acc + r, |a, b| a + b);
        let total_rank = ranks.aggregate(0.0f64, |acc, (_, r)| acc + r, |a, b| a + b);
        let dangling = (total_rank - linked_rank).max(0.0);

        // Contributions routed along edges, summed per target.
        let incoming = per_edge_share
            .join(
                adjacency.clone(),
                |(vid, _)| *vid,
                |(source, _)| *source,
                JoinStrategy::RepartitionHash,
                |(_, share), (_, target)| Some((*target, *share)),
            )
            .group_reduce(
                |(vid, _)| *vid,
                |vid, members| (*vid, members.iter().map(|(_, s)| *s).sum::<f64>()),
            );

        // New rank: teleport + damped (incoming + dangling share); a left
        // outer join gives vertices without contributions the bare base.
        let base = (1.0 - damping) / vertex_count + damping * dangling / vertex_count;
        ranks = ranks.join_left_outer(
            incoming,
            |(vid, _)| *vid,
            |(vid, _)| *vid,
            move |(vid, _), matched| {
                let sum = matched.map(|(_, s)| *s).unwrap_or(0.0);
                Some((*vid, base + damping * sum))
            },
        );
    }

    let key = "pageRank".to_string();
    let vertices = graph.vertices().clone().join(
        ranks,
        |v| v.id.0,
        |(vid, _)| *vid,
        JoinStrategy::RepartitionHash,
        move |vertex, (_, rank)| {
            let mut vertex = vertex.clone();
            vertex.properties.set(&key, *rank);
            Some(vertex)
        },
    );
    LogicalGraph::new(graph.head().clone(), vertices, graph.edges().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::id::GradoopId;
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

    fn ranks_of(graph: &LogicalGraph) -> std::collections::HashMap<u64, f64> {
        graph
            .vertices()
            .collect()
            .iter()
            .map(|v| {
                (
                    v.id.0,
                    v.property("pageRank").and_then(|p| p.as_f64()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = page_rank(
            &graph(&[(1, 2), (2, 3), (3, 1), (4, 1)], 4),
            &PageRankConfig::default(),
        );
        let total: f64 = ranks_of(&g).values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn hub_receives_highest_rank() {
        // Everyone points at vertex 1.
        let g = page_rank(
            &graph(&[(2, 1), (3, 1), (4, 1)], 4),
            &PageRankConfig::default(),
        );
        let ranks = ranks_of(&g);
        for other in [2u64, 3, 4] {
            assert!(ranks[&1] > ranks[&other]);
        }
    }

    #[test]
    fn symmetric_cycle_gives_equal_ranks() {
        let g = page_rank(
            &graph(&[(1, 2), (2, 3), (3, 1)], 3),
            &PageRankConfig::default(),
        );
        let ranks = ranks_of(&g);
        let first = ranks[&1];
        assert!((ranks[&2] - first).abs() < 1e-9);
        assert!((ranks[&3] - first).abs() < 1e-9);
    }

    #[test]
    fn dangling_vertices_do_not_lose_mass() {
        // 1 -> 2, and 2 dangles.
        let g = page_rank(&graph(&[(1, 2)], 2), &PageRankConfig::default());
        let total: f64 = ranks_of(&g).values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn two_runs_on_one_graph_are_bit_identical() {
        // Enough sources of uneven out-degree over 4 workers, and vertices
        // without out-edges, that an out-degree table emitted in hash order
        // would change the order the floating-point sums run in.
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(4).cost_model(CostModel::free()),
        );
        let vertices = 300u64;
        let edge = |i: u64, s: u64, t: u64| {
            Edge::new(
                GradoopId(1000 + i),
                "E",
                GradoopId(s),
                GradoopId(t),
                Properties::new(),
            )
        };
        let g = LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            (1..=vertices)
                .map(|id| Vertex::new(GradoopId(id), "V", Properties::new()))
                .collect(),
            (0..3 * vertices)
                .map(|i| edge(i, 1 + (i * i) % 211, 1 + (i * 7919 + 13) % vertices))
                .collect(),
        );
        let ranks = || -> Vec<(u64, u64)> {
            let ranked = page_rank(&g, &PageRankConfig::default());
            let mut ranks: Vec<(u64, u64)> = ranks_of(&ranked)
                .into_iter()
                .map(|(id, rank)| (id, rank.to_bits()))
                .collect();
            ranks.sort_unstable();
            ranks
        };
        assert_eq!(ranks(), ranks());
    }

    #[test]
    fn zero_iterations_keeps_uniform_ranks() {
        let g = page_rank(
            &graph(&[(1, 2)], 4),
            &PageRankConfig {
                damping: 0.85,
                iterations: 0,
            },
        );
        let ranks = ranks_of(&g);
        for rank in ranks.values() {
            assert!((rank - 0.25).abs() < 1e-12);
        }
    }
}

//! Verification and sampling operators.
//!
//! `verify` removes dangling edges (edges whose endpoints are not part of
//! the graph); `sample_vertices` extracts a random vertex-induced subgraph.
//! Both mirror Gradoop operators of the same names. Sampling is
//! deterministic in the seed — it hashes `(vertex id, seed)` instead of
//! drawing from a shared RNG, so it needs no coordination between workers.

use crate::element::Vertex;
use crate::graph::LogicalGraph;

/// Deterministic per-element coin flip: true with probability `fraction`.
fn keep(vertex: &Vertex, fraction: f64, seed: u64) -> bool {
    // SplitMix64 over (id ^ seed) gives a uniform 64-bit hash.
    let mut x = vertex.id.0 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) < fraction
}

impl LogicalGraph {
    /// Removes edges whose source or target vertex is not in the graph
    /// (Gradoop's `verify` operator). Vertices are untouched.
    pub fn verify(&self) -> LogicalGraph {
        let vertex_ids = self.vertices().map(|v| v.id.0);
        let edges = self
            .edges()
            .clone()
            .semi_join(vertex_ids.clone(), |e| e.source.0, |id| *id)
            .semi_join(vertex_ids, |e| e.target.0, |id| *id);
        LogicalGraph::new(self.head().clone(), self.vertices().clone(), edges)
    }

    /// Random vertex sampling (Gradoop's `RandomVertexSampling`): keeps
    /// every vertex independently with probability `fraction` plus all
    /// edges between kept vertices. Deterministic in `seed`.
    pub fn sample_vertices(&self, fraction: f64, seed: u64) -> LogicalGraph {
        let fraction = fraction.clamp(0.0, 1.0);
        self.vertex_induced_subgraph(move |v| keep(v, fraction, seed))
    }
}

#[cfg(test)]
mod tests {
    use crate::element::{Edge, GraphHead, Vertex};
    use crate::graph::LogicalGraph;
    use crate::id::GradoopId;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn graph_with_dangling(env: &ExecutionEnvironment) -> LogicalGraph {
        LogicalGraph::from_data(
            env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vec![
                Vertex::new(GradoopId(1), "V", Properties::new()),
                Vertex::new(GradoopId(2), "V", Properties::new()),
            ],
            vec![
                Edge::new(
                    GradoopId(10),
                    "E",
                    GradoopId(1),
                    GradoopId(2),
                    Properties::new(),
                ),
                Edge::new(
                    GradoopId(11),
                    "E",
                    GradoopId(1),
                    GradoopId(99),
                    Properties::new(),
                ),
                Edge::new(
                    GradoopId(12),
                    "E",
                    GradoopId(98),
                    GradoopId(2),
                    Properties::new(),
                ),
            ],
        )
    }

    #[test]
    fn verify_drops_dangling_edges() {
        let env = env();
        let verified = graph_with_dangling(&env).verify();
        assert_eq!(verified.vertex_count(), 2);
        let edges = verified.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].id, GradoopId(10));
    }

    #[test]
    fn sampling_is_deterministic_and_monotone_in_fraction() {
        let env = env();
        let vertices: Vec<Vertex> = (1..=200)
            .map(|id| Vertex::new(GradoopId(id), "V", Properties::new()))
            .collect();
        let graph = LogicalGraph::from_data(
            &env,
            GraphHead::new(GradoopId(100), "g", Properties::new()),
            vertices,
            vec![],
        );
        let a = graph.sample_vertices(0.5, 7);
        let b = graph.sample_vertices(0.5, 7);
        assert_eq!(a.vertex_count(), b.vertex_count());
        let half = a.vertex_count();
        assert!((60..=140).contains(&half), "got {half} of 200");
        assert_eq!(graph.sample_vertices(0.0, 7).vertex_count(), 0);
        assert_eq!(graph.sample_vertices(1.0, 7).vertex_count(), 200);
        // Different seeds give different samples (with high probability).
        let other = graph.sample_vertices(0.5, 8);
        let ids = |g: &LogicalGraph| {
            let mut v: Vec<u64> = g.vertices().collect().iter().map(|v| v.id.0).collect();
            v.sort_unstable();
            v
        };
        assert_ne!(ids(&a), ids(&other));
    }

    #[test]
    fn sampling_keeps_only_internal_edges() {
        let env = env();
        let graph = graph_with_dangling(&env).verify();
        // Whatever the sample keeps, its edges must connect kept vertices.
        let sampled = graph.sample_vertices(0.5, 42);
        let kept: std::collections::HashSet<u64> = sampled
            .vertices()
            .collect()
            .iter()
            .map(|v| v.id.0)
            .collect();
        for edge in sampled.edges().collect() {
            assert!(kept.contains(&edge.source.0));
            assert!(kept.contains(&edge.target.0));
        }
    }
}

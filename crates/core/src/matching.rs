//! Morphism semantics (paper Sections 2.2 and 2.3).
//!
//! Neo4j fixes homomorphic semantics for vertices and isomorphic semantics
//! for edges; Gradoop's operator lets the user choose both independently
//! when calling the operator — `g.cypher(q, HOMO, ISO)`. Isomorphism
//! requires the mapping to be injective: no two query vertices (edges) may
//! bind the same data vertex (edge).

use std::cell::RefCell;

use crate::embedding::{EmbeddingMetaData, EmbeddingRead};

/// Mapping semantics for one element kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphismType {
    /// Non-injective mapping — elements may repeat (`HOMO`).
    Homomorphism,
    /// Injective mapping — all bound elements are pairwise distinct (`ISO`).
    Isomorphism,
}

/// The semantics of one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchingConfig {
    /// Vertex mapping semantics.
    pub vertices: MorphismType,
    /// Edge mapping semantics.
    pub edges: MorphismType,
}

impl MatchingConfig {
    /// Homomorphism for vertices and edges.
    pub fn homomorphism() -> Self {
        MatchingConfig {
            vertices: MorphismType::Homomorphism,
            edges: MorphismType::Homomorphism,
        }
    }

    /// Isomorphism for vertices and edges.
    pub fn isomorphism() -> Self {
        MatchingConfig {
            vertices: MorphismType::Isomorphism,
            edges: MorphismType::Isomorphism,
        }
    }

    /// Neo4j's fixed semantics: homomorphic vertices, isomorphic edges.
    pub fn cypher_default() -> Self {
        MatchingConfig {
            vertices: MorphismType::Homomorphism,
            edges: MorphismType::Isomorphism,
        }
    }
}

impl Default for MatchingConfig {
    fn default() -> Self {
        MatchingConfig::cypher_default()
    }
}

/// A uniqueness check compiled against one embedding layout: the vertex,
/// edge and path column sets are resolved once per operator instead of once
/// per embedding, and the ids are staged in a per-thread buffer, so a check
/// allocates nothing once that buffer has grown. The one home of the rules:
/// an expansion's hop ([`MorphismCheck::accepts_hop`]) applies them too.
#[derive(Debug, Clone)]
pub struct MorphismCheck {
    vertex_columns: Vec<usize>,
    edge_columns: Vec<usize>,
    path_columns: Vec<usize>,
    /// The bound target column of a closing expansion's frontier (see
    /// [`MorphismCheck::accepts_hop`]).
    pub(crate) closing: Option<usize>,
    config: MatchingConfig,
}

thread_local! {
    /// Per-thread id staging buffer of [`MorphismCheck::check`].
    static IDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl MorphismCheck {
    /// Compiles the check for embeddings laid out by `meta`.
    pub fn new(meta: &EmbeddingMetaData, config: &MatchingConfig) -> Self {
        MorphismCheck {
            vertex_columns: meta.vertex_columns(),
            edge_columns: meta.edge_columns(),
            path_columns: meta.path_columns(),
            closing: None,
            config: *config,
        }
    }

    /// Whether an expansion may grow `row` — a frontier row accepted by
    /// [`MorphismCheck::check`] or a seed (an empty path ending at its
    /// source), whose last two columns are its path and end — by `edge` to
    /// the new end `target`: under edge (vertex) isomorphism `edge`
    /// (`target`) must not be among the row's edges (vertices), so `check`
    /// accepts the grown row exactly when this accepts the hop. A closing
    /// path may reach its bound vertex, which adds none, not pass it.
    pub fn accepts_hop(&self, row: &impl EmbeddingRead, edge: u64, target: u64) -> bool {
        let end = row.columns() - 1;
        let repeats_vertex = || match self.closing.map(|column| row.id(column)) {
            Some(bound) if bound == row.id(end) && row.path_len(end - 1) > 0 => true,
            Some(bound) if bound == target => false,
            _ => self.binds(row, &self.vertex_columns, 1, target),
        };
        !(self.config.edges == MorphismType::Isomorphism
            && self.binds(row, &self.edge_columns, 0, edge)
            || self.config.vertices == MorphismType::Isomorphism && repeats_vertex())
    }

    /// Whether `columns` or the path positions `first, first + 2, ...` bind
    /// `id`.
    fn binds(&self, row: &impl EmbeddingRead, columns: &[usize], first: usize, id: u64) -> bool {
        let mut paths = (self.path_columns.iter())
            .flat_map(|&column| row.path_iter(column).skip(first).step_by(2));
        columns.iter().any(|&column| row.id(column) == id) || paths.any(|bound| bound == id)
    }

    /// Checks the uniqueness constraints of the configured semantics on
    /// `embedding` — a committed row or the row being written: under vertex
    /// (edge) isomorphism, all bound vertex (edge) identifiers, including
    /// those inside paths, where entries alternate edge, vertex, edge, ...,
    /// must be pairwise distinct.
    pub fn check(&self, embedding: &impl EmbeddingRead) -> bool {
        IDS.with(|ids| {
            let ids = &mut *ids.borrow_mut();
            let vertices = self.config.vertices == MorphismType::Isomorphism;
            let edges = self.config.edges == MorphismType::Isomorphism;
            // Odd path positions are the intermediate vertices, even ones
            // the path's edges.
            !(vertices && self.repeats(embedding, &self.vertex_columns, 1, ids)
                || edges && self.repeats(embedding, &self.edge_columns, 0, ids))
        })
    }

    /// Whether `columns` plus the path positions `first, first + 2, ...`
    /// bind some identifier twice.
    fn repeats(
        &self,
        embedding: &impl EmbeddingRead,
        columns: &[usize],
        first: usize,
        ids: &mut Vec<u64>,
    ) -> bool {
        ids.clear();
        embedding.collect_ids(columns, ids);
        for &column in &self.path_columns {
            ids.extend(embedding.path_iter(column).skip(first).step_by(2));
        }
        has_duplicates(ids)
    }
}

fn has_duplicates(ids: &mut [u64]) -> bool {
    ids.sort_unstable();
    ids.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingWriter, EntryType};

    fn satisfies_morphism(
        embedding: &impl EmbeddingRead,
        meta: &EmbeddingMetaData,
        config: &MatchingConfig,
    ) -> bool {
        MorphismCheck::new(meta, config).check(embedding)
    }

    fn triangle_meta() -> EmbeddingMetaData {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("e", EntryType::Edge);
        meta.add_entry("b", EntryType::Vertex);
        meta
    }

    fn embedding(a: u64, e: u64, b: u64) -> EmbeddingWriter {
        let mut emb = EmbeddingWriter::new();
        emb.push_id(a);
        emb.push_id(e);
        emb.push_id(b);
        emb
    }

    #[test]
    fn homomorphism_allows_everything() {
        let meta = triangle_meta();
        let config = MatchingConfig::homomorphism();
        assert!(satisfies_morphism(&embedding(1, 5, 1), &meta, &config));
    }

    #[test]
    fn vertex_isomorphism_rejects_repeated_vertices() {
        let meta = triangle_meta();
        let config = MatchingConfig::isomorphism();
        assert!(satisfies_morphism(&embedding(1, 5, 2), &meta, &config));
        assert!(!satisfies_morphism(&embedding(1, 5, 1), &meta, &config));
    }

    #[test]
    fn edge_isomorphism_checks_edge_columns_only() {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("e1", EntryType::Edge);
        meta.add_entry("e2", EntryType::Edge);
        let mut emb = EmbeddingWriter::new();
        emb.push_id(5);
        emb.push_id(5);
        let homo_v_iso_e = MatchingConfig::cypher_default();
        assert!(!satisfies_morphism(&emb, &meta, &homo_v_iso_e));
        assert!(satisfies_morphism(
            &emb,
            &meta,
            &MatchingConfig::homomorphism()
        ));
    }

    #[test]
    fn an_expand_hop_passes_exactly_when_the_grown_row_does() {
        // Frontier rows: base vertex a = 1, edge e = 10 and a path p whose
        // intermediate vertex is 2, then the growing path q and its end.
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("e", EntryType::Edge);
        meta.add_entry("p", EntryType::Path);
        meta.add_entry("q", EntryType::Path);
        meta.add_entry("end", EntryType::Vertex);
        let row = |via: &[u64], end: u64| {
            let mut row = EmbeddingWriter::new();
            row.push_id(1);
            row.push_id(10);
            row.push_path(&[11, 2, 12]);
            row.push_path(via);
            row.push_id(end);
            row
        };
        let (vertices, edges) = (1..=4u64, 10..=14u64);
        // The seed, every one-hop and every two-hop frontier row.
        let mut rows = vec![row(&[], 1)];
        for e1 in edges.clone() {
            for v1 in vertices.clone() {
                rows.push(row(&[e1], v1));
                for e2 in edges.clone() {
                    for v2 in vertices.clone() {
                        rows.push(row(&[e1, v1, e2], v2));
                    }
                }
            }
        }
        let mut grown = EmbeddingWriter::new();
        for vertex_rule in [MorphismType::Homomorphism, MorphismType::Isomorphism] {
            for edge_rule in [MorphismType::Homomorphism, MorphismType::Isomorphism] {
                let config = MatchingConfig {
                    vertices: vertex_rule,
                    edges: edge_rule,
                };
                let check = MorphismCheck::new(&meta, &config);
                let (mut accepted, mut rejected) = (0, 0);
                for frontier in &rows {
                    let seed = frontier.path_len(3) == 0;
                    if !seed && !check.check(frontier) {
                        continue;
                    }
                    for edge in edges.clone() {
                        for target in vertices.clone() {
                            let end = frontier.id(4);
                            let via: &[u64] = if seed { &[edge] } else { &[end, edge] };
                            grown.grow_path(frontier, via, Some(target));
                            let hop = check.accepts_hop(frontier, edge, target);
                            assert_eq!(
                                hop,
                                check.check(&grown),
                                "{config:?}: {:?} + ({edge}, {target})",
                                frontier.entry(3)
                            );
                            if hop {
                                accepted += 1;
                            } else {
                                rejected += 1;
                            }
                        }
                    }
                }
                assert!(accepted > 0, "{config:?} accepts some hop");
                assert_eq!(
                    rejected == 0,
                    config == MatchingConfig::homomorphism(),
                    "{config:?} rejects some hop unless homomorphic"
                );
            }
        }
    }

    #[test]
    fn path_contents_participate_in_checks() {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("p", EntryType::Path);
        meta.add_entry("b", EntryType::Vertex);

        // Path via [e5, v20, e7]; endpoint a=10, b=30.
        let mut ok = EmbeddingWriter::new();
        ok.push_id(10);
        ok.push_path(&[5, 20, 7]);
        ok.push_id(30);
        assert!(satisfies_morphism(
            &ok,
            &meta,
            &MatchingConfig::isomorphism()
        ));

        // Intermediate vertex equals an endpoint: vertex-ISO must reject.
        let mut dup_vertex = EmbeddingWriter::new();
        dup_vertex.push_id(10);
        dup_vertex.push_path(&[5, 10, 7]);
        dup_vertex.push_id(30);
        assert!(!satisfies_morphism(
            &dup_vertex,
            &meta,
            &MatchingConfig::isomorphism()
        ));
        // ...but vertex-HOMO accepts (edge ids 5, 7 are distinct).
        assert!(satisfies_morphism(
            &dup_vertex,
            &meta,
            &MatchingConfig::cypher_default()
        ));

        // Repeated edge inside the path: edge-ISO must reject.
        let mut dup_edge = EmbeddingWriter::new();
        dup_edge.push_id(10);
        dup_edge.push_path(&[5, 20, 5]);
        dup_edge.push_id(30);
        assert!(!satisfies_morphism(
            &dup_edge,
            &meta,
            &MatchingConfig::cypher_default()
        ));
        assert!(satisfies_morphism(
            &dup_edge,
            &meta,
            &MatchingConfig::homomorphism()
        ));
    }
}

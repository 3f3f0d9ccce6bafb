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
/// allocates nothing once that buffer has grown.
#[derive(Debug, Clone)]
pub struct MorphismCheck {
    vertex_columns: Vec<usize>,
    edge_columns: Vec<usize>,
    path_columns: Vec<usize>,
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
            config: *config,
        }
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

//! Cartesian product of embedding sets — required when the query graph has
//! multiple connected components (e.g. `MATCH (a), (b) RETURN *`).

use gradoop_dataflow::JoinStrategy;

use crate::embedding::Embedding;
use crate::matching::{MatchingConfig, MorphismCheck};
use crate::operators::{observe_operator, EmbeddingSet};

/// Combines every left embedding with every right embedding, subject to the
/// morphism semantics. The (smaller) right side is broadcast. Each pair is
/// merged into the thread's scratch row and checked there, so a rejected
/// pair commits nothing. Consumes both inputs.
pub fn cartesian_embeddings(
    left: EmbeddingSet,
    right: EmbeddingSet,
    config: &MatchingConfig,
) -> EmbeddingSet {
    let meta = left.meta.merge(&right.meta, &[]);
    let check = MorphismCheck::new(&meta, config);
    let rows_in = (left.data.len_untracked() + right.data.len_untracked()) as u64;
    let data = left.data.join(
        right.data,
        |_| (),
        |_| (),
        JoinStrategy::BroadcastHashSecond,
        move |l, r| {
            Embedding::write(|row| {
                l.merge_into(r, &[], row);
                check.check(row)
            })
        },
    );
    let result = EmbeddingSet { data, meta };
    observe_operator("cartesian_embeddings", rows_in, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingMetaData, EmbeddingWriter, EntryType};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn vertices(env: &ExecutionEnvironment, variable: &str, ids: &[u64]) -> EmbeddingSet {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry(variable, EntryType::Vertex);
        let data = env.from_collection(
            ids.iter()
                .map(|id| {
                    let mut emb = EmbeddingWriter::new();
                    emb.push_id(*id);
                    emb.commit()
                })
                .collect::<Vec<_>>(),
        );
        EmbeddingSet { data, meta }
    }

    #[test]
    fn homomorphism_produces_full_product() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let a = vertices(&env, "a", &[1, 2]);
        let b = vertices(&env, "b", &[1, 2, 3]);
        let product = cartesian_embeddings(a, b, &MatchingConfig::homomorphism());
        assert_eq!(product.data.count(), 6);
        assert_eq!(product.meta.columns(), 2);
    }

    #[test]
    fn vertex_isomorphism_excludes_diagonal() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let a = vertices(&env, "a", &[1, 2]);
        let b = vertices(&env, "b", &[1, 2, 3]);
        let product = cartesian_embeddings(a, b, &MatchingConfig::isomorphism());
        // (1,1) and (2,2) are pruned.
        assert_eq!(product.data.count(), 4);
    }

    #[test]
    fn empty_side_yields_empty_product() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let a = vertices(&env, "a", &[1]);
        let b = vertices(&env, "b", &[]);
        let product = cartesian_embeddings(a, b, &MatchingConfig::homomorphism());
        assert_eq!(product.data.count(), 0);
    }
}

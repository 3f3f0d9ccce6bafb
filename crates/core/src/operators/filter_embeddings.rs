//! `SelectEmbeddings`: evaluates predicates that span multiple query
//! elements on embeddings (paper Section 3.1).
//!
//! The CNF is evaluated per embedding through
//! [`gradoop_cypher::predicates::eval`], the same evaluator the leaf scans
//! and the fused join filter use.

use gradoop_cypher::predicates::eval::eval_clause;
use gradoop_cypher::CnfClause;

use crate::embedding::EmbeddingBindings;
use crate::operators::{observe_operator, EmbeddingSet};

/// Keeps the embeddings satisfying all `clauses`.
pub fn filter_embeddings(input: &EmbeddingSet, clauses: &[CnfClause]) -> EmbeddingSet {
    if clauses.is_empty() {
        return input.clone();
    }
    let meta = input.meta.clone();
    let clauses = clauses.to_vec();
    let data = input.data.filter(move |embedding| {
        let bindings = EmbeddingBindings {
            embedding,
            meta: &meta,
        };
        clauses.iter().all(|clause| eval_clause(clause, &bindings))
    });
    let result = EmbeddingSet {
        data,
        meta: input.meta.clone(),
    };
    observe_operator(
        "filter_embeddings",
        input.data.len_untracked() as u64,
        &result,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingMetaData, EmbeddingWriter, EntryType};
    use gradoop_cypher::predicates::cnf::to_cnf;
    use gradoop_cypher::{parse, Expression};
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
    use gradoop_epgm::PropertyValue;

    fn where_clauses(text: &str) -> Vec<CnfClause> {
        let query = parse(text).unwrap();
        let expr: Expression = query.where_clause.unwrap();
        to_cnf(&expr).clauses
    }

    fn person_pair(env: &ExecutionEnvironment, genders: &[(&str, &str)]) -> EmbeddingSet {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("p1", EntryType::Vertex);
        meta.add_entry("p2", EntryType::Vertex);
        meta.add_property("p1", "gender");
        meta.add_property("p2", "gender");
        let data = env.from_collection(
            genders
                .iter()
                .enumerate()
                .map(|(i, (g1, g2))| {
                    let mut emb = EmbeddingWriter::new();
                    emb.push_id(i as u64 * 2);
                    emb.push_id(i as u64 * 2 + 1);
                    emb.push_property(&PropertyValue::String((*g1).into()));
                    emb.push_property(&PropertyValue::String((*g2).into()));
                    emb.commit()
                })
                .collect::<Vec<_>>(),
        );
        EmbeddingSet { data, meta }
    }

    #[test]
    fn filters_cross_variable_comparison() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let input = person_pair(
            &env,
            &[("female", "male"), ("male", "male"), ("female", "female")],
        );
        let clauses = where_clauses("MATCH (p1)-->(p2) WHERE p1.gender <> p2.gender RETURN *");
        let filtered = filter_embeddings(&input, &clauses);
        assert_eq!(filtered.data.count(), 1);
    }

    #[test]
    fn empty_clause_list_is_identity() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let input = person_pair(&env, &[("a", "b")]);
        let filtered = filter_embeddings(&input, &[]);
        assert_eq!(filtered.data.count(), 1);
    }

    #[test]
    fn variable_identity_comparison_on_embeddings() {
        let env = ExecutionEnvironment::new(
            ExecutionConfig::with_workers(2).cost_model(CostModel::free()),
        );
        let input = person_pair(&env, &[("a", "a")]);
        // p1 and p2 bind ids 0 and 1 — p1 = p2 is false, p1 <> p2 true.
        let neq = where_clauses("MATCH (p1)-->(p2) WHERE p1 <> p2 RETURN *");
        assert_eq!(filter_embeddings(&input, &neq).data.count(), 1);
        let eq = where_clauses("MATCH (p1)-->(p2) WHERE p1 = p2 RETURN *");
        assert_eq!(filter_embeddings(&input, &eq).data.count(), 0);
    }
}

//! Set operations on graph collections (by graph identity).

use std::collections::HashSet;

use crate::graph::GraphCollection;

impl GraphCollection {
    /// Union of two collections: all member graphs of either input, with
    /// duplicated graphs (same id) and duplicated elements removed.
    pub fn union_collections(&self, other: &GraphCollection) -> GraphCollection {
        let heads = self.heads().clone().union(other.heads().clone()).distinct();
        let vertices = self
            .vertices()
            .clone()
            .union(other.vertices().clone())
            .distinct();
        let edges = self.edges().clone().union(other.edges().clone()).distinct();
        GraphCollection::new(heads, vertices, edges)
    }

    /// Intersection: member graphs contained in both collections.
    pub fn intersect_collections(&self, other: &GraphCollection) -> GraphCollection {
        let other_ids: HashSet<u64> = other.heads().collect().iter().map(|h| h.id.0).collect();
        self.select(move |h| other_ids.contains(&h.id.0))
    }

    /// Difference: member graphs of `self` that are not in `other`.
    pub fn difference_collections(&self, other: &GraphCollection) -> GraphCollection {
        let other_ids: HashSet<u64> = other.heads().collect().iter().map(|h| h.id.0).collect();
        self.select(move |h| !other_ids.contains(&h.id.0))
    }
}

#[cfg(test)]
mod tests {
    use crate::element::GraphHead;
    use crate::graph::GraphCollection;
    use crate::id::GradoopId;
    use crate::properties::Properties;
    use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};

    fn env() -> ExecutionEnvironment {
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()))
    }

    fn collection(env: &ExecutionEnvironment, ids: &[u64]) -> GraphCollection {
        let heads = env.from_collection(
            ids.iter()
                .map(|id| GraphHead::new(GradoopId(*id), "g", Properties::new()))
                .collect::<Vec<_>>(),
        );
        GraphCollection::new(heads, env.empty(), env.empty())
    }

    #[test]
    fn union_deduplicates_graphs() {
        let env = env();
        let a = collection(&env, &[1, 2]);
        let b = collection(&env, &[2, 3]);
        let u = a.union_collections(&b);
        assert_eq!(u.graph_count(), 3);
    }

    #[test]
    fn intersection_keeps_common_graphs() {
        let env = env();
        let a = collection(&env, &[1, 2]);
        let b = collection(&env, &[2, 3]);
        let i = a.intersect_collections(&b);
        assert_eq!(i.graph_count(), 1);
        assert_eq!(i.heads().collect()[0].id, GradoopId(2));
    }

    #[test]
    fn difference_removes_common_graphs() {
        let env = env();
        let a = collection(&env, &[1, 2]);
        let b = collection(&env, &[2, 3]);
        let d = a.difference_collections(&b);
        assert_eq!(d.graph_count(), 1);
        assert_eq!(d.heads().collect()[0].id, GradoopId(1));
    }

    #[test]
    fn set_ops_with_empty_collection() {
        let env = env();
        let a = collection(&env, &[1]);
        let empty = GraphCollection::empty(&env);
        assert_eq!(a.union_collections(&empty).graph_count(), 1);
        assert_eq!(a.intersect_collections(&empty).graph_count(), 0);
        assert_eq!(a.difference_collections(&empty).graph_count(), 1);
    }
}

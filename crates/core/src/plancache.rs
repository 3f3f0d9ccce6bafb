//! The plan cache: memoizes query plans by *query shape* — the fold over a
//! text's tokens that [`gradoop_cypher::lexer::lex_shape`] returns next to
//! the tokens themselves, literals and `$param`s replaced by `?` — so a
//! server running the same parameterized query for many users plans it
//! once and re-binds `$param` values per execution. (Texts are not
//! memoized: every run lexes and parses its text exactly once.) Every
//! `MATCH` is planned through here under one key rule: stage `i` of a text
//! under its shape, a newline and `i`, a plain `MATCH … RETURN` being
//! stage 0.
//!
//! ## Why keying on the shape is sound
//!
//! A cached [`QueryPlan`] only stores query-graph *indices* (which query
//! vertex to scan, which edges to join) and estimates — literal values live
//! in the [`QueryGraph`] that every execution rebuilds from its own AST and
//! its own parameter bindings, and EXPLAIN, PROFILE and the query log label
//! a plan against that graph, so a hit shows its own literals. A hit shares
//! the cached plan (an `Arc`) and copies nothing. The greedy planner's
//! estimator is value-independent (selectivities derive from property
//! keys, comparison operators and labels, never from literal values), so
//! two queries with the same shape produce plans with the same structure
//! and the same estimates. The cache map is
//! keyed on the **full shape string** (plus [`PlanMode`]), not its 64-bit
//! fingerprint, so a fingerprint hash collision can never cross-wire two
//! different shapes. As a belt-and-braces check, each entry also records a
//! structural signature of the query graph it was planned for and a
//! lookup whose graph disagrees is treated as a miss.
//!
//! A stage's plan is made from the stage's query alone (a plain text's
//! whole lowered query, any other stage's patterns), so it depends on the
//! stage, which the shape and the index fix, and on values the shape
//! erases. Two keys cannot collide unless shape and index both match: an
//! index holds no newline, so a key splits into shape and index at its
//! last newline in exactly one way.
//!
//! A cache is only valid for one set of graph statistics: plans are
//! cost-based, so engines over different data graphs must not share one
//! (the server owns one cache per snapshot).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gradoop_cypher::{QueryEdge, QueryGraph};

use crate::planner::{PlanMode, QueryPlan};

/// Default number of plans retained before least-recently-used eviction.
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// Counters of one cache's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Plans currently retained.
    pub entries: u64,
}

impl PlanCacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Structural signature of a [`QueryGraph`]: everything a cached plan's
/// indices refer to. Two graphs with equal signatures can execute the same
/// plan tree (their predicates may differ — those are looked up by index
/// from the fresh graph at execution time).
#[derive(Debug, Clone, PartialEq, Eq)]
struct GraphSignature {
    vertices: usize,
    edges: Vec<EdgeSignature>,
    cross_clauses: usize,
    return_items: usize,
}

/// The structural facts of one query edge a cached plan depends on.
/// Variable-length range bounds are literal positions in the query text, so
/// they never affect the *shape* — they must be validated here instead:
/// `*1..3` and `*1..10` share a fingerprint but cannot share a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeSignature {
    source: usize,
    target: usize,
    undirected: bool,
    range: Option<(usize, usize)>,
    open_range: bool,
}

impl GraphSignature {
    fn of(query: &QueryGraph) -> GraphSignature {
        GraphSignature {
            vertices: query.vertices.len(),
            edges: query.edges.iter().map(EdgeSignature::of).collect(),
            cross_clauses: query.cross_clauses.len(),
            return_items: query.return_items.len(),
        }
    }

    /// Whether `query` has this signature — compared in place, without
    /// building `query`'s.
    fn matches(&self, query: &QueryGraph) -> bool {
        self.vertices == query.vertices.len()
            && self.cross_clauses == query.cross_clauses.len()
            && self.return_items == query.return_items.len()
            && self.edges.len() == query.edges.len()
            && self
                .edges
                .iter()
                .zip(&query.edges)
                .all(|(signature, edge)| *signature == EdgeSignature::of(edge))
    }
}

impl EdgeSignature {
    fn of(edge: &QueryEdge) -> EdgeSignature {
        EdgeSignature {
            source: edge.source,
            target: edge.target,
            undirected: edge.undirected,
            range: edge.range,
            open_range: edge.open_range,
        }
    }
}

struct PlanEntry {
    plan: Arc<QueryPlan>,
    signature: GraphSignature,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Plans keyed on the normalized shape, one map per [`PlanMode`]
    /// (indexed by [`mode_index`]), so that a borrowed shape probes them.
    plans: [HashMap<String, PlanEntry>; 3],
    tick: u64,
}

impl CacheInner {
    fn len(&self) -> usize {
        self.plans.iter().map(HashMap::len).sum()
    }
}

fn mode_index(mode: PlanMode) -> usize {
    match mode {
        PlanMode::CostBased => 0,
        PlanMode::ForceBinary => 1,
        PlanMode::ForceWco => 2,
    }
}

/// A bounded, thread-safe plan cache. Cheap to share: clone the
/// `Arc` into every engine that serves the same graph snapshot.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache retaining at most `capacity` plans, evicting
    /// least-recently-used entries beyond that.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cache state, recovered if another session panicked while
    /// holding the lock: every update leaves the map valid (at worst one
    /// entry was evicted and its replacement not inserted), so a panicking
    /// session does not take the cache down for the others.
    fn state(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the plan cached for `(shape, mode)`, validating it against
    /// the structure of the freshly built `query` graph. Counts a hit or a
    /// miss; on a miss the caller plans and [`insert`](PlanCache::insert)s.
    /// Probing allocates nothing: the borrowed shape is the map key and the
    /// signature is compared against `query` in place.
    pub fn lookup(
        &self,
        shape: &str,
        mode: PlanMode,
        query: &QueryGraph,
    ) -> Option<Arc<QueryPlan>> {
        let mut inner = self.state();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.plans[mode_index(mode)]
            .get_mut(shape)
            .filter(|entry| entry.signature.matches(query))
            .map(|entry| {
                entry.last_used = tick;
                entry.plan.clone()
            });
        drop(inner);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores `plan` for `(shape, mode)`, remembering the structure of the
    /// `query` graph it was planned for.
    pub fn insert(&self, shape: String, mode: PlanMode, query: &QueryGraph, plan: Arc<QueryPlan>) {
        let mode = mode_index(mode);
        let signature = GraphSignature::of(query);
        let mut inner = self.state();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.len() >= self.capacity && !inner.plans[mode].contains_key(&shape) {
            let least_recent = inner
                .plans
                .iter()
                .enumerate()
                .flat_map(|(mode, plans)| plans.iter().map(move |(key, entry)| (mode, key, entry)))
                .min_by_key(|(_, _, entry)| entry.last_used)
                .map(|(mode, key, _)| (mode, key.clone()));
            if let Some((mode, key)) = least_recent {
                inner.plans[mode].remove(&key);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.plans[mode].insert(
            shape,
            PlanEntry {
                plan,
                signature,
                last_used: tick,
            },
        );
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.state().len() as u64,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query_with_mode, Estimator};
    use gradoop_epgm::GraphStatistics;

    fn plan_for(text: &str) -> (QueryGraph, Arc<QueryPlan>) {
        let ast = gradoop_cypher::parse(text).expect("parse");
        let query = QueryGraph::from_query(&ast).expect("query graph");
        let statistics = GraphStatistics::default();
        let plan = plan_query_with_mode(&query, &Estimator::new(&statistics), PlanMode::CostBased)
            .expect("plan");
        (query, Arc::new(plan))
    }

    #[test]
    fn caches_by_shape_and_counts_hits() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a {x: 1}) RETURN a");
        assert!(cache
            .lookup("MATCH (a {x: ?}) RETURN a", PlanMode::CostBased, &query)
            .is_none());
        cache.insert(
            "MATCH (a {x: ?}) RETURN a".into(),
            PlanMode::CostBased,
            &query,
            plan.clone(),
        );
        // A different parameterization of the same shape hits.
        let (query2, _) = plan_for("MATCH (a {x: 99}) RETURN a");
        let cached = cache
            .lookup("MATCH (a {x: ?}) RETURN a", PlanMode::CostBased, &query2)
            .expect("hit");
        assert_eq!(cached.root, plan.root);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn plan_modes_do_not_share_entries() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a) RETURN a");
        cache.insert(
            "MATCH (a) RETURN a".into(),
            PlanMode::ForceWco,
            &query,
            plan,
        );
        assert!(cache
            .lookup("MATCH (a) RETURN a", PlanMode::CostBased, &query)
            .is_none());
        assert!(cache
            .lookup("MATCH (a) RETURN a", PlanMode::ForceWco, &query)
            .is_some());
    }

    #[test]
    fn signature_mismatch_is_a_miss() {
        let cache = PlanCache::new(8);
        let (query, plan) = plan_for("MATCH (a)-->(b) RETURN a");
        cache.insert("shape".into(), PlanMode::CostBased, &query, plan);
        // Same key but a structurally different graph: the guard refuses.
        let (other, _) = plan_for("MATCH (a)-->(b)-->(c) RETURN a");
        assert!(cache.lookup("shape", PlanMode::CostBased, &other).is_none());
    }

    #[test]
    fn a_poisoned_lock_does_not_take_the_cache_down() {
        let cache = PlanCache::new(2);
        let (query, plan) = plan_for("MATCH (a) RETURN a");
        cache.insert("s1".into(), PlanMode::CostBased, &query, plan.clone());
        // A session panics while it holds the cache's lock.
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = cache.inner.lock().unwrap();
                    panic!("session panics holding the plan cache");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());

        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_some());
        cache.insert("s2".into(), PlanMode::CostBased, &query, plan.clone());
        cache.insert("s3".into(), PlanMode::CostBased, &query, plan);
        // s1 was used before s2 was inserted: it is the one evicted.
        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_none());
        assert!(cache.lookup("s3", PlanMode::CostBased, &query).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!((stats.evictions, stats.entries), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used_plan() {
        let cache = PlanCache::new(2);
        let (query, plan) = plan_for("MATCH (a) RETURN a");
        cache.insert("s1".into(), PlanMode::CostBased, &query, plan.clone());
        cache.insert("s2".into(), PlanMode::CostBased, &query, plan.clone());
        // Touch s1 so s2 becomes the LRU victim.
        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_some());
        cache.insert("s3".into(), PlanMode::CostBased, &query, plan);
        assert!(cache.lookup("s1", PlanMode::CostBased, &query).is_some());
        assert!(cache.lookup("s2", PlanMode::CostBased, &query).is_none());
        assert!(cache.lookup("s3", PlanMode::CostBased, &query).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }
}

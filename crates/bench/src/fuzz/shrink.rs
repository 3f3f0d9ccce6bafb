//! Greedy shrinker: reduces a failing `(graph, query)` pair to a (locally)
//! minimal reproduction that still diverges on the configuration that first
//! failed.
//!
//! Classic delta-debugging loop: propose one structural reduction at a
//! time — drop a graph edge, drop a vertex with its incident edges, drop a
//! property, drop a query relationship, drop a label or inline property
//! map, replace the WHERE tree by one of its subtrees, drop WHERE — and
//! keep any reduction under which the divergence reproduces. Each probe
//! re-runs the engine and the reference, so probes are capped.

use super::gen::{Cond, GraphSpec, QuerySpec, TailSpec};
use super::runner::{still_fails, CaseSpec, EngineConfig, Mismatch};

/// Upper bound on shrink probes (each probe is a full engine + reference
/// run on a small case).
const MAX_PROBES: usize = 400;

fn graph_reductions(graph: &GraphSpec) -> Vec<GraphSpec> {
    let mut out = Vec::new();
    for index in 0..graph.edges.len() {
        let mut candidate = graph.clone();
        candidate.edges.remove(index);
        out.push(candidate);
    }
    for index in 0..graph.vertices.len() {
        out.push(graph.without_vertex(index));
    }
    for (index, vertex) in graph.vertices.iter().enumerate() {
        for slot in 0..vertex.properties.len() {
            let mut candidate = graph.clone();
            candidate.vertices[index].properties.remove(slot);
            out.push(candidate);
        }
    }
    for (index, edge) in graph.edges.iter().enumerate() {
        for slot in 0..edge.properties.len() {
            let mut candidate = graph.clone();
            candidate.edges[index].properties.remove(slot);
            out.push(candidate);
        }
    }
    out
}

fn where_reductions(tree: &Cond) -> Vec<Option<Cond>> {
    let mut out: Vec<Option<Cond>> = vec![None];
    for child in tree.children() {
        out.push(Some(child.clone()));
    }
    out
}

fn query_reductions(query: &QuerySpec) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    // Reductions that break a cyclic pattern open are still offered (the
    // divergence may not be intersection-specific), but only after every
    // cyclicity-preserving candidate: a repro that keeps closing a cycle
    // keeps the worst-case-optimal plan shape in play while it shrinks.
    let was_cyclic = query.is_cyclic();
    let mut breaks_cycle = Vec::new();
    // Drop one relationship (nodes it referenced stay; they become
    // standalone patterns, which the renderer handles). On a diamond this
    // is the chord-dropping reduction that leaves a plain 4-cycle.
    for index in 0..query.edges.len() {
        let mut candidate = query.clone();
        candidate.edges.remove(index);
        if was_cyclic && !candidate.is_cyclic() {
            breaks_cycle.push(candidate);
        } else {
            out.push(candidate);
        }
    }
    // Drop a node together with its incident relationships — the reduction
    // that takes a 4-clique to a triangle without opening the cycle.
    for index in 0..query.nodes.len() {
        if query.nodes.len() == 1 {
            break; // MATCH needs at least one pattern
        }
        let mut candidate = query.clone();
        candidate.nodes.remove(index);
        candidate.edges.retain(|e| e.from != index && e.to != index);
        for edge in &mut candidate.edges {
            if edge.from > index {
                edge.from -= 1;
            }
            if edge.to > index {
                edge.to -= 1;
            }
        }
        if was_cyclic && !candidate.is_cyclic() {
            breaks_cycle.push(candidate);
        } else {
            out.push(candidate);
        }
    }
    // Drop labels and inline property maps.
    for index in 0..query.nodes.len() {
        if !query.nodes[index].labels.is_empty() {
            let mut candidate = query.clone();
            candidate.nodes[index].labels.clear();
            out.push(candidate);
        }
        if !query.nodes[index].props.is_empty() {
            let mut candidate = query.clone();
            candidate.nodes[index].props.clear();
            out.push(candidate);
        }
    }
    for index in 0..query.edges.len() {
        if !query.edges[index].labels.is_empty() {
            let mut candidate = query.clone();
            candidate.edges[index].labels.clear();
            out.push(candidate);
        }
        if !query.edges[index].props.is_empty() {
            let mut candidate = query.clone();
            candidate.edges[index].props.clear();
            out.push(candidate);
        }
    }
    // Simplify the WHERE tree.
    if let Some(tree) = &query.where_tree {
        for reduced in where_reductions(tree) {
            let mut candidate = query.clone();
            candidate.where_tree = reduced;
            out.push(candidate);
        }
    }
    // Drop or simplify the pipeline tail. Dropping it entirely comes
    // first: it reduces the case to the simple-query comparison route,
    // which localizes the bug to either the base match or the tail.
    if let Some(tail) = &query.tail {
        let mut candidate = query.clone();
        candidate.tail = None;
        out.push(candidate);
        for reduced in tail_reductions(tail) {
            let mut candidate = query.clone();
            candidate.tail = Some(reduced);
            out.push(candidate);
        }
    }
    out.extend(breaks_cycle);
    out
}

fn tail_reductions(tail: &TailSpec) -> Vec<TailSpec> {
    let mut out = Vec::new();
    match tail {
        TailSpec::OrderLimit {
            distinct,
            keys,
            skip,
            limit,
        } => {
            for index in 0..keys.len() {
                // Keep at least one of {keys, skip, limit} so the tail
                // stays a valid production.
                if keys.len() == 1 && skip.is_none() && limit.is_none() {
                    break;
                }
                let mut reduced = keys.clone();
                reduced.remove(index);
                out.push(TailSpec::OrderLimit {
                    distinct: *distinct,
                    keys: reduced,
                    skip: *skip,
                    limit: *limit,
                });
            }
            if skip.is_some() && (!keys.is_empty() || limit.is_some()) {
                out.push(TailSpec::OrderLimit {
                    distinct: *distinct,
                    keys: keys.clone(),
                    skip: None,
                    limit: *limit,
                });
            }
            if limit.is_some() && (!keys.is_empty() || skip.is_some()) {
                out.push(TailSpec::OrderLimit {
                    distinct: *distinct,
                    keys: keys.clone(),
                    skip: *skip,
                    limit: None,
                });
            }
            if *distinct {
                out.push(TailSpec::OrderLimit {
                    distinct: false,
                    keys: keys.clone(),
                    skip: *skip,
                    limit: *limit,
                });
            }
        }
        TailSpec::Aggregate { group, aggs } => {
            for index in 0..group.len() {
                let mut reduced = group.clone();
                reduced.remove(index);
                out.push(TailSpec::Aggregate {
                    group: reduced,
                    aggs: aggs.clone(),
                });
            }
            if aggs.len() > 1 {
                for index in 0..aggs.len() {
                    let mut reduced = aggs.clone();
                    reduced.remove(index);
                    out.push(TailSpec::Aggregate {
                        group: group.clone(),
                        aggs: reduced,
                    });
                }
            }
        }
        TailSpec::WithMatch {
            keep,
            anchor,
            edge_label,
            node_label,
        } => {
            // Drop carried variables (the anchor at index 0 must stay).
            for index in 1..keep.len() {
                let mut reduced = keep.clone();
                reduced.remove(index);
                out.push(TailSpec::WithMatch {
                    keep: reduced,
                    anchor: anchor.clone(),
                    edge_label: edge_label.clone(),
                    node_label: node_label.clone(),
                });
            }
            if edge_label.is_some() {
                out.push(TailSpec::WithMatch {
                    keep: keep.clone(),
                    anchor: anchor.clone(),
                    edge_label: None,
                    node_label: node_label.clone(),
                });
            }
            if node_label.is_some() {
                out.push(TailSpec::WithMatch {
                    keep: keep.clone(),
                    anchor: anchor.clone(),
                    edge_label: edge_label.clone(),
                    node_label: None,
                });
            }
        }
        TailSpec::OptionalTail {
            anchor,
            direction,
            edge_label,
            node_label,
        } => {
            if edge_label.is_some() {
                out.push(TailSpec::OptionalTail {
                    anchor: anchor.clone(),
                    direction: *direction,
                    edge_label: None,
                    node_label: node_label.clone(),
                });
            }
            if node_label.is_some() {
                out.push(TailSpec::OptionalTail {
                    anchor: anchor.clone(),
                    direction: *direction,
                    edge_label: edge_label.clone(),
                    node_label: None,
                });
            }
        }
        TailSpec::Unwind { items } => {
            for index in 0..items.len() {
                let mut reduced = items.clone();
                reduced.remove(index);
                out.push(TailSpec::Unwind { items: reduced });
            }
        }
        // One column: dropping the tail is the only reduction.
        TailSpec::DistinctProperty { .. } => {}
    }
    out
}

/// Shrinks `case` against the configuration that failed, returning the
/// smallest reproducing case found and its (fresh) divergence.
pub fn shrink(
    case: &CaseSpec,
    config: &EngineConfig,
    seed_mismatch: Mismatch,
) -> (CaseSpec, Mismatch) {
    let mut best = case.clone();
    let mut mismatch = seed_mismatch;
    let mut probes = 0;
    loop {
        let mut improved = false;
        let mut candidates: Vec<CaseSpec> = Vec::new();
        for graph in graph_reductions(&best.graph) {
            let mut candidate = best.clone();
            candidate.graph = graph;
            candidates.push(candidate);
        }
        for query in query_reductions(&best.query) {
            let mut candidate = best.clone();
            candidate.query = query;
            candidates.push(candidate);
        }
        for candidate in candidates {
            if probes >= MAX_PROBES {
                return (best, mismatch);
            }
            probes += 1;
            if let Some(found) = still_fails(&candidate, config) {
                best = candidate;
                mismatch = found;
                improved = true;
                break; // restart reductions from the smaller case
            }
        }
        if !improved {
            return (best, mismatch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::gen::{Dir, EdgePat, NodePat};
    use super::*;

    fn diamond() -> QuerySpec {
        let endpoints = [(0usize, 1usize), (1, 2), (2, 3), (3, 0), (0, 2)];
        QuerySpec {
            nodes: (0..4)
                .map(|i| NodePat {
                    variable: Some(format!("n{i}")),
                    labels: Vec::new(),
                    props: Vec::new(),
                })
                .collect(),
            edges: endpoints
                .iter()
                .enumerate()
                .map(|(i, &(from, to))| EdgePat {
                    variable: Some(format!("e{i}")),
                    from,
                    to,
                    direction: Dir::Out,
                    labels: Vec::new(),
                    range: None,
                    props: Vec::new(),
                })
                .collect(),
            where_tree: None,
            tail: None,
        }
    }

    #[test]
    fn cyclic_reductions_come_before_cycle_breaking_ones() {
        let reductions = query_reductions(&diamond());
        // Dropping a chord-endpoint node shrinks the diamond straight to a
        // triangle; it must appear among the cyclicity-preserving
        // candidates.
        let first_triangle = reductions
            .iter()
            .position(|q| q.nodes.len() == 3 && q.edges.len() == 3 && q.is_cyclic())
            .expect("diamond must offer a triangle reduction");
        // Dropping a node on the 4-cycle's rim (both chord endpoints stay)
        // breaks the cycle open; those candidates are deferred to the end.
        let first_acyclic = reductions
            .iter()
            .position(|q| !q.is_cyclic())
            .expect("cycle-breaking reductions are still offered");
        assert!(
            first_triangle < first_acyclic,
            "triangle at {first_triangle}, first acyclic at {first_acyclic}"
        );
        assert!(reductions[..first_acyclic].iter().all(|q| q.is_cyclic()));
    }
}

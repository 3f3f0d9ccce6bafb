//! The greedy query planner (paper Section 3.2).
//!
//! Decomposes the query into its vertex and edge sets and constructs a
//! bushy plan: starting from one partial plan per query vertex, it
//! repeatedly evaluates — for every uncovered query edge — the cost of
//! joining that edge into the existing partial plans, commits the
//! alternative with the smallest estimated intermediate result, and repeats
//! until one plan covers the query graph. Cross-variable filters are placed
//! as soon as all their variables are bound; disconnected components are
//! combined by cartesian products at the end.
//!
//! A plain edge's candidate is its edge scan joined to the partials that
//! bind its endpoints. When those are two different partials, the scan
//! joins the endpoint with the smaller estimated intermediate first (the
//! source on a tie), but the candidate is estimated — and competes in its
//! round — as if the source came first: the estimator is not
//! order-independent, and the order only decides how the tree is built.

use std::collections::{BTreeSet, HashMap};

use gradoop_cypher::QueryGraph;

use crate::executor::choose_join_strategy;
use crate::observe::{ship_strategies, PlannerCandidate, PlannerRound, PlannerTrace};
use crate::planner::estimation::Estimator;
use crate::planner::plan::{PlanNode, PlanOperator, QueryPlan};

/// Which physical alternatives the planner may choose from. Forced modes
/// exist for the conformance harness (and ablation benchmarks): the same
/// query planned under [`PlanMode::ForceWco`] and [`PlanMode::ForceBinary`]
/// must produce byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Cost-based: binary joins and WCO intersections compete on estimated
    /// cardinality (the default).
    #[default]
    CostBased,
    /// Never emit [`PlanOperator::ExpandIntersect`] — the pre-WCO planner.
    ForceBinary,
    /// Prefer WCO: whenever a round offers any intersection candidate, the
    /// choice is restricted to intersections. Acyclic (sub)queries still
    /// plan with binary joins — there is nothing to intersect.
    ForceWco,
}

/// Planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "planning failed: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A partial plan covering a subset of the query graph. Its estimated
/// cardinality is its node's.
#[derive(Debug, Clone)]
struct Partial {
    node: PlanNode,
    vertices: BTreeSet<usize>,
    edges: BTreeSet<usize>,
    /// Variables bound to columns of the partial's embeddings.
    variables: BTreeSet<String>,
    /// Estimated distinct values per bound variable.
    distinct: HashMap<String, f64>,
    /// The variable set the partial's output is expected to be
    /// hash-partitioned on at runtime — the plan-time mirror of the
    /// dataset's [`Partitioning`](gradoop_dataflow::Partitioning)
    /// fingerprint. `Some` after repartitioning joins (whose outputs are
    /// stamped), preserved by filters, dropped by everything that rewrites
    /// placement. Used to predict which join shuffles will be elided.
    partitioned_by: Option<BTreeSet<String>>,
}

/// One alternative evaluated in a greedy round: the partials it would
/// consume, the merged partial it would produce, and the query edges it
/// covers (one for binary joins/expansions, ≥ 2 for WCO intersections).
struct Candidate {
    consumed: Vec<usize>,
    partial: Partial,
    covered_edges: Vec<usize>,
    label: String,
    wco: bool,
}

/// Plans `query` over a graph described by `estimator`'s statistics, with
/// binary joins and WCO intersections competing cost-based.
pub fn plan_query(query: &QueryGraph, estimator: &Estimator) -> Result<QueryPlan, PlanError> {
    plan_query_with_mode(query, estimator, PlanMode::CostBased)
}

/// Plans `query` under an explicit [`PlanMode`].
pub fn plan_query_with_mode(
    query: &QueryGraph,
    estimator: &Estimator,
    mode: PlanMode,
) -> Result<QueryPlan, PlanError> {
    if query.vertices.is_empty() {
        return Err(PlanError("query graph has no vertices".into()));
    }

    let mut partials: Vec<Partial> = Vec::new();
    let mut deferred_vertices: BTreeSet<usize> = BTreeSet::new();

    // Leaf partial per query vertex. Trivial vertices (no labels, no
    // predicates, no required properties) touched by at least one edge are
    // deferred: the edge scan itself binds them, so no join is needed.
    for (index, vertex) in query.vertices.iter().enumerate() {
        let touched = query
            .edges
            .iter()
            .any(|e| e.source == index || e.target == index);
        let trivial = vertex.labels.is_empty()
            && vertex.predicates.is_trivial()
            && vertex.required_keys.is_empty();
        if trivial && touched {
            deferred_vertices.insert(index);
            continue;
        }
        let cardinality = estimator.vertex_cardinality(query, index);
        let mut distinct = HashMap::new();
        distinct.insert(vertex.variable.clone(), cardinality);
        partials.push(Partial {
            node: PlanNode::new(
                PlanOperator::ScanVertices { vertex: index },
                Vec::new(),
                cardinality,
            ),
            vertices: BTreeSet::from([index]),
            edges: BTreeSet::new(),
            variables: BTreeSet::from([vertex.variable.clone()]),
            distinct,
            partitioned_by: None,
        });
    }

    let mut remaining_edges: BTreeSet<usize> = (0..query.edges.len()).collect();
    let mut pending_clauses: BTreeSet<usize> = (0..query.cross_clauses.len()).collect();
    let mut planner = PlannerTrace::default();

    while !remaining_edges.is_empty() {
        // Evaluate every uncovered edge — plus every WCO intersection that
        // could bind a new vertex through ≥ 2 uncovered edges — and keep
        // the cheapest alternative.
        let mut alternatives: Vec<Candidate> = Vec::new();
        for &edge_index in &remaining_edges {
            let (consumed, partial) = build_candidate(query, estimator, &partials, edge_index)?;
            alternatives.push(Candidate {
                consumed,
                label: query.edges[edge_index].variable.clone(),
                covered_edges: vec![edge_index],
                wco: false,
                partial,
            });
        }
        if mode != PlanMode::ForceBinary {
            build_wco_candidates(
                query,
                estimator,
                &partials,
                &remaining_edges,
                &mut alternatives,
            );
        }
        let candidates: Vec<PlannerCandidate> = alternatives
            .iter()
            .map(|c| PlannerCandidate {
                edge_variable: c.label.clone(),
                estimated_cardinality: c.partial.cardinality(),
            })
            .collect();
        let restrict_to_wco = mode == PlanMode::ForceWco && alternatives.iter().any(|c| c.wco);
        let best = alternatives
            .into_iter()
            .filter(|c| !restrict_to_wco || c.wco)
            .min_by(|a, b| a.partial.cardinality().total_cmp(&b.partial.cardinality()))
            .ok_or_else(|| PlanError("no joinable edge found".into()))?;
        let mut merged = best.partial;
        planner.rounds.push(PlannerRound {
            candidates,
            chosen_edge: best.label,
            chosen_cardinality: merged.cardinality(),
        });
        for edge_index in &best.covered_edges {
            remaining_edges.remove(edge_index);
        }

        // Replace the consumed partials (descending index order).
        let mut consumed = best.consumed;
        consumed.sort_unstable_by(|a, b| b.cmp(a));
        for index in consumed {
            partials.remove(index);
        }
        apply_ready_filters(query, estimator, &mut merged, &mut pending_clauses);
        partials.push(merged);
    }

    // Isolated non-trivial vertices are still their own partials; combine
    // everything left with cartesian products, cheapest side first.
    partials.sort_by(|a, b| a.cardinality().total_cmp(&b.cardinality()));
    let mut iter = partials.into_iter();
    let mut combined = iter
        .next()
        .ok_or_else(|| PlanError("query produced no partial plans".into()))?;
    for next in iter {
        let distinct = merge_distinct(&combined, &next);
        // A pending equality predicate between properties of the two sides
        // turns the cartesian product into a value join (the extension
        // operator of paper Section 3.1) — same result, far smaller output.
        let value_join = find_value_join_clause(
            query,
            &pending_clauses,
            &combined.variables,
            &next.variables,
        );
        let (left, right) = (combined.cardinality(), next.cardinality());
        let (operator, cardinality, strategy) = match value_join {
            Some((clause_index, left_property, right_property)) => {
                pending_clauses.remove(&clause_index);
                (
                    PlanOperator::ValueJoin {
                        left_property,
                        right_property,
                    },
                    // Equality-join estimate: the product scaled by the
                    // default equality selectivity.
                    left * right * 0.1,
                    Some(choose_join_strategy(
                        left.max(0.0) as usize,
                        right.max(0.0) as usize,
                        false,
                        false,
                    )),
                )
            }
            None => (PlanOperator::Cartesian, left * right, None),
        };
        let mut node = PlanNode::new(operator, vec![combined.node, next.node], cardinality);
        node.estimated_strategy = strategy;
        // Value joins key on property values, which no named partitioning
        // fact describes: neither side forwards.
        node.estimated_ship = strategy.map(|strategy| ship_strategies(strategy, false, false));
        combined = Partial {
            vertices: combined.vertices.union(&next.vertices).copied().collect(),
            edges: combined.edges.union(&next.edges).copied().collect(),
            variables: combined.variables.union(&next.variables).cloned().collect(),
            node,
            distinct,
            partitioned_by: None,
        };
        apply_ready_filters(query, estimator, &mut combined, &mut pending_clauses);
    }

    // Any still-pending clause means a variable never got bound — that can
    // only be a clause without variables (constant), which we apply last.
    if !pending_clauses.is_empty() {
        let clauses: Vec<usize> = pending_clauses.iter().copied().collect();
        for &index in &clauses {
            let (_, variables) = &query.cross_clauses[index];
            for variable in variables {
                if !combined.variables.contains(variable) {
                    return Err(PlanError(format!(
                        "predicate references variable `{variable}` that is never bound"
                    )));
                }
            }
        }
        let cardinality = combined.cardinality();
        wrap_in_filter(&mut combined.node, clauses, cardinality);
    }

    Ok(QueryPlan {
        root: combined.node,
        planner,
    })
}

/// Builds the candidate partial that covers `edge_index`, returning the
/// indices of the partials it consumes.
fn build_candidate(
    query: &QueryGraph,
    estimator: &Estimator,
    partials: &[Partial],
    edge_index: usize,
) -> Result<(Vec<usize>, Partial), PlanError> {
    let edge = &query.edges[edge_index];
    let source_var = query.vertices[edge.source].variable.clone();
    let target_var = query.vertices[edge.target].variable.clone();

    let source_partial = partials
        .iter()
        .position(|p| p.variables.contains(&source_var));
    let target_partial = partials
        .iter()
        .position(|p| p.variables.contains(&target_var));

    if edge.is_variable_length() {
        build_expand_candidate(
            query,
            estimator,
            partials,
            edge_index,
            source_partial,
            target_partial,
        )
    } else {
        build_join_candidate(
            query,
            estimator,
            partials,
            edge_index,
            source_partial,
            target_partial,
        )
    }
}

/// Expected candidate neighbors per bound endpoint of a closing edge,
/// oriented by which endpoint the intersection probes from. Undirected
/// edges combine both orientations (their cardinality and distinct-source
/// estimates already count both).
fn oriented_fanout(query: &QueryGraph, estimator: &Estimator, edge_index: usize, w: usize) -> f64 {
    let edge = &query.edges[edge_index];
    let cardinality = estimator.edge_cardinality(query, edge_index);
    let bound_sources = edge.undirected || edge.target == w;
    let denominator = if bound_sources {
        estimator.edge_distinct_sources(query, edge_index)
    } else {
        estimator.edge_distinct_targets(query, edge_index)
    };
    cardinality / denominator.max(1.0)
}

/// Enumerates worst-case-optimal intersection candidates: for each partial
/// `p` and each vertex `w` not bound by `p` that is reachable through ≥ 2
/// uncovered plain edges whose other endpoints `p` binds, an
/// [`PlanOperator::ExpandIntersect`] closing all those edges at once.
///
/// Eligibility mirrors what the operator can execute: plain edges only (no
/// variable length), no self-loops on `w`, and neither `w` nor the closing
/// edges may require projected properties — the intersection emits bare
/// ids. `w`'s own labels and predicates are enforced by the operator, so a
/// leaf scan partial for `w` is consumed without embedding its node.
fn build_wco_candidates(
    query: &QueryGraph,
    estimator: &Estimator,
    partials: &[Partial],
    remaining_edges: &BTreeSet<usize>,
    out: &mut Vec<Candidate>,
) {
    let vertex_count = (estimator.stats().vertex_count as f64).max(1.0);
    for (p_index, partial) in partials.iter().enumerate() {
        // Group eligible closing edges by the new vertex they would bind.
        let mut by_vertex: HashMap<usize, Vec<usize>> = HashMap::new();
        for &edge_index in remaining_edges {
            let edge = &query.edges[edge_index];
            if edge.range.is_some() || !edge.required_keys.is_empty() || edge.source == edge.target
            {
                continue;
            }
            let source_bound = partial
                .variables
                .contains(&query.vertices[edge.source].variable);
            let target_bound = partial
                .variables
                .contains(&query.vertices[edge.target].variable);
            let w = match (source_bound, target_bound) {
                (true, false) => edge.target,
                (false, true) => edge.source,
                _ => continue,
            };
            if !query.vertices[w].required_keys.is_empty() {
                continue;
            }
            by_vertex.entry(w).or_default().push(edge_index);
        }
        let mut closures: Vec<(usize, Vec<usize>)> = by_vertex.into_iter().collect();
        closures.sort_unstable();
        for (w, edges) in closures {
            if edges.len() < 2 {
                continue;
            }
            let w_variable = &query.vertices[w].variable;
            // `w` may exist as its own leaf scan partial (labels/predicates
            // but no covered edges): consume it, the operator re-applies
            // its constraints. Any other partial binding `w` blocks WCO.
            let mut consumed = vec![p_index];
            let mut blocked = false;
            for (i, other) in partials.iter().enumerate() {
                if i == p_index || !other.variables.contains(w_variable) {
                    continue;
                }
                if other.edges.is_empty() && other.variables.len() == 1 {
                    consumed.push(i);
                } else {
                    blocked = true;
                }
            }
            if blocked {
                continue;
            }

            // Each closing edge offers `fanout` candidates per probe row;
            // a neighbor survives every further intersection with
            // probability `fanout_i / |V|`, and must satisfy `w`'s own
            // labels/predicates on top.
            let w_cardinality = estimator.vertex_cardinality(query, w);
            let mut per_row = w_cardinality / vertex_count;
            for &edge_index in &edges {
                per_row *= oriented_fanout(query, estimator, edge_index, w);
            }
            per_row /= vertex_count.powi(edges.len() as i32 - 1);
            let cardinality = partial.cardinality() * per_row;

            let mut variables = partial.variables.clone();
            variables.insert(w_variable.clone());
            let mut distinct = partial.distinct.clone();
            distinct.insert(w_variable.clone(), vertex_count.min(cardinality.max(1.0)));
            for &edge_index in &edges {
                variables.insert(query.edges[edge_index].variable.clone());
                distinct.insert(
                    query.edges[edge_index].variable.clone(),
                    cardinality.max(1.0),
                );
            }
            let node = PlanNode::new(
                PlanOperator::ExpandIntersect {
                    vertex: w,
                    edges: edges.clone(),
                },
                vec![partial.node.clone()],
                cardinality,
            );
            let label = edges
                .iter()
                .map(|&e| query.edges[e].variable.as_str())
                .collect::<Vec<_>>()
                .join("∩");
            out.push(Candidate {
                consumed,
                partial: Partial {
                    node,
                    vertices: {
                        let mut v = partial.vertices.clone();
                        v.insert(w);
                        v
                    },
                    edges: {
                        let mut e = partial.edges.clone();
                        e.extend(edges.iter().copied());
                        e
                    },
                    variables,
                    distinct,
                    // The probe extends rows in place; the input's placement
                    // survives but no named partitioning fact describes it.
                    partitioned_by: None,
                },
                covered_edges: edges,
                label,
                wco: true,
            });
        }
    }
}

/// Leaf partial for one plain edge scan.
fn edge_scan_partial(query: &QueryGraph, estimator: &Estimator, edge_index: usize) -> Partial {
    let edge = &query.edges[edge_index];
    let source_var = query.vertices[edge.source].variable.clone();
    let target_var = query.vertices[edge.target].variable.clone();
    let cardinality = estimator.edge_cardinality(query, edge_index);
    let mut distinct = HashMap::new();
    distinct.insert(
        source_var.clone(),
        estimator
            .edge_distinct_sources(query, edge_index)
            .min(cardinality),
    );
    distinct.insert(
        target_var.clone(),
        estimator
            .edge_distinct_targets(query, edge_index)
            .min(cardinality),
    );
    distinct.insert(edge.variable.clone(), cardinality);
    let mut variables = BTreeSet::from([source_var, edge.variable.clone()]);
    variables.insert(target_var);
    Partial {
        node: PlanNode::new(
            PlanOperator::ScanEdges { edge: edge_index },
            Vec::new(),
            cardinality,
        ),
        vertices: BTreeSet::from([edge.source, edge.target]),
        edges: BTreeSet::from([edge_index]),
        variables,
        distinct,
        partitioned_by: None,
    }
}

/// What join estimation reads of one input: its cardinality and its
/// per-variable distinct counts.
#[derive(Clone, Copy)]
struct Estimate<'a> {
    cardinality: f64,
    distinct: &'a HashMap<String, f64>,
}

impl Partial {
    fn cardinality(&self) -> f64 {
        self.node.estimated_cardinality
    }

    fn estimate(&self) -> Estimate<'_> {
        Estimate {
            cardinality: self.cardinality(),
            distinct: &self.distinct,
        }
    }
}

/// Estimated cardinality of joining `left` and `right` on `variables`, from
/// cardinalities and distinct counts alone (a side without a distinct count
/// for a variable counts every row as distinct).
fn join_cardinality(
    estimator: &Estimator,
    left: Estimate<'_>,
    right: Estimate<'_>,
    variables: &[String],
) -> f64 {
    let pairs: Vec<(f64, f64)> = variables
        .iter()
        .map(|v| {
            (
                left.distinct.get(v).copied().unwrap_or(left.cardinality),
                right.distinct.get(v).copied().unwrap_or(right.cardinality),
            )
        })
        .collect();
    estimator.join_cardinality(left.cardinality, right.cardinality, &pairs)
}

/// Distinct counts of a join's output: each variable keeps the smaller of
/// its two sides' counts, capped by the output `cardinality`.
fn joined_distinct(
    left: &HashMap<String, f64>,
    right: &HashMap<String, f64>,
    cardinality: f64,
) -> HashMap<String, f64> {
    let mut distinct = HashMap::new();
    for (variable, value) in left.iter().chain(right.iter()) {
        let entry = distinct.entry(variable.clone()).or_insert(*value);
        *entry = entry.min(*value).min(cardinality.max(1.0));
    }
    distinct
}

/// Joins two partials on `variables`, estimating the output from theirs.
fn join_partials(
    estimator: &Estimator,
    left: Partial,
    right: Partial,
    variables: Vec<String>,
) -> Partial {
    let cardinality = join_cardinality(estimator, left.estimate(), right.estimate(), &variables);
    let distinct = joined_distinct(&left.distinct, &right.distinct, cardinality);
    build_join(left, right, variables, cardinality, distinct)
}

/// Joins two partials on `variables` under the given output estimate.
fn build_join(
    left: Partial,
    right: Partial,
    variables: Vec<String>,
    cardinality: f64,
    distinct: HashMap<String, f64>,
) -> Partial {
    // Predict the join strategy the executor will pick if the estimated
    // input cardinalities come true, including which inputs it will find
    // already partitioned on the join key and therefore forward.
    let key_set: BTreeSet<String> = variables.iter().cloned().collect();
    let left_partitioned = left.partitioned_by.as_ref() == Some(&key_set);
    let right_partitioned = right.partitioned_by.as_ref() == Some(&key_set);
    let strategy = choose_join_strategy(
        left.cardinality().max(0.0) as usize,
        right.cardinality().max(0.0) as usize,
        left_partitioned,
        right_partitioned,
    );
    // Mirror the runtime stamping rules: repartitioning joins place their
    // output by the join key; a broadcast join leaves the stationary side's
    // placement as is (meaningful here only when it already matches).
    use gradoop_dataflow::JoinStrategy;
    let partitioned_by = match strategy {
        JoinStrategy::RepartitionHash => Some(key_set.clone()),
        JoinStrategy::BroadcastHashFirst => right_partitioned.then(|| key_set.clone()),
        JoinStrategy::BroadcastHashSecond => left_partitioned.then(|| key_set.clone()),
    };
    let mut node = PlanNode::new(
        PlanOperator::Join { variables },
        vec![left.node, right.node],
        cardinality,
    );
    node.estimated_strategy = Some(strategy);
    node.estimated_ship = Some(ship_strategies(
        strategy,
        left_partitioned,
        right_partitioned,
    ));
    Partial {
        node,
        vertices: left.vertices.union(&right.vertices).copied().collect(),
        edges: left.edges.union(&right.edges).copied().collect(),
        variables: left.variables.union(&right.variables).cloned().collect(),
        distinct,
        partitioned_by,
    }
}

/// Builds the binary candidate covering one plain edge: its scan joined to
/// the partials binding its endpoints, returning the partials it consumes.
///
/// When the endpoints live in two different partials, the scan joins the
/// one with the smaller estimated intermediate first, the source on a tie.
/// The candidate's own estimate stays the source-first one whichever order
/// is built: the estimator is order-dependent, and the greedy rounds
/// compare candidates on that estimate.
fn build_join_candidate(
    query: &QueryGraph,
    estimator: &Estimator,
    partials: &[Partial],
    edge_index: usize,
    source_partial: Option<usize>,
    target_partial: Option<usize>,
) -> Result<(Vec<usize>, Partial), PlanError> {
    let edge = &query.edges[edge_index];
    let source_var = query.vertices[edge.source].variable.clone();
    let target_var = query.vertices[edge.target].variable.clone();
    let scan = edge_scan_partial(query, estimator, edge_index);

    Ok(match (source_partial, target_partial) {
        (Some(s), Some(t)) if s == t => {
            // Both endpoints live in the same partial: one join on both
            // endpoint variables (or just one for loops).
            let mut join_vars = vec![source_var.clone()];
            if source_var != target_var {
                join_vars.push(target_var);
            }
            let joined = join_partials(estimator, partials[s].clone(), scan, join_vars);
            (vec![s], joined)
        }
        (Some(s), Some(t)) => {
            let (source, target) = (&partials[s], &partials[t]);
            let (source_key, target_key) = (vec![source_var], vec![target_var]);
            let via_source =
                join_cardinality(estimator, source.estimate(), scan.estimate(), &source_key);
            let via_target =
                join_cardinality(estimator, target.estimate(), scan.estimate(), &target_key);
            let joined = if via_target < via_source {
                // Target first, under the source-first estimate.
                let first_distinct = joined_distinct(&source.distinct, &scan.distinct, via_source);
                let first = Estimate {
                    cardinality: via_source,
                    distinct: &first_distinct,
                };
                let cardinality =
                    join_cardinality(estimator, target.estimate(), first, &target_key);
                let distinct = joined_distinct(&target.distinct, &first_distinct, cardinality);
                let inner = join_partials(estimator, target.clone(), scan, target_key);
                build_join(source.clone(), inner, source_key, cardinality, distinct)
            } else {
                let inner = join_partials(estimator, source.clone(), scan, source_key);
                join_partials(estimator, target.clone(), inner, target_key)
            };
            (vec![s, t], joined)
        }
        (Some(s), None) => {
            let joined = join_partials(estimator, partials[s].clone(), scan, vec![source_var]);
            (vec![s], joined)
        }
        (None, Some(t)) => {
            let joined = join_partials(estimator, partials[t].clone(), scan, vec![target_var]);
            (vec![t], joined)
        }
        (None, None) => (Vec::new(), scan),
    })
}

/// Σ `fanout^k` for `k` in `lower..=upper`: the embeddings one input row
/// grows into over the path lengths, the zero-length path contributing its
/// single embedding. The closed-form geometric sum costs the same for any
/// bound — the parser accepts bounds up to `i64::MAX` — and overflows to
/// infinity instead of wrapping.
fn path_growth(fanout: f64, lower: usize, upper: usize) -> f64 {
    // No terms when `upper < lower`.
    let terms = (upper as f64 - lower as f64 + 1.0).max(0.0);
    if fanout == 1.0 {
        terms
    } else {
        fanout.powf(lower as f64) * (fanout.powf(terms) - 1.0) / (fanout - 1.0)
    }
}

fn build_expand_candidate(
    query: &QueryGraph,
    estimator: &Estimator,
    partials: &[Partial],
    edge_index: usize,
    source_partial: Option<usize>,
    target_partial: Option<usize>,
) -> Result<(Vec<usize>, Partial), PlanError> {
    let edge = &query.edges[edge_index];
    let source_var = query.vertices[edge.source].variable.clone();
    let target_var = query.vertices[edge.target].variable.clone();
    let (lower, upper) = edge.range.expect("variable-length edge");

    // The expansion needs an input binding its source column. Deferred
    // (trivial) source vertices still get a scan here.
    let (input, mut consumed) = match source_partial {
        Some(index) => (partials[index].clone(), vec![index]),
        None => {
            let cardinality = estimator.vertex_cardinality(query, edge.source);
            let mut distinct = HashMap::new();
            distinct.insert(source_var.clone(), cardinality);
            (
                Partial {
                    node: PlanNode::new(
                        PlanOperator::ScanVertices {
                            vertex: edge.source,
                        },
                        Vec::new(),
                        cardinality,
                    ),
                    vertices: BTreeSet::from([edge.source]),
                    edges: BTreeSet::new(),
                    variables: BTreeSet::from([source_var.clone()]),
                    distinct,
                    partitioned_by: None,
                },
                Vec::new(),
            )
        }
    };

    let fanout = estimator.edge_fanout(query, edge_index).max(0.001);
    let growth = path_growth(fanout, lower, upper);
    let closes_cycle = input.variables.contains(&target_var);
    let mut cardinality = input.cardinality() * growth;
    if closes_cycle {
        let vertex_count = (estimator.stats().vertex_count as f64).max(1.0);
        cardinality /= vertex_count;
    }

    let mut variables = input.variables.clone();
    variables.insert(edge.variable.clone());
    variables.insert(target_var.clone());
    let mut distinct = input.distinct.clone();
    distinct.insert(
        target_var.clone(),
        (estimator.stats().vertex_count as f64).min(cardinality.max(1.0)),
    );
    let mut expanded = Partial {
        node: PlanNode::new(
            PlanOperator::Expand { edge: edge_index },
            vec![input.node],
            cardinality,
        ),
        vertices: {
            let mut v = input.vertices.clone();
            v.insert(edge.source);
            v.insert(edge.target);
            v
        },
        edges: {
            let mut e = input.edges.clone();
            e.insert(edge_index);
            e
        },
        variables,
        distinct,
        // The expansion's probe outputs land wherever their last hop's
        // source was placed — no named partitioning describes that.
        partitioned_by: None,
    };

    // If the target lives in a different partial, join the expansion result
    // with it on the target variable.
    if let Some(t) = target_partial {
        if !consumed.contains(&t) && !closes_cycle {
            expanded = join_partials(estimator, expanded, partials[t].clone(), vec![target_var]);
            consumed.push(t);
        }
    }
    Ok((consumed, expanded))
}

/// Attaches pending cross-variable filters whose variables are all bound.
fn apply_ready_filters(
    query: &QueryGraph,
    estimator: &Estimator,
    partial: &mut Partial,
    pending: &mut BTreeSet<usize>,
) {
    let ready: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&index| {
            query.cross_clauses[index]
                .1
                .iter()
                .all(|v| partial.variables.contains(v))
        })
        .collect();
    if ready.is_empty() {
        return;
    }
    let mut cardinality = partial.cardinality();
    for &index in &ready {
        pending.remove(&index);
        let clause = &query.cross_clauses[index].0;
        cardinality *= estimator.clause_selectivity(clause, &[], true);
    }
    wrap_in_filter(&mut partial.node, ready, cardinality);
}

/// Puts a filter applying `clauses` over `node`, estimated at `cardinality`.
fn wrap_in_filter(node: &mut PlanNode, clauses: Vec<usize>, cardinality: f64) {
    let filter = PlanNode::new(PlanOperator::Filter { clauses }, Vec::new(), cardinality);
    let input = std::mem::replace(node, filter);
    node.inputs.push(input);
}

/// Finds a pending single-atom equality clause `a.k1 = b.k2` whose sides
/// live in the two given variable sets, returning the clause index and the
/// property pair oriented as (left, right).
/// A value-join opportunity: the clause index plus the (variable, property)
/// pair of each side, oriented as (left, right).
type ValueJoinClause = (usize, (String, String), (String, String));

fn find_value_join_clause(
    query: &QueryGraph,
    pending: &BTreeSet<usize>,
    left_variables: &BTreeSet<String>,
    right_variables: &BTreeSet<String>,
) -> Option<ValueJoinClause> {
    use gradoop_cypher::{Atom, CmpOp, Operand};
    for &index in pending {
        let (clause, _) = &query.cross_clauses[index];
        let [atom] = clause.atoms.as_slice() else {
            continue;
        };
        let Atom::Comparison {
            left:
                Operand::Property {
                    variable: v1,
                    key: k1,
                },
            op: CmpOp::Eq,
            right:
                Operand::Property {
                    variable: v2,
                    key: k2,
                },
        } = atom
        else {
            continue;
        };
        let p1 = (v1.clone(), k1.clone());
        let p2 = (v2.clone(), k2.clone());
        if left_variables.contains(v1) && right_variables.contains(v2) {
            return Some((index, p1, p2));
        }
        if left_variables.contains(v2) && right_variables.contains(v1) {
            return Some((index, p2, p1));
        }
    }
    None
}

fn merge_distinct(left: &Partial, right: &Partial) -> HashMap<String, f64> {
    let mut distinct = left.distinct.clone();
    for (variable, value) in &right.distinct {
        distinct.insert(variable.clone(), *value);
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_cypher::parse;
    use gradoop_epgm::{GraphStatistics, Label};

    fn stats() -> GraphStatistics {
        let mut stats = GraphStatistics {
            vertex_count: 1000,
            edge_count: 5000,
            distinct_source_count: 800,
            distinct_target_count: 900,
            ..GraphStatistics::default()
        };
        stats
            .vertex_count_by_label
            .insert(Label::new("Person"), 600);
        stats
            .vertex_count_by_label
            .insert(Label::new("University"), 10);
        stats.edge_count_by_label.insert(Label::new("knows"), 3000);
        stats.edge_count_by_label.insert(Label::new("studyAt"), 600);
        stats
            .distinct_source_by_label
            .insert(Label::new("knows"), 500);
        stats
            .distinct_target_by_label
            .insert(Label::new("knows"), 550);
        stats
            .distinct_source_by_label
            .insert(Label::new("studyAt"), 600);
        stats
            .distinct_target_by_label
            .insert(Label::new("studyAt"), 10);
        stats
            .distinct_vertex_property_values
            .insert((Label::new("University"), "name".to_string()), 10);
        stats
    }

    fn plan(text: &str) -> (QueryGraph, QueryPlan) {
        plan_with_mode(text, PlanMode::CostBased)
    }

    fn plan_with_mode(text: &str, mode: PlanMode) -> (QueryGraph, QueryPlan) {
        let query = QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        let stats = stats();
        let estimator = Estimator::new(&stats);
        let plan = plan_query_with_mode(&query, &estimator, mode).expect("plan");
        (query, plan)
    }

    fn collect_edges(node: &PlanNode, out: &mut Vec<usize>) {
        match &node.operator {
            PlanOperator::ScanEdges { edge } | PlanOperator::Expand { edge } => out.push(*edge),
            PlanOperator::ExpandIntersect { edges, .. } => out.extend(edges.iter().copied()),
            _ => {}
        }
        for input in &node.inputs {
            collect_edges(input, out);
        }
    }

    #[test]
    fn plan_covers_every_edge_exactly_once() {
        let (query, plan) = plan(
            "MATCH (p1:Person)-[s:studyAt]->(u:University), \
                   (p2:Person)-[:studyAt]->(u), \
                   (p1)-[e:knows*1..3]->(p2) \
             WHERE u.name = 'Uni Leipzig' RETURN *",
        );
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        edges.sort_unstable();
        assert_eq!(edges, (0..query.edges.len()).collect::<Vec<_>>());
    }

    #[test]
    fn selective_predicate_is_joined_early() {
        // The university scan (10 labeled, equality selecting 1/10) is by
        // far the cheapest side; the greedy planner must start from it.
        let (query, plan) = plan(
            "MATCH (p:Person)-[s:studyAt]->(u:University) \
             WHERE u.name = 'Uni Leipzig' RETURN p.name",
        );
        // The first committed join involves the studyAt edge; its estimated
        // result must be far below the unfiltered edge count.
        assert!(plan.root.estimated_cardinality < 100.0);
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("ScanVertices(u:University)"));
    }

    const TRIANGLE: &str = "MATCH (p1:Person)-[:knows]->(p2:Person), \
                                  (p2)-[:knows]->(p3:Person), \
                                  (p1)-[:knows]->(p3) RETURN *";

    #[test]
    fn triangle_query_plans_all_three_edges() {
        let (query, plan) = plan(TRIANGLE);
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        edges.sort_unstable();
        assert_eq!(edges, vec![0, 1, 2]);
        // Cost-based planning closes the triangle with a WCO intersection:
        // per open (p1, p2) pair the estimate is knows-fanout² / |V| · the
        // Person selectivity of p3 (≈ 0.02 rows) versus the thousands of
        // open 2-paths the binary closing join would materialize.
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("wco intersect p3"), "{text}");
        assert!(!text.contains("JoinEmbeddings(on p1, p3)"), "{text}");
    }

    #[test]
    fn forced_binary_triangle_closes_with_a_two_variable_join() {
        let (query, plan) = plan_with_mode(TRIANGLE, PlanMode::ForceBinary);
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        edges.sort_unstable();
        assert_eq!(edges, vec![0, 1, 2]);
        let text = plan.root.explain(&query).to_text();
        assert!(!text.contains("wco intersect"), "{text}");
        assert!(
            text.contains("JoinEmbeddings(on p1, p3)")
                || text.contains("JoinEmbeddings(on p3, p1)"),
            "{text}"
        );
    }

    #[test]
    fn wco_estimate_beats_binary_on_the_triangle() {
        let (_, wco) = plan_with_mode(TRIANGLE, PlanMode::ForceWco);
        let (_, binary) = plan_with_mode(TRIANGLE, PlanMode::ForceBinary);
        assert!(
            wco.root.estimated_cardinality < binary.root.estimated_cardinality,
            "wco {} vs binary {}",
            wco.root.estimated_cardinality,
            binary.root.estimated_cardinality
        );
    }

    #[test]
    fn four_clique_intersects_three_edges_at_once() {
        let (query, plan) = plan_with_mode(
            "MATCH (a:Person)-[:knows]->(b:Person), (a)-[:knows]->(c:Person), \
                   (a)-[:knows]->(d:Person), (b)-[:knows]->(c), \
                   (b)-[:knows]->(d), (c)-[:knows]->(d) RETURN *",
            PlanMode::ForceWco,
        );
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        edges.sort_unstable();
        assert_eq!(edges, (0..6).collect::<Vec<_>>());
        let text = plan.root.explain(&query).to_text();
        // The last vertex is bound by intersecting all three of its edges.
        assert!(
            text.lines()
                .any(|l| l.contains("wco intersect") && l.matches('∩').count() == 2),
            "{text}"
        );
    }

    #[test]
    fn forced_wco_falls_back_to_binary_on_acyclic_queries() {
        let (query, plan) = plan_with_mode(
            "MATCH (p:Person)-[s:studyAt]->(u:University) RETURN *",
            PlanMode::ForceWco,
        );
        let text = plan.root.explain(&query).to_text();
        assert!(!text.contains("wco intersect"), "{text}");
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        assert_eq!(edges, vec![0]);
    }

    #[test]
    fn undirected_cycle_is_wco_eligible() {
        let (query, plan) = plan_with_mode(
            "MATCH (a:Person)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), \
                   (a)-[:knows]-(c) RETURN *",
            PlanMode::ForceWco,
        );
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("wco intersect"), "{text}");
        let mut edges = Vec::new();
        collect_edges(&plan.root, &mut edges);
        edges.sort_unstable();
        assert_eq!(edges, vec![0, 1, 2]);
    }

    #[test]
    fn cross_filter_is_placed_once_variables_bound() {
        let (query, plan) = plan(
            "MATCH (p1:Person)-[:knows]->(p2:Person) \
             WHERE p1.gender <> p2.gender RETURN *",
        );
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("FilterEmbeddings"), "{text}");
    }

    #[test]
    fn disconnected_query_uses_cartesian() {
        let (query, plan) = plan("MATCH (a:Person), (b:University) RETURN *");
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("CartesianProduct"), "{text}");
    }

    #[test]
    fn variable_length_edge_becomes_expand() {
        let (query, plan) = plan("MATCH (a:Person)-[e:knows*1..3]->(b:Person) RETURN *");
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("ExpandEmbeddings(e *1..3)"), "{text}");
        // The target side is joined afterwards.
        assert!(text.contains("JoinEmbeddings(on b)"), "{text}");
    }

    #[test]
    fn cross_component_equality_becomes_value_join() {
        let (query, plan) = plan("MATCH (a:Person), (b:University) WHERE a.name = b.name RETURN *");
        let text = plan.root.explain(&query).to_text();
        assert!(
            text.contains("ValueJoinEmbeddings(a.name = b.name)")
                || text.contains("ValueJoinEmbeddings(b.name = a.name)"),
            "{text}"
        );
        assert!(!text.contains("CartesianProduct"), "{text}");
        // The clause is consumed by the join — no residual filter.
        assert!(!text.contains("FilterEmbeddings"), "{text}");
    }

    #[test]
    fn non_equality_cross_clause_keeps_cartesian() {
        let (query, plan) = plan("MATCH (a:Person), (b:University) WHERE a.name < b.name RETURN *");
        let text = plan.root.explain(&query).to_text();
        assert!(text.contains("CartesianProduct"), "{text}");
        assert!(text.contains("FilterEmbeddings"), "{text}");
    }

    #[test]
    fn trivial_vertices_are_not_scanned() {
        let (query, plan) = plan("MATCH (a)-[e:knows]->(b) RETURN count(*)");
        let text = plan.root.explain(&query).to_text();
        assert!(!text.contains("ScanVertices"), "{text}");
        assert!(text.contains("ScanEdges(e:knows)"), "{text}");
    }

    /// `stats()` plus `Message` vertices created by persons, a
    /// `Person.firstName` an equality selects 1/100 of and a
    /// `Message.content` it selects 1/38 of.
    fn creator_stats() -> GraphStatistics {
        let mut stats = stats();
        stats
            .vertex_count_by_label
            .insert(Label::new("Message"), 380);
        stats
            .edge_count_by_label
            .insert(Label::new("hasCreator"), 380);
        stats
            .distinct_source_by_label
            .insert(Label::new("hasCreator"), 380);
        stats
            .distinct_target_by_label
            .insert(Label::new("hasCreator"), 300);
        stats
            .distinct_vertex_property_values
            .insert((Label::new("Person"), "firstName".to_string()), 100);
        stats
            .distinct_vertex_property_values
            .insert((Label::new("Message"), "content".to_string()), 38);
        stats
    }

    fn plan_creators(text: &str, mode: PlanMode) -> (QueryGraph, QueryPlan) {
        let query = QueryGraph::from_query(&parse(text).unwrap()).unwrap();
        let stats = creator_stats();
        let plan = plan_query_with_mode(&query, &Estimator::new(&stats), mode).expect("plan");
        (query, plan)
    }

    /// The operators of a plan tree in pre-order: with each operator's
    /// arity fixed, the tree's shape.
    fn pre_order(node: &PlanNode) -> Vec<PlanOperator> {
        let mut operators = vec![node.operator.clone()];
        for input in &node.inputs {
            operators.extend(pre_order(input));
        }
        operators
    }

    fn join(variable: &str) -> PlanOperator {
        PlanOperator::Join {
            variables: vec![variable.to_string()],
        }
    }

    /// A greedy round as `(chosen, estimate, [(candidate, estimate)])`.
    type Round = (String, f64, Vec<(String, f64)>);

    /// Every greedy round, estimates exact.
    fn rounds(plan: &QueryPlan) -> Vec<Round> {
        plan.planner
            .rounds
            .iter()
            .map(|round| {
                let candidates = round
                    .candidates
                    .iter()
                    .map(|c| (c.edge_variable.clone(), c.estimated_cardinality))
                    .collect();
                (
                    round.chosen_edge.clone(),
                    round.chosen_cardinality,
                    candidates,
                )
            })
            .collect()
    }

    const SELECTIVE_CREATOR: &str = "MATCH (p:Person)<-[:hasCreator]-(m:Message) \
                                     WHERE p.firstName = 'Jan' RETURN *";

    #[test]
    fn edge_joins_its_selective_endpoint_first() {
        // `m ⋈ hasCreator` estimates 380 rows, `p ⋈ hasCreator` 7.6: the
        // scan joins the six `Jan`s (its target) before the messages.
        for mode in [
            PlanMode::CostBased,
            PlanMode::ForceBinary,
            PlanMode::ForceWco,
        ] {
            let (query, plan) = plan_creators(SELECTIVE_CREATOR, mode);
            let (p, m) = (0, 1);
            let expected = [
                join("m"),
                PlanOperator::ScanVertices { vertex: m },
                join("p"),
                PlanOperator::ScanVertices { vertex: p },
                PlanOperator::ScanEdges { edge: 0 },
            ];
            assert_eq!(
                pre_order(&plan.root),
                expected,
                "{mode:?}\n{}",
                plan.root.explain(&query).to_text()
            );
        }
    }

    #[test]
    fn equally_cheap_endpoints_keep_source_first() {
        // Both `Person` scans estimate 600 and either join 3 000 rows.
        let (query, plan) = plan("MATCH (a:Person)-[e:knows]->(b:Person) RETURN *");
        let expected = [
            join("b"),
            PlanOperator::ScanVertices { vertex: 1 },
            join("a"),
            PlanOperator::ScanVertices { vertex: 0 },
            PlanOperator::ScanEdges { edge: 0 },
        ];
        assert_eq!(
            pre_order(&plan.root),
            expected,
            "{}",
            plan.root.explain(&query).to_text()
        );
    }

    #[test]
    fn reordering_keeps_the_source_first_estimates() {
        // Pinned from the source-first planner: the root estimate and every
        // round's menu are what they were before the order could change.
        let (query, both) = plan_creators(
            "MATCH (p:Person)<-[:hasCreator]-(m:Message) \
             WHERE p.firstName = 'Jan' AND m.content = 'x' RETURN *",
            PlanMode::CostBased,
        );
        // Source-first, `m ⋈ hasCreator` (10) then `⋈ p` estimates 6;
        // target-first, `p ⋈ hasCreator` (7.6) then `⋈ m` would be 7.6.
        let source_first = 6.000000000000005;
        assert_eq!(both.root.estimated_cardinality, source_first);
        assert_eq!(
            rounds(&both),
            vec![(
                "__e0".to_string(),
                source_first,
                vec![("__e0".to_string(), source_first)]
            )]
        );
        // The tree is built target-first: the root keeps the source-first
        // estimate, the inner join carries its own.
        assert_eq!(both.root.operator, join("m"));
        assert_eq!(both.root.inputs[1].label(&query), "JoinEmbeddings(on p)");
        assert_eq!(both.root.inputs[1].estimated_cardinality, 7.600000000000006);

        let (_, cyclic) = plan_creators(
            "MATCH (p1:Person)-[:knows]->(p2:Person), (p2)<-[:hasCreator]-(m:Message), \
                   (m)-[:hasCreator]->(p1) WHERE p1.firstName = 'Jan' RETURN *",
            PlanMode::ForceBinary,
        );
        let round = |chosen: &str, estimate: f64, menu: &[(&str, f64)]| {
            let menu = menu.iter().map(|(e, c)| (e.to_string(), *c)).collect();
            (chosen.to_string(), estimate, menu)
        };
        assert_eq!(cyclic.root.estimated_cardinality, 0.08290909090909097);
        assert_eq!(
            rounds(&cyclic),
            vec![
                round(
                    "__e2",
                    7.600000000000006,
                    &[
                        ("__e0", 36.00000000000003),
                        ("__e1", 380.0),
                        ("__e2", 7.600000000000006)
                    ]
                ),
                round(
                    "__e1",
                    7.600000000000006,
                    &[("__e0", 45.60000000000004), ("__e1", 7.600000000000006)]
                ),
                round(
                    "__e0",
                    0.08290909090909097,
                    &[("__e0", 0.08290909090909097)]
                ),
            ]
        );
    }

    #[test]
    fn path_growth_is_the_per_hop_sum_in_closed_form() {
        for fanout in [0.001f64, 0.3, 0.9, 1.0, 1.5, 2.0, 7.25] {
            for lower in 0..4usize {
                for upper in lower..lower + 12 {
                    let summed: f64 = (lower..=upper).map(|k| fanout.powi(k as i32)).sum();
                    let closed = path_growth(fanout, lower, upper);
                    let error = ((closed - summed) / summed).abs();
                    assert!(
                        error <= 1e-12,
                        "{fanout} {lower}..{upper}: {closed} vs {summed}"
                    );
                }
            }
        }
        assert_eq!(path_growth(2.0, 3, 2), 0.0);
        assert_eq!(path_growth(1.0, 5, 2), 0.0);
    }

    #[test]
    fn path_growth_overflows_to_infinity_instead_of_wrapping() {
        // `k as i32` wrapped 2^31 to i32::MIN: 2^-2147483648 summed to 0.
        assert_eq!(path_growth(2.0, 1 << 31, 1 << 31), f64::INFINITY);
        assert_eq!(path_growth(2.0, 1, usize::MAX), f64::INFINITY);
        assert_eq!(path_growth(1.0, 1, 1 << 40), (1u64 << 40) as f64);
        assert!(path_growth(0.5, 1, usize::MAX) <= 1.0);
    }
}

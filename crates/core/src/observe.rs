//! EXPLAIN / PROFILE: the engine's observability layer.
//!
//! The paper's whole evaluation (Section 4) rests on observing the engine —
//! per-query runtimes, intermediate-result cardinalities per operator
//! (Table 3), and shuffle behaviour across worker counts. This module holds
//! the data model for that:
//!
//! * [`ExplainNode`] — the annotated plan tree produced by the planner:
//!   one node per plan operator with its estimated cardinality and, for
//!   joins, the join strategy predicted from the estimates;
//! * [`PlannerTrace`] — the greedy planner's decision log: per round, every
//!   candidate edge with its estimated intermediate-result size and which
//!   one was committed;
//! * [`ProfileNode`] — the same tree after execution, annotated with actual
//!   rows in/out, selectivity, embedding bytes, simulated and wall-clock
//!   seconds, the join strategy actually chosen, per-iteration counters of
//!   variable-length expansion, and the estimate-vs-actual q-error;
//! * [`Explain`] / [`Profile`] — the top-level documents returned by
//!   [`CypherEngine::explain`](crate::CypherEngine::explain) and
//!   [`CypherEngine::profile`](crate::CypherEngine::profile), rendered as
//!   pretty text.
//!
//! Every stage total — per operator and per run — is an
//! [`ExecutionMetrics`] built by [`ExecutionMetrics::record`], the one fold
//! over [`StageReport`]s.

use gradoop_dataflow::{ExecutionMetrics, JoinStrategy, StageReport};

/// Stable lower-case name of a join strategy, used in text output.
pub fn strategy_name(strategy: JoinStrategy) -> &'static str {
    match strategy {
        JoinStrategy::RepartitionHash => "repartition-hash",
        JoinStrategy::BroadcastHashFirst => "broadcast-hash-first",
        JoinStrategy::BroadcastHashSecond => "broadcast-hash-second",
    }
}

/// How one input of a join is shipped to the workers that join it — the
/// simulated analogue of Flink's ship strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipStrategy {
    /// The input is already partitioned on the join key: it stays in place
    /// and no network traffic is charged for it.
    Forward,
    /// The input is hash-repartitioned by the join key.
    Shuffle,
    /// The input is replicated to every worker.
    Broadcast,
}

/// Stable lower-case name of a ship strategy, used in text output.
pub fn ship_name(ship: ShipStrategy) -> &'static str {
    match ship {
        ShipStrategy::Forward => "forward",
        ShipStrategy::Shuffle => "shuffle",
        ShipStrategy::Broadcast => "broadcast",
    }
}

/// The `[left, right]` ship strategies a join strategy implies, given which
/// inputs are known to be partitioned on the join key already. Used by the
/// planner (with *expected* partitioning) and the executor (with the actual
/// run-time placement facts), so EXPLAIN and PROFILE show which shuffles
/// are elided.
pub fn ship_strategies(
    strategy: JoinStrategy,
    left_partitioned: bool,
    right_partitioned: bool,
) -> [ShipStrategy; 2] {
    let repartition = |partitioned: bool| {
        if partitioned {
            ShipStrategy::Forward
        } else {
            ShipStrategy::Shuffle
        }
    };
    match strategy {
        JoinStrategy::RepartitionHash => [
            repartition(left_partitioned),
            repartition(right_partitioned),
        ],
        JoinStrategy::BroadcastHashFirst => [ShipStrategy::Broadcast, ShipStrategy::Forward],
        JoinStrategy::BroadcastHashSecond => [ShipStrategy::Forward, ShipStrategy::Broadcast],
    }
}

/// Renders a `[left, right]` ship-strategy pair as `forward,shuffle`.
pub fn ship_pair_name(pair: [ShipStrategy; 2]) -> String {
    format!("{},{}", ship_name(pair[0]), ship_name(pair[1]))
}

/// Ceiling for [`q_error`]: estimates that are non-finite (NaN, ±∞) or
/// astronomically wrong report this sentinel instead of propagating `inf`
/// or `NaN` into PROFILE text and the query log (whose JSON renders
/// non-finite numbers as `null`, breaking downstream consumers).
pub const Q_ERROR_CAP: f64 = 1.0e12;

/// The estimate-vs-actual q-error: `max(est/act, act/est)`, with both sides
/// clamped to 1 so empty results do not divide by zero. 1.0 is a perfect
/// estimate; 10 means one order of magnitude off in either direction.
/// Non-finite estimates (and ratios beyond [`Q_ERROR_CAP`]) are clamped to
/// the cap, so the result is always a finite value in `[1, Q_ERROR_CAP]`.
pub fn q_error(estimated: f64, actual: u64) -> f64 {
    if !estimated.is_finite() {
        return Q_ERROR_CAP;
    }
    let estimated = estimated.max(1.0);
    let actual = (actual as f64).max(1.0);
    (estimated / actual)
        .max(actual / estimated)
        .min(Q_ERROR_CAP)
}

/// One operator of the annotated plan tree produced by the planner.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Operator label, e.g. `"ScanVertices(u:University)"`.
    pub operator: String,
    /// Estimated result cardinality of this operator.
    pub estimated_cardinality: f64,
    /// For joins and value joins: the strategy predicted from the estimated
    /// input cardinalities (the choice `choose_join_strategy` will make if
    /// the estimates are accurate).
    pub estimated_strategy: Option<JoinStrategy>,
    /// For joins: the `[left, right]` ship strategies expected from the
    /// predicted partitioning of each input — `forward` marks a shuffle the
    /// engine expects to elide.
    pub estimated_ship: Option<[ShipStrategy; 2]>,
    /// Input operators (0 for scans, 1 for expand/filter, 2 for joins).
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// A leaf node.
    pub fn leaf(operator: impl Into<String>, estimated_cardinality: f64) -> Self {
        ExplainNode {
            operator: operator.into(),
            estimated_cardinality,
            estimated_strategy: None,
            estimated_ship: None,
            children: Vec::new(),
        }
    }

    /// An inner node over the given inputs.
    pub fn inner(
        operator: impl Into<String>,
        estimated_cardinality: f64,
        children: Vec<ExplainNode>,
    ) -> Self {
        ExplainNode {
            operator: operator.into(),
            estimated_cardinality,
            estimated_strategy: None,
            estimated_ship: None,
            children,
        }
    }

    /// Renders the subtree as indented text, one operator per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(0, &mut out);
        out
    }

    fn write_text(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.operator);
        out.push_str(&format!("  est={:.0}", self.estimated_cardinality));
        if let Some(strategy) = self.estimated_strategy {
            out.push_str(&format!("  strategy={}", strategy_name(strategy)));
        }
        if let Some(ship) = self.estimated_ship {
            out.push_str(&format!("  ship={}", ship_pair_name(ship)));
        }
        out.push('\n');
        for child in &self.children {
            child.write_text(depth + 1, out);
        }
    }

    /// The subtree's nodes in pre-order: a node before its children,
    /// children left to right.
    pub fn pre_order(&self) -> impl Iterator<Item = &ExplainNode> {
        pre_order(self, |node| &node.children)
    }
}

/// Pre-order walk of a plan tree, without recursion.
fn pre_order<T>(root: &T, children: fn(&T) -> &[T]) -> impl Iterator<Item = &T> {
    let mut stack = vec![root];
    std::iter::from_fn(move || {
        let node = stack.pop()?;
        stack.extend(children(node).iter().rev());
        Some(node)
    })
}

/// One candidate the greedy planner evaluated in a planning round.
#[derive(Debug, Clone)]
pub struct PlannerCandidate {
    /// Variable of the query edge the candidate would cover.
    pub edge_variable: String,
    /// Estimated intermediate-result size after committing this candidate.
    pub estimated_cardinality: f64,
}

/// One round of the greedy loop: every candidate considered, and the one
/// committed (always the minimum-cardinality candidate).
#[derive(Debug, Clone)]
pub struct PlannerRound {
    /// All evaluated alternatives.
    pub candidates: Vec<PlannerCandidate>,
    /// Edge variable of the committed candidate.
    pub chosen_edge: String,
    /// Estimated cardinality of the committed candidate.
    pub chosen_cardinality: f64,
}

/// The planner's full decision log.
#[derive(Debug, Clone, Default)]
pub struct PlannerTrace {
    /// Rounds of the greedy loop, in order.
    pub rounds: Vec<PlannerRound>,
}

impl PlannerTrace {
    /// Renders the decision log as text, one round per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (index, round) in self.rounds.iter().enumerate() {
            let alternatives: Vec<String> = round
                .candidates
                .iter()
                .map(|c| format!("{}≈{:.0}", c.edge_variable, c.estimated_cardinality))
                .collect();
            out.push_str(&format!(
                "round {}: chose {} (est {:.0}) from [{}]\n",
                index + 1,
                round.chosen_edge,
                round.chosen_cardinality,
                alternatives.join(", ")
            ));
        }
        out
    }
}

/// The EXPLAIN document: annotated plan tree plus planner decision log.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query text.
    pub query: String,
    /// Root of the annotated plan tree.
    pub root: ExplainNode,
    /// The planner's decision log.
    pub planner: PlannerTrace,
    /// Estimated result cardinality of the whole query.
    pub estimated_cardinality: f64,
}

impl Explain {
    /// Pretty multi-line rendering: plan tree followed by planner rounds.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("EXPLAIN {}\n", self.query));
        out.push_str(&self.root.to_text());
        out.push_str(&format!(
            "estimated cardinality: {:.0}\n",
            self.estimated_cardinality
        ));
        if !self.planner.rounds.is_empty() {
            out.push_str("planner decisions:\n");
            out.push_str(&self.planner.to_text());
        }
        out
    }

    /// All join strategies reported in the plan, pre-order.
    pub fn join_strategies(&self) -> Vec<(String, JoinStrategy)> {
        self.root
            .pre_order()
            .filter_map(|node| node.estimated_strategy.map(|s| (node.operator.clone(), s)))
            .collect()
    }
}

/// Per-iteration counters of one variable-length expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandIteration {
    /// Iteration number `k` (path length reached), 1-based.
    pub iteration: u64,
    /// Size of the working set after the k-hop extension.
    pub frontier_rows: u64,
    /// Embeddings emitted to the result in this iteration.
    pub emitted_rows: u64,
    /// Network bytes moved shipping the working set this iteration.
    pub shuffled_bytes: u64,
    /// Network bytes moved shipping the candidate edges this iteration.
    /// The candidate index is loop-invariant, so this is non-zero only in
    /// iteration 1.
    pub candidate_shuffled_bytes: u64,
}

/// `rows_out / rows_in`, reading an empty input as selectivity 1.
pub(crate) fn selectivity(rows_in: u64, rows_out: u64) -> f64 {
    if rows_in > 0 {
        rows_out as f64 / rows_in as f64
    } else {
        1.0
    }
}

/// One operator of the profiled plan tree: the [`ExplainNode`] annotations
/// plus everything measured during execution.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Operator label (same format as [`ExplainNode::operator`]).
    pub operator: String,
    /// Estimated result cardinality (from the planner).
    pub estimated_cardinality: f64,
    /// Join strategy predicted from estimates, if this is a join.
    pub estimated_strategy: Option<JoinStrategy>,
    /// Join strategy actually chosen at runtime, if this is a join.
    pub actual_strategy: Option<JoinStrategy>,
    /// For joins: the `[left, right]` ship strategies actually applied,
    /// derived from the runtime partitioning facts of the inputs —
    /// `forward` marks a shuffle that was elided.
    pub actual_ship: Option<[ShipStrategy; 2]>,
    /// Rows consumed: scanned candidate elements for leaves, the children's
    /// output rows otherwise.
    pub rows_in: u64,
    /// Result embeddings produced.
    pub rows_out: u64,
    /// `rows_out / rows_in` (1.0 for empty inputs).
    pub selectivity: f64,
    /// Total bytes of the produced embeddings.
    pub embedding_bytes: u64,
    /// Wall-clock seconds spent in this operator (children excluded).
    pub wall_seconds: f64,
    /// Estimate-vs-actual q-error (see [`q_error`]).
    pub estimate_error: f64,
    /// Totals of the dataflow stages this operator executed (children
    /// excluded): simulated seconds, stage count, recovery, checkpoint and
    /// restore bytes, the per-worker memory peak and scratch allocations.
    /// A clause pipeline's `pipeline` root holds the whole run's instead.
    pub metrics: ExecutionMetrics,
    /// Per-iteration counters (variable-length expansion only).
    pub iterations: Vec<ExpandIteration>,
    /// Adjacency candidate-list entries fetched by worst-case-optimal
    /// intersection (`ExpandIntersect` only) — the rows a binary plan would
    /// have materialized as open-path intermediates.
    pub rows_intersected: u64,
    /// Profiled inputs.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// The flat profile leaf of one dataflow stage no plan operator claimed
    /// (the projection, aggregation and join stages of a clause pipeline).
    pub(crate) fn of_stage(report: &StageReport) -> ProfileNode {
        let mut node = ProfileNode {
            operator: report.name.clone(),
            estimated_cardinality: report.records_out as f64,
            rows_in: report.records_in,
            rows_out: report.records_out,
            selectivity: selectivity(report.records_in, report.records_out),
            estimate_error: 1.0,
            ..ProfileNode::default()
        };
        node.metrics.record(report);
        node
    }

    /// The subtree's nodes in pre-order: a node before its children,
    /// children left to right.
    pub fn pre_order(&self) -> impl Iterator<Item = &ProfileNode> {
        pre_order(self, |node| &node.children)
    }

    /// Renders the subtree as indented text, one operator per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(0, &mut out);
        out
    }

    fn write_text(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.operator);
        out.push_str(&format!(
            "  in={} out={} sel={:.3} est={:.0} q_err={:.1} bytes={} t_sim={:.4}s t_wall={:.4}s",
            self.rows_in,
            self.rows_out,
            self.selectivity,
            self.estimated_cardinality,
            self.estimate_error,
            self.embedding_bytes,
            self.metrics.simulated_seconds,
            self.wall_seconds,
        ));
        if let Some(strategy) = self.actual_strategy {
            out.push_str(&format!("  strategy={}", strategy_name(strategy)));
        }
        if let Some(ship) = self.actual_ship {
            out.push_str(&format!("  ship={}", ship_pair_name(ship)));
        }
        let metrics = &self.metrics;
        if metrics.peak_memory_bytes > 0 || metrics.scratch_allocations > 0 {
            out.push_str(&format!(
                "  mem_peak={}B allocs={}",
                metrics.peak_memory_bytes, metrics.scratch_allocations
            ));
        }
        if self.rows_intersected > 0 {
            out.push_str(&format!("  wco: intersected={}", self.rows_intersected));
        }
        if recovered(metrics) {
            out.push_str(&format!(
                "  retries={} t_recovery={:.4}s ckpt={}B restored={}B",
                metrics.recovery_attempts,
                metrics.recovery_seconds,
                metrics.checkpoint_bytes,
                metrics.restored_bytes,
            ));
        }
        out.push('\n');
        for iteration in &self.iterations {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!(
                "· iteration {}: frontier={} emitted={} shuffled={}B candidates={}B\n",
                iteration.iteration,
                iteration.frontier_rows,
                iteration.emitted_rows,
                iteration.shuffled_bytes,
                iteration.candidate_shuffled_bytes
            ));
        }
        for child in &self.children {
            child.write_text(depth + 1, out);
        }
    }

    /// Pre-order flattening to `(operator, rows_out)` — the Table 3
    /// "intermediate result count per operator" view.
    pub fn operator_rows(&self) -> Vec<(String, u64)> {
        self.pre_order()
            .map(|node| (node.operator.clone(), node.rows_out))
            .collect()
    }

    /// Sum of `rows_out` over all non-root operators — the paper's
    /// "intermediate results" measure (Table 3).
    pub fn intermediate_rows(&self) -> u64 {
        self.pre_order().skip(1).map(|node| node.rows_out).sum()
    }
}

/// True when stages retried, checkpointed or restored: only then do PROFILE
/// lines carry recovery counters.
fn recovered(metrics: &ExecutionMetrics) -> bool {
    metrics.recovery_attempts > 0 || metrics.checkpoint_bytes > 0 || metrics.restored_bytes > 0
}

/// The PROFILE document: profiled plan tree, planner log and query totals.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The query text.
    pub query: String,
    /// Root of the profiled plan tree.
    pub root: ProfileNode,
    /// The planner's decision log.
    pub planner: PlannerTrace,
    /// Final match count: a plain text's embeddings, or a clause
    /// pipeline's result rows (after `DISTINCT`, aggregation and paging).
    pub matches: u64,
    /// Total wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Totals of the stages this run submitted: simulated seconds,
    /// recovery, checkpoint and restore bytes, the run's own per-worker
    /// memory peak and scratch allocations.
    pub metrics: ExecutionMetrics,
}

impl Profile {
    /// Pretty multi-line rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("PROFILE {}\n", self.query));
        out.push_str(&self.root.to_text());
        let metrics = &self.metrics;
        out.push_str(&format!(
            "matches: {}   simulated: {:.4}s   wall: {:.4}s\n",
            self.matches, metrics.simulated_seconds, self.wall_seconds
        ));
        if metrics.peak_memory_bytes > 0 || metrics.scratch_allocations > 0 {
            out.push_str(&format!(
                "memory: peak={}B   scratch allocations={}\n",
                metrics.peak_memory_bytes, metrics.scratch_allocations
            ));
        }
        if recovered(metrics) {
            out.push_str(&format!(
                "recovery: attempts={}   simulated: {:.4}s   checkpoints: {}B   restored: {}B\n",
                metrics.recovery_attempts,
                metrics.recovery_seconds,
                metrics.checkpoint_bytes,
                metrics.restored_bytes,
            ));
        }
        if !self.planner.rounds.is_empty() {
            out.push_str("planner decisions:\n");
            out.push_str(&self.planner.to_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ship_strategies_follow_partitioning() {
        use JoinStrategy::*;
        // Repartition joins forward any side already placed on the key.
        assert_eq!(
            ship_strategies(RepartitionHash, false, false),
            [ShipStrategy::Shuffle, ShipStrategy::Shuffle]
        );
        assert_eq!(
            ship_strategies(RepartitionHash, true, false),
            [ShipStrategy::Forward, ShipStrategy::Shuffle]
        );
        assert_eq!(
            ship_strategies(RepartitionHash, true, true),
            [ShipStrategy::Forward, ShipStrategy::Forward]
        );
        // Broadcast replicates the build side; the other side never moves,
        // regardless of partitioning.
        assert_eq!(
            ship_strategies(BroadcastHashFirst, false, true),
            [ShipStrategy::Broadcast, ShipStrategy::Forward]
        );
        assert_eq!(
            ship_strategies(BroadcastHashSecond, true, false),
            [ShipStrategy::Forward, ShipStrategy::Broadcast]
        );
        assert_eq!(
            ship_pair_name(ship_strategies(RepartitionHash, true, false)),
            "forward,shuffle"
        );
    }

    fn sample_profile() -> Profile {
        let scan = ProfileNode {
            operator: "ScanEdges(e:knows)".into(),
            estimated_cardinality: 10.0,
            estimated_strategy: None,
            actual_strategy: None,
            actual_ship: None,
            rows_in: 5,
            rows_out: 3,
            selectivity: 0.6,
            embedding_bytes: 96,
            wall_seconds: 0.001,
            estimate_error: q_error(10.0, 3),
            metrics: ExecutionMetrics {
                simulated_seconds: 0.5,
                stages: 2,
                ..ExecutionMetrics::default()
            },
            iterations: vec![],
            rows_intersected: 0,
            children: vec![],
        };
        let expand = ProfileNode {
            operator: "ExpandEmbeddings(e *1..2)".into(),
            estimated_cardinality: 4.0,
            estimated_strategy: Some(JoinStrategy::RepartitionHash),
            actual_strategy: Some(JoinStrategy::RepartitionHash),
            actual_ship: Some([ShipStrategy::Shuffle, ShipStrategy::Forward]),
            rows_in: 3,
            rows_out: 4,
            selectivity: 4.0 / 3.0,
            embedding_bytes: 128,
            wall_seconds: 0.002,
            estimate_error: q_error(4.0, 4),
            metrics: recovered_metrics(1.25, 5),
            iterations: vec![
                ExpandIteration {
                    iteration: 1,
                    frontier_rows: 3,
                    emitted_rows: 3,
                    shuffled_bytes: 96,
                    candidate_shuffled_bytes: 72,
                },
                ExpandIteration {
                    iteration: 2,
                    frontier_rows: 1,
                    emitted_rows: 1,
                    shuffled_bytes: 32,
                    candidate_shuffled_bytes: 0,
                },
            ],
            rows_intersected: 0,
            children: vec![scan],
        };
        Profile {
            query: "MATCH (a)-[e:knows*1..2]->(b) RETURN *".into(),
            root: expand,
            planner: PlannerTrace {
                rounds: vec![PlannerRound {
                    candidates: vec![PlannerCandidate {
                        edge_variable: "e".into(),
                        estimated_cardinality: 4.0,
                    }],
                    chosen_edge: "e".into(),
                    chosen_cardinality: 4.0,
                }],
            },
            matches: 4,
            wall_seconds: 0.003,
            metrics: recovered_metrics(1.75, 7),
        }
    }

    /// Totals of stages that retried once, checkpointed and restored.
    fn recovered_metrics(simulated_seconds: f64, stages: u64) -> ExecutionMetrics {
        ExecutionMetrics {
            simulated_seconds,
            stages,
            recovery_attempts: 1,
            recovery_seconds: 0.25,
            checkpoint_bytes: 128,
            restored_bytes: 64,
            peak_memory_bytes: 2048,
            scratch_allocations: 3,
            ..ExecutionMetrics::default()
        }
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(100.0, 10), 10.0);
        assert_eq!(q_error(10.0, 100), 10.0);
        // Empty actuals clamp to 1 instead of dividing by zero.
        assert_eq!(q_error(5.0, 0), 5.0);
        assert_eq!(q_error(0.0, 0), 1.0);
        // Negative estimates clamp to 1, never flipping the ratio's sign.
        assert_eq!(q_error(-12.0, 5), 5.0);
    }

    #[test]
    fn q_error_never_emits_non_finite_values() {
        // A runaway (or overflowed) estimate caps at the sentinel instead
        // of rendering as `inf` (→ `null` in JSON).
        assert_eq!(q_error(f64::INFINITY, 3), Q_ERROR_CAP);
        assert_eq!(q_error(f64::NEG_INFINITY, 3), Q_ERROR_CAP);
        assert_eq!(q_error(f64::NAN, 3), Q_ERROR_CAP);
        assert_eq!(q_error(1.0e300, 1), Q_ERROR_CAP);
        for value in [
            q_error(f64::INFINITY, 0),
            q_error(f64::NAN, u64::MAX),
            q_error(f64::MAX, 1),
        ] {
            assert!(value.is_finite());
            assert!((1.0..=Q_ERROR_CAP).contains(&value));
        }
    }

    #[test]
    fn explain_text_and_join_strategies_render() {
        let explain = Explain {
            query: "MATCH (a)-[e]->(b) RETURN *".into(),
            root: ExplainNode {
                operator: "JoinEmbeddings(on a)".into(),
                estimated_cardinality: 42.0,
                estimated_strategy: Some(JoinStrategy::BroadcastHashSecond),
                estimated_ship: Some([ShipStrategy::Forward, ShipStrategy::Broadcast]),
                children: vec![
                    ExplainNode::leaf("ScanVertices(a)", 100.0),
                    ExplainNode::leaf("ScanEdges(e)", 5.0),
                ],
            },
            planner: PlannerTrace::default(),
            estimated_cardinality: 42.0,
        };
        let text = explain.to_text();
        assert!(text.contains("JoinEmbeddings(on a)"));
        assert!(text.contains("strategy=broadcast-hash-second"));
        assert!(text.contains("ship=forward,broadcast"), "{text}");
        assert!(text.contains("  ScanVertices(a)"));
        assert_eq!(
            explain.join_strategies(),
            vec![(
                "JoinEmbeddings(on a)".to_string(),
                JoinStrategy::BroadcastHashSecond
            )]
        );
    }

    #[test]
    fn operator_rows_flattens_preorder() {
        let profile = sample_profile();
        assert_eq!(
            profile.root.operator_rows(),
            vec![
                ("ExpandEmbeddings(e *1..2)".to_string(), 4),
                ("ScanEdges(e:knows)".to_string(), 3),
            ]
        );
        assert_eq!(profile.root.intermediate_rows(), 3);
        assert_eq!(
            profile
                .root
                .pre_order()
                .map(|node| node.iterations.len())
                .collect::<Vec<_>>(),
            vec![2, 0]
        );
    }

    #[test]
    fn explain_pre_order_visits_children_left_to_right() {
        let leaf = |name: &str| ExplainNode::leaf(name, 1.0);
        let root = ExplainNode::inner(
            "JoinEmbeddings(on b)",
            1.0,
            vec![
                ExplainNode::inner("JoinEmbeddings(on a)", 1.0, vec![leaf("A"), leaf("B")]),
                leaf("C"),
            ],
        );
        let order: Vec<&str> = root.pre_order().map(|n| n.operator.as_str()).collect();
        assert_eq!(
            order,
            [
                "JoinEmbeddings(on b)",
                "JoinEmbeddings(on a)",
                "A",
                "B",
                "C"
            ]
        );
    }

    #[test]
    fn profile_text_includes_iterations() {
        let text = sample_profile().to_text();
        assert!(
            text.contains("iteration 1: frontier=3 emitted=3 shuffled=96B candidates=72B"),
            "{text}"
        );
        assert!(text.contains("ship=shuffle,forward"), "{text}");
        assert!(text.contains("q_err="), "{text}");
        assert!(text.contains("planner decisions:"), "{text}");
        assert!(
            text.contains("retries=1 t_recovery=0.2500s ckpt=128B restored=64B"),
            "{text}"
        );
        assert!(
            text.contains("recovery: attempts=1   simulated: 0.2500s"),
            "{text}"
        );
        assert!(text.contains("mem_peak=2048B allocs=3"), "{text}");
        assert!(
            text.contains("memory: peak=2048B   scratch allocations=3"),
            "{text}"
        );
    }
}

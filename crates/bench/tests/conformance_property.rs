//! Pinned-seed conformance properties for the multi-clause read surface.
//!
//! Two layers of defence: a deterministic fuzzing campaign that must
//! exercise every clause production (`WITH`, `OPTIONAL MATCH`,
//! aggregation, `ORDER BY`/`SKIP`/`LIMIT`, `UNWIND`) and finish without a
//! single engine-vs-reference divergence, plus hand-pinned corner cases
//! for the semantics that are easiest to get wrong — NULL padding on
//! outer joins, the one-row global aggregate over an empty match,
//! `UNWIND` of NULL elements and empty lists, and `LIMIT 0`.

use std::collections::HashMap;

use gradoop_bench::fuzz::{
    random_case, random_cyclic_query, random_graph, run_case, run_conformance, AggSpec,
    CaseOutcome, CaseSpec, Cond, Dir, EdgePat, EdgeSpec, EngineConfig, FuzzConfig, GraphSpec,
    LitSpec, NodePat, QuerySpec, Rng, TailSpec, Term, VertexSpec, MORPHISMS,
};
use gradoop_bench::harness::uniform_statistics;
use gradoop_core::{plan_query_with_mode, CypherEngine, Estimator, PlanMode, ProfileNode};
use gradoop_cypher::{parse, QueryGraph};
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{GraphStatistics, PropertyValue};

fn vertex(id: u64, label: &str, p: i32) -> VertexSpec {
    VertexSpec {
        id,
        label: label.to_string(),
        properties: vec![("p".to_string(), PropertyValue::Int(p))],
    }
}

fn edge(id: u64, label: &str, source: u64, target: u64) -> EdgeSpec {
    EdgeSpec {
        id,
        label: label.to_string(),
        source,
        target,
        properties: Vec::new(),
    }
}

/// A two-vertex graph with a single `x` edge 1 → 2.
fn pair_graph() -> GraphSpec {
    GraphSpec {
        vertices: vec![vertex(1, "A", 10), vertex(2, "A", 20)],
        edges: vec![edge(1000, "x", 1, 2)],
    }
}

/// `MATCH (n0[:label])` with the given tail.
fn single_node_case(label: &str, tail: TailSpec) -> CaseSpec {
    let labels = if label.is_empty() {
        Vec::new()
    } else {
        vec![label.to_string()]
    };
    CaseSpec {
        graph: pair_graph(),
        query: QuerySpec {
            nodes: vec![NodePat {
                variable: Some("n0".to_string()),
                labels,
                props: Vec::new(),
            }],
            edges: Vec::new(),
            where_tree: None,
            tail: Some(tail),
        },
        matching: MORPHISMS[3], // ISO/ISO, the strictest combination
        indexed: false,
        workers: 2,
    }
}

fn assert_passes(case: &CaseSpec, expected_rows: usize) {
    match run_case(case) {
        CaseOutcome::Passed {
            reference_matches, ..
        } => assert_eq!(
            reference_matches,
            expected_rows,
            "wrong row count for {}",
            case.query.render()
        ),
        other => panic!("{}: {other:?}", case.query.render()),
    }
}

/// Seed and size of the in-suite campaign.
const CAMPAIGN_SEED: u64 = 0xC0FFEE;
const CAMPAIGN_CASES: usize = 300;

#[test]
fn pinned_campaign_covers_every_clause_and_stays_clean() {
    let report = run_conformance(&FuzzConfig {
        seed: CAMPAIGN_SEED,
        cases: CAMPAIGN_CASES,
        archive: false,
    });
    assert!(report.is_clean(), "{}", report.summary());
    let f = &report.features;
    for (name, count) in [
        ("ORDER BY", f.order_by),
        ("SKIP/LIMIT", f.skip_limit),
        ("aggregate", f.aggregate),
        ("WITH+MATCH", f.with_clause),
        ("OPTIONAL MATCH", f.optional_match),
        ("UNWIND", f.unwind),
    ] {
        assert!(count > 0, "{name} never generated:\n{}", report.summary());
    }
    // The cyclic productions must make up a healthy share of the campaign
    // (~30% of draws divert to them) so every campaign pits the
    // worst-case-optimal plan against binary joins and the reference.
    assert!(
        f.cyclic >= report.cases / 10,
        "only {} of {} cases cyclic:\n{}",
        f.cyclic,
        report.cases,
        report.summary()
    );
}

/// Collects the operator directly under every `FilterEmbeddings` node.
fn filter_inputs(node: &ProfileNode, out: &mut Vec<String>) {
    if node.operator.starts_with("FilterEmbeddings") {
        out.push(node.children[0].operator.clone());
    }
    for child in &node.children {
        filter_inputs(child, out);
    }
}

#[test]
fn pinned_campaign_executes_unfused_filter_embeddings() {
    // No benchmark workload plans a `FilterEmbeddings`, and a filter over a
    // join runs inside the join kernel, so the campaign above is what keeps
    // the operator itself exercised. Replay its cases through PROFILE on
    // the planner-facing axes of the matrix and require a filter whose
    // input is an expand and one whose input is a WCO intersect.
    let mut rng = Rng::new(CAMPAIGN_SEED);
    let mut inputs = Vec::new();
    for _ in 0..CAMPAIGN_CASES {
        let case = random_case(&mut rng);
        if case.query.tail.is_some() {
            continue;
        }
        let env = ExecutionEnvironment::with_workers(case.workers);
        let graph = case.graph.build(&env);
        let text = case.query.render();
        let modes: &[PlanMode] = if case.query.is_cyclic() {
            &[PlanMode::CostBased, PlanMode::ForceWco]
        } else {
            &[PlanMode::CostBased]
        };
        let real = GraphStatistics::of(&graph);
        for statistics in [uniform_statistics(&real), real] {
            for &mode in modes {
                let engine = CypherEngine::with_statistics(statistics.clone()).with_plan_mode(mode);
                if let Ok(profile) = engine.profile(&graph, &text, &HashMap::new(), case.matching) {
                    filter_inputs(&profile.root, &mut inputs);
                }
            }
        }
    }
    for operator in ["ExpandEmbeddings", "ExpandIntersect"] {
        assert!(
            inputs.iter().any(|input| input.starts_with(operator)),
            "no executed plan filters over {operator}; filter inputs: {inputs:?}"
        );
    }
}

/// `MATCH (n0:A)-[e0:x]->(n1:A), (n1)-[e1:x]->(n2:A), (n2)-[e2:x]->(n0)`
/// as a structured spec.
fn triangle_query() -> QuerySpec {
    QuerySpec {
        nodes: (0..3)
            .map(|i| NodePat {
                variable: Some(format!("n{i}")),
                labels: vec!["A".to_string()],
                props: Vec::new(),
            })
            .collect(),
        edges: [(0usize, 1usize), (1, 2), (2, 0)]
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| EdgePat {
                variable: Some(format!("e{i}")),
                from,
                to,
                direction: Dir::Out,
                labels: vec!["x".to_string()],
                range: None,
                props: Vec::new(),
            })
            .collect(),
        where_tree: None,
        tail: None,
    }
}

/// A directed triangle 1 → 2 → 3 → 1 plus a distractor spoke 1 → 4.
fn triangle_graph() -> GraphSpec {
    GraphSpec {
        vertices: vec![
            vertex(1, "A", 10),
            vertex(2, "A", 20),
            vertex(3, "A", 30),
            vertex(4, "B", 40),
        ],
        edges: vec![
            edge(1000, "x", 1, 2),
            edge(1001, "x", 2, 3),
            edge(1002, "x", 3, 1),
            edge(1003, "x", 1, 4),
        ],
    }
}

#[test]
fn pinned_triangle_agrees_across_modes_morphisms_and_workers() {
    // run_case sweeps CostBased, ForceBinary and ForceWco on every matrix
    // point for cyclic cases — 2 configs × 3 modes = 6 executions, each
    // compared row-for-row against the reference.
    for matching in MORPHISMS {
        for workers in 1..=3 {
            for indexed in [false, true] {
                let case = CaseSpec {
                    graph: triangle_graph(),
                    query: triangle_query(),
                    matching,
                    indexed,
                    workers,
                };
                match run_case(&case) {
                    CaseOutcome::Passed {
                        executions,
                        reference_matches,
                    } => {
                        assert_eq!(executions, 6, "cyclic sweep must cover 2 configs × 3 modes");
                        assert_eq!(reference_matches, 3, "three rotations of the triangle");
                    }
                    other => panic!("{}: {other:?}", case.query.render()),
                }
            }
        }
    }
}

#[test]
fn pinned_cyclic_pipeline_sweeps_every_plan_mode() {
    // A tail sends the triangle down the pipeline route; it is still
    // cyclic, so its MATCH stage is planned under all three modes on both
    // matrix points.
    let mut query = triangle_query();
    query.tail = Some(TailSpec::WithMatch {
        keep: vec!["n0".to_string()],
        anchor: "n0".to_string(),
        edge_label: Some("x".to_string()),
        node_label: None,
    });
    let case = CaseSpec {
        graph: triangle_graph(),
        query,
        matching: MORPHISMS[3],
        indexed: false,
        workers: 2,
    };
    match run_case(&case) {
        CaseOutcome::Passed {
            executions,
            reference_matches,
        } => {
            assert_eq!(executions, 6, "2 configs × 3 modes");
            // n0 = 1 extends to 2 and 4, n0 = 2 to 3, n0 = 3 to 1.
            assert_eq!(reference_matches, 4);
        }
        other => panic!("{}: {other:?}", case.query.render()),
    }
}

/// `variable.key` as a WHERE term.
fn prop(variable: &str, key: &str) -> Term {
    Term::Prop {
        variable: variable.to_string(),
        key: key.to_string(),
    }
}

/// A graph whose `age` property covers the three states three-valued logic
/// must keep apart — present (1, 4), explicitly `NULL` (2), and absent
/// entirely (3) — wired into a cycle so patterns bind every combination.
fn kleene_graph() -> GraphSpec {
    let with_age = |id: u64, age: PropertyValue| VertexSpec {
        id,
        label: "A".to_string(),
        properties: vec![("age".to_string(), age)],
    };
    GraphSpec {
        vertices: vec![
            with_age(1, PropertyValue::Int(30)),
            with_age(2, PropertyValue::Null),
            VertexSpec {
                id: 3,
                label: "A".to_string(),
                properties: Vec::new(),
            },
            with_age(4, PropertyValue::Int(17)),
        ],
        edges: vec![
            edge(1000, "x", 1, 2),
            edge(1001, "x", 2, 3),
            edge(1002, "x", 3, 4),
            edge(1003, "x", 4, 1),
            edge(1004, "x", 1, 3),
        ],
    }
}

#[test]
fn pinned_kleene_predicates_agree_on_every_matrix_point() {
    // One on/off axis; the label names it so archived repros say which
    // matrix point diverged.
    let matrix = EngineConfig::matrix();
    let labels: Vec<String> = matrix.iter().map(EngineConfig::label).collect();
    assert_eq!(labels, ["stats+", "stats-"]);

    // Hand-pinned NULL/missing-property predicates — the Kleene corners
    // `eval_clause` must get right through the engine: unknown under NOT, unknown
    // absorbed by OR, two-valued IS [NOT] NULL over both NULL and absent
    // keys, comparisons against a NULL literal (never true), and
    // property-to-property comparisons where either side may be missing.
    let trees: Vec<Cond> = vec![
        // NOT (a.age < 21): unknown must stay unknown, not flip to true.
        Cond::Not(Box::new(Cond::Cmp {
            left: prop("a", "age"),
            op: "<",
            right: Term::Lit(LitSpec::Int(21)),
        })),
        // a.age = b.age OR a.age IS NULL: OR over unknown and true.
        Cond::Or(
            Box::new(Cond::Cmp {
                left: prop("a", "age"),
                op: "=",
                right: prop("b", "age"),
            }),
            Box::new(Cond::IsNull {
                variable: "a".to_string(),
                key: "age".to_string(),
                negated: false,
            }),
        ),
        // NOT (a.age IS NOT NULL AND a.age >= 18): negation over a
        // conjunction mixing two-valued and three-valued atoms.
        Cond::Not(Box::new(Cond::And(
            Box::new(Cond::IsNull {
                variable: "a".to_string(),
                key: "age".to_string(),
                negated: true,
            }),
            Box::new(Cond::Cmp {
                left: prop("a", "age"),
                op: ">=",
                right: Term::Lit(LitSpec::Int(18)),
            }),
        ))),
        // a.age <> NULL: comparisons against NULL are never true.
        Cond::Cmp {
            left: prop("a", "age"),
            op: "<>",
            right: Term::Lit(LitSpec::Null),
        },
        // b.age IS NULL OR NOT (b.age > a.age): missing keys on either
        // side of a cross-slot comparison under negation.
        Cond::Or(
            Box::new(Cond::IsNull {
                variable: "b".to_string(),
                key: "age".to_string(),
                negated: false,
            }),
            Box::new(Cond::Not(Box::new(Cond::Cmp {
                left: prop("b", "age"),
                op: ">",
                right: prop("a", "age"),
            }))),
        ),
    ];
    for (index, tree) in trees.into_iter().enumerate() {
        let case = CaseSpec {
            graph: kleene_graph(),
            query: QuerySpec {
                nodes: vec![
                    NodePat {
                        variable: Some("a".to_string()),
                        labels: vec!["A".to_string()],
                        props: Vec::new(),
                    },
                    NodePat {
                        variable: Some("b".to_string()),
                        labels: Vec::new(),
                        props: Vec::new(),
                    },
                ],
                edges: vec![EdgePat {
                    variable: Some("e".to_string()),
                    from: 0,
                    to: 1,
                    direction: Dir::Out,
                    labels: vec!["x".to_string()],
                    range: None,
                    props: Vec::new(),
                }],
                where_tree: Some(tree),
                tail: None,
            },
            matching: MORPHISMS[index % MORPHISMS.len()],
            indexed: index % 2 == 0,
            workers: 1 + index % 3,
        };
        let query_text = case.query.render();
        match run_case(&case) {
            CaseOutcome::Passed { executions, .. } => {
                assert_eq!(
                    executions, 2,
                    "{query_text}: one execution per matrix point"
                );
            }
            other => panic!("{query_text}: {other:?}"),
        }
    }
}

#[test]
fn pinned_seed_cyclic_cases_agree_across_all_plan_modes() {
    // Dedicated cyclic sweep at a pinned seed: random graphs against
    // random cycle-closing patterns (triangles, diamonds, 4-cliques,
    // undirected cycles), each run under all three planner modes on the
    // full engine matrix. Tails are stripped, so every case takes the
    // single-MATCH route; the pipeline route is pinned above.
    let mut rng = Rng::new(0xC0FFEE);
    let mut swept = 0usize;
    let mut attempts = 0usize;
    while swept < 12 {
        attempts += 1;
        assert!(attempts < 100, "generator kept producing rejected cases");
        let graph = random_graph(&mut rng);
        let mut query = random_cyclic_query(&mut rng);
        query.tail = None;
        let case = CaseSpec {
            graph,
            query,
            matching: MORPHISMS[swept % MORPHISMS.len()],
            indexed: swept.is_multiple_of(2),
            workers: 1 + swept % 3,
        };
        match run_case(&case) {
            CaseOutcome::Passed { executions, .. } => {
                assert_eq!(executions, 6, "{}", case.query.render());
                swept += 1;
            }
            CaseOutcome::Rejected { .. } => continue,
            CaseOutcome::Mismatch(mismatch) => panic!(
                "{} [{}]: engine {:?} vs reference {:?}",
                mismatch.query_text,
                mismatch.config.label(),
                mismatch.engine,
                mismatch.reference
            ),
        }
    }
}

#[test]
fn forced_wco_plans_the_intersect_and_forced_binary_never_does() {
    let env = ExecutionEnvironment::with_workers(2);
    let graph = triangle_graph().build(&env);
    let stats = GraphStatistics::of(&graph);
    let query_text = triangle_query().render();
    let query = QueryGraph::from_query(&parse(&query_text).unwrap()).unwrap();

    let wco = plan_query_with_mode(&query, &Estimator::new(&stats), PlanMode::ForceWco).unwrap();
    assert!(
        wco.root.explain(&query).to_text().contains("wco intersect"),
        "forced-WCO triangle plan has no intersect:\n{}",
        wco.root.explain(&query).to_text()
    );
    let binary =
        plan_query_with_mode(&query, &Estimator::new(&stats), PlanMode::ForceBinary).unwrap();
    assert!(
        !binary
            .root
            .explain(&query)
            .to_text()
            .contains("wco intersect"),
        "forced-binary plan contains an intersect:\n{}",
        binary.root.explain(&query).to_text()
    );

    // And the WCO execution reports its intersection work through PROFILE.
    let engine = CypherEngine::with_statistics(stats).with_plan_mode(PlanMode::ForceWco);
    let profile = engine
        .profile(&graph, &query_text, &HashMap::new(), MORPHISMS[3])
        .unwrap();
    let text = profile.to_text();
    assert!(
        text.contains("wco: intersected="),
        "PROFILE missing intersection counters:\n{text}"
    );
}

#[test]
fn global_aggregate_over_an_empty_match_yields_one_row() {
    // No vertex carries label B, so the match is empty — but a projection
    // of only aggregates must still produce exactly one row (count 0).
    let case = single_node_case(
        "B",
        TailSpec::Aggregate {
            group: Vec::new(),
            aggs: vec![
                AggSpec {
                    func: "count",
                    distinct: false,
                    arg: None,
                },
                AggSpec {
                    func: "sum",
                    distinct: false,
                    arg: Some(("n0".to_string(), "p".to_string())),
                },
            ],
        },
    );
    assert_passes(&case, 1);
}

#[test]
fn grouped_aggregates_agree_under_every_morphism() {
    for matching in MORPHISMS {
        let mut case = single_node_case(
            "A",
            TailSpec::Aggregate {
                group: vec![("n0".to_string(), "p".to_string())],
                aggs: vec![AggSpec {
                    func: "count",
                    distinct: true,
                    arg: Some(("n0".to_string(), "p".to_string())),
                }],
            },
        );
        case.matching = matching;
        assert_passes(&case, 2); // two distinct p values → two groups
    }
}

#[test]
fn optional_match_pads_anchors_without_the_extension() {
    // Vertex 1 has an outgoing x edge, vertex 2 does not: two result
    // rows, one NULL-padded.
    let case = single_node_case(
        "A",
        TailSpec::OptionalTail {
            anchor: "n0".to_string(),
            direction: Dir::Out,
            edge_label: Some("x".to_string()),
            node_label: None,
        },
    );
    assert_passes(&case, 2);
}

#[test]
fn with_barrier_feeds_a_second_match() {
    let case = single_node_case(
        "A",
        TailSpec::WithMatch {
            keep: vec!["n0".to_string()],
            anchor: "n0".to_string(),
            edge_label: Some("x".to_string()),
            node_label: None,
        },
    );
    assert_passes(&case, 1); // only vertex 1 extends over x
}

#[test]
fn unwind_keeps_null_elements_and_empty_lists_produce_no_rows() {
    // A NULL *element* of a list still yields a row (only an overall-NULL
    // source produces zero rows).
    let case = single_node_case(
        "A",
        TailSpec::Unwind {
            items: vec![
                LitSpec::Int(1),
                LitSpec::Null,
                LitSpec::Str("a".to_string()),
            ],
        },
    );
    assert_passes(&case, 6); // 2 anchors × 3 list elements

    let empty = single_node_case("A", TailSpec::Unwind { items: Vec::new() });
    assert_passes(&empty, 0);
}

#[test]
fn order_by_with_paging_agrees_including_limit_zero() {
    let case = single_node_case(
        "A",
        TailSpec::OrderLimit {
            distinct: false,
            keys: vec![("n0".to_string(), "p".to_string(), true)],
            skip: Some(1),
            limit: Some(3),
        },
    );
    assert_passes(&case, 1); // two rows, one skipped

    let zero = single_node_case(
        "A",
        TailSpec::OrderLimit {
            distinct: false,
            keys: vec![("n0".to_string(), "p".to_string(), false)],
            skip: None,
            limit: Some(0),
        },
    );
    assert_passes(&zero, 0);
}

#[test]
fn indexed_graphs_take_the_same_pipeline_route() {
    let mut case = single_node_case(
        "A",
        TailSpec::OrderLimit {
            distinct: true,
            keys: vec![("n0".to_string(), "p".to_string(), false)],
            skip: None,
            limit: Some(1),
        },
    );
    case.indexed = true;
    assert_passes(&case, 1);
}

//! Golden-file tests for the worst-case-optimal join's EXPLAIN and PROFILE
//! surface: a forced-WCO triangle query must render the committed plan
//! (the `wco intersect` operator with its cardinality estimates) and the
//! committed profile (the `wco: intersected=` counter line). Regenerate
//! with `GRADOOP_UPDATE_GOLDEN=1 cargo test -p gradoop-core --test
//! wco_golden` after deliberate format changes.
//!
//! Wall-clock fields are scrubbed before comparison — everything else in
//! both renderings is deterministic (cost-model simulated times, estimated
//! and actual cardinalities, intersection counters).
//!
//! A second, count-only test pins what the operator is for: on a ring with
//! chords the forced-WCO plan's largest intermediate result is exactly
//! 3× (triangle) and 9× (diamond) smaller than the forced-binary plan's.

use std::collections::HashMap;

use gradoop_core::{CypherEngine, MatchingConfig, PlanMode};
use gradoop_dataflow::ExecutionEnvironment;
use gradoop_epgm::{
    properties, Edge, GradoopId, GraphHead, GraphStatistics, LogicalGraph, Properties, Vertex,
};

const EXPLAIN_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/testdata/wco_explain_golden.txt"
);
const PROFILE_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/testdata/wco_profile_golden.txt"
);

const TRIANGLE: &str = "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
     (c)-[e3:knows]->(a) RETURN *";

/// A directed triangle 1 → 2 → 3 → 1 plus a spoke 1 → 4 the intersection
/// must reject.
fn triangle_graph(env: &ExecutionEnvironment) -> LogicalGraph {
    let vertices = (1..=4)
        .map(|id| Vertex::new(GradoopId(id), "Person", properties! {"vid" => id as i32}))
        .collect();
    let edges = vec![
        Edge::new(
            GradoopId(10),
            "knows",
            GradoopId(1),
            GradoopId(2),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(11),
            "knows",
            GradoopId(2),
            GradoopId(3),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(12),
            "knows",
            GradoopId(3),
            GradoopId(1),
            Properties::new(),
        ),
        Edge::new(
            GradoopId(13),
            "knows",
            GradoopId(1),
            GradoopId(4),
            Properties::new(),
        ),
    ];
    LogicalGraph::from_data(
        env,
        GraphHead::new(GradoopId(100), "triangle", Properties::new()),
        vertices,
        edges,
    )
}

fn wco_engine(graph: &LogicalGraph) -> CypherEngine {
    CypherEngine::with_statistics(GraphStatistics::of(graph)).with_plan_mode(PlanMode::ForceWco)
}

/// Replaces the nondeterministic wall-clock value after `marker` (rendered
/// as `{:.4}s`) with `<scrubbed>`, keeping the rest of the line — the
/// `wco: intersected=` segment follows `t_wall=…s` on the same line.
fn scrub_number_after(line: &str, marker: &str) -> Option<String> {
    let pos = line.find(marker)?;
    let rest = &line[pos + marker.len()..];
    let end = rest.find('s')?;
    Some(format!(
        "{}{marker}<scrubbed>{}",
        &line[..pos],
        &rest[end + 1..]
    ))
}

fn scrub_wall(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match scrub_number_after(line, "t_wall=").or_else(|| scrub_number_after(line, "wall: ")) {
            Some(scrubbed) => out.push_str(&scrubbed),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn compare_golden(path: &str, actual: &str, what: &str) {
    if std::env::var_os("GRADOOP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with GRADOOP_UPDATE_GOLDEN=1)");
    assert_eq!(
        actual, golden,
        "{what} drifted from the committed golden file.\nactual:\n{actual}\ngolden:\n{golden}"
    );
}

#[test]
fn forced_wco_explain_matches_the_committed_golden_file() {
    let env = ExecutionEnvironment::with_workers(2);
    let graph = triangle_graph(&env);
    let explain = wco_engine(&graph).explain(TRIANGLE).unwrap();
    let actual = explain.to_text();
    assert!(
        actual.contains("wco intersect"),
        "EXPLAIN lost the intersect operator:\n{actual}"
    );
    compare_golden(EXPLAIN_GOLDEN, &actual, "EXPLAIN");
}

#[test]
fn forced_wco_profile_matches_the_committed_golden_file() {
    let env = ExecutionEnvironment::with_workers(2);
    let graph = triangle_graph(&env);
    let profile = wco_engine(&graph)
        .profile(
            &graph,
            TRIANGLE,
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap();
    let actual = scrub_wall(&profile.to_text());
    assert!(
        actual.contains("wco: intersected="),
        "PROFILE lost the intersection counter:\n{actual}"
    );
    compare_golden(PROFILE_GOLDEN, &actual, "PROFILE");
}

/// A directed ring of `n` `Person` vertices where every vertex also has
/// forward chords to `i+2` and `i+3` (out-degree 3). The chords close 3·n
/// directed wedges `a → b → c, a → c`, so cyclic queries have real matches
/// while binary plans must materialize every open 2-path first.
fn ring_with_chords(env: &ExecutionEnvironment, n: u64) -> LogicalGraph {
    let vertices = (0..n)
        .map(|i| Vertex::new(GradoopId(i + 1), "Person", properties! {"vid" => i as i64}))
        .collect();
    let edges = (0..n)
        .flat_map(|i| [1, 2, 3].map(|hop| (i, (i + hop) % n)))
        .zip(10_000..)
        .map(|((source, target), id)| {
            Edge::new(
                GradoopId(id),
                "knows",
                GradoopId(source + 1),
                GradoopId(target + 1),
                Properties::new(),
            )
        })
        .collect();
    LogicalGraph::from_data(
        env,
        GraphHead::new(GradoopId(0), "cyclic", Properties::new()),
        vertices,
        edges,
    )
}

/// The quantity worst-case-optimal joins exist to bound: the largest
/// result any plan node below the root materialized. Exact counts, so a
/// planner or operator change that moves them has to say so here.
#[test]
fn wco_plans_cut_the_largest_intermediate_result_by_exactly_3x_and_9x() {
    let chord_triangle = "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
         (a)-[e3:knows]->(c) RETURN *";
    let diamond = "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
         (c)-[e3:knows]->(d:Person), (a)-[e4:knows]->(d), (a)-[e5:knows]->(c) RETURN *";
    for (query, binary_rows, wco_rows) in [(chord_triangle, 540, 180), (diamond, 1_620, 180)] {
        let run = |mode: PlanMode| {
            let env = ExecutionEnvironment::with_workers(4);
            let graph = ring_with_chords(&env, 60);
            let engine = CypherEngine::for_graph(&graph).with_plan_mode(mode);
            let explain = engine.explain(query).unwrap().root.to_text();
            assert_eq!(
                explain.contains("wco intersect"),
                mode == PlanMode::ForceWco,
                "{mode:?}:\n{explain}"
            );
            let profile = engine
                .profile(
                    &graph,
                    query,
                    &HashMap::new(),
                    MatchingConfig::cypher_default(),
                )
                .unwrap();
            let largest = profile.root.operator_rows()[1..]
                .iter()
                .map(|(_, rows)| *rows)
                .max();
            (largest, profile.matches)
        };
        let (binary_largest, binary_matches) = run(PlanMode::ForceBinary);
        let (wco_largest, wco_matches) = run(PlanMode::ForceWco);
        assert_eq!(binary_largest, Some(binary_rows), "{query}");
        assert_eq!(wco_largest, Some(wco_rows), "{query}");
        assert_eq!(binary_matches, wco_matches, "{query}");
        assert!(wco_matches > 0, "{query}");
    }
}

/// The plan mode reaches the `MATCH` stages of a clause pipeline too: a
/// stage is planned the way the same pattern is planned on its own, and
/// every mode returns the same table.
#[test]
fn pipeline_match_stages_follow_the_plan_mode() {
    let pattern = "MATCH (a)-[e1]->(b), (b)-[e2]->(c), (a)-[e3]->(c)";
    let query = format!("{pattern} WITH a, count(*) AS n RETURN n ORDER BY n");
    let env = ExecutionEnvironment::with_workers(4);
    let graph = ring_with_chords(&env, 60);
    let mut tables = Vec::new();
    for mode in [
        PlanMode::CostBased,
        PlanMode::ForceBinary,
        PlanMode::ForceWco,
    ] {
        let engine = CypherEngine::for_graph(&graph).with_plan_mode(mode);
        let alone = engine.explain(&format!("{pattern} RETURN *")).unwrap();
        let staged = engine.explain(&query).unwrap().root.to_text();
        // On the ring the cost-based planner picks the intersection too
        // (est 27 against 540 for the wedge join).
        assert_eq!(
            alone.root.to_text().contains("wco intersect"),
            mode != PlanMode::ForceBinary,
            "{mode:?}:\n{}",
            alone.to_text()
        );
        assert_eq!(
            staged.contains("wco intersect"),
            mode != PlanMode::ForceBinary,
            "{mode:?}:\n{staged}"
        );
        let table = engine
            .run(
                &graph,
                &query,
                &HashMap::new(),
                MatchingConfig::cypher_default(),
            )
            .unwrap();
        assert!(!table.rows.is_empty(), "{mode:?}");
        tables.push(table);
    }
    assert_eq!(tables[0], tables[1]);
    assert_eq!(tables[0], tables[2]);
}

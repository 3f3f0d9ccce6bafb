//! Join order on the benchmark's own dataset (LDBC, persons = 1000): an
//! edge scan joins its cheaper endpoint first, so Q1 and Q2 never build the
//! `message ⋈ hasCreator` intermediate (every message joined with its
//! creator edge, 12 621 rows) to answer a handful of persons, and the
//! greedy rounds still compare candidates on the source-first estimate, so
//! Q3 keeps its small plan. Row counts are PROFILE actuals, which do not
//! depend on the worker count or the cost model.

mod common;

use std::collections::HashMap;

use common::test_env;
use gradoop::core::Profile;
use gradoop::ldbc::SelectivityNames;
use gradoop::prelude::*;

/// Rows in `message ⋈ hasCreator` at persons = 1000: one per message.
const MESSAGE_CREATOR_ROWS: u64 = 12_621;

struct Dataset {
    graph: LogicalGraph,
    names: SelectivityNames,
}

fn dataset() -> Dataset {
    let env = test_env(2);
    let data = generate(&LdbcConfig::with_persons(1000));
    let names = pick_names(&data);
    let head = GraphHead::new(GradoopId(0), "LdbcSocialNetwork", Properties::new());
    let graph = LogicalGraph::from_data(&env, head, data.vertices, data.edges);
    Dataset { graph, names }
}

fn profile(dataset: &Dataset, query: BenchmarkQuery, name: &str) -> Profile {
    let engine = CypherEngine::for_graph(&dataset.graph);
    engine
        .profile(
            &dataset.graph,
            &query.text(Some(name)),
            &HashMap::new(),
            MatchingConfig::cypher_default(),
        )
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// `(operator, rows_out)` of every `JoinEmbeddings` node, pre-order.
fn join_rows(profile: &Profile) -> Vec<(String, u64)> {
    profile
        .root
        .operator_rows()
        .into_iter()
        .filter(|(operator, _)| operator.starts_with("JoinEmbeddings"))
        .collect()
}

fn max_rows(profile: &Profile) -> u64 {
    profile
        .root
        .operator_rows()
        .iter()
        .map(|(_, rows)| *rows)
        .max()
        .unwrap_or(0)
}

#[test]
fn q1_and_q2_join_the_selective_person_before_the_messages() {
    let dataset = dataset();
    let (high, low) = (&dataset.names.high, &dataset.names.low);
    // Pre-order: the outer join on `message` above the inner join of the
    // person scan with the `hasCreator` scan; Q2's expand join on top.
    let q1 = |rows| vec![("on message", rows), ("on person", rows)];
    let q2 = |rows| vec![("on post", rows), ("on message", rows), ("on person", rows)];
    let expected = [
        (BenchmarkQuery::Q1, high, q1(2)),
        (BenchmarkQuery::Q1, low, q1(3_666)),
        (BenchmarkQuery::Q2, high, q2(2)),
        (BenchmarkQuery::Q2, low, q2(3_666)),
    ];
    for (query, name, joins) in expected {
        let profile = profile(&dataset, query, name);
        let actual = join_rows(&profile);
        let expected: Vec<(String, u64)> = joins
            .into_iter()
            .map(|(on, rows)| (format!("JoinEmbeddings({on})"), rows))
            .collect();
        assert_eq!(actual, expected, "{query} {name}\n{}", profile.to_text());
        assert!(
            actual.iter().all(|(_, rows)| *rows < MESSAGE_CREATOR_ROWS),
            "{query} {name} joins every message with its creator edge"
        );
    }
}

#[test]
fn q3_low_keeps_the_source_first_estimate_and_its_small_plan() {
    // Letting the target-first estimate drive the greedy rounds flips Q3's
    // first round and plans an intermediate of over a million rows; the
    // largest operator output stays the variable-length expand's.
    let dataset = dataset();
    let profile = profile(&dataset, BenchmarkQuery::Q3, &dataset.names.low);
    assert_eq!(profile.matches, 1_351);
    assert!(max_rows(&profile) <= 13_366, "{}", profile.to_text());
}

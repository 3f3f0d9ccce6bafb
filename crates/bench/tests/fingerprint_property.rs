//! Property: queries with equal shape fingerprints plan identically.
//!
//! The plan cache keys on the normalized query shape (all literals and
//! `$params` collapse to `?`), so its soundness rests on exactly this
//! property: two queries that only differ in literal *values* must produce
//! the same plan tree. The test fuzzes query specs, perturbs every literal,
//! and asserts that fingerprint-equal pairs plan to equal trees — plus
//! hand-pinned pairs for the normalizer bugs the shape fix closed
//! (`RETURN 1, 2` collapsing into `RETURN 1`, scientific notation leaking
//! mantissas, `$param` vs inline-literal spellings, backtick-quoted
//! identifiers, `//` comments and non-ASCII identifier characters read
//! differently from the lexer).

use std::collections::HashMap;

use gradoop_bench::fuzz::{random_graph, random_query, seed_from_env, Rng};
use gradoop_core::{
    normalize_query_shape, plan_query_with_mode, stable_digest, Estimator, PlanMode, QueryPlan,
};
use gradoop_cypher::{parse, Literal, QueryGraph};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::GraphStatistics;

/// Statistics of one fixed fuzz graph — shared by every planned query so
/// plan differences can only come from the queries themselves.
fn statistics() -> GraphStatistics {
    let env =
        ExecutionEnvironment::new(ExecutionConfig::with_workers(2).cost_model(CostModel::free()));
    let graph = random_graph(&mut Rng::new(7)).build(&env);
    GraphStatistics::of(&graph)
}

/// Plans `text` cost-based against `statistics`; `None` when any stage
/// (parse, validation, planning) rejects the query.
fn plan_of(
    text: &str,
    params: &HashMap<String, Literal>,
    statistics: &GraphStatistics,
) -> Option<QueryPlan> {
    let ast = parse(text).ok()?;
    let query = QueryGraph::from_query_with_params(&ast, params).ok()?;
    plan_query_with_mode(&query, &Estimator::new(statistics), PlanMode::CostBased).ok()
}

/// Rewrites every integer literal in `text` to a different value, keeping
/// the shape identical. Quoted strings are left alone (changing them never
/// changes the shape either, but rewriting digits inside them would).
fn perturb_literals(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    let mut prev: Option<char> = None;
    while let Some(c) = chars.next() {
        if c == '\'' {
            in_string = !in_string;
            out.push(c);
            prev = Some(c);
            continue;
        }
        // Skip digits inside identifiers (`n0`), variable-length range
        // bounds (`*1..3` — same shape, but bounds are structural and
        // validated by the cache's graph signature, not the shape) and
        // fraction tails (the integer part is perturbed instead).
        let starts_number = !in_string
            && c.is_ascii_digit()
            && !prev.is_some_and(|p| p.is_ascii_alphanumeric() || p == '_' || p == '*' || p == '.');
        if starts_number {
            let mut digits = String::from(c);
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    digits.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            // A different value with the same token class: append a digit.
            out.push_str(&digits);
            out.push('7');
            prev = Some('7');
            continue;
        }
        out.push(c);
        prev = Some(c);
    }
    out
}

#[test]
fn fuzzed_literal_perturbations_keep_fingerprint_and_plan() {
    let statistics = statistics();
    let mut rng = Rng::new(seed_from_env(0xF16E));
    let mut checked_pairs = 0usize;
    for _ in 0..300 {
        let spec = random_query(&mut rng);
        let text = spec.render();
        let perturbed = perturb_literals(&text);
        let shape = normalize_query_shape(&text);
        assert_eq!(
            shape,
            normalize_query_shape(&perturbed),
            "perturbing literal values changed the shape\n  original:  {text}\n  perturbed: {perturbed}"
        );
        let params = HashMap::new();
        let (Some(plan), Some(plan_perturbed)) = (
            plan_of(&text, &params, &statistics),
            plan_of(&perturbed, &params, &statistics),
        ) else {
            continue;
        };
        assert_eq!(
            plan.root, plan_perturbed.root,
            "equal fingerprints planned differently\n  original:  {text}\n  perturbed: {perturbed}"
        );
        if text != perturbed {
            checked_pairs += 1;
        }
    }
    assert!(
        checked_pairs >= 50,
        "only {checked_pairs} perturbed pairs planned — the property was barely exercised"
    );
}

#[test]
fn fuzzed_corpus_groups_by_fingerprint_consistently() {
    let statistics = statistics();
    let mut rng = Rng::new(seed_from_env(0x5AFE));
    let mut groups: HashMap<String, (String, String)> = HashMap::new();
    for _ in 0..300 {
        let spec = random_query(&mut rng);
        let text = spec.render();
        let shape = normalize_query_shape(&text);
        let fingerprint = stable_digest(&shape);
        let Some(plan) = plan_of(&text, &HashMap::new(), &statistics) else {
            continue;
        };
        let rendered = format!("{:?}", plan.root);
        match groups.get(&fingerprint) {
            None => {
                groups.insert(fingerprint, (shape, rendered));
            }
            Some((seen_shape, seen_plan)) => {
                assert_eq!(
                    seen_shape, &shape,
                    "64-bit fingerprint collision between distinct shapes in a 300-query corpus"
                );
                assert_eq!(
                    seen_plan, &rendered,
                    "same fingerprint, different plan for shape {shape}"
                );
            }
        }
    }
    assert!(!groups.is_empty());
}

type Params = HashMap<String, Literal>;

#[test]
fn pinned_pairs_share_fingerprints_and_plans() {
    let statistics = statistics();
    let no_params = Params::new();
    let pairs: [(&str, Params, &str, Params); 5] = [
        // Scientific notation and plain integers are one token class.
        (
            "MATCH (a:L0) WHERE a.p0 > 1e9 RETURN a.p0",
            no_params.clone(),
            "MATCH (a:L0) WHERE a.p0 > 23 RETURN a.p0",
            no_params.clone(),
        ),
        // Leading-dot floats normalize like any other number.
        (
            "MATCH (a:L0) WHERE a.p0 > .5 RETURN a.p0",
            no_params.clone(),
            "MATCH (a:L0) WHERE a.p0 > 0.75 RETURN a.p0",
            no_params.clone(),
        ),
        // A `//` comment is not part of the shape, whatever it quotes.
        (
            "MATCH (a:L0) // it's the p0 filter\n WHERE a.p0 > 1 RETURN a.p0",
            no_params.clone(),
            "MATCH (a:L0) WHERE a.p0 > 2 RETURN a.p0",
            no_params.clone(),
        ),
        // `$param` and inline-literal property maps share one entry.
        (
            "MATCH (a:L0 {p0: $v}) RETURN a.p0",
            HashMap::from([("v".to_string(), Literal::Integer(42))]),
            "MATCH (a:L0 {p0: 42}) RETURN a.p0",
            no_params.clone(),
        ),
        // A parameter name ends where the lexer ends it, not at the first
        // non-ASCII letter.
        (
            "MATCH (a:L0 {p0: $né}) RETURN a.p0",
            HashMap::from([("né".to_string(), Literal::Integer(42))]),
            "MATCH (a:L0 {p0: 42}) RETURN a.p0",
            no_params.clone(),
        ),
    ];
    for (left, left_params, right, right_params) in pairs {
        assert_eq!(
            normalize_query_shape(left),
            normalize_query_shape(right),
            "{left} vs {right}"
        );
        let left_plan = plan_of(left, &left_params, &statistics).expect(left);
        let right_plan = plan_of(right, &right_params, &statistics).expect(right);
        assert_eq!(left_plan.root, right_plan.root, "{left} vs {right}");
    }
}

#[test]
fn pinned_pairs_with_distinct_shapes_stay_distinct() {
    // The list-collapse bug made these collide before the fix; distinct
    // shapes must keep distinct fingerprints (and may plan differently).
    let distinct = [
        ("MATCH (a:L0) RETURN 1, 2", "MATCH (a:L0) RETURN 1"),
        (
            "MATCH (a:L0) WHERE a.p0 IN [1, 2] RETURN a",
            "MATCH (a:L0) WHERE a.p0 = 1 RETURN a",
        ),
        (
            "MATCH (a:L0)-[e:x]->(b:L0) RETURN a",
            "MATCH (a:L0)<-[e:x]-(b:L0) RETURN a",
        ),
        // A backtick-quoted identifier is a name, digits and spaces included.
        ("MATCH (a:`1`) RETURN a", "MATCH (a:`2`) RETURN a"),
        ("MATCH (a:`x  y`) RETURN a", "MATCH (a:`x y`) RETURN a"),
        // An apostrophe in a comment opens no string literal.
        (
            "MATCH (a:L0) // it's\n WHERE a.p0 = 1 RETURN a.p1, 'k'",
            "MATCH (a:L0) // it's\n RETURN a.p2, 'k'",
        ),
        // A digit after a non-ASCII letter continues the identifier.
        ("MATCH (é1)-->(é2) RETURN é1", "MATCH (é1)-->(é2) RETURN é2"),
        (
            "MATCH (a:L0) WHERE a.é1 = 1 RETURN a",
            "MATCH (a:L0) WHERE a.é2 = 1 RETURN a",
        ),
    ];
    for (left, right) in distinct {
        assert_ne!(
            stable_digest(&normalize_query_shape(left)),
            stable_digest(&normalize_query_shape(right)),
            "{left} vs {right}"
        );
    }
}

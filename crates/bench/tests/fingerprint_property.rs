//! Property: queries with equal shape fingerprints plan identically.
//!
//! The plan cache keys on the query shape (all literals and `$params`
//! collapse to `?`), so its soundness rests on exactly this property: two
//! queries that only differ in literal *values* must produce the same plan
//! tree. The shape is a fold over the lexer's tokens, so the properties are
//! stated on tokens: respelling every literal (and the whitespace and
//! comments between tokens) keeps shape and plan, two lexable texts with
//! equal shapes have equal token sequences once values are erased, no
//! shape is ever a pipeline stage's cache key, and the shapes of a
//! benchmark-style corpus are pinned byte for byte. The hand-pinned pairs
//! are the collisions the character-level normalizer this fold replaced
//! had, one by one (`RETURN 1, 2` collapsing into `RETURN 1`,
//! scientific notation leaking mantissas, `$param` vs inline-literal
//! spellings, backtick-quoted identifiers, `//` comments and non-ASCII
//! identifier characters read differently from the lexer).

use std::collections::{HashMap, HashSet};

use gradoop_bench::fuzz::{random_graph, random_query, seed_from_env, Rng};
use gradoop_core::{
    normalize_query_shape, plan_query_with_mode, stable_digest, Estimator, PlanMode, QueryPlan,
};
use gradoop_cypher::lexer::lex;
use gradoop_cypher::token::{Token, TokenKind};
use gradoop_cypher::{parse, Literal, QueryGraph};
use gradoop_dataflow::{CostModel, ExecutionConfig, ExecutionEnvironment};
use gradoop_epgm::GraphStatistics;
use gradoop_ldbc::BenchmarkQuery;

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

fn is_value(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::String(_)
            | TokenKind::Integer(_)
            | TokenKind::Float(_)
            | TokenKind::Parameter(_)
    )
}

const FLOATS: [&str; 5] = [".5", "1e9", "0.75", "2.5E+3", "3e-2"];
const STRINGS: [&str; 5] = ["'it\\'s'", "\"a\\\"b\"", "''", "'// $x 1'", "\"`é`\""];
const PARAMETERS: [&str; 3] = ["$né", "$_1", "$firstName"];
const GAPS: [&str; 5] = [" ", "  ", "\n\t", " // it's \"1\n", "\n//\n "];

/// Rewrites `text` over its token spans: every literal is respelled with
/// another value of its kind — integers, floats (leading dot, exponent),
/// strings (either quote, escaped quotes), parameters (non-ASCII names) —
/// and, with `gaps`, every run of whitespace between two tokens becomes
/// another run of whitespace and `//` comments. Everything else is copied.
/// The bounds of a variable-length path (`*1..3`) stay: they collapse to `?`
/// too, but they are structure the plan cache checks on the query graph.
fn respell(text: &str, rng: &mut Rng, gaps: bool) -> String {
    let tokens = lex(text).expect("generated text lexes");
    let kind_at = |index: usize| tokens.get(index).map(|token: &Token| &token.kind);
    let mut out = String::with_capacity(text.len() + 16);
    let mut end = 0;
    for (index, token) in tokens.iter().enumerate() {
        let gap = &text[end..token.span.start];
        out.push_str(if gaps && !gap.is_empty() {
            rng.pick::<&str>(&GAPS)
        } else {
            gap
        });
        let bound = matches!(
            index.checked_sub(1).and_then(kind_at),
            Some(TokenKind::Star | TokenKind::DotDot)
        ) || kind_at(index + 1) == Some(&TokenKind::DotDot);
        match &token.kind {
            TokenKind::Integer(value) if !bound => out.push_str(&format!("{value}7")),
            TokenKind::Float(_) => out.push_str(rng.pick::<&str>(&FLOATS)),
            TokenKind::String(_) => out.push_str(rng.pick::<&str>(&STRINGS)),
            TokenKind::Parameter(_) => out.push_str(rng.pick::<&str>(&PARAMETERS)),
            _ => out.push_str(&text[token.span.clone()]),
        }
        end = token.span.end;
    }
    out
}

/// `text`'s tokens with every value erased and every bracketed list of
/// values collapsed to one — what two texts of one shape must share.
fn erased_tokens(text: &str) -> Vec<TokenKind> {
    let value = TokenKind::Parameter(String::new());
    let kinds: Vec<TokenKind> = lex(text)
        .expect("lexable")
        .into_iter()
        .map(|token| match token.kind {
            kind if is_value(&kind) => value.clone(),
            kind => kind,
        })
        .collect();
    let mut erased = Vec::with_capacity(kinds.len());
    let mut index = 0;
    while index < kinds.len() {
        erased.push(kinds[index].clone());
        index += 1;
        if erased.last() == Some(&TokenKind::LBracket) {
            // `[` value (`,` value)* `]` → `[` value `]`
            let mut ahead = index;
            while kinds.get(ahead) == Some(&value)
                && kinds.get(ahead + 1) == Some(&TokenKind::Comma)
            {
                ahead += 2;
            }
            if kinds.get(ahead) == Some(&value)
                && kinds.get(ahead + 1) == Some(&TokenKind::RBracket)
            {
                index = ahead;
            }
        }
    }
    erased
}

#[test]
fn fuzzed_literal_perturbations_keep_fingerprint_and_plan() {
    let statistics = statistics();
    let mut rng = Rng::new(seed_from_env(0xF16E));
    let mut checked_pairs = 0usize;
    for _ in 0..300 {
        let spec = random_query(&mut rng);
        let text = spec.render();
        let perturbed = respell(&text, &mut rng, false);
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

#[test]
fn respelled_literals_whitespace_and_comments_keep_the_shape() {
    let mut rng = Rng::new(seed_from_env(0x5BAE));
    let (mut tails, mut respelled) = (0usize, 0usize);
    for _ in 0..600 {
        let spec = random_query(&mut rng);
        let text = spec.render();
        let shape = normalize_query_shape(&text);
        for _ in 0..3 {
            let other = respell(&text, &mut rng, true);
            assert_eq!(
                shape,
                normalize_query_shape(&other),
                "respelling changed the shape\n  original:  {text}\n  respelled: {other:?}"
            );
            assert_eq!(erased_tokens(&text), erased_tokens(&other), "{other:?}");
            respelled += usize::from(other != text);
        }
        tails += usize::from(spec.tail.is_some());
    }
    assert!(tails >= 50, "only {tails} of 600 texts had a clause tail");
    assert!(
        respelled >= 1500,
        "only {respelled} of 1800 respellings differ"
    );
}

/// Fragments a query is written from, several of them spellings the
/// character-level normalizer used to read differently from the lexer.
const FRAGMENTS: [&str; 30] = [
    "x",
    "é1",
    "`a 1`",
    "MATCH",
    "return",
    ".",
    "..",
    "5",
    ".5",
    "1e9",
    "2E+3",
    "1.5",
    "'s'",
    "\"t\\\"\"",
    "$p",
    "$é",
    "[",
    "]",
    ",",
    "(",
    ")",
    ":",
    "-",
    "*",
    "<",
    ">",
    "=",
    " ",
    "\n",
    "//c '\n",
];

#[test]
fn equal_shapes_have_equal_tokens_once_values_are_erased() {
    let mut rng = Rng::new(seed_from_env(0x50D));
    let mut seen: HashMap<String, (String, Vec<TokenKind>)> = HashMap::new();
    let mut shared = 0usize;
    for _ in 0..60_000 {
        let text: String = (0..1 + rng.below(5))
            .map(|_| *rng.pick(&FRAGMENTS))
            .collect();
        if lex(&text).is_err() {
            continue;
        }
        let shape = normalize_query_shape(&text);
        let erased = erased_tokens(&text);
        match seen.get(&shape) {
            None => {
                seen.insert(shape, (text, erased));
            }
            Some((first, first_erased)) => {
                assert_eq!(
                    first_erased, &erased,
                    "{first:?} and {text:?} share the shape {shape:?} but not their tokens"
                );
                shared += usize::from(first != &text);
            }
        }
    }
    assert!(
        shared >= 10_000,
        "only {shared} texts shared a shape with another"
    );
}

/// Whether `key` reads as a pipeline stage's plan-cache key: a text's shape,
/// a newline and the stage index.
fn is_stage_key(key: &str) -> bool {
    key.rsplit_once('\n').is_some_and(|(_, index)| {
        !index.is_empty() && index.bytes().all(|byte| byte.is_ascii_digit())
    })
}

/// The plan cache keys stage `i` of a clause pipeline on the text's shape, a
/// newline and `i`. A shape turns whitespace into one space, so a newline
/// survives only inside a backticked name, which ends in a backtick:
/// whatever follows a lexable text's last newline is never a bare number,
/// and no text's shape is ever another's stage key.
#[test]
fn no_shape_is_a_stage_key() {
    let pinned = [
        "MATCH (a:`x\n1`) RETURN a",
        "MATCH (`a\n2`)-[e]->(b) WITH b, count(*) AS n \
         OPTIONAL MATCH (b)-->(`c\n0`) RETURN n",
    ];
    for text in pinned {
        gradoop_cypher::parse_pipeline(text).expect(text);
        let shape = normalize_query_shape(text);
        assert!(shape.contains('\n'), "{shape:?}");
        assert!(!is_stage_key(&shape), "{shape:?}");
        assert!(is_stage_key(&format!("{shape}\n1")));
    }

    let mut rng = Rng::new(seed_from_env(0x57A6));
    let mut with_newline = 0usize;
    for _ in 0..20_000 {
        let text: String = (0..1 + rng.below(6))
            .map(|_| match rng.below(4) {
                0 => "`x\n1`",
                _ => *rng.pick(&FRAGMENTS),
            })
            .collect();
        if lex(&text).is_err() {
            continue;
        }
        let shape = normalize_query_shape(&text);
        assert!(!is_stage_key(&shape), "{text:?} has the shape {shape:?}");
        with_newline += usize::from(shape.contains('\n'));
    }
    assert!(
        with_newline >= 1000,
        "only {with_newline} shapes held a newline"
    );
}

const PERSON_COLUMNS: [&str; 4] = ["firstName", "lastName", "gender", "birthday"];
const MESSAGE_COLUMNS: [&str; 2] = ["content", "creationDate"];
type Template = (
    &'static str,
    &'static [(&'static str, &'static [&'static str])],
);
const TEMPLATES: [Template; 10] = [
    (
        "(p:Person)-[:knows]->(q:Person)",
        &[("p", &PERSON_COLUMNS), ("q", &PERSON_COLUMNS)],
    ),
    (
        "(p:Person)<-[:knows]-(q:Person)",
        &[("p", &PERSON_COLUMNS), ("q", &PERSON_COLUMNS)],
    ),
    (
        "(p:Person)-[:isLocatedIn]->(c:City)",
        &[("p", &PERSON_COLUMNS), ("c", &["name"])],
    ),
    (
        "(p:Person)-[:hasInterest]->(t:Tag)",
        &[("p", &PERSON_COLUMNS), ("t", &["name"])],
    ),
    (
        "(p:Person)-[:studyAt]->(u:University)",
        &[("p", &PERSON_COLUMNS), ("u", &["name"])],
    ),
    (
        "(p:Person)<-[:hasCreator]-(m:Post)",
        &[("p", &PERSON_COLUMNS), ("m", &MESSAGE_COLUMNS)],
    ),
    (
        "(p:Person)<-[:hasModerator]-(f:Forum)",
        &[("p", &PERSON_COLUMNS), ("f", &["title"])],
    ),
    (
        "(p:Person)<-[:hasMember]-(f:Forum)",
        &[("p", &PERSON_COLUMNS), ("f", &["title"])],
    ),
    (
        "(p:Person)<-[:hasCreator]-(m:Comment), (m)-[:replyOf*1..{K}]->(o:Post)",
        &[
            ("p", &PERSON_COLUMNS),
            ("m", &MESSAGE_COLUMNS),
            ("o", &MESSAGE_COLUMNS),
        ],
    ),
    (
        "(p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City)",
        &[
            ("p", &PERSON_COLUMNS),
            ("q", &PERSON_COLUMNS),
            ("c", &["name"]),
        ],
    ),
];
const CONJUNCTS: [&str; 8] = [
    "p.gender = 'female'",
    "p.gender <> 'female'",
    "p.birthday > 9000",
    "p.birthday < 19000",
    "p.birthday >= 7000",
    "p.lastName <> 'Meyer'",
    "p.creationDate > 1000000000",
    "p.creationDate <= 1000100000",
];
const PIPELINES: [&str; 5] = [
    "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree \
     OPTIONAL MATCH (a)-[:studyAt]->(u:University) \
     RETURN a.firstName, degree ORDER BY degree DESC, a.firstName LIMIT 10",
    "MATCH (p:Person)-[:hasInterest]->(t:Tag) \
     RETURN t.name, count(*) AS fans ORDER BY fans DESC, t.name LIMIT 10",
    "MATCH (p:Person)-[:isLocatedIn]->(c:City) \
     RETURN DISTINCT c.name AS city, p.lastName AS family ORDER BY city, family",
    "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree WHERE degree > 8 \
     MATCH (a)-[:isLocatedIn]->(c:City) \
     RETURN c.name, count(*) AS hubs ORDER BY hubs DESC, c.name",
    "MATCH (p:Person)-[:isLocatedIn]->(c:City) WITH c, collect(p.lastName) AS families \
     UNWIND families AS family RETURN c.name, family ORDER BY c.name, family",
];

/// The texts of the benchmark's `frontend_cold` workload, built the way
/// `benchmark/src/texts.rs` builds them: Q1–Q3 parameterized, Q4–Q6, the
/// `knows` triangle and diamond, five clause pipelines, and a pool of 512
/// cheap queries (template × hop bound × RETURN list × extra conjuncts),
/// a pool text kept only when its shape is new.
fn benchmark_style_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = BenchmarkQuery::all()
        .iter()
        .map(|query| match query.number() {
            1..=3 => query.parameterized_text(),
            _ => query.text(None),
        })
        .collect();
    corpus.push(
        "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
         (a)-[e3:knows]->(c) RETURN *"
            .to_string(),
    );
    corpus.push(
        "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
         (c)-[e3:knows]->(d:Person), (a)-[e4:knows]->(d), (a)-[e5:knows]->(c) RETURN *"
            .to_string(),
    );
    corpus.extend(PIPELINES.iter().map(|text| text.to_string()));

    fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i + 1));
        }
    }
    let names = [
        "Jan", "Maria", "Chen", "Ali", "Zora", "Enzo", "Priya", "Hedda",
    ];
    let mut rng = Rng::new(42);
    let mut shapes: HashSet<String> = HashSet::new();
    let mut pool = 0;
    while pool < 512 {
        let (pattern, variables) = rng.pick(&TEMPLATES);
        let pattern = pattern.replace("{K}", &(2 + rng.below(4)).to_string());
        let mut columns: Vec<String> = variables
            .iter()
            .flat_map(|(variable, keys)| keys.iter().map(move |key| format!("{variable}.{key}")))
            .collect();
        shuffle(&mut rng, &mut columns);
        columns.truncate(1 + rng.below(4));
        let mut conjuncts = CONJUNCTS.to_vec();
        shuffle(&mut rng, &mut conjuncts);
        conjuncts.truncate(rng.below(3));

        let name = names[pool % names.len()];
        let mut text = format!("MATCH {pattern} WHERE p.firstName = '{name}'");
        for conjunct in conjuncts {
            text.push_str(" AND ");
            text.push_str(conjunct);
        }
        text.push_str(" RETURN ");
        text.push_str(&columns.join(", "));
        if shapes.insert(normalize_query_shape(&text)) {
            corpus.push(text);
            pool += 1;
        }
    }
    corpus
}

/// The shapes of the benchmark-style corpus, byte for byte as the
/// character-level normalizer produced them at the last commit that had it
/// (PR 19, `e157f88`): existing plan-cache keys, query-log groups and the
/// benchmark's 512-shape pool did not move when the shape became a fold
/// over tokens, and may not move silently later.
#[test]
fn benchmark_style_corpus_shapes_are_pinned() {
    let corpus = benchmark_style_corpus();
    assert_eq!(corpus.len(), 13 + 512);
    let shapes: Vec<String> = corpus
        .iter()
        .map(|text| normalize_query_shape(text))
        .collect();
    assert_eq!(
        shapes[0],
        "MATCH (person:Person)<-[:hasCreator]-(message:Comment|Post) \
         WHERE person.firstName = ? RETURN message.creationDate, message.content"
    );
    assert_eq!(stable_digest(&shapes.join("\n")), "faa44ddc25647140");
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

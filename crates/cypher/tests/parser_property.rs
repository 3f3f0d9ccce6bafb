//! Property-based tests of the Cypher front-end: pretty-printing a random
//! AST and reparsing it yields the same AST, CNF conversion preserves
//! two-valued semantics on comparable values, and no string whatsoever —
//! grammar-shaped or not — panics the lexer, the parser or the shape fold.

use gradoop_cypher::ast::{
    Direction, MapValue, NodePattern, PathPattern, PathRange, Query, RelPattern, ReturnClause,
    ReturnItem,
};
use gradoop_cypher::lexer::{lex, lex_shape};
use gradoop_cypher::predicates::cnf::to_cnf;
use gradoop_cypher::predicates::eval::{eval_predicate, Bindings};
use gradoop_cypher::{parse, parse_pipeline, CmpOp, Expression, Literal};
use gradoop_epgm::{Label, PropertyValue};
use proptest::prelude::*;
use std::borrow::Cow;

// --- AST generation ----------------------------------------------------------

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        any::<bool>().prop_map(Literal::Boolean),
        (-1000i64..1000).prop_map(Literal::Integer),
        (-100.0f64..100.0).prop_map(Literal::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Literal::String),
    ]
}

fn node_variable() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(|v| Some(v.to_string())),
    ]
}

fn labels() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            Just("A".to_string()),
            Just("B".to_string()),
            Just("C".to_string())
        ],
        0..3,
    )
    .prop_map(|mut ls| {
        ls.dedup();
        ls
    })
}

fn map_value() -> impl Strategy<Value = MapValue> {
    prop_oneof![
        literal().prop_map(MapValue::Literal),
        prop_oneof![Just("par1"), Just("par2")].prop_map(|n| MapValue::Parameter(n.to_string())),
    ]
}

fn property_map() -> impl Strategy<Value = Vec<(String, MapValue)>> {
    proptest::collection::vec(
        (
            prop_oneof![Just("p".to_string()), Just("q".to_string())],
            map_value(),
        ),
        0..2,
    )
    .prop_map(|mut entries| {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        entries
    })
}

fn node_pattern() -> impl Strategy<Value = NodePattern> {
    (node_variable(), labels(), property_map()).prop_map(|(variable, labels, properties)| {
        NodePattern {
            variable,
            labels,
            properties,
        }
    })
}

fn path_range() -> impl Strategy<Value = Option<PathRange>> {
    // `*1..1` normalizes to a plain edge during query-graph construction
    // but must still roundtrip through the printer.
    prop_oneof![
        Just(None),
        (0usize..3, 0usize..4)
            .prop_map(|(lower, extra)| Some(PathRange::closed(lower, lower + extra))),
        // Open ranges print as `*l..` and reparse with the default cap.
        (0usize..3)
            .prop_map(|lower| Some(PathRange::open(lower, gradoop_cypher::DEFAULT_MAX_HOPS))),
    ]
}

fn rel_pattern(index: usize) -> impl Strategy<Value = RelPattern> {
    let variable = prop_oneof![Just(None), Just(Some(format!("e{index}"))),];
    (
        variable,
        labels(),
        property_map(),
        prop_oneof![
            Just(Direction::Outgoing),
            Just(Direction::Incoming),
            Just(Direction::Undirected)
        ],
        path_range(),
    )
        .prop_map(
            |(variable, labels, properties, direction, range)| RelPattern {
                variable,
                labels,
                properties,
                direction,
                range,
            },
        )
}

fn query() -> impl Strategy<Value = Query> {
    let pattern = (node_pattern(), rel_pattern(0), node_pattern(), path_range()).prop_map(
        |(start, rel, end, _)| PathPattern {
            start,
            steps: vec![(rel, end)],
        },
    );
    (pattern, proptest::option::of(rel_pattern(1))).prop_map(|(mut pattern, extra)| {
        if let Some(rel) = extra {
            pattern.steps.push((
                rel,
                NodePattern {
                    variable: Some("z".to_string()),
                    labels: vec![],
                    properties: vec![],
                },
            ));
        }
        Query {
            patterns: vec![pattern],
            where_clause: None,
            return_clause: ReturnClause {
                items: vec![ReturnItem::All],
            },
        }
    })
}

proptest! {
    #[test]
    fn pretty_printed_ast_reparses_identically(q in query()) {
        let printed = q.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(reparsed, q, "{}", printed);
    }
}

// --- byte-level robustness ---------------------------------------------------

/// Arbitrary text: runs of characters the lexer gives a meaning to (lone
/// quotes, backticks, `$`, `/`, `\\`), multi-byte characters, and whole
/// fragments — an integer beyond `i64`, keywords, a well-formed clause — so
/// cases reach past the first token.
fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[ \n\ta-fA-F_0-9'\"`$/\\.,:;|*<>=(){}[+^?!é€𝔸-]{0,8}",
            Just("]".to_string()),
            Just("12345678901234567890".to_string()),
            Just("MATCH (a:A)-[e:x*1..2]->(b {p: 1e9})".to_string()),
            Just(" WHERE a.p <> $né AND NOT b.q IS NULL".to_string()),
            Just(" RETURN DISTINCT a.p AS p, count(*) ORDER BY p SKIP 1 LIMIT 2".to_string()),
            Just(" UNWIND [1, 'x', .5] AS v WITH v OPTIONAL MATCH".to_string()),
            Just("// comment\n".to_string()),
        ],
        0..6,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000 })]
    #[test]
    fn no_text_panics_the_front_end(text in arbitrary_text()) {
        // Every entry point answers `Ok` or a `ParseError` whose position
        // lies in the text — reaching the assertions is the property.
        let lines = text.lines().count().max(1) + 1;
        for error in [
            lex(&text).err(),
            parse_pipeline(&text).err(),
            parse(&text).err(),
        ]
        .into_iter()
        .flatten()
        {
            prop_assert!(error.position.line <= lines, "{error} in {text:?}");
        }
        // One lex gives `lex`'s answer and a shape for any text; every span
        // is a char-boundary slice, in order, of the text.
        let (shape, tokens) = lex_shape(&text);
        prop_assert_eq!(&tokens, &lex(&text), "{:?}", text);
        prop_assert!(tokens.is_ok() || !shape.is_empty(), "{:?}", text);
        let mut end = 0;
        for token in tokens.iter().flatten() {
            prop_assert!(end <= token.span.start && token.span.start <= token.span.end);
            prop_assert!(text.get(token.span.clone()).is_some(), "{:?} in {:?}", token, text);
            end = token.span.end;
        }
    }
}

// --- CNF semantics ------------------------------------------------------------

/// Bindings where every referenced property is a defined integer, so all
/// comparisons are comparable and two-valued logic is classical.
struct TotalBindings {
    a_p: i64,
    b_p: i64,
}

impl Bindings for TotalBindings {
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>> {
        match (variable, key) {
            ("a", "p") => Some(Cow::Owned(PropertyValue::Long(self.a_p))),
            ("b", "p") => Some(Cow::Owned(PropertyValue::Long(self.b_p))),
            _ => None,
        }
    }
    fn label(&self, _: &str) -> Option<Label> {
        None
    }
    fn element_id(&self, _: &str) -> Option<u64> {
        None
    }
}

fn comparable_expression() -> impl Strategy<Value = Expression> {
    let atom = (
        prop_oneof![Just("a"), Just("b")],
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Neq),
            Just(CmpOp::Lt),
            Just(CmpOp::Lte),
            Just(CmpOp::Gt),
            Just(CmpOp::Gte)
        ],
        prop_oneof![
            (-3i64..4)
                .prop_map(Literal::Integer)
                .prop_map(Expression::Literal)
                .boxed(),
            Just(Expression::Property {
                variable: "b".into(),
                key: "p".into()
            })
            .boxed(),
        ],
    )
        .prop_map(|(variable, op, right)| Expression::Comparison {
            left: Box::new(Expression::Property {
                variable: variable.to_string(),
                key: "p".into(),
            }),
            op,
            right: Box::new(right),
        });
    atom.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expression::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expression::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Expression::Not(Box::new(a))),
        ]
    })
}

/// Direct recursive two-valued evaluation, for comparable operands only.
fn eval_direct(expr: &Expression, bindings: &TotalBindings) -> bool {
    match expr {
        Expression::And(a, b) => eval_direct(a, bindings) && eval_direct(b, bindings),
        Expression::Or(a, b) => eval_direct(a, bindings) || eval_direct(b, bindings),
        Expression::Not(a) => !eval_direct(a, bindings),
        Expression::Comparison { left, op, right } => {
            let value = |e: &Expression| -> i64 {
                match e {
                    Expression::Literal(Literal::Integer(v)) => *v,
                    Expression::Property { variable, key } => {
                        match bindings.property(variable, key).as_deref() {
                            Some(PropertyValue::Long(v)) => *v,
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    other => panic!("unexpected operand {other:?}"),
                }
            };
            let (l, r) = (value(left), value(right));
            match op {
                CmpOp::Eq => l == r,
                CmpOp::Neq => l != r,
                CmpOp::Lt => l < r,
                CmpOp::Lte => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Gte => l >= r,
            }
        }
        other => panic!("unexpected expression {other:?}"),
    }
}

proptest! {
    #[test]
    fn cnf_preserves_semantics_on_comparable_values(
        expr in comparable_expression(),
        a_p in -3i64..4,
        b_p in -3i64..4,
    ) {
        let bindings = TotalBindings { a_p, b_p };
        let direct = eval_direct(&expr, &bindings);
        let cnf = to_cnf(&expr);
        prop_assert_eq!(
            eval_predicate(&cnf, &bindings),
            direct,
            "expr {} / cnf {}",
            expr,
            cnf
        );
    }
}

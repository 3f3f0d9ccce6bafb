//! The query texts of every workload, and the seeded pool of novel shapes.

use std::collections::{HashMap, HashSet};

use gradoop_core::{normalize_query_shape, stable_digest};
use gradoop_cypher::Literal;
use gradoop_ldbc::{BenchmarkQuery, GeneratedData};

use crate::rng::Rng;

/// Shapes in the novel pool — more than the plan cache holds, so a server
/// cycling through it must evict.
pub const POOL_SIZE: usize = 512;
const _: () = assert!(POOL_SIZE > gradoop_core::DEFAULT_PLAN_CAPACITY);
/// Names `$firstName` rotates over in `concurrent_small`.
pub const ROTATION_NAMES: usize = 8;

/// One operation: a query text and the value bound to `$firstName`, if the
/// text has that parameter.
#[derive(Debug, Clone)]
pub struct Op {
    /// Human-readable name, unique within a workload (`q3/low`, `novel/017`).
    pub label: String,
    pub text: String,
    pub first_name: Option<String>,
    pub params: HashMap<String, Literal>,
}

impl Op {
    fn new(label: impl Into<String>, text: impl Into<String>, first_name: Option<&str>) -> Op {
        let params = first_name
            .map(|name| {
                HashMap::from([("firstName".to_string(), Literal::String(name.to_string()))])
            })
            .unwrap_or_default();
        Op {
            label: label.into(),
            text: text.into(),
            first_name: first_name.map(str::to_string),
            params,
        }
    }

    /// Identity of the operation in the golden file: a digest of the text
    /// and the bound name, so an edited text can never match a stale entry.
    pub fn key(&self) -> String {
        stable_digest(&format!(
            "{}\u{1f}{}",
            self.text,
            self.first_name.as_deref().unwrap_or("")
        ))
    }

    /// The text with the parameter written inline — the reference
    /// interpreter takes no parameters.
    pub fn inlined_text(&self) -> String {
        match &self.first_name {
            Some(name) => self.text.replace("$firstName", &format!("'{name}'")),
            None => self.text.clone(),
        }
    }
}

pub const TRIANGLE: &str = "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
     (a)-[e3:knows]->(c) RETURN *";
pub const DIAMOND: &str = "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e2:knows]->(c:Person), \
     (c)-[e3:knows]->(d:Person), (a)-[e4:knows]->(d), (a)-[e5:knows]->(c) RETURN *";

/// The five clause-pipeline texts. Each is non-simple (`Pipeline::as_simple`
/// is `None`), so it runs through `execute_pipeline`; every `ORDER BY`
/// carries a tie-breaker so rows are deterministic.
pub const PIPELINES: [(&str, &str); 5] = [
    (
        "degree_topk",
        "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree \
         OPTIONAL MATCH (a)-[:studyAt]->(u:University) \
         RETURN a.firstName, degree ORDER BY degree DESC, a.firstName LIMIT 10",
    ),
    (
        "interest_topk",
        "MATCH (p:Person)-[:hasInterest]->(t:Tag) \
         RETURN t.name, count(*) AS fans ORDER BY fans DESC, t.name LIMIT 10",
    ),
    (
        "distinct_sorted",
        "MATCH (p:Person)-[:isLocatedIn]->(c:City) \
         RETURN DISTINCT c.name AS city, p.lastName AS family ORDER BY city, family",
    ),
    (
        "with_where_match",
        "MATCH (a:Person)-[:knows]->(b:Person) WITH a, count(*) AS degree WHERE degree > 8 \
         MATCH (a)-[:isLocatedIn]->(c:City) \
         RETURN c.name, count(*) AS hubs ORDER BY hubs DESC, c.name",
    ),
    (
        "collect_unwind_sort",
        "MATCH (p:Person)-[:isLocatedIn]->(c:City) WITH c, collect(p.lastName) AS families \
         UNWIND families AS family RETURN c.name, family ORDER BY c.name, family",
    ),
];

/// Q1–Q3 with `$firstName` bound to the dataset's rare (`high` selectivity)
/// and most common (`low`) name.
pub fn operational_ops(high: &str, low: &str) -> Vec<Op> {
    let mut ops = Vec::new();
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        for (level, name) in [("high", high), ("low", low)] {
            ops.push(Op::new(
                format!("q{}/{level}", query.number()),
                query.parameterized_text(),
                Some(name),
            ));
        }
    }
    ops
}

/// Q4–Q6 and the two cyclic `knows` patterns.
pub fn analytical_ops() -> Vec<Op> {
    let mut ops: Vec<Op> = [BenchmarkQuery::Q4, BenchmarkQuery::Q5, BenchmarkQuery::Q6]
        .iter()
        .map(|query| Op::new(format!("q{}", query.number()), query.text(None), None))
        .collect();
    ops.push(Op::new("triangle", TRIANGLE, None));
    ops.push(Op::new("diamond", DIAMOND, None));
    ops
}

/// The five pipeline texts.
pub fn pipeline_ops() -> Vec<Op> {
    PIPELINES
        .iter()
        .map(|(label, text)| Op::new(*label, *text, None))
        .collect()
}

/// The 13 texts above with `$firstName` rotated over `names`: the repeated
/// shapes of `concurrent_small`.
pub fn mixed_ops(names: &[String]) -> Vec<Op> {
    let mut ops = Vec::new();
    for query in [BenchmarkQuery::Q1, BenchmarkQuery::Q2, BenchmarkQuery::Q3] {
        for name in names {
            ops.push(Op::new(
                format!("q{}/{name}", query.number()),
                query.parameterized_text(),
                Some(name),
            ));
        }
    }
    ops.extend(analytical_ops());
    ops.extend(pipeline_ops());
    ops
}

/// `count` first names spread evenly over the dataset's frequency ranking,
/// from the most common to the rarest.
pub fn rotation_names(data: &GeneratedData, count: usize) -> Vec<String> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for name in &data.first_names {
        *counts.entry(name).or_insert(0) += 1;
    }
    let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    assert!(
        ranked.len() >= count,
        "dataset has fewer than {count} names"
    );
    (0..count)
        .map(|i| ranked[i * (ranked.len() - 1) / (count - 1)].0.to_string())
        .collect()
}

const PERSON_COLUMNS: [&str; 4] = ["firstName", "lastName", "gender", "birthday"];

/// A one- or two-hop pattern anchored on `(p:Person)` with the variables
/// whose properties a RETURN list may draw from. `{K}` is a hop bound.
struct Template {
    pattern: &'static str,
    columns: &'static [(&'static str, &'static [&'static str])],
}

const TEMPLATES: [Template; 10] = [
    Template {
        pattern: "(p:Person)-[:knows]->(q:Person)",
        columns: &[("p", &PERSON_COLUMNS), ("q", &PERSON_COLUMNS)],
    },
    Template {
        pattern: "(p:Person)<-[:knows]-(q:Person)",
        columns: &[("p", &PERSON_COLUMNS), ("q", &PERSON_COLUMNS)],
    },
    Template {
        pattern: "(p:Person)-[:isLocatedIn]->(c:City)",
        columns: &[("p", &PERSON_COLUMNS), ("c", &["name"])],
    },
    Template {
        pattern: "(p:Person)-[:hasInterest]->(t:Tag)",
        columns: &[("p", &PERSON_COLUMNS), ("t", &["name"])],
    },
    Template {
        pattern: "(p:Person)-[:studyAt]->(u:University)",
        columns: &[("p", &PERSON_COLUMNS), ("u", &["name"])],
    },
    Template {
        pattern: "(p:Person)<-[:hasCreator]-(m:Post)",
        columns: &[("p", &PERSON_COLUMNS), ("m", &["content", "creationDate"])],
    },
    Template {
        pattern: "(p:Person)<-[:hasModerator]-(f:Forum)",
        columns: &[("p", &PERSON_COLUMNS), ("f", &["title"])],
    },
    Template {
        pattern: "(p:Person)<-[:hasMember]-(f:Forum)",
        columns: &[("p", &PERSON_COLUMNS), ("f", &["title"])],
    },
    Template {
        pattern: "(p:Person)<-[:hasCreator]-(m:Comment), (m)-[:replyOf*1..{K}]->(o:Post)",
        columns: &[
            ("p", &PERSON_COLUMNS),
            ("m", &["content", "creationDate"]),
            ("o", &["content", "creationDate"]),
        ],
    },
    Template {
        pattern: "(p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City)",
        columns: &[
            ("p", &PERSON_COLUMNS),
            ("q", &PERSON_COLUMNS),
            ("c", &["name"]),
        ],
    },
];

/// Extra conjuncts on the anchor. Literals collapse to `?` in a shape, so
/// what distinguishes two conjuncts is the property and the operator.
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

/// The seeded pool of [`POOL_SIZE`] structurally distinct cheap queries:
/// templates × hop bounds × RETURN lists × extra conjuncts, each anchored on
/// one of `names`, kept only when its normalized shape is new.
pub fn novel_pool(seed: u64, names: &[String]) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x706f_6f6c);
    let mut shapes: HashSet<String> = HashSet::new();
    let mut pool = Vec::with_capacity(POOL_SIZE);
    while pool.len() < POOL_SIZE {
        let template = &TEMPLATES[rng.below(TEMPLATES.len())];
        let pattern = template
            .pattern
            .replace("{K}", &(2 + rng.below(4)).to_string());

        let mut columns: Vec<String> = template
            .columns
            .iter()
            .flat_map(|(variable, keys)| keys.iter().map(move |key| format!("{variable}.{key}")))
            .collect();
        rng.shuffle(&mut columns);
        columns.truncate(1 + rng.below(4));

        let mut conjuncts: Vec<&str> = CONJUNCTS.to_vec();
        rng.shuffle(&mut conjuncts);
        conjuncts.truncate(rng.below(3));

        let name = &names[pool.len() % names.len()];
        let mut text = format!("MATCH {pattern} WHERE p.firstName = '{name}'");
        for conjunct in conjuncts {
            text.push_str(" AND ");
            text.push_str(conjunct);
        }
        text.push_str(" RETURN ");
        text.push_str(&columns.join(", "));

        if shapes.insert(normalize_query_shape(&text)) {
            pool.push(Op::new(format!("novel/{:03}", pool.len()), text, None));
        }
    }
    pool
}

/// Every distinct text of the suite: the 13 standard texts (Q1–Q3 bound to
/// `name`) and the pool — what `frontend_cold` plans.
pub fn frontend_ops(name: &str, pool: &[Op]) -> Vec<Op> {
    let mut ops = mixed_ops(&[name.to_string()]);
    ops.extend(pool.iter().cloned());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradoop_cypher::parse_pipeline;

    fn names() -> Vec<String> {
        [
            "Jan", "Maria", "Chen", "Ali", "Zora", "Enzo", "Priya", "Hedda",
        ]
        .iter()
        .map(|name| name.to_string())
        .collect()
    }

    fn texts(ops: &[Op]) -> Vec<&str> {
        ops.iter().map(|op| op.text.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_pool() {
        let a = novel_pool(42, &names());
        let b = novel_pool(42, &names());
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&novel_pool(43, &names())));
    }

    #[test]
    fn pool_has_512_distinct_shapes() {
        let pool = novel_pool(42, &names());
        assert_eq!(pool.len(), POOL_SIZE);
        let shapes: HashSet<String> = pool
            .iter()
            .map(|op| normalize_query_shape(&op.text))
            .collect();
        assert_eq!(shapes.len(), POOL_SIZE);
    }

    #[test]
    fn every_workload_text_parses() {
        let pool = novel_pool(42, &names());
        let mut all = operational_ops("Enzo", "Jan");
        all.extend(mixed_ops(&names()));
        all.extend(frontend_ops("Jan", &pool));
        for op in &all {
            parse_pipeline(&op.text).unwrap_or_else(|e| panic!("{}: {e}", op.label));
            parse_pipeline(&op.inlined_text()).unwrap_or_else(|e| panic!("{}: {e}", op.label));
        }
    }

    #[test]
    fn pipeline_texts_take_the_pipeline_path_and_the_rest_do_not() {
        for op in pipeline_ops() {
            let pipeline = parse_pipeline(&op.text).unwrap();
            assert!(pipeline.as_simple().is_none(), "{} is simple", op.label);
        }
        let mut simple = operational_ops("Enzo", "Jan");
        simple.extend(analytical_ops());
        simple.extend(novel_pool(42, &names()));
        for op in simple {
            let pipeline = parse_pipeline(&op.text).unwrap();
            assert!(pipeline.as_simple().is_some(), "{} is not simple", op.label);
        }
    }

    #[test]
    fn keys_separate_texts_and_names() {
        let ops = mixed_ops(&names());
        let keys: HashSet<String> = ops.iter().map(Op::key).collect();
        assert_eq!(keys.len(), ops.len());
        assert_eq!(ops.len(), 3 * ROTATION_NAMES + 10);
    }
}

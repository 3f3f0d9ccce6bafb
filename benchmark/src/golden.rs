//! The benchmark's own correctness oracle: a digest of every result from
//! its own row rendering, the committed golden answers, and the reference
//! interpreter for operations the golden file does not cover.

use std::collections::HashMap;

use gradoop_core::{reference_pipeline, MatchingConfig, Row, Value};
use gradoop_cypher::parse_pipeline;
use gradoop_dataflow::JsonValue;
use gradoop_epgm::LogicalGraph;

use crate::texts::Op;

/// Row count and digest of one result table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub digest: u64,
}

/// FNV-1a over tagged value bytes, finished with a splitmix round so sums
/// of row hashes do not cancel.
struct Hasher(u64);

impl Hasher {
    fn new() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn number(&mut self, tag: u8, value: u64) {
        self.bytes(&[tag]);
        self.bytes(&value.to_le_bytes());
    }

    fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => self.number(2, *i as u64),
            Value::Float(f) => {
                // -0.0 and 0.0 compare equal, every NaN is one value.
                let canonical = if *f == 0.0 {
                    0.0
                } else if f.is_nan() {
                    f64::NAN
                } else {
                    *f
                };
                self.number(3, canonical.to_bits());
            }
            Value::Str(s) => {
                self.number(4, s.len() as u64);
                self.bytes(s.as_bytes());
            }
            Value::Vertex(id) => self.number(5, *id),
            Value::Edge(id) => self.number(6, *id),
            Value::Path(ids) => {
                self.number(7, ids.len() as u64);
                for id in ids {
                    self.bytes(&id.to_le_bytes());
                }
            }
            Value::List(items) => {
                self.number(8, items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
        }
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Digest of a result table: column names plus the sum of row hashes —
/// order-insensitive, unless the table is `ordered`, in which case every
/// row hash also covers its position.
pub fn answer_of(columns: &[String], rows: &[Row], ordered: bool) -> Answer {
    let mut header = Hasher::new();
    for column in columns {
        header.number(9, column.len() as u64);
        header.bytes(column.as_bytes());
    }
    let mut digest = header.finish();
    for (position, row) in rows.iter().enumerate() {
        let mut hasher = Hasher::new();
        if ordered {
            hasher.number(10, position as u64);
        }
        for value in row {
            hasher.value(value);
        }
        digest = digest.wrapping_add(hasher.finish());
    }
    Answer {
        rows: rows.len() as u64,
        digest,
    }
}

/// What the reference interpreter answers for `op` on `graph`.
pub fn oracle_answer(graph: &LogicalGraph, op: &Op) -> Result<Answer, String> {
    let pipeline = parse_pipeline(&op.inlined_text()).map_err(|e| e.to_string())?;
    let table = reference_pipeline(graph, &pipeline, &MatchingConfig::cypher_default())?;
    Ok(answer_of(&table.columns, &table.rows, table.ordered))
}

/// The committed answers (per graph size) and plan digests.
#[derive(Debug, Default)]
pub struct Golden {
    answers: HashMap<String, Answer>,
    plans: HashMap<String, String>,
}

fn answer_key(persons: usize, op: &Op) -> String {
    format!("{persons}/{}", op.key())
}

impl Golden {
    /// The golden file this binary was built with.
    pub fn embedded() -> Result<Golden, String> {
        Golden::parse(include_str!("../golden/seed42.json"))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let document = JsonValue::parse(text)?;
        let section = |name: &str| match document.get(name) {
            Some(JsonValue::Object(pairs)) => Ok(pairs.as_slice()),
            _ => Err(format!("golden file has no `{name}` object")),
        };
        let mut golden = Golden::default();
        for (key, entry) in section("answers")? {
            let rows = entry.get("rows").and_then(JsonValue::as_f64);
            let digest = entry
                .get("digest")
                .and_then(JsonValue::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            let (Some(rows), Some(digest)) = (rows, digest) else {
                return Err(format!("golden answer `{key}` is malformed"));
            };
            golden.answers.insert(
                key.clone(),
                Answer {
                    rows: rows as u64,
                    digest,
                },
            );
        }
        for (key, digest) in section("plans")? {
            let digest = digest
                .as_str()
                .ok_or_else(|| format!("golden plan `{key}` is malformed"))?;
            golden.plans.insert(key.clone(), digest.to_string());
        }
        Ok(golden)
    }

    pub fn answer(&self, persons: usize, op: &Op) -> Option<Answer> {
        self.answers.get(&answer_key(persons, op)).copied()
    }

    pub fn plan(&self, op: &Op) -> Option<&str> {
        self.plans.get(&op.key()).map(String::as_str)
    }
}

/// Collects answers and plans and renders the golden file, one entry per
/// line so a regeneration diffs readably.
#[derive(Debug, Default)]
pub struct GoldenWriter {
    answers: Vec<(String, String, Answer)>,
    plans: Vec<(String, String, String)>,
}

impl GoldenWriter {
    pub fn answer(&mut self, persons: usize, op: &Op, answer: Answer) {
        self.answers
            .push((answer_key(persons, op), op.label.clone(), answer));
    }

    pub fn plan(&mut self, op: &Op, digest: String) {
        self.plans.push((op.key(), op.label.clone(), digest));
    }

    pub fn render(mut self) -> String {
        self.answers.sort_by(|a, b| a.0.cmp(&b.0));
        self.answers.dedup_by(|a, b| a.0 == b.0);
        self.plans.sort_by(|a, b| a.0.cmp(&b.0));
        self.plans.dedup_by(|a, b| a.0 == b.0);
        let answers: Vec<String> = self
            .answers
            .iter()
            .map(|(key, label, answer)| {
                format!(
                    "    \"{key}\": {{\"label\": \"{label}\", \"rows\": {}, \"digest\": \"{:016x}\"}}",
                    answer.rows, answer.digest
                )
            })
            .collect();
        let plans: Vec<String> = self
            .plans
            .iter()
            .map(|(key, _, digest)| format!("    \"{key}\": \"{digest}\""))
            .collect();
        format!(
            "{{\n  \"version\": 1,\n  \"answers\": {{\n{}\n  }},\n  \"plans\": {{\n{}\n  }}\n}}\n",
            answers.join(",\n"),
            plans.join(",\n")
        )
    }
}

/// The expected answer of every op: from the golden file where it has one,
/// otherwise from the reference interpreter on `graph` (only affordable on
/// the persons=100 graph, which is the only place the seeded pool runs).
/// Returns how the workload is verified: `golden` or `golden+oracle`.
pub fn expected_answers(
    golden: &Golden,
    persons: usize,
    graph: &LogicalGraph,
    ops: &[Op],
    threads: usize,
) -> Result<(Vec<Answer>, &'static str), String> {
    let mut expected: Vec<Option<Answer>> =
        ops.iter().map(|op| golden.answer(persons, op)).collect();
    let missing: Vec<usize> = (0..ops.len()).filter(|&i| expected[i].is_none()).collect();
    if missing.is_empty() {
        return Ok((expected.into_iter().flatten().collect(), "golden"));
    }
    if persons > 100 {
        return Err(format!(
            "no golden answer for `{}` on persons={persons}; run `regen-golden`",
            ops[missing[0]].label
        ));
    }
    let threads = threads.max(1);
    let computed: Vec<Vec<(usize, Result<Answer, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let missing = &missing;
                scope.spawn(move || {
                    missing
                        .iter()
                        .skip(worker)
                        .step_by(threads)
                        .map(|&i| (i, oracle_answer(graph, &ops[i])))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("oracle thread panicked"))
            .collect()
    });
    for (i, answer) in computed.into_iter().flatten() {
        expected[i] = Some(answer.map_err(|e| format!("oracle on `{}`: {e}", ops[i].label))?);
    }
    Ok((expected.into_iter().flatten().collect(), "golden+oracle"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[i64]) -> Row {
        values.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn unordered_digest_ignores_row_order_and_ordered_does_not() {
        let columns = vec!["a".to_string(), "b".to_string()];
        let forward = vec![row(&[1, 2]), row(&[3, 4])];
        let backward = vec![row(&[3, 4]), row(&[1, 2])];
        assert_eq!(
            answer_of(&columns, &forward, false),
            answer_of(&columns, &backward, false)
        );
        assert_ne!(
            answer_of(&columns, &forward, true),
            answer_of(&columns, &backward, true)
        );
        // Swapping cells within a row, or renaming a column, changes it.
        assert_ne!(
            answer_of(&columns, &forward, false),
            answer_of(&columns, &[row(&[2, 1]), row(&[3, 4])], false)
        );
        assert_ne!(
            answer_of(&columns, &forward, false),
            answer_of(&["a".to_string(), "c".to_string()], &forward, false)
        );
    }

    #[test]
    fn value_kinds_do_not_collide() {
        let columns = vec!["x".to_string()];
        let digests: Vec<u64> = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Str(String::new()),
            Value::Vertex(0),
            Value::Edge(0),
            Value::Path(vec![]),
            Value::List(vec![]),
        ]
        .into_iter()
        .map(|value| answer_of(&columns, &[vec![value]], false).digest)
        .collect();
        let distinct: std::collections::HashSet<&u64> = digests.iter().collect();
        assert_eq!(distinct.len(), digests.len());
    }

    #[test]
    fn golden_round_trips() {
        let op = crate::texts::analytical_ops().remove(0);
        let answer = Answer {
            rows: 17,
            digest: 0xdead_beef_0123_4567,
        };
        let mut writer = GoldenWriter::default();
        writer.answer(1000, &op, answer);
        writer.plan(&op, "00ff".to_string());
        let golden = Golden::parse(&writer.render()).unwrap();
        assert_eq!(golden.answer(1000, &op), Some(answer));
        assert_eq!(golden.answer(100, &op), None);
        assert_eq!(golden.plan(&op), Some("00ff"));
    }

    #[test]
    fn embedded_golden_parses() {
        Golden::embedded().unwrap();
    }
}

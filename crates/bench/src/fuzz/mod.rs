//! Cypher semantics conformance fuzzing.
//!
//! The distributed engine has many configurations that must all agree —
//! planner statistics on/off, three planner modes on cyclic patterns, plain
//! vs label-indexed graphs, four morphism combinations — and the
//! single-machine reference matcher defines what "agree" means. This
//! module generates random `(graph, query)` pairs from a seed, runs every
//! engine configuration, and compares result sets result-for-result
//! against the reference. On divergence it shrinks the pair to a minimal
//! reproduction and archives it as JSON under `target/conformance/` so CI
//! can attach it to the build artifacts.
//!
//! The generator deliberately stresses the semantic corners where
//! distributed Cypher engines historically diverge from the specification:
//!
//! * three-valued logic — `NULL`/missing properties inside `NOT`, `AND`,
//!   `OR` trees (unknown must never flip to true under negation);
//! * cross-type numeric comparisons (`Int` vs `Long` vs `Float` vs
//!   `Double`, including `Long`s beyond 2^53 where `f64` rounds);
//! * `IS [NOT] NULL` (always two-valued) against both explicit `NULL`s and
//!   absent keys;
//! * variable-length paths, zero-hop ranges, undirected edges, anonymous
//!   variables, label disjunctions and property-to-property comparisons;
//! * multi-clause pipeline tails — `ORDER BY`/`SKIP`/`LIMIT` (with
//!   `DISTINCT`), `RETURN DISTINCT` of one property after a `WITH count(*)`
//!   barrier, grouped aggregation, `WITH … MATCH` barriers,
//!   `OPTIONAL MATCH` NULL padding, and `UNWIND` over lists that include
//!   `NULL` elements. Tail cases compare `CypherEngine::run` tables
//!   against `reference_pipeline` (ordered results positionally,
//!   unordered as sorted multisets).
//!
//! Everything is reproducible: `GRADOOP_TEST_SEED` pins the universe, and
//! each archived repro names the seed and case index it came from.

mod gen;
mod runner;
mod shrink;

pub use gen::{
    random_cyclic_query, random_graph, random_query, AggSpec, Cond, Dir, EdgePat, EdgeSpec,
    GraphSpec, LitSpec, NodePat, QuerySpec, Rng, TailSpec, Term, VertexSpec,
};
pub use runner::{
    engine_rows, pipeline_engine_rows, random_case, reference_rows, run_case, still_fails, Answer,
    Canonical, CaseOutcome, CaseSpec, EngineConfig, Mismatch, MORPHISMS,
};
pub use shrink::shrink;

use std::path::PathBuf;
use std::time::Instant;

/// Configuration of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed of the campaign (every case derives from it).
    pub seed: u64,
    /// Number of `(graph, query)` cases to generate.
    pub cases: usize,
    /// Shrink and archive mismatches under `target/conformance/`.
    pub archive: bool,
}

impl FuzzConfig {
    /// A campaign of `cases` cases under `seed`, with archiving on.
    pub fn new(seed: u64, cases: usize) -> Self {
        FuzzConfig {
            seed,
            cases,
            archive: true,
        }
    }
}

/// Per-feature case counts, for the campaign report: how often each
/// semantic corner was exercised.
#[derive(Debug, Clone, Default)]
pub struct FeatureCounts {
    /// Cases with a WHERE clause.
    pub where_clause: usize,
    /// Cases with NOT in the WHERE tree.
    pub negation: usize,
    /// Cases with OR in the WHERE tree.
    pub disjunction: usize,
    /// Cases with `IS [NOT] NULL`.
    pub is_null: usize,
    /// Cases with a variable-length relationship.
    pub var_length: usize,
    /// Cases with an undirected relationship.
    pub undirected: usize,
    /// Cases with an anonymous node or relationship.
    pub anonymous: usize,
    /// Cases with a `NULL` literal in the query text.
    pub null_literal: usize,
    /// Cases whose projection has an `ORDER BY`.
    pub order_by: usize,
    /// Cases with `SKIP` and/or `LIMIT`.
    pub skip_limit: usize,
    /// Cases with a `DISTINCT` projection.
    pub distinct: usize,
    /// Cases where the reference's `DISTINCT` removed at least one row —
    /// the cases that would catch an engine skipping it.
    pub distinct_removed: usize,
    /// Cases with an aggregating projection (`count`, `collect`, ...).
    pub aggregate: usize,
    /// Cases with a `WITH` barrier feeding a second `MATCH`.
    pub with_clause: usize,
    /// Cases with an `OPTIONAL MATCH` stage.
    pub optional_match: usize,
    /// Cases with an `UNWIND` stage.
    pub unwind: usize,
    /// Cases whose pattern closes a cycle over plain relationships — the
    /// shapes where the planner's worst-case-optimal `ExpandIntersect`
    /// competes with binary joins.
    pub cyclic: usize,
}

fn cond_has(tree: &Cond, what: fn(&Cond) -> bool) -> bool {
    what(tree) || tree.children().iter().any(|child| cond_has(child, what))
}

fn cond_mentions_null_literal(tree: &Cond) -> bool {
    cond_has(tree, |c| match c {
        Cond::Cmp { left, right, .. } => {
            matches!(left, Term::Lit(LitSpec::Null)) || matches!(right, Term::Lit(LitSpec::Null))
        }
        _ => false,
    })
}

impl FeatureCounts {
    fn record(&mut self, case: &CaseSpec) {
        let query = &case.query;
        if let Some(tree) = &query.where_tree {
            self.where_clause += 1;
            if cond_has(tree, |c| matches!(c, Cond::Not(_))) {
                self.negation += 1;
            }
            if cond_has(tree, |c| matches!(c, Cond::Or(..))) {
                self.disjunction += 1;
            }
            if cond_has(tree, |c| matches!(c, Cond::IsNull { .. })) {
                self.is_null += 1;
            }
            if cond_mentions_null_literal(tree) {
                self.null_literal += 1;
            }
        }
        if query.edges.iter().any(|e| e.range.is_some()) {
            self.var_length += 1;
        }
        if query.edges.iter().any(|e| e.direction == Dir::Undirected) {
            self.undirected += 1;
        }
        if query.nodes.iter().any(|n| n.variable.is_none())
            || query.edges.iter().any(|e| e.variable.is_none())
        {
            self.anonymous += 1;
        }
        if query.is_cyclic() {
            self.cyclic += 1;
        }
        match &query.tail {
            Some(TailSpec::OrderLimit {
                distinct,
                keys,
                skip,
                limit,
            }) => {
                if !keys.is_empty() {
                    self.order_by += 1;
                }
                if skip.is_some() || limit.is_some() {
                    self.skip_limit += 1;
                }
                if *distinct {
                    self.distinct += 1;
                }
            }
            Some(TailSpec::Aggregate { .. }) => self.aggregate += 1,
            Some(TailSpec::WithMatch { .. }) => self.with_clause += 1,
            Some(TailSpec::OptionalTail { .. }) => self.optional_match += 1,
            Some(TailSpec::Unwind { .. }) => self.unwind += 1,
            Some(TailSpec::DistinctProperty { .. }) => self.distinct += 1,
            None => {}
        }
    }
}

/// One archived (shrunk) divergence.
#[derive(Debug)]
pub struct MismatchReport {
    /// Index of the case within the campaign.
    pub case_index: usize,
    /// The shrunk case.
    pub case: CaseSpec,
    /// The shrunk divergence.
    pub mismatch: Mismatch,
    /// Where the JSON repro was written, when archiving succeeded.
    pub archived_at: Option<PathBuf>,
}

/// Result of a fuzzing campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// The campaign seed.
    pub seed: u64,
    /// Cases generated.
    pub cases: usize,
    /// Cases rejected at parse/build time (generator artifacts).
    pub rejected: usize,
    /// Total engine executions across all configurations.
    pub executions: usize,
    /// Accepted (not rejected) cases whose pattern is cyclic: each runs
    /// under every planner mode on every matrix point.
    pub accepted_cyclic: usize,
    /// Total matches the reference produced (a coverage proxy: campaigns
    /// that only generate empty results test little).
    pub reference_matches: usize,
    /// Per-feature exercise counts.
    pub features: FeatureCounts,
    /// Confirmed divergences, shrunk.
    pub mismatches: Vec<MismatchReport>,
    /// Wall-clock duration of the campaign.
    pub wall_seconds: f64,
}

impl FuzzReport {
    /// True when every executed case agreed with the reference.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Cases per second over the campaign.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cases as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "conformance: {} cases (seed {}), {} engine executions, \
             {} reference matches, {} rejected, {} mismatches, {:.1}s \
             ({:.1} cases/s)\n",
            self.cases,
            self.seed,
            self.executions,
            self.reference_matches,
            self.rejected,
            self.mismatches.len(),
            self.wall_seconds,
            self.throughput(),
        );
        let f = &self.features;
        out.push_str(&format!(
            "features: WHERE {} | NOT {} | OR {} | IS NULL {} | var-length {} \
             | undirected {} | anonymous {} | NULL literal {} | cyclic {}\n",
            f.where_clause,
            f.negation,
            f.disjunction,
            f.is_null,
            f.var_length,
            f.undirected,
            f.anonymous,
            f.null_literal,
            f.cyclic,
        ));
        out.push_str(&format!(
            "pipeline: ORDER BY {} | SKIP/LIMIT {} | DISTINCT {} ({} removing rows) \
             | aggregate {} | WITH+MATCH {} | OPTIONAL MATCH {} | UNWIND {}\n",
            f.order_by,
            f.skip_limit,
            f.distinct,
            f.distinct_removed,
            f.aggregate,
            f.with_clause,
            f.optional_match,
            f.unwind,
        ));
        for report in &self.mismatches {
            out.push_str(&format!(
                "MISMATCH case {} [{}]: {}\n",
                report.case_index,
                report.mismatch.config.label(),
                report.mismatch.query_text,
            ));
            if let Some(path) = &report.archived_at {
                out.push_str(&format!("  repro archived at {}\n", path.display()));
            }
        }
        out
    }
}

/// Runs a fuzzing campaign: generates `config.cases` cases from
/// `config.seed`, executes each through the engine's configuration matrix,
/// compares against the reference, and shrinks + archives any divergence.
pub fn run_conformance(config: &FuzzConfig) -> FuzzReport {
    let started = Instant::now();
    let mut rng = Rng::new(config.seed);
    let mut report = FuzzReport {
        seed: config.seed,
        cases: config.cases,
        rejected: 0,
        executions: 0,
        accepted_cyclic: 0,
        reference_matches: 0,
        features: FeatureCounts::default(),
        mismatches: Vec::new(),
        wall_seconds: 0.0,
    };
    for case_index in 0..config.cases {
        let case = random_case(&mut rng);
        report.features.record(&case);
        report.features.distinct_removed += usize::from(runner::distinct_removes_rows(&case));
        let cyclic = usize::from(case.query.is_cyclic());
        match run_case(&case) {
            CaseOutcome::Passed {
                executions,
                reference_matches,
            } => {
                report.executions += executions;
                report.accepted_cyclic += cyclic;
                report.reference_matches += reference_matches;
            }
            CaseOutcome::Rejected { .. } => report.rejected += 1,
            CaseOutcome::Mismatch(mismatch) => {
                report.executions += 1;
                report.accepted_cyclic += cyclic;
                let (shrunk, mismatch) = if config.archive {
                    shrink(&case, &mismatch.config.clone(), *mismatch)
                } else {
                    (case, *mismatch)
                };
                let archived_at = if config.archive {
                    archive_repro(config.seed, case_index, &shrunk, &mismatch)
                } else {
                    None
                };
                report.mismatches.push(MismatchReport {
                    case_index,
                    case: shrunk,
                    mismatch,
                    archived_at,
                });
            }
        }
    }
    report.wall_seconds = started.elapsed().as_secs_f64();
    report
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn json_string_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|item| format!("\"{}\"", json_escape(item)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn answer_json(answer: &Answer) -> String {
    let rendered: Vec<String> = match answer {
        Answer::Matches(rows) => rows.iter().map(|row| format!("{row:?}")).collect(),
        Answer::Table {
            columns,
            ordered,
            rows,
        } => std::iter::once(format!("columns {columns:?}, ordered {ordered}"))
            .chain(rows.iter().map(|row| format!("{:?}", row.0)))
            .collect(),
    };
    json_string_list(&rendered)
}

/// Serializes a shrunk repro as JSON under `target/conformance/`.
/// Best-effort: returns `None` when the directory cannot be written.
pub fn archive_repro(
    seed: u64,
    case_index: usize,
    case: &CaseSpec,
    mismatch: &Mismatch,
) -> Option<PathBuf> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = PathBuf::from(target).join("conformance");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("seed{seed}_case{case_index}.json"));

    let vertices: Vec<String> = case
        .graph
        .vertices
        .iter()
        .map(|v| format!("#{} :{} {:?}", v.id, v.label, v.properties))
        .collect();
    let edges: Vec<String> = case
        .graph
        .edges
        .iter()
        .map(|e| {
            format!(
                "#{} :{} {} -> {} {:?}",
                e.id, e.label, e.source, e.target, e.properties
            )
        })
        .collect();
    let engine_rows = match &mismatch.engine {
        Ok(answer) => answer_json(answer),
        Err(error) => format!("\"error: {}\"", json_escape(error)),
    };
    let body = format!(
        "{{\n  \"seed\": {seed},\n  \"case\": {case_index},\n  \"query\": \"{}\",\n  \
         \"config\": \"{}\",\n  \"matching\": \"{:?}\",\n  \"indexed\": {},\n  \
         \"workers\": {},\n  \"vertices\": {},\n  \"edges\": {},\n  \
         \"engine\": {},\n  \"reference\": {}\n}}\n",
        json_escape(&mismatch.query_text),
        mismatch.config.label(),
        case.matching,
        case.indexed,
        case.workers,
        json_string_list(&vertices),
        json_string_list(&edges),
        engine_rows,
        answer_json(&mismatch.reference),
    );
    std::fs::write(&path, body).ok()?;
    eprintln!("conformance repro archived at {}", path.display());
    Some(path)
}

/// The campaign seed: `GRADOOP_TEST_SEED` when set (the same switch the
/// chaos tests honour), else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("GRADOOP_TEST_SEED") {
        Ok(text) => text
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("GRADOOP_TEST_SEED must be a u64, got {text:?}")),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let config = FuzzConfig {
            seed: 0xC0FFEE,
            cases: 20,
            archive: false,
        };
        let a = run_conformance(&config);
        assert!(a.is_clean(), "{}", a.summary());
        assert!(a.executions > 0);
        let b = run_conformance(&config);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.reference_matches, b.reference_matches);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn shrinker_reduces_an_artificial_divergence() {
        // Build a case, then sabotage the comparison by asking still_fails
        // for a case whose engine and reference agree — it must return
        // None (no false positives to shrink).
        let mut rng = Rng::new(1);
        let case = random_case(&mut rng);
        for config in EngineConfig::matrix() {
            assert!(still_fails(&case, &config).is_none());
        }
    }
}

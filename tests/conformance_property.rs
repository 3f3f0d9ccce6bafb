//! Differential conformance: a pinned-seed batch of random `(graph, query)`
//! cases runs through every engine configuration and must agree with the
//! single-machine reference matcher result-for-result.
//!
//! This is the always-on slice of the fuzzing subsystem
//! (`gradoop_bench::fuzz`); the larger campaign runs in the CI
//! `conformance` lane and via `repro --conformance`. Override the universe
//! with `GRADOOP_TEST_SEED=<n>` to explore or to reproduce a reported
//! failure; mismatches shrink themselves and archive a JSON repro under
//! `target/conformance/`.

mod common;

use common::{test_seed, ReproHint};
use gradoop::core::PlanMode;
use gradoop_bench::fuzz::{run_conformance, EngineConfig, FuzzConfig};

/// Case budget for the in-suite batch: large enough to exercise every
/// generator feature (WHERE trees, NOT, IS NULL, var-length paths,
/// cross-type literals), small enough for `cargo test -q`.
const CASES: usize = 150;

#[test]
fn engine_matches_reference_on_random_cases() {
    let seed = test_seed();
    let _hint = ReproHint::new(
        "--test conformance_property engine_matches_reference_on_random_cases",
        seed,
    );
    let report = run_conformance(&FuzzConfig::new(seed, CASES));
    assert!(
        report.is_clean(),
        "conformance mismatches found:\n{}",
        report.summary()
    );
    // The batch must actually exercise the engine: every accepted case ran
    // on every matrix point, a cyclic one under every planner mode, and the
    // reference produced matches (otherwise the generator drifted into a
    // corner of empty results).
    let accepted = CASES - report.rejected;
    let plan_modes = [
        PlanMode::CostBased,
        PlanMode::ForceBinary,
        PlanMode::ForceWco,
    ]
    .len();
    let runs_per_point = accepted + (plan_modes - 1) * report.accepted_cyclic;
    assert_eq!(
        report.executions,
        EngineConfig::matrix().len() * runs_per_point,
        "{} accepted cases, {} of them cyclic",
        accepted,
        report.accepted_cyclic
    );
    assert!(report.reference_matches > 0);
    assert!(report.features.where_clause > 0);
    assert!(report.features.negation > 0);
    assert!(report.features.var_length > 0);
    assert!(report.features.is_null > 0);
    // Some case's projection repeats a row, so an engine that skipped
    // `DISTINCT` would disagree with the reference on it.
    assert!(report.features.distinct_removed > 0, "{}", report.summary());
}

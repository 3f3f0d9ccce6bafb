//! `regen-golden`: rewrites the golden file from the engine's answers at the
//! default seed, after checking the engine against the reference interpreter
//! wherever the interpreter is affordable (the persons=100 graph).

use gradoop_core::{stable_digest, CypherEngine};

use crate::golden::{answer_of, expected_answers, Answer, Golden, GoldenWriter};
use crate::spec;
use crate::texts::Op;
use crate::workload::{build, nproc, Built, Inputs};

pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/seed42.json");
pub const DEFAULT_SEED: u64 = 42;

fn engine_answers(built: &Built, ops: &[Op]) -> Result<Vec<Answer>, String> {
    let session = built.server.session();
    ops.iter()
        .map(|op| {
            let table = session
                .query(&op.text, &op.params)
                .map_err(|e| format!("{}: {e}", op.label))?;
            Ok(answer_of(&table.columns, &table.rows, table.ordered))
        })
        .collect()
}

/// The distinct ops `workload` runs on `built` at the default seed.
fn workload_ops(built: &Built, workload: &str) -> Result<Vec<Op>, String> {
    let inputs = Inputs::derive(
        workload,
        DEFAULT_SEED,
        &built.high,
        &built.low,
        &built.rotation,
        1,
    )?;
    Ok(inputs.ops)
}

pub fn regen_golden() -> Result<(), String> {
    let mut writer = GoldenWriter::default();

    let (small, _) = build(100);
    let ops = workload_ops(&small, spec::CONCURRENT_SMALL)?;
    println!(
        "persons=100: checking {} ops against the reference interpreter",
        ops.len()
    );
    let (oracle, _) = expected_answers(&Golden::default(), 100, small.graph(), &ops, nproc())?;
    let engine = engine_answers(&small, &ops)?;
    let mut mismatches = 0;
    for ((op, engine), oracle) in ops.iter().zip(&engine).zip(&oracle) {
        if engine != oracle {
            mismatches += 1;
            eprintln!(
                "MISMATCH {}: engine {} rows, reference {} rows\n  {}",
                op.label, engine.rows, oracle.rows, op.text
            );
        }
        writer.answer(100, op, *engine);
    }
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} ops disagree with the reference interpreter; golden file not written"
        ));
    }

    let (large, _) = build(1000);
    let mut ops = Vec::new();
    for workload in [spec::OPERATIONAL, spec::ANALYTICAL, spec::PIPELINE] {
        ops.extend(workload_ops(&large, workload)?);
    }
    println!("persons=1000: recording {} answers", ops.len());
    for (op, answer) in ops.iter().zip(engine_answers(&large, &ops)?) {
        println!("  {:<24} {:>6} rows", op.label, answer.rows);
        writer.answer(1000, op, answer);
    }

    let ops = workload_ops(&large, spec::FRONTEND_COLD)?;
    println!("persons=1000: recording {} plan digests", ops.len());
    let engine = CypherEngine::with_statistics(large.server.snapshot().statistics().clone());
    for op in &ops {
        let explain = engine
            .explain_with_params(&op.text, &op.params)
            .map_err(|e| format!("{}: {e}", op.label))?;
        writer.plan(op, stable_digest(&explain.root.to_text()));
    }

    std::fs::write(GOLDEN_PATH, writer.render()).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    println!("wrote {GOLDEN_PATH}; rebuild to embed it");
    Ok(())
}

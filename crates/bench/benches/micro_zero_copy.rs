//! PR 4 ablation: the zero-copy embedding kernels vs their allocating
//! predecessors — merge into a reusable scratch row vs a fresh row per
//! pair, the fused expand append vs clone-then-push, and the fused join
//! probe (merge + morphism check in scratch, clone only survivors).
//!
//! The kernel's allocation budget (one per accepted pair, none per rejected
//! pair) is a test: `crates/core/tests/kernel_allocations.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gradoop_core::{Embedding, EmbeddingMetaData, EntryType, MatchingConfig, MorphismCheck};
use gradoop_epgm::PropertyValue;

/// A two-column left row `(vertex, vertex)` with one string property.
fn left_row(a: u64, b: u64) -> Embedding {
    let mut e = Embedding::new();
    e.push_id(a);
    e.push_id(b);
    e.push_property(&PropertyValue::String("Alice".into()));
    e
}

/// A two-column right row sharing the join column 0 with the left.
fn right_row(a: u64, c: u64) -> Embedding {
    let mut e = Embedding::new();
    e.push_id(a);
    e.push_id(c);
    e.push_property(&PropertyValue::Long(1984));
    e
}

fn merged_meta() -> EmbeddingMetaData {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    meta.add_entry("b", EntryType::Vertex);
    meta.add_entry("c", EntryType::Vertex);
    meta.add_property("a", "name");
    meta.add_property("c", "yob");
    meta
}

fn micro_zero_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_zero_copy");

    let left = left_row(1, 2);
    let right = right_row(1, 3);

    // Join-merge: fresh row per pair vs reuse of one scratch row.
    group.bench_function("merge/fresh_alloc", |b| {
        b.iter(|| black_box(&left).merge(black_box(&right), &[0]))
    });
    let mut scratch = Embedding::new();
    group.bench_function("merge/into_scratch", |b| {
        b.iter(|| {
            black_box(&left).merge_into(black_box(&right), &[0], &mut scratch);
            scratch.id(2)
        })
    });

    // The full fused probe: merge + morphism check, clone only survivors.
    let check = MorphismCheck::new(&merged_meta(), &MatchingConfig::isomorphism());
    let mut ids = Vec::new();
    group.bench_function("probe/fused_check_clone", |b| {
        b.iter(|| {
            black_box(&left).merge_into(black_box(&right), &[0], &mut scratch);
            check.check(&scratch, &mut ids).then(|| scratch.clone())
        })
    });

    // Variable-length expand: clone + push vs the single-allocation append.
    let via = [100u64, 7, 101];
    group.bench_function("expand/clone_then_push", |b| {
        b.iter(|| {
            let mut extended = black_box(&left).clone();
            extended.push_path(black_box(&via));
            extended.push_id(black_box(9));
            extended
        })
    });
    group.bench_function("expand/fused_append", |b| {
        b.iter(|| black_box(&left).extend_with_path_and_id(black_box(&via), Some(black_box(9))))
    });

    group.finish();
}

criterion_group!(benches, micro_zero_copy);
criterion_main!(benches);

//! `ExpandEmbeddings` microbenchmarks: variable-length path expansion over
//! chain- and web-shaped edge sets under both edge semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gradoop_core::embedding::{Embedding, EmbeddingMetaData, EntryType};
use gradoop_core::operators::{expand_embeddings, EmbeddingSet, ExpandConfig};
use gradoop_core::MatchingConfig;
use gradoop_dataflow::{CostModel, Dataset, ExecutionConfig, ExecutionEnvironment};

fn env() -> ExecutionEnvironment {
    ExecutionEnvironment::new(ExecutionConfig::with_workers(4).cost_model(CostModel::free()))
}

fn starts(env: &ExecutionEnvironment, ids: impl Iterator<Item = u64>) -> EmbeddingSet {
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    let data = env.from_collection(
        ids.map(|id| {
            let mut e = Embedding::new();
            e.push_id(id);
            e
        })
        .collect::<Vec<_>>(),
    );
    EmbeddingSet { data, meta }
}

fn config(lower: usize, upper: usize, matching: MatchingConfig) -> ExpandConfig {
    ExpandConfig {
        source_variable: "a".into(),
        edge_variable: "e".into(),
        target_variable: "b".into(),
        lower,
        upper,
        matching,
    }
}

fn micro_expand(c: &mut Criterion) {
    let env = env();
    let n = 2000u64;
    // A long chain: 0 -> 1 -> 2 -> ...
    let chain: Dataset<(u64, u64, u64)> = env.from_collection(
        (0..n - 1)
            .map(|i| (i, 100_000 + i, i + 1))
            .collect::<Vec<_>>(),
    );
    // A small-world web: every vertex points at 4 pseudo-random others.
    let web: Dataset<(u64, u64, u64)> = env.from_collection(
        (0..n)
            .flat_map(|i| {
                (0..4u64).map(move |k| (i, 200_000 + 4 * i + k, (i * 37 + k * 101 + 1) % n))
            })
            .collect::<Vec<_>>(),
    );

    let mut group = c.benchmark_group("micro_expand");
    group.sample_size(10);
    let input = starts(&env, 0..n);
    for (name, candidates) in [("chain", &chain), ("web", &web)] {
        for (semantics, matching) in [
            ("edge_iso", MatchingConfig::cypher_default()),
            ("homo", MatchingConfig::homomorphism()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_1..3"), semantics),
                candidates,
                |b, candidates| {
                    b.iter(|| {
                        expand_embeddings(input.clone(), candidates, &config(1, 3, matching))
                            .data
                            .count()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, micro_expand);
criterion_main!(benches);

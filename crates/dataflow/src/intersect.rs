//! Worst-case-optimal intersection kernel for cyclic pattern matching.
//!
//! Binary joins close a cycle by materializing every open path first and
//! filtering afterwards — on a triangle that intermediate is `O(|E|·d)`
//! rows even when only a handful of triangles exist. The worst-case-optimal
//! alternative (Ngo/Porat/Ré/Rudra; LeapfrogTriejoin) never builds the open
//! path: for each partial embedding it *intersects* the sorted adjacency
//! lists of the already-bound endpoints and emits only vertices present in
//! all of them.
//!
//! [`probe_intersect`] is that probe, partition-local: for every probe row
//! the caller names one key per closing edge, the kernel leapfrogs the
//! sorted candidate runs of a replicated
//! [`AdjacencyIndex`](crate::index::AdjacencyIndex) and hands each
//! surviving `(neighbor, edge ids)` combination back to an emit closure. No
//! shuffle runs — probe rows are extended in place.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::data::Data;
use crate::dataset::Dataset;
use crate::index::AdjacencyIndex;

/// Counters of one [`probe_intersect`] run, surfaced through PROFILE as
/// `wco: intersected=…` next to the ordinary rows-out count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Candidate-list entries fetched across all probe rows — the work a
    /// binary join would have materialized as open-path intermediates.
    pub rows_intersected: u64,
    /// Embeddings emitted by the intersection.
    pub rows_emitted: u64,
}

/// Reusable per-partition scratch for the leapfrog loop, so a whole
/// partition of probe rows shares four small allocations.
#[derive(Default)]
struct LeapfrogScratch {
    pos: Vec<usize>,
    runs: Vec<usize>,
    odometer: Vec<usize>,
    edge_ids: Vec<u64>,
}

/// Leapfrog intersection of `k` sorted candidate lists: repeatedly advance
/// every cursor to the current maximum head neighbor; when all heads agree
/// the neighbor is in the intersection, and the cross product of each
/// list's equal-neighbor run (parallel edges) is emitted.
fn leapfrog<F: FnMut(u64, &[u64])>(
    lists: &[&[(u64, u64)]],
    scratch: &mut LeapfrogScratch,
    mut emit: F,
) {
    let k = lists.len();
    scratch.pos.clear();
    scratch.pos.resize(k, 0);
    'outer: loop {
        let mut target = 0u64;
        for (list, &pos) in lists.iter().zip(scratch.pos.iter()) {
            match list.get(pos) {
                Some(&(neighbor, _)) => target = target.max(neighbor),
                None => break 'outer,
            }
        }
        let mut all_equal = true;
        for (list, pos) in lists.iter().zip(scratch.pos.iter_mut()) {
            while let Some(&(neighbor, _)) = list.get(*pos) {
                if neighbor >= target {
                    break;
                }
                *pos += 1;
            }
            match list.get(*pos) {
                Some(&(neighbor, _)) => {
                    if neighbor != target {
                        all_equal = false;
                    }
                }
                None => break 'outer,
            }
        }
        if !all_equal {
            continue;
        }
        // All heads sit on `target`: measure each list's run of entries
        // with that neighbor and emit every edge-id combination.
        scratch.runs.clear();
        for i in 0..k {
            let run = lists[i][scratch.pos[i]..]
                .iter()
                .take_while(|(neighbor, _)| *neighbor == target)
                .count();
            scratch.runs.push(run);
        }
        scratch.odometer.clear();
        scratch.odometer.resize(k, 0);
        loop {
            scratch.edge_ids.clear();
            for i in 0..k {
                scratch
                    .edge_ids
                    .push(lists[i][scratch.pos[i] + scratch.odometer[i]].1);
            }
            emit(target, &scratch.edge_ids);
            let mut digit = 0;
            while digit < k {
                scratch.odometer[digit] += 1;
                if scratch.odometer[digit] < scratch.runs[digit] {
                    break;
                }
                scratch.odometer[digit] = 0;
                digit += 1;
            }
            if digit == k {
                break;
            }
        }
        for i in 0..k {
            scratch.pos[i] += scratch.runs[i];
        }
    }
}

/// Extends every probe row by the intersection of its adjacency candidate
/// lists.
///
/// `keys(row, out)` must push exactly one adjacency key per index in
/// `indexes` — the data id of the already-bound endpoint of each closing
/// edge. For every neighbor present in *all* candidate lists (and every
/// combination of parallel edge ids), `emit(row, neighbor, edge_ids, out)`
/// decides what to produce — morphism checks and vertex admissibility live
/// in the caller, which may emit nothing.
///
/// The probe is partition-local: no shuffle runs and the output inherits
/// the probe rows' placement. `rows_intersected` accumulates through a
/// commutative relaxed atomic, so it does not depend on which thread ran
/// which partition.
pub fn probe_intersect<T, O, KF, EF>(
    probe: &Dataset<T>,
    indexes: &[AdjacencyIndex],
    keys: KF,
    emit: EF,
) -> (Dataset<O>, IntersectStats)
where
    T: Data,
    O: Data,
    KF: Fn(&T, &mut Vec<u64>) + Sync,
    EF: Fn(&T, u64, &[u64], &mut Vec<O>) + Sync,
{
    let env = probe.env().clone();
    let mut stage = env.stage("expand(wco-intersect)");
    let parts = probe.partitions();
    let rows_intersected = AtomicU64::new(0);

    debug_assert!(
        indexes.iter().all(|index| index.partition_key().is_none()),
        "the intersection reads replicated indexes"
    );
    stage.read(parts);
    let outputs = env.run_stage(stage, |worker, _| {
        let mut out = Vec::new();
        let mut key_scratch = Vec::new();
        let mut lists: Vec<&[(u64, u64)]> = Vec::new();
        let mut scratch = LeapfrogScratch::default();
        let mut fetched = 0u64;
        for row in &parts[worker] {
            key_scratch.clear();
            keys(row, &mut key_scratch);
            debug_assert_eq!(
                key_scratch.len(),
                indexes.len(),
                "one adjacency key per closing edge"
            );
            lists.clear();
            let mut viable = true;
            for (index, &key) in indexes.iter().zip(&key_scratch) {
                let list = index.candidates(worker, key);
                fetched += list.len() as u64;
                if list.is_empty() {
                    viable = false;
                }
                lists.push(list);
            }
            if !viable || lists.is_empty() {
                continue;
            }
            leapfrog(&lists, &mut scratch, |neighbor, edge_ids| {
                emit(row, neighbor, edge_ids, &mut out);
            });
        }
        rows_intersected.fetch_add(fetched, Ordering::Relaxed);
        out
    });
    let stats = IntersectStats {
        rows_intersected: rows_intersected.load(Ordering::Relaxed),
        rows_emitted: outputs.iter().map(|p| p.len() as u64).sum(),
    };
    (Dataset::from_partitions(env, outputs), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::env::{ExecutionConfig, ExecutionEnvironment};

    fn env(workers: usize) -> ExecutionEnvironment {
        ExecutionEnvironment::new(
            ExecutionConfig::with_workers(workers).cost_model(CostModel::free()),
        )
    }

    /// A small directed graph: 0→{1,2,3}, 1→{2,3}, 2→{3}.
    fn forward_edges() -> Vec<(u64, u64, u64)> {
        // (key = source, neighbor = target, edge_id)
        vec![
            (0, 1, 100),
            (0, 2, 101),
            (0, 3, 102),
            (1, 2, 103),
            (1, 3, 104),
            (2, 3, 105),
        ]
    }

    #[test]
    fn candidates_are_sorted_by_neighbor() {
        let env = env(2);
        let triples = env.from_collection(vec![(7u64, 9u64, 1u64), (7, 3, 2), (7, 5, 0)]);
        let index = AdjacencyIndex::replicated(&triples, |&t| t);
        assert_eq!(index.candidates(0, 7), &[(3, 2), (5, 0), (9, 1)]);
        assert!(index.candidates(1, 42).is_empty());
    }

    #[test]
    fn triangle_intersection_finds_common_neighbors() {
        let env = env(2);
        let triples = env.from_collection(forward_edges());
        let index = AdjacencyIndex::replicated(&triples, |&t| t);
        // Probe rows are (a, b) pairs of a bound edge a→b; intersect
        // out(a) ∩ out(b) to close the triangle a→w, b→w.
        let pairs = env.from_collection(vec![(0u64, 1u64), (0, 2), (1, 2)]);
        let (closed, stats) = probe_intersect(
            &pairs,
            &[index.clone(), index],
            |&(a, b), keys| keys.extend([a, b]),
            |&(a, b), w, edge_ids, out| out.push((a, b, w, edge_ids[0], edge_ids[1])),
        );
        let mut rows = closed.collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                (0, 1, 2, 101, 103),
                (0, 1, 3, 102, 104),
                (0, 2, 3, 102, 105),
                (1, 2, 3, 104, 105)
            ]
        );
        assert_eq!(stats.rows_emitted, 4);
        // out(0)=3, out(1)=2, out(2)=1 entries: (3+2)+(3+1)+(2+1) = 12.
        assert_eq!(stats.rows_intersected, 12);
    }

    #[test]
    fn parallel_edges_emit_the_cross_product_of_edge_ids() {
        let env = env(1);
        // Two parallel edges 0→2 and two 1→2: intersecting out(0) ∩ out(1)
        // at w=2 must emit all four edge-id combinations.
        let triples = env.from_collection(vec![
            (0u64, 2u64, 10u64),
            (0, 2, 11),
            (1, 2, 20),
            (1, 2, 21),
        ]);
        let index = AdjacencyIndex::replicated(&triples, |&t| t);
        let pairs = env.from_collection(vec![(0u64, 1u64)]);
        let (closed, stats) = probe_intersect(
            &pairs,
            &[index.clone(), index],
            |&(a, b), keys| keys.extend([a, b]),
            |_, w, edge_ids, out| out.push((w, edge_ids[0], edge_ids[1])),
        );
        let mut rows = closed.collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![(2, 10, 20), (2, 10, 21), (2, 11, 20), (2, 11, 21)]
        );
        assert_eq!(stats.rows_emitted, 4);
    }

    #[test]
    fn empty_intersection_emits_nothing() {
        let env = env(2);
        let triples = env.from_collection(vec![(0u64, 1u64, 5u64), (2, 3, 6)]);
        let index = AdjacencyIndex::replicated(&triples, |&t| t);
        let pairs = env.from_collection(vec![(0u64, 2u64), (7, 8)]);
        let (closed, stats) = probe_intersect(
            &pairs,
            &[index.clone(), index],
            |&(a, b), keys| keys.extend([a, b]),
            |_, w, _, out| out.push(w),
        );
        assert_eq!(closed.collect(), Vec::<u64>::new());
        assert_eq!(stats.rows_emitted, 0);
    }

    #[test]
    fn index_build_charges_broadcast_replication() {
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(4));
        let triples = env.from_collection((0..100u64).map(|i| (i, i + 1, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let _ = AdjacencyIndex::replicated(&triples, |&t| t);
        assert!(
            env.metrics().bytes_shuffled > 0,
            "replication must be charged"
        );
    }

    #[test]
    fn oversized_index_build_spills() {
        let config = ExecutionConfig::with_workers(1).cost_model(CostModel {
            memory_per_worker: 16,
            ..CostModel::free()
        });
        let env = ExecutionEnvironment::new(config);
        let triples = env.from_collection((0..100u64).map(|i| (i, i + 1, i)).collect::<Vec<_>>());
        env.reset_metrics();
        let _ = AdjacencyIndex::replicated(&triples, |&t| t);
        assert!(env.metrics().bytes_spilled > 0);
    }
}

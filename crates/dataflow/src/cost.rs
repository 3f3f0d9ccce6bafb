//! Cost model and simulated clock.
//!
//! The paper's evaluation (Section 4) runs on a 16-worker cluster connected
//! via 1-GBit Ethernet with 40 GB of Flink memory per worker. We reproduce
//! the *mechanisms* that shape its results:
//!
//! * per-record CPU cost — stages parallelize, so more workers means less
//!   CPU time per worker;
//! * network cost for records that cross worker boundaries in shuffles —
//!   repartitioning `n` records over `w` workers moves `n·(w-1)/w` of them,
//!   so shuffle-heavy (analytical) queries profit less from added workers;
//! * per-worker makespan — the stage finishes when its *slowest* worker
//!   finishes, so power-law skew stalls speedup (paper §4.1);
//! * memory budget with disk spill — a hash-join build side larger than the
//!   per-worker budget is partially spilled, and adding workers shrinks the
//!   per-worker build side, which produces the paper's super-linear
//!   speedups;
//! * per-stage scheduling overhead — bounds the speedup of tiny stages.
//!
//! All constants are configurable; [`CostModel::cluster_2017`] approximates
//! the paper's testbed rescaled to our ~1000× smaller datasets.

/// Tunable constants of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Seconds of CPU time to process one record in a transformation.
    pub cpu_seconds_per_record: f64,
    /// Seconds of CPU time to (de)serialize one byte for the network.
    pub ser_seconds_per_byte: f64,
    /// Network bandwidth per worker link, in bytes per second.
    pub network_bytes_per_second: f64,
    /// Memory budget per worker available to hash-join build sides, bytes.
    pub memory_per_worker: usize,
    /// Disk bandwidth used when join build sides spill, bytes per second.
    pub disk_bytes_per_second: f64,
    /// Fixed scheduling/deployment overhead per stage, seconds.
    pub stage_overhead_seconds: f64,
}

impl CostModel {
    /// Approximation of the paper's testbed (Intel Xeon E5-2430, 1 GBit
    /// Ethernet, 40 GB Flink memory per worker), with the memory budget
    /// rescaled to match our ~1000× smaller datasets so that spilling
    /// happens at the same *relative* scale as in the paper.
    pub fn cluster_2017() -> Self {
        CostModel {
            // Per-record work is ~8x the raw hardware cost so that the
            // ~1000x-smaller datasets keep the paper's compute:overhead
            // ratio (a cluster run processes minutes of records per stage).
            cpu_seconds_per_record: 8.0e-6,
            ser_seconds_per_byte: 2.0e-9,
            // Effective per-worker share of the 1-GBit link (6 task
            // threads per worker share the NIC in the paper's setup).
            network_bytes_per_second: 25.0e6,
            memory_per_worker: 24 * 1024 * 1024,
            disk_bytes_per_second: 80.0e6,
            stage_overhead_seconds: 0.005,
        }
    }

    /// A cost model with zero overheads — useful in unit tests that only
    /// check record flow, not timing.
    pub fn free() -> Self {
        CostModel {
            cpu_seconds_per_record: 0.0,
            ser_seconds_per_byte: 0.0,
            network_bytes_per_second: f64::INFINITY,
            memory_per_worker: usize::MAX,
            disk_bytes_per_second: f64::INFINITY,
            stage_overhead_seconds: 0.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cluster_2017()
    }
}

/// Per-stage cost report, one entry per executed transformation.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Operator name, e.g. `"join(repartition-hash)"`.
    pub name: String,
    /// Records consumed across all workers.
    pub records_in: u64,
    /// Records produced across all workers.
    pub records_out: u64,
    /// Bytes that crossed worker boundaries.
    pub bytes_shuffled: u64,
    /// Bytes written to and re-read from disk due to memory pressure.
    pub bytes_spilled: u64,
    /// Simulated makespan of this stage in seconds.
    pub seconds: f64,
    /// Simulated seconds of the slowest worker (excluding the fixed stage
    /// overhead). Equal to `seconds - stage_overhead_seconds`.
    pub max_worker_seconds: f64,
    /// Mean simulated seconds across all workers (excluding overhead). The
    /// ratio `max / mean` is the stage's skew factor — 1.0 means perfectly
    /// balanced partitions.
    pub mean_worker_seconds: f64,
    /// Records (in + out) processed by the busiest worker.
    pub busiest_worker_records: u64,
    /// Execution attempts of this stage, 1 when it succeeded first try.
    /// Each injected crash or lost partition adds one.
    pub attempts: u64,
    /// Simulated seconds spent on recovery: wasted attempts, retry backoff
    /// and durable-storage restores. Included in [`StageReport::seconds`].
    pub recovery_seconds: f64,
    /// Bytes written to durable storage by checkpoint stages.
    pub checkpoint_bytes: u64,
    /// Bytes re-read from durable storage during recovery (lost-partition
    /// restores and checkpoint rollbacks).
    pub restored_bytes: u64,
    /// Always 0: morsel work stealing was retired (DESIGN §6). The field
    /// stays only because `benchmark/src/layers.rs` reads it and the
    /// benchmark may not change together with the engine; it goes with
    /// ROADMAP's benchmark-refresh item.
    pub morsels: u64,
    /// Always 0; kept for the same reason as [`StageReport::morsels`].
    pub stolen_morsels: u64,
    /// Simulated busy seconds per worker, in worker order (excluding the
    /// fixed stage overhead). `max_worker_seconds`/`mean_worker_seconds`
    /// are the max/mean of this vector; timeline exports lay one lane per
    /// worker from it.
    pub worker_seconds: Vec<f64>,
    /// Peak bytes of transient operator state (hash-join build tables,
    /// sort scratch) resident on the most loaded worker.
    pub peak_memory_bytes: u64,
    /// Scratch buffers (tables, sort copies) this stage allocated, summed
    /// over workers.
    pub scratch_allocations: u64,
}

impl StageReport {
    /// Skew factor of this stage: slowest worker relative to the mean
    /// (1.0 = balanced). Returns 1.0 when no worker did any simulated work.
    pub fn skew(&self) -> f64 {
        if self.mean_worker_seconds > 0.0 {
            self.max_worker_seconds / self.mean_worker_seconds
        } else {
            1.0
        }
    }
}

/// Totals of a set of finished stages — everything one environment
/// executed, one query run, or one plan operator — built by
/// [`ExecutionMetrics::record`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionMetrics {
    /// Total simulated time (sum of stage makespans), seconds.
    pub simulated_seconds: f64,
    /// Total records consumed by all stages.
    pub records_in: u64,
    /// Total records produced by all stages.
    pub records_out: u64,
    /// Total bytes that crossed worker boundaries.
    pub bytes_shuffled: u64,
    /// Total bytes spilled to disk.
    pub bytes_spilled: u64,
    /// Number of executed stages.
    pub stages: u64,
    /// Total recovery attempts beyond the first try of each stage
    /// (`Σ attempts - 1` over all stages).
    pub recovery_attempts: u64,
    /// Total simulated seconds spent on recovery (wasted attempts, backoff,
    /// restores). Included in [`ExecutionMetrics::simulated_seconds`].
    pub recovery_seconds: f64,
    /// Total bytes written to durable storage by checkpoints.
    pub checkpoint_bytes: u64,
    /// Total bytes re-read from durable storage during recovery.
    pub restored_bytes: u64,
    /// Largest transient operator state (build tables, sort scratch) any
    /// single stage kept resident on one worker — the high-water mark of
    /// per-worker memory pressure.
    pub peak_memory_bytes: u64,
    /// Total scratch buffers allocated by operator stages.
    pub scratch_allocations: u64,
}

/// Costs charged to a single worker within one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCost {
    /// Records this worker consumed.
    pub records_in: u64,
    /// Records this worker produced.
    pub records_out: u64,
    /// Bytes this worker sent to other workers.
    pub bytes_sent: u64,
    /// Bytes this worker received from other workers.
    pub bytes_received: u64,
    /// Bytes this worker spilled to disk and re-read.
    pub bytes_spilled: u64,
    /// Bytes this worker wrote to durable storage for a checkpoint.
    pub bytes_checkpointed: u64,
    /// Bytes this worker re-read from durable storage (and re-shipped)
    /// while restoring lost state.
    pub bytes_restored: u64,
    /// Peak bytes of transient operator state (hash-join build table, sort
    /// scratch) this worker kept resident. Does not contribute to the
    /// simulated clock — memory pressure is charged through
    /// [`WorkerCost::bytes_spilled`]; this is the observability view.
    pub peak_memory_bytes: u64,
    /// Scratch buffers (tables, sort copies) this worker allocated.
    pub scratch_allocations: u64,
}

impl WorkerCost {
    /// Simulated seconds this worker is busy in the stage.
    pub fn seconds(&self, model: &CostModel) -> f64 {
        let cpu = (self.records_in + self.records_out) as f64 * model.cpu_seconds_per_record;
        let wire_bytes = (self.bytes_sent + self.bytes_received) as f64;
        let ser = wire_bytes * model.ser_seconds_per_byte;
        let net = wire_bytes / model.network_bytes_per_second;
        // Spilled bytes are written once and read once; checkpoints are
        // written once, restores are read once and re-shipped to the
        // replacement worker.
        let disk = (2 * self.bytes_spilled + self.bytes_checkpointed + self.bytes_restored) as f64
            / model.disk_bytes_per_second;
        let restore_ship = self.bytes_restored as f64
            * (model.ser_seconds_per_byte + 1.0 / model.network_bytes_per_second);
        cpu + ser + net + disk + restore_ship
    }
}

/// Accumulates a stage's per-worker costs and folds them into the metrics.
#[derive(Debug, Clone)]
pub struct StageCosts {
    name: &'static str,
    workers: Vec<WorkerCost>,
}

impl StageCosts {
    /// Creates a cost accumulator for a stage over `workers` workers.
    pub fn new(name: &'static str, workers: usize) -> Self {
        StageCosts {
            name,
            workers: vec![WorkerCost::default(); workers.max(1)],
        }
    }

    /// Mutable access to the cost slot of one worker.
    pub fn worker(&mut self, index: usize) -> &mut WorkerCost {
        &mut self.workers[index]
    }

    /// What worker `index` has been charged so far.
    pub(crate) fn charged(&self, index: usize) -> WorkerCost {
        self.workers[index]
    }

    /// Charges worker `i` for reading `partitions[i]`. A stage charges what
    /// it reads before its tasks run, so a stage whose task fails still
    /// counts its inputs.
    pub(crate) fn read<T>(&mut self, partitions: &[Vec<T>]) {
        for (w, part) in self.workers.iter_mut().zip(partitions) {
            w.records_in += part.len() as u64;
        }
    }

    /// Charges every worker for reading all `records` of a replicated input.
    pub(crate) fn read_replicated(&mut self, records: u64) {
        for w in &mut self.workers {
            w.records_in += records;
        }
    }

    /// Bytes sent over the network so far in this stage, summed over all
    /// workers — what [`StageReport::bytes_shuffled`] will report. Operators
    /// that expose per-phase shuffle counters (e.g. the cached-index build
    /// of variable-length expansion) read this before finalizing.
    pub fn bytes_sent_total(&self) -> u64 {
        self.workers.iter().map(|w| w.bytes_sent).sum()
    }

    /// The stage's operator name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records consumed per worker, in worker order. The fault injector
    /// uses this to price the durable-storage restore of a lost partition.
    pub(crate) fn records_in_per_worker(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.records_in).collect()
    }

    /// Finalizes the stage: computes the makespan, the per-worker skew
    /// profile and produces a report.
    pub fn finish(self, model: &CostModel) -> StageReport {
        let seconds: Vec<f64> = self.workers.iter().map(|w| w.seconds(model)).collect();
        let makespan = seconds.iter().copied().fold(0.0f64, f64::max);
        let mean = seconds.iter().sum::<f64>() / seconds.len() as f64;
        // The busiest worker: slowest by simulated time; ties (e.g. under the
        // free cost model) go to the worker with the most records.
        let records = |w: &WorkerCost| w.records_in + w.records_out;
        let busiest = self
            .workers
            .iter()
            .zip(&seconds)
            .max_by(|(a, sa), (b, sb)| sa.total_cmp(sb).then_with(|| records(a).cmp(&records(b))))
            .map(|(w, _)| records(w))
            .unwrap_or(0);
        StageReport {
            name: self.name.to_string(),
            records_in: self.workers.iter().map(|w| w.records_in).sum(),
            records_out: self.workers.iter().map(|w| w.records_out).sum(),
            bytes_shuffled: self.workers.iter().map(|w| w.bytes_sent).sum(),
            bytes_spilled: self.workers.iter().map(|w| w.bytes_spilled).sum(),
            seconds: makespan + model.stage_overhead_seconds,
            max_worker_seconds: makespan,
            mean_worker_seconds: mean,
            busiest_worker_records: busiest,
            attempts: 1,
            recovery_seconds: 0.0,
            checkpoint_bytes: self.workers.iter().map(|w| w.bytes_checkpointed).sum(),
            restored_bytes: self.workers.iter().map(|w| w.bytes_restored).sum(),
            morsels: 0,
            stolen_morsels: 0,
            peak_memory_bytes: self
                .workers
                .iter()
                .map(|w| w.peak_memory_bytes)
                .max()
                .unwrap_or(0),
            scratch_allocations: self.workers.iter().map(|w| w.scratch_allocations).sum(),
            worker_seconds: seconds,
        }
    }
}

impl ExecutionMetrics {
    /// Folds a finished stage into the totals. Per-stage detail is the job
    /// of a [`TraceSink`](crate::trace::TraceSink), which sees every report
    /// as it finishes.
    pub fn record(&mut self, report: &StageReport) {
        self.simulated_seconds += report.seconds;
        self.records_in += report.records_in;
        self.records_out += report.records_out;
        self.bytes_shuffled += report.bytes_shuffled;
        self.bytes_spilled += report.bytes_spilled;
        self.stages += 1;
        self.recovery_attempts += report.attempts.saturating_sub(1);
        self.recovery_seconds += report.recovery_seconds;
        self.checkpoint_bytes += report.checkpoint_bytes;
        self.restored_bytes += report.restored_bytes;
        self.peak_memory_bytes = self.peak_memory_bytes.max(report.peak_memory_bytes);
        self.scratch_allocations += report.scratch_allocations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        let model = CostModel::free();
        let mut stage = StageCosts::new("test", 4);
        stage.worker(0).records_in = 1_000_000;
        stage.worker(1).bytes_sent = 1 << 30;
        let report = stage.finish(&model);
        assert_eq!(report.seconds, 0.0);
    }

    #[test]
    fn makespan_is_max_over_workers() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.0,
            ..CostModel::free()
        };
        let mut stage = StageCosts::new("test", 2);
        stage.worker(0).records_in = 3;
        stage.worker(1).records_in = 10;
        let report = stage.finish(&model);
        assert_eq!(report.seconds, 10.0);
        assert_eq!(report.records_in, 13);
    }

    #[test]
    fn network_and_disk_costs_are_charged() {
        let model = CostModel {
            network_bytes_per_second: 100.0,
            disk_bytes_per_second: 50.0,
            ..CostModel::free()
        };
        let mut stage = StageCosts::new("test", 1);
        stage.worker(0).bytes_sent = 100;
        stage.worker(0).bytes_received = 100;
        stage.worker(0).bytes_spilled = 50;
        let report = stage.finish(&model);
        // 200 bytes over the wire at 100 B/s = 2s, 100 bytes of disk I/O at 50 B/s = 2s.
        assert!((report.seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_accumulate() {
        let mut metrics = ExecutionMetrics::default();
        let report = StageReport {
            name: "a".into(),
            records_in: 5,
            records_out: 3,
            bytes_shuffled: 7,
            bytes_spilled: 0,
            seconds: 1.5,
            max_worker_seconds: 1.5,
            mean_worker_seconds: 1.0,
            busiest_worker_records: 8,
            attempts: 2,
            recovery_seconds: 0.25,
            checkpoint_bytes: 64,
            restored_bytes: 16,
            morsels: 0,
            stolen_morsels: 0,
            worker_seconds: vec![1.5, 0.5],
            peak_memory_bytes: 4096,
            scratch_allocations: 3,
        };
        metrics.record(&report);
        metrics.record(&report);
        assert_eq!(metrics.stages, 2);
        assert_eq!(metrics.records_in, 10);
        assert!((metrics.simulated_seconds - 3.0).abs() < 1e-12);
        assert_eq!(metrics.recovery_attempts, 2);
        assert!((metrics.recovery_seconds - 0.5).abs() < 1e-12);
        assert_eq!(metrics.checkpoint_bytes, 128);
        assert_eq!(metrics.restored_bytes, 32);
        // Peak memory takes the max over stages; allocations accumulate.
        assert_eq!(metrics.peak_memory_bytes, 4096);
        assert_eq!(metrics.scratch_allocations, 6);
    }

    #[test]
    fn finish_records_per_worker_seconds_and_memory_peaks() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.0,
            ..CostModel::free()
        };
        let mut stage = StageCosts::new("test", 3);
        stage.worker(0).records_in = 2;
        stage.worker(1).records_in = 5;
        stage.worker(0).peak_memory_bytes = 100;
        stage.worker(1).peak_memory_bytes = 900;
        stage.worker(0).scratch_allocations = 1;
        stage.worker(1).scratch_allocations = 2;
        let report = stage.finish(&model);
        assert_eq!(report.name, "test");
        assert_eq!(report.worker_seconds, vec![2.0, 5.0, 0.0]);
        assert_eq!(report.peak_memory_bytes, 900);
        assert_eq!(report.scratch_allocations, 3);
    }

    #[test]
    fn skew_fold_reports_max_mean_and_busiest_worker() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.25,
            ..CostModel::free()
        };
        let mut stage = StageCosts::new("test", 4);
        stage.worker(0).records_in = 2;
        stage.worker(1).records_in = 6;
        stage.worker(1).records_out = 2;
        stage.worker(2).records_in = 4;
        let report = stage.finish(&model);
        // Worker seconds: [2, 8, 4, 0] -> max 8, mean 3.5; overhead only
        // affects the makespan, not the skew profile.
        assert!((report.max_worker_seconds - 8.0).abs() < 1e-12);
        assert!((report.mean_worker_seconds - 3.5).abs() < 1e-12);
        assert!((report.seconds - 8.25).abs() < 1e-12);
        assert_eq!(report.busiest_worker_records, 8);
        assert!((report.skew() - 8.0 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn skew_of_balanced_and_idle_stages_is_one() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            ..CostModel::free()
        };
        let mut stage = StageCosts::new("balanced", 2);
        stage.worker(0).records_in = 5;
        stage.worker(1).records_in = 5;
        assert!((stage.finish(&model).skew() - 1.0).abs() < 1e-12);

        // Free model: no simulated work at all — busiest worker falls back
        // to the record count and skew defaults to 1.0.
        let mut idle = StageCosts::new("idle", 2);
        idle.worker(0).records_in = 1;
        idle.worker(1).records_in = 7;
        let report = idle.finish(&CostModel::free());
        assert_eq!(report.busiest_worker_records, 7);
        assert!((report.skew() - 1.0).abs() < 1e-12);
    }
}

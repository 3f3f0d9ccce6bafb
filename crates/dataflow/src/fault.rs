//! Deterministic fault injection for the simulated dataflow cluster.
//!
//! Real Gradoop inherits fault tolerance from Apache Flink: failed tasks are
//! re-deployed with exponential backoff and bulk iterations restore from the
//! last completed checkpoint. This module reproduces those *mechanisms* in
//! simulation. A [`FailureSchedule`] is an explicit, seedable list of
//! [`FaultEvent`]s — worker crash at stage `N` or superstep `K`, lost
//! partition, straggler slowdown — consumed by a [`FaultInjector`] that the
//! [`ExecutionEnvironment`](crate::ExecutionEnvironment) consults at every
//! stage boundary. Because the schedule is explicit and the stage/superstep
//! counters are deterministic, every chaos run is exactly reproducible: the
//! same schedule against the same program fails at the same places and
//! charges the same recovery costs.
//!
//! Faults never corrupt data. A crash or lost partition wastes the failed
//! attempt (its makespan is re-charged), pays an exponential backoff and —
//! for lost partitions — re-reads the lost input from durable storage; a
//! straggler stretches the slowest worker. When a stage fails more often
//! than [`FaultConfig::max_attempts`] allows, the injector records an
//! [`ExecutionFailure`] that poisons the environment: the query engine
//! surfaces it as a classified error instead of returning a partial result
//! set.

use std::collections::HashMap;

use crate::cost::{CostModel, StageCosts, StageReport};
use crate::json::JsonValue;

/// Fault-tolerance policy of one environment: the schedule to inject plus
/// the retry, backoff, checkpoint and restore parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The faults to inject.
    pub schedule: FailureSchedule,
    /// Total attempts allowed per stage (and restores per bulk iteration)
    /// before the query degrades into an execution error. Minimum 1: the
    /// first attempt counts.
    pub max_attempts: u32,
    /// Simulated seconds of backoff before the first retry.
    pub backoff_base_seconds: f64,
    /// Backoff growth factor per further retry (exponential backoff).
    pub backoff_multiplier: f64,
    /// Bulk iterations snapshot the working and solution sets every this
    /// many supersteps; `0` disables checkpointing, so recovery restarts
    /// the iteration from scratch (the ablation baseline).
    pub checkpoint_interval: usize,
    /// Bytes re-read from durable storage per input record of a lost
    /// partition.
    pub restore_bytes_per_record: u64,
}

impl FaultConfig {
    /// Policy with Flink-like defaults: 3 attempts, 50 ms base backoff
    /// doubling per retry, a checkpoint every 2 supersteps, 32 restore
    /// bytes per lost record.
    pub fn new(schedule: FailureSchedule) -> Self {
        FaultConfig {
            schedule,
            max_attempts: 3,
            backoff_base_seconds: 0.05,
            backoff_multiplier: 2.0,
            checkpoint_interval: 2,
            restore_bytes_per_record: 32,
        }
    }

    /// Replaces the retry budget (clamped to at least 1).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Replaces the backoff base and growth factor.
    pub fn backoff(mut self, base_seconds: f64, multiplier: f64) -> Self {
        self.backoff_base_seconds = base_seconds;
        self.backoff_multiplier = multiplier;
        self
    }

    /// Replaces the checkpoint interval (`0` = restart from scratch).
    pub fn checkpoint_interval(mut self, supersteps: usize) -> Self {
        self.checkpoint_interval = supersteps;
        self
    }

    /// Replaces the durable-storage restore cost per lost record.
    pub fn restore_bytes_per_record(mut self, bytes: u64) -> Self {
        self.restore_bytes_per_record = bytes;
        self
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::new(FailureSchedule::none())
    }
}

/// A terminal execution failure: a stage or bulk iteration exhausted its
/// retry budget. Surfaced by the query engine as a classified error — never
/// a panic, never a partial result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionFailure {
    /// Where the budget ran out, e.g. `` stage `join(repartition-hash)` ``
    /// or `superstep 4`.
    pub site: String,
    /// Failed attempts consumed at that site.
    pub attempts: u32,
    /// Human-readable classification.
    pub message: String,
}

impl std::fmt::Display for ExecutionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "execution failed at {} after {} failed attempt(s): {}",
            self.site, self.attempts, self.message
        )
    }
}

impl std::error::Error for ExecutionFailure {}

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The worker process dies mid-stage; the whole attempt is lost and the
    /// stage is retried after a backoff.
    WorkerCrash,
    /// Like [`FaultKind::WorkerCrash`], but the worker's input partition is
    /// gone with it and must be re-read from durable storage before the
    /// retry ([`FaultConfig::restore_bytes_per_record`] per lost record).
    LostPartition,
    /// The worker survives but runs `slowdown`× slower than its peers for
    /// this stage; the stage makespan stretches accordingly. Consumes no
    /// retry attempt.
    Straggler {
        /// Slowdown factor (≥ 1.0) applied to the stage's slowest worker.
        slowdown: f64,
    },
}

/// Where in the dataflow a fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSite {
    /// The `index`-th stage (0-based) finished since the injector was
    /// installed — a global, deterministic position in the dataflow.
    Stage(u64),
    /// The `occurrence`-th (1-based) stage with this operator name, e.g.
    /// the first `"join(repartition-hash)"`. Robust against upstream plan
    /// changes that shift absolute stage indices.
    StageNamed {
        /// Operator name as reported by [`StageReport::name`].
        name: String,
        /// 1-based occurrence of that name.
        occurrence: u64,
    },
    /// The `index`-th (1-based) bulk-iteration superstep started since the
    /// injector was installed, counted across all iterations of the query.
    Superstep(u64),
}

/// One scheduled fault: a kind, a site and the worker it strikes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Where the fault fires.
    pub site: FaultSite,
    /// What happens.
    pub kind: FaultKind,
    /// The simulated worker affected (taken modulo the worker count).
    pub worker: usize,
}

/// An explicit, reproducible list of faults to inject. Events fire at most
/// once, in schedule order when several target the same site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureSchedule {
    /// The scheduled fault events.
    pub events: Vec<FaultEvent>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FailureSchedule {
    /// The empty schedule: fault injection machinery on, no faults.
    pub fn none() -> Self {
        FailureSchedule::default()
    }

    /// `true` when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a worker crash at global stage `stage`.
    pub fn crash_at_stage(mut self, stage: u64, worker: usize) -> Self {
        self.events.push(FaultEvent {
            site: FaultSite::Stage(stage),
            kind: FaultKind::WorkerCrash,
            worker,
        });
        self
    }

    /// Adds a worker crash at the `occurrence`-th (1-based) stage named
    /// `name`.
    pub fn crash_at_stage_named(mut self, name: &str, occurrence: u64, worker: usize) -> Self {
        self.events.push(FaultEvent {
            site: FaultSite::StageNamed {
                name: name.to_string(),
                occurrence,
            },
            kind: FaultKind::WorkerCrash,
            worker,
        });
        self
    }

    /// Adds a lost partition (crash + durable-storage restore) at global
    /// stage `stage`.
    pub fn lost_partition_at_stage(mut self, stage: u64, worker: usize) -> Self {
        self.events.push(FaultEvent {
            site: FaultSite::Stage(stage),
            kind: FaultKind::LostPartition,
            worker,
        });
        self
    }

    /// Adds a straggler slowdown at global stage `stage`.
    pub fn straggler_at_stage(mut self, stage: u64, worker: usize, slowdown: f64) -> Self {
        self.events.push(FaultEvent {
            site: FaultSite::Stage(stage),
            kind: FaultKind::Straggler { slowdown },
            worker,
        });
        self
    }

    /// Adds a worker crash at global superstep `superstep` (1-based).
    pub fn crash_at_superstep(mut self, superstep: u64, worker: usize) -> Self {
        self.events.push(FaultEvent {
            site: FaultSite::Superstep(superstep),
            kind: FaultKind::WorkerCrash,
            worker,
        });
        self
    }

    /// Generates a reproducible pseudo-random schedule from `seed`:
    /// `stage_faults` events over the first `stage_horizon` stages (mixing
    /// crashes, lost partitions and stragglers) plus `superstep_faults`
    /// crashes over the first eight supersteps. The same seed always yields
    /// the same schedule.
    pub fn from_seed(
        seed: u64,
        workers: usize,
        stage_faults: usize,
        superstep_faults: usize,
        stage_horizon: u64,
    ) -> Self {
        let workers = workers.max(1) as u64;
        let horizon = stage_horizon.max(1);
        let mut state = seed ^ 0xC0FF_EE5E_ED5E_ED00;
        let mut schedule = FailureSchedule::none();
        for _ in 0..stage_faults {
            let stage = splitmix64(&mut state) % horizon;
            let worker = (splitmix64(&mut state) % workers) as usize;
            let kind = match splitmix64(&mut state) % 3 {
                0 => FaultKind::WorkerCrash,
                1 => FaultKind::LostPartition,
                _ => FaultKind::Straggler {
                    slowdown: 1.5 + (splitmix64(&mut state) % 5) as f64 * 0.5,
                },
            };
            schedule.events.push(FaultEvent {
                site: FaultSite::Stage(stage),
                kind,
                worker,
            });
        }
        for _ in 0..superstep_faults {
            let superstep = 1 + splitmix64(&mut state) % 8;
            let worker = (splitmix64(&mut state) % workers) as usize;
            schedule.events.push(FaultEvent {
                site: FaultSite::Superstep(superstep),
                kind: FaultKind::WorkerCrash,
                worker,
            });
        }
        schedule
    }

    /// The schedule as a JSON document (see [`FailureSchedule::from_json`]
    /// for the inverse). Used to archive failing chaos schedules as CI
    /// artifacts.
    pub fn to_json_value(&self) -> JsonValue {
        let events = self
            .events
            .iter()
            .map(|event| {
                let site = match &event.site {
                    FaultSite::Stage(index) => JsonValue::object(vec![
                        ("type", JsonValue::string("stage")),
                        ("index", JsonValue::Number(*index as f64)),
                    ]),
                    FaultSite::StageNamed { name, occurrence } => JsonValue::object(vec![
                        ("type", JsonValue::string("stage-named")),
                        ("name", JsonValue::string(name.clone())),
                        ("occurrence", JsonValue::Number(*occurrence as f64)),
                    ]),
                    FaultSite::Superstep(index) => JsonValue::object(vec![
                        ("type", JsonValue::string("superstep")),
                        ("index", JsonValue::Number(*index as f64)),
                    ]),
                };
                let kind = match &event.kind {
                    FaultKind::WorkerCrash => {
                        JsonValue::object(vec![("type", JsonValue::string("crash"))])
                    }
                    FaultKind::LostPartition => {
                        JsonValue::object(vec![("type", JsonValue::string("lost-partition"))])
                    }
                    FaultKind::Straggler { slowdown } => JsonValue::object(vec![
                        ("type", JsonValue::string("straggler")),
                        ("slowdown", JsonValue::Number(*slowdown)),
                    ]),
                };
                JsonValue::object(vec![
                    ("site", site),
                    ("kind", kind),
                    ("worker", JsonValue::Number(event.worker as f64)),
                ])
            })
            .collect();
        JsonValue::object(vec![("events", JsonValue::Array(events))])
    }

    /// Renders the schedule as a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Parses a schedule previously rendered by [`FailureSchedule::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = JsonValue::parse(text)?;
        let events = value
            .get("events")
            .and_then(|e| e.as_array())
            .ok_or_else(|| "failure schedule: missing `events` array".to_string())?;
        let mut schedule = FailureSchedule::none();
        for event in events {
            let site_value = event
                .get("site")
                .ok_or_else(|| "fault event: missing `site`".to_string())?;
            let index = |v: &JsonValue| {
                v.get("index")
                    .and_then(JsonValue::as_f64)
                    .map(|n| n as u64)
                    .ok_or_else(|| "fault site: missing `index`".to_string())
            };
            let site = match site_value.get("type").and_then(JsonValue::as_str) {
                Some("stage") => FaultSite::Stage(index(site_value)?),
                Some("stage-named") => FaultSite::StageNamed {
                    name: site_value
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| "fault site: missing `name`".to_string())?
                        .to_string(),
                    occurrence: site_value
                        .get("occurrence")
                        .and_then(JsonValue::as_f64)
                        .map(|n| n as u64)
                        .unwrap_or(1),
                },
                Some("superstep") => FaultSite::Superstep(index(site_value)?),
                other => return Err(format!("fault site: unknown type {other:?}")),
            };
            let kind_value = event
                .get("kind")
                .ok_or_else(|| "fault event: missing `kind`".to_string())?;
            let kind = match kind_value.get("type").and_then(JsonValue::as_str) {
                Some("crash") => FaultKind::WorkerCrash,
                Some("lost-partition") => FaultKind::LostPartition,
                Some("straggler") => FaultKind::Straggler {
                    slowdown: kind_value
                        .get("slowdown")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(2.0),
                },
                other => return Err(format!("fault kind: unknown type {other:?}")),
            };
            let worker = event
                .get("worker")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0) as usize;
            schedule.events.push(FaultEvent { site, kind, worker });
        }
        Ok(schedule)
    }
}

/// Consumes a [`FailureSchedule`] against the deterministic stage and
/// superstep counters of one environment. Owned by the
/// [`ExecutionEnvironment`](crate::ExecutionEnvironment); install one with
/// [`ExecutionEnvironment::install_faults`](crate::ExecutionEnvironment::install_faults)
/// or via [`ExecutionConfig::faults`](crate::ExecutionConfig::faults).
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    fired: Vec<bool>,
    stages_seen: u64,
    supersteps_seen: u64,
    name_counts: HashMap<String, u64>,
}

impl FaultInjector {
    /// Creates an injector for a fault configuration; counters start at
    /// zero, no event has fired.
    pub fn new(config: FaultConfig) -> Self {
        let events = config.schedule.events.len();
        FaultInjector {
            config,
            fired: vec![false; events],
            stages_seen: 0,
            supersteps_seen: 0,
            name_counts: HashMap::new(),
        }
    }

    /// The injector's fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Advances the stage counter for a stage named `name` and returns the
    /// scheduled events that fire at it, marking them consumed.
    pub fn begin_stage(&mut self, name: &str) -> Vec<FaultEvent> {
        let stage_index = self.stages_seen;
        self.stages_seen += 1;
        let occurrence = self.name_counts.entry(name.to_string()).or_insert(0);
        *occurrence += 1;
        let occurrence = *occurrence;
        let events = &self.config.schedule.events;
        let mut fired_now = Vec::new();
        for (i, event) in events.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            let matches = match &event.site {
                FaultSite::Stage(index) => *index == stage_index,
                FaultSite::StageNamed {
                    name: wanted,
                    occurrence: nth,
                } => wanted == name && *nth == occurrence,
                FaultSite::Superstep(_) => false,
            };
            if matches {
                self.fired[i] = true;
                fired_now.push(event.clone());
            }
        }
        fired_now
    }

    /// Advances the superstep counter and returns the first scheduled event
    /// firing at it, marking it consumed. Called by the bulk-iteration
    /// driver before executing each superstep.
    pub fn begin_superstep(&mut self) -> Option<FaultEvent> {
        self.supersteps_seen += 1;
        let superstep = self.supersteps_seen;
        let events = &self.config.schedule.events;
        for (i, event) in events.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if matches!(&event.site, FaultSite::Superstep(index) if *index == superstep) {
                self.fired[i] = true;
                return Some(event.clone());
            }
        }
        None
    }

    /// Stages counted so far (also the index the *next* stage will get).
    pub fn stages_seen(&self) -> u64 {
        self.stages_seen
    }

    /// Supersteps counted so far.
    pub fn supersteps_seen(&self) -> u64 {
        self.supersteps_seen
    }
}

/// Exponential backoff before retry attempt number `failures` (1-based):
/// `base * multiplier^(failures - 1)` simulated seconds.
pub(crate) fn backoff_seconds(config: &FaultConfig, failures: u32) -> f64 {
    if failures == 0 {
        return 0.0;
    }
    config.backoff_base_seconds * config.backoff_multiplier.powi(failures as i32 - 1)
}

/// Finalizes a stage under injected faults. Crashes and lost partitions
/// waste the failed attempt (its makespan plus scheduling overhead is
/// re-charged), pay an exponential backoff and — for lost partitions — the
/// durable-storage restore of the struck worker's input. A straggler
/// stretches the slowest worker. Returns the faulted report and, when the
/// retry budget is exhausted, the terminal [`ExecutionFailure`].
pub(crate) fn finish_stage_with_faults(
    stage: StageCosts,
    model: &CostModel,
    events: &[FaultEvent],
    config: &FaultConfig,
) -> (StageReport, Option<ExecutionFailure>) {
    let records_in_per_worker = stage.records_in_per_worker();
    let workers = records_in_per_worker.len();
    let mut report = stage.finish(model);
    if events.is_empty() {
        return (report, None);
    }

    let mut straggler = 1.0f64;
    let mut failures: u32 = 0;
    let mut recovery = 0.0f64;
    let mut restored_bytes = 0u64;
    let mut exhausted = false;
    for event in events {
        match &event.kind {
            FaultKind::Straggler { slowdown } => straggler = straggler.max(slowdown.max(1.0)),
            FaultKind::WorkerCrash | FaultKind::LostPartition => {
                failures += 1;
                // The failed attempt ran to the point of the crash; charge a
                // full wasted attempt (makespan + re-deployment overhead).
                recovery += report.max_worker_seconds + model.stage_overhead_seconds;
                if matches!(event.kind, FaultKind::LostPartition) {
                    let worker = event.worker % workers.max(1);
                    let bytes = records_in_per_worker[worker] * config.restore_bytes_per_record;
                    restored_bytes += bytes;
                    recovery += bytes as f64 / model.disk_bytes_per_second
                        + bytes as f64 * model.ser_seconds_per_byte
                        + bytes as f64 / model.network_bytes_per_second;
                }
                if failures >= config.max_attempts {
                    exhausted = true;
                    break;
                }
                recovery += backoff_seconds(config, failures);
            }
        }
    }

    if straggler > 1.0 {
        let stretch = report.max_worker_seconds * (straggler - 1.0);
        report.seconds += stretch;
        report.max_worker_seconds += stretch;
        // Keep the per-worker lane profile consistent: the straggler is the
        // slowest worker, so its lane absorbs the stretch.
        if let Some(slowest) = report
            .worker_seconds
            .iter_mut()
            .max_by(|a, b| a.total_cmp(b))
        {
            *slowest += stretch;
        }
    }
    report.attempts = u64::from(failures) + 1;
    report.recovery_seconds = recovery;
    report.restored_bytes += restored_bytes;
    report.seconds += recovery;

    let failure = exhausted.then(|| ExecutionFailure {
        site: format!("stage `{}`", report.name),
        attempts: failures,
        message: format!(
            "retry budget exhausted after {} failed attempt(s) (max_attempts = {})",
            failures, config.max_attempts
        ),
    });
    (report, failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(site: FaultSite) -> FaultEvent {
        FaultEvent {
            site,
            kind: FaultKind::WorkerCrash,
            worker: 0,
        }
    }

    #[test]
    fn schedule_json_round_trips() {
        let schedule = FailureSchedule::none()
            .crash_at_stage(3, 1)
            .lost_partition_at_stage(5, 0)
            .straggler_at_stage(7, 2, 3.5)
            .crash_at_stage_named("join(repartition-hash)", 2, 1)
            .crash_at_superstep(4, 0);
        let parsed = FailureSchedule::from_json(&schedule.to_json()).unwrap();
        assert_eq!(parsed, schedule);
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FailureSchedule::from_seed(42, 4, 3, 2, 20);
        let b = FailureSchedule::from_seed(42, 4, 3, 2, 20);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        let c = FailureSchedule::from_seed(43, 4, 3, 2, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn events_fire_once_at_their_site() {
        let config = FaultConfig::new(
            FailureSchedule::none()
                .crash_at_stage(1, 0)
                .crash_at_stage_named("join", 2, 0),
        );
        let mut injector = FaultInjector::new(config);
        assert!(injector.begin_stage("map").is_empty()); // stage 0
        assert_eq!(injector.begin_stage("join").len(), 1); // stage 1: Stage(1)
        assert_eq!(injector.begin_stage("join").len(), 1); // join occurrence 2
        assert!(injector.begin_stage("join").is_empty()); // consumed
        assert_eq!(injector.stages_seen(), 4);
    }

    #[test]
    fn superstep_events_consumed_in_order() {
        let config = FaultConfig::new(FailureSchedule::none().crash_at_superstep(2, 0));
        let mut injector = FaultInjector::new(config);
        assert!(injector.begin_superstep().is_none());
        assert!(injector.begin_superstep().is_some());
        assert!(injector.begin_superstep().is_none());
    }

    #[test]
    fn crash_charges_wasted_attempt_and_backoff() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            stage_overhead_seconds: 0.5,
            ..CostModel::free()
        };
        let config = FaultConfig::new(FailureSchedule::none())
            .max_attempts(3)
            .backoff(0.25, 2.0);
        let mut stage = StageCosts::new("test", 2);
        stage.worker(0).records_in = 4;
        let events = vec![crash(FaultSite::Stage(0))];
        let (report, failure) = finish_stage_with_faults(stage, &model, &events, &config);
        assert!(failure.is_none());
        assert_eq!(report.attempts, 2);
        // Wasted attempt: 4s makespan + 0.5s overhead; backoff 0.25s.
        assert!((report.recovery_seconds - 4.75).abs() < 1e-12);
        // Total: successful attempt (4 + 0.5) + recovery.
        assert!((report.seconds - 9.25).abs() < 1e-12);
    }

    #[test]
    fn lost_partition_charges_restore_bytes() {
        let model = CostModel {
            disk_bytes_per_second: 100.0,
            network_bytes_per_second: 100.0,
            ..CostModel::free()
        };
        let config = FaultConfig::new(FailureSchedule::none())
            .max_attempts(3)
            .backoff(0.0, 1.0)
            .restore_bytes_per_record(10);
        let mut stage = StageCosts::new("test", 2);
        stage.worker(1).records_in = 5;
        let events = vec![FaultEvent {
            site: FaultSite::Stage(0),
            kind: FaultKind::LostPartition,
            worker: 1,
        }];
        let (report, failure) = finish_stage_with_faults(stage, &model, &events, &config);
        assert!(failure.is_none());
        assert_eq!(report.restored_bytes, 50);
        // 50 bytes re-read from disk + re-shipped: 0.5s + 0.5s.
        assert!((report.recovery_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_stretches_makespan_without_attempt() {
        let model = CostModel {
            cpu_seconds_per_record: 1.0,
            ..CostModel::free()
        };
        let config = FaultConfig::new(FailureSchedule::none());
        let mut stage = StageCosts::new("test", 2);
        stage.worker(0).records_in = 2;
        let events = vec![FaultEvent {
            site: FaultSite::Stage(0),
            kind: FaultKind::Straggler { slowdown: 3.0 },
            worker: 0,
        }];
        let (report, failure) = finish_stage_with_faults(stage, &model, &events, &config);
        assert!(failure.is_none());
        assert_eq!(report.attempts, 1);
        assert!((report.max_worker_seconds - 6.0).abs() < 1e-12);
        assert_eq!(report.recovery_seconds, 0.0);
    }

    #[test]
    fn exhausted_budget_reports_failure() {
        let model = CostModel::free();
        let config = FaultConfig::new(FailureSchedule::none()).max_attempts(2);
        let stage = StageCosts::new("fragile", 2);
        let events = vec![crash(FaultSite::Stage(0)), crash(FaultSite::Stage(0))];
        let (report, failure) = finish_stage_with_faults(stage, &model, &events, &config);
        let failure = failure.expect("budget of 2 with 2 crashes must exhaust");
        assert_eq!(failure.attempts, 2);
        assert!(failure.site.contains("fragile"));
        assert_eq!(report.attempts, 3);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let config = FaultConfig::new(FailureSchedule::none()).backoff(0.1, 2.0);
        assert!((backoff_seconds(&config, 1) - 0.1).abs() < 1e-12);
        assert!((backoff_seconds(&config, 2) - 0.2).abs() < 1e-12);
        assert!((backoff_seconds(&config, 3) - 0.4).abs() < 1e-12);
    }
}

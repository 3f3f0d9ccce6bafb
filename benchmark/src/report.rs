//! What a run reports: metrics by name with their unit, the result line the
//! driver reads, the printed table and `result.json`.

use gradoop_dataflow::JsonValue;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<u64>,
    /// For counts: whether every pass (or repetition) gave the same number,
    /// so a later change may claim on it as a count.
    pub exact: Option<bool>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
            exact: None,
        }
    }

    pub fn samples(mut self, samples: u64) -> Metric {
        self.samples = Some(samples);
        self
    }

    pub fn exact(mut self, exact: bool) -> Metric {
        self.exact = Some(exact);
        self
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// `golden` or `golden+oracle`.
    pub verified: String,
    pub nproc: usize,
    pub clients: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// Printed under the table: separation checks, exactness violations.
    pub notes: Vec<String>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|metric| metric.name == name)
    }

    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self) -> String {
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            (
                "metrics",
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|metric| {
                            (
                                metric.name.to_string(),
                                JsonValue::object(vec![
                                    ("value", JsonValue::Number(metric.value)),
                                    ("unit", JsonValue::string(metric.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }

    /// The full report as a `result.json` entry.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("workload", JsonValue::string(self.workload)),
            ("seed", JsonValue::Number(self.seed as f64)),
            ("traced", JsonValue::Bool(self.traced)),
            ("verified", JsonValue::string(self.verified.as_str())),
            ("nproc", JsonValue::Number(self.nproc as f64)),
            ("clients", JsonValue::Number(self.clients as f64)),
            ("passes", JsonValue::Number(self.passes as f64)),
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("failed_share", JsonValue::Number(self.failed_share())),
            (
                "first_failure",
                self.first_failure
                    .as_ref()
                    .map_or(JsonValue::Null, JsonValue::string),
            ),
            (
                "metrics",
                JsonValue::Object(
                    self.metrics
                        .iter()
                        .map(|metric| {
                            let mut fields = vec![
                                ("value", JsonValue::Number(metric.value)),
                                ("unit", JsonValue::string(metric.unit)),
                            ];
                            if let Some(samples) = metric.samples {
                                fields.push(("samples", JsonValue::Number(samples as f64)));
                            }
                            if let Some(exact) = metric.exact {
                                fields.push(("exact", JsonValue::Bool(exact)));
                            }
                            (metric.name.to_string(), JsonValue::object(fields))
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                JsonValue::Array(self.notes.iter().map(JsonValue::string).collect()),
            ),
        ])
    }

    /// Parses what [`to_json_value`](WorkloadReport::to_json_value) wrote —
    /// how the parent process reads a child's report.
    pub fn from_json_value(value: &JsonValue) -> Result<WorkloadReport, String> {
        let text = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("report has no `{key}`"))
        };
        let number = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("report has no `{key}`"))
        };
        let workload = crate::spec::workload(text("workload")?)
            .ok_or("report names an unknown workload")?
            .name;
        let traced = value.get("traced") == Some(&JsonValue::Bool(true));
        let Some(JsonValue::Object(entries)) = value.get("metrics") else {
            return Err("report has no `metrics`".to_string());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let (name, unit) = known_metric(name).ok_or(format!("unknown metric `{name}`"))?;
            metrics.push(Metric {
                name,
                unit,
                value: entry
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("metric `{name}` has no value"))?,
                samples: entry
                    .get("samples")
                    .and_then(JsonValue::as_f64)
                    .map(|n| n as u64),
                exact: match entry.get("exact") {
                    Some(JsonValue::Bool(exact)) => Some(*exact),
                    _ => None,
                },
            });
        }
        Ok(WorkloadReport {
            workload,
            seed: number("seed")? as u64,
            traced,
            verified: text("verified")?.to_string(),
            nproc: number("nproc")? as usize,
            clients: number("clients")? as usize,
            passes: number("passes")? as usize,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            first_failure: value
                .get("first_failure")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            metrics,
            notes: value
                .get("notes")
                .and_then(JsonValue::as_array)
                .map(|notes| {
                    notes
                        .iter()
                        .filter_map(JsonValue::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// The printed table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}, {} client{}, nproc {}, {} timed passes, verified: {}) ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.clients,
            if self.clients == 1 { "" } else { "s" },
            self.nproc,
            self.passes,
            self.verified,
        );
        for metric in &self.metrics {
            out.push_str(&format!(
                "  {:<42} {:>16} {:<6}",
                metric.name,
                format_value(metric.value),
                metric.unit
            ));
            if let Some(samples) = metric.samples {
                out.push_str(&format!(" n={samples}"));
            }
            if metric.exact == Some(true) {
                out.push_str(" exact");
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<42} {:>16} {:<6} ({} failed of {} attempted)\n",
            "failed_share",
            format_value(self.failed_share()),
            "share",
            self.failed,
            self.attempted
        ));
        if let Some(failure) = &self.first_failure {
            out.push_str(&format!("  first failure: {failure}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out
    }
}

fn known_metric(name: &str) -> Option<(&'static str, &'static str)> {
    crate::spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(crate::spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(known, _)| *known == name)
}

/// Four significant decimals for small values, fewer for large ones.
pub fn format_value(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> WorkloadReport {
        WorkloadReport {
            workload: "analytical",
            seed: 42,
            traced: false,
            verified: "golden".to_string(),
            nproc: 2,
            clients: 1,
            passes: 5,
            attempted: 600,
            failed: 0,
            first_failure: None,
            metrics: vec![
                Metric::new("latency_p50_ms", "ms", 19.25).samples(500),
                Metric::new("setup_s", "s", 0.1017),
            ],
            notes: vec!["a note".to_string()],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report().result_line();
        let JsonValue::Object(pairs) = JsonValue::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"latency_p50_ms\":{\"value\":19.25,\"unit\":\"ms\"}"));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let original = report();
        let parsed = WorkloadReport::from_json_value(&original.to_json_value()).unwrap();
        assert_eq!(parsed.metrics, original.metrics);
        assert_eq!(parsed.attempted, 600);
        assert_eq!(parsed.notes, original.notes);
        assert!(parsed.correct());
    }
}

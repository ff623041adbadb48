//! Metric names, units and the result line.

use telemetry::JsonValue;

/// End-to-end metrics, printed by every timed run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("accessions_per_s", "1/s"),
    ("reads_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("genomics.assembly_s", "s"),
    ("genomics.annotation_s", "s"),
    ("star.index_build_s", "s"),
    ("star.index_bytes", "bytes"),
    ("sra.fetch_s", "s"),
    ("sra.archive_bytes", "bytes"),
    ("sra.dump_s", "s"),
    ("sra.split_pairs_s", "s"),
    ("sra.fastq_bytes", "bytes"),
    ("star.runner_new_s", "s"),
    ("star.align_s", "s"),
    ("star.seed_s", "s"),
    ("star.stitch_s", "s"),
    ("star.extend_s", "s"),
    ("star.align_other_s", "s"),
    ("star.seed_units", "count"),
    ("star.stitch_units", "count"),
    ("star.extend_units", "count"),
    ("star.reads_input", "count"),
    ("star.reads_processed", "count"),
    ("star.processed_frac", "ratio"),
    ("star.multimap_frac", "ratio"),
    ("atlas.pipeline_s", "s"),
    ("atlas.pipeline_other_s", "s"),
    ("atlas.orchestrator_self_s", "s"),
    ("atlas.kernel_s", "s"),
    ("atlas.jobs", "count"),
    ("atlas.useful_job_frac", "ratio"),
    ("cloudsim.sim_events", "count"),
    ("cloudsim.instances_launched", "count"),
    ("cloudsim.interruptions", "count"),
    ("cloudsim.redeliveries", "count"),
    ("cloudsim.dead_lettered", "count"),
    ("telemetry.recorder_s", "s"),
    ("telemetry.monitor_s", "s"),
    ("telemetry.slo_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.spans", "count"),
    ("telemetry.event_log_bytes", "bytes"),
    ("telemetry.perfetto_bytes", "bytes"),
    ("deseq.normalize_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer times that, with `trace.unattributed_s`, add up to the
/// traced campaign wall (`trace.wall_s`). Every second of the traced wall is
/// in exactly one of them.
pub const WALL_LAYERS: [&str; 14] = [
    "sra.fetch_s",
    "sra.dump_s",
    "sra.split_pairs_s",
    "star.runner_new_s",
    "star.seed_s",
    "star.stitch_s",
    "star.extend_s",
    "star.align_other_s",
    "atlas.pipeline_other_s",
    "atlas.kernel_s",
    "telemetry.recorder_s",
    "telemetry.monitor_s",
    "telemetry.slo_s",
    "deseq.normalize_s",
];

/// One measured metric: its value and the within-run samples it came from.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Reported value.
    pub value: f64,
    /// Within-run samples behind `value` (empty for single measurements).
    pub samples: Vec<f64>,
}

/// What a run measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Metrics, in the order recorded.
    pub metrics: Vec<Metric>,
    /// Accessions submitted across the measured campaigns.
    pub attempted: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Run context: counts, digests and facts behind the metrics.
    pub context: Vec<(&'static str, JsonValue)>,
}

impl RunResult {
    /// Record a metric measured once.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            samples: Vec::new(),
        });
    }

    /// Record a metric with the within-run samples behind it.
    pub fn put_samples(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a context fact.
    pub fn note(&mut self, key: &'static str, value: impl Into<JsonValue>) {
        self.context.push((key, value.into()));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// with the metrics of `table` in its order. Errors if one is missing or
    /// not finite.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name,
                JsonValue::obj(vec![
                    ("value", JsonValue::Num(value)),
                    ("unit", unit.into()),
                ]),
            ));
        }
        Ok(JsonValue::obj(vec![
            ("correct", JsonValue::Bool(true)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::obj(metrics)),
        ])
        .render())
    }

    /// The context line: run facts plus `(n, q1, median, q3)` of every metric
    /// reported from within-run samples.
    pub fn context_line(&self) -> String {
        let mut fields: Vec<(&str, JsonValue)> = self.context.clone();
        let quartiles = self
            .metrics
            .iter()
            .filter(|m| !m.samples.is_empty())
            .map(|m| {
                let (q1, q2, q3) = crate::stats::quartiles(&m.samples);
                (
                    m.name,
                    JsonValue::obj(vec![
                        ("n", m.samples.len().into()),
                        ("q1", q1.into()),
                        ("median", q2.into()),
                        ("q3", q3.into()),
                    ]),
                )
            })
            .collect();
        fields.push(("quartiles", JsonValue::obj(quartiles)));
        JsonValue::obj(fields).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Does `name` match the metric-name grammar `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`?
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_names(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = telemetry::json::parse(&text).unwrap();
        match json.get(section) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {section} list"),
        }
    }

    fn ours(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_follow_the_grammar_and_match_benchmark_json() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert_eq!(benchmark_names("end_to_end"), ours(&END_TO_END));
        assert_eq!(benchmark_names("per_layer"), ours(&PER_LAYER));
        for layer in WALL_LAYERS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|(n, unit)| *n == layer && *unit == "s"),
                "{layer}"
            );
        }
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(JsonValue::Arr(items)) = json.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::fixture::Workload::ALL
            .iter()
            .filter(|w| w.gated())
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}

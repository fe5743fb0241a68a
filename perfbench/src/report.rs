//! Metric names and units, and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them with tracing
/// off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sf_per_s", "1/s"),
    ("proc_p50_us", "us"),
    ("proc_p90_us", "us"),
    ("cpu_us_per_sf", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports all of them with tracing
/// on. A layer the workload does not drive and no replay probe covers
/// reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("phy.fft_us", "us"),
    ("phy.demod_us", "us"),
    ("phy.decode_us", "us"),
    ("phy.finish_us", "us"),
    ("phy.total_us", "us"),
    ("phy.turbo_iters_per_block", "count"),
    ("tx.send_us", "us"),
    ("tx.flush_us", "us"),
    ("tx.wire_bytes_per_sf", "bytes"),
    ("net.frame_us", "us"),
    ("net.ingest_us", "us"),
    ("rx.delivered", "count"),
    ("rx.gaps", "count"),
    ("rx.stale", "count"),
    ("rx.drops", "count"),
    ("rx.bad_frames", "count"),
    ("cluster.steals_per_sf", "count"),
    ("cluster.declined_per_sf", "count"),
    ("cluster.decode_migrated_frac", "fraction"),
    ("cluster.missed", "count"),
    ("cluster.dropped", "count"),
    ("cluster.shed", "count"),
    ("cluster.crc_failures", "count"),
    ("core.steal_handoff_us", "us"),
    ("sim.rtopex_sf_per_s", "1/s"),
    ("sim.partitioned_sf_per_s", "1/s"),
    ("sim.global_sf_per_s", "1/s"),
    ("sim.wheel_ns_per_event", "ns"),
    ("sim.gen_ns_per_task", "ns"),
    ("sim.migrated_frac", "fraction"),
    ("gen.slip_ms", "ms"),
];

/// What a run measured and whether the program's outputs were right.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    checks_failed: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            checks_failed: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Sets metric `name`, which must be one of the declared names.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(key, value);
    }

    /// Records an output check that failed; the run reports
    /// `correct: false`.
    pub fn fail_check(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.checks_failed.push(why);
    }

    pub fn correct(&self) -> bool {
        self.checks_failed.is_empty()
    }

    /// The end-to-end metrics alone, as a JSON object of numbers; the
    /// traced run prints it too, so the two runs can be compared for
    /// tracing overhead.
    pub fn end_to_end_json(&self) -> String {
        let fields: Vec<String> = END_TO_END
            .iter()
            .map(|(name, _)| {
                format!(
                    "\"{name}\": {}",
                    self.values.get(name).copied().unwrap_or(0.0)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (or, traced, the per-layer ones).
    pub fn json(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

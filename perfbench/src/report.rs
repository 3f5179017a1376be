//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with tracing off. Every workload reports
/// every one of them; `README.md` gives each workload's definition.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_ms", "ms"),
    ("sim_joules_per_request", "J"),
];

/// The phase labels of `exion_serve::Phase::ALL`, in its order, as metric
/// name suffixes.
pub const PHASE_KEYS: [&str; exion_serve::PHASES] = [
    "attribution.share.admission",
    "attribution.share.queue",
    "attribution.share.batch_join",
    "attribution.share.compute",
    "attribution.share.collective",
    "attribution.share.refill",
    "attribution.share.parked",
    "attribution.share.migration",
    "attribution.share.fault_stall",
    "attribution.share.degraded_window",
];

/// Per-layer metrics, printed with tracing on. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 79] = [
    ("trace.gen_s", "s"),
    ("cost.warm_lookup_ns", "ns"),
    ("cost.cold_price_us", "us"),
    ("cost.keys", "count"),
    ("cluster.events", "count"),
    ("cluster.iterations", "count"),
    ("cluster.peak_calendar_events", "count"),
    ("cluster.ns_per_event", "ns"),
    ("calendar.ns_per_event", "ns"),
    ("scheduler.mean_queue_depth", "count"),
    ("scheduler.peak_queue_depth", "count"),
    ("scheduler.preemptions", "count"),
    ("scheduler.latent_spills", "count"),
    ("admission.shed", "count"),
    ("admission.degraded", "count"),
    ("residency.hit_rate", "ratio"),
    ("residency.refill_gb", "GB"),
    ("placement.collective_ms", "ms"),
    ("placement.collective_gb", "GB"),
    ("planner.calls", "count"),
    ("planner.wall_s", "s"),
    ("planner.replans", "count"),
    ("planner.migration_gb", "GB"),
    ("fault.injected", "count"),
    ("fault.lost", "count"),
    ("fault.checkpoint_spills", "count"),
    ("fault.mttr_ms", "ms"),
    ("attribution.overhead_s", "s"),
    (PHASE_KEYS[0], "ratio"),
    (PHASE_KEYS[1], "ratio"),
    (PHASE_KEYS[2], "ratio"),
    (PHASE_KEYS[3], "ratio"),
    (PHASE_KEYS[4], "ratio"),
    (PHASE_KEYS[5], "ratio"),
    (PHASE_KEYS[6], "ratio"),
    (PHASE_KEYS[7], "ratio"),
    (PHASE_KEYS[8], "ratio"),
    (PHASE_KEYS[9], "ratio"),
    ("telemetry.sink_overhead_s", "s"),
    ("telemetry.spans", "count"),
    ("metrics.goodput_rps", "req/s"),
    ("metrics.p99_ms", "ms"),
    ("model.vanilla_s", "s"),
    ("model.exion_s", "s"),
    ("model.vanilla_ns_per_mac", "ns"),
    ("model.exion_ns_per_mac", "ns"),
    ("model.psnr_db_min", "dB"),
    ("ffn_reuse.inter_sparsity", "ratio"),
    ("ffn_reuse.ops_ratio", "ratio"),
    ("ffn_reuse.dense_us", "us"),
    ("ffn_reuse.sparse_us", "us"),
    ("ffn_reuse.dense_calls", "count"),
    ("ffn_reuse.sparse_calls", "count"),
    ("ffn_reuse.dense_kb", "KB"),
    ("ep.intra_sparsity", "ratio"),
    ("ep.attn_ops_ratio", "ratio"),
    ("ep.q_skip", "ratio"),
    ("ep.kv_skip", "ratio"),
    ("ep.log_matmul_us", "us"),
    ("ep.predict_us", "us"),
    ("ep.log_matmul_calls", "count"),
    ("ep.predict_calls", "count"),
    ("ep.log_matmul_kb", "KB"),
    ("tensor.matmul_ns_per_mac", "ns"),
    ("tensor.quant_roundtrip_us", "us"),
    ("tensor.macs", "count"),
    ("tensor.quant_roundtrip_calls", "count"),
    ("conmerge.compact_s", "s"),
    ("conmerge.masks", "count"),
    ("conmerge.ffn_block_frac", "ratio"),
    ("conmerge.attn_block_frac", "ratio"),
    ("conmerge.utilization", "ratio"),
    ("sim.simulate_s", "s"),
    ("sim.iterations", "count"),
    ("sim.us_per_iteration", "us"),
    ("sim.iteration_us", "us"),
    ("sim.tops_per_w_geomean", "TOPS/W"),
    ("bench.trace_overhead_s", "s"),
    ("bench.passes", "count"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Run-level checks that failed (determinism across passes, observer
    /// pairing), each as a message.
    pub problems: Vec<String>,
    /// Every metric the run measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed run-level check.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// The result line: `{"correct","attempted","failed","metrics"}` over
    /// the end-to-end catalogue, or the per-layer one when `traced`.
    /// Failed checks are listed on standard error.
    pub fn to_json(&self, traced: bool) -> String {
        let mut problems = self.problems.clone();
        for name in self.metrics.keys() {
            if !END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name) {
                problems.push(format!("metric {name} is not in the catalogue"));
            }
        }
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        for p in &problems {
            eprintln!("exion-perfbench: check failed: {p}");
        }
        let correct = self.failed == 0 && self.attempted > 0 && problems.is_empty();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Peak resident set of this process (MB), read from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue must match `BENCHMARK.json` name for name and unit
    /// for unit, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let end = body.find(']').expect("section end");
            let mut pairs = Vec::new();
            for entry in body[..end].split('{').skip(1) {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value") + 1;
                    let close = open + rest[open..].find('"').expect("value end");
                    rest[open..close].to_string()
                };
                pairs.push((field("name"), field("unit")));
            }
            pairs
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn phase_keys_follow_the_phase_order() {
        for (key, phase) in PHASE_KEYS.iter().zip(exion_serve::Phase::ALL) {
            assert_eq!(
                key.trim_start_matches("attribution.share."),
                phase.label().replace('-', "_")
            );
        }
    }

    #[test]
    fn result_line_flags_missing_and_non_finite_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.metrics.insert(name, 1.5);
        }
        let line = o.to_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        // Per-layer metrics a workload never measured read 0.
        assert!(o
            .to_json(true)
            .contains("\"trace.gen_s\":{\"value\":0,\"unit\":\"s\"}"));
        o.metrics.insert("ops_per_s", f64::NAN);
        assert!(o.to_json(false).starts_with("{\"correct\":false"));
        o.metrics.remove("ops_per_s");
        assert!(o.to_json(false).starts_with("{\"correct\":false"));
    }
}

//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_s", "s"),
    ("sim_job_p50_s", "s"),
    ("sim_job_p90_s", "s"),
    ("sim_jobs", "count"),
    ("sim_protected_runtime_s", "s"),
    ("sim_io_p99_ms", "ms"),
    ("sim_throughput_mbs", "MB/s"),
    ("sync_bytes_per_node", "B"),
];

/// `FaultSummary` counters, reported as `faults.<name>`.
pub const FAULT_COUNTERS: [&str; 16] = [
    "broker_outages",
    "report_drops",
    "reply_delays",
    "retries",
    "crashes",
    "restarts",
    "aborted_tasks",
    "lost_replicas",
    "parked_ios",
    "degraded_entries",
    "agg_crashes",
    "agg_restarts",
    "rack_partitions",
    "dup_reports",
    "reorder_reports",
    "resyncs",
];

/// The `FaultSummary` counters in [`FAULT_COUNTERS`] order.
pub fn fault_values(f: &ibis_cluster::report::FaultSummary) -> [u64; 16] {
    [
        f.broker_outages,
        f.report_drops,
        f.reply_delays,
        f.retries,
        f.crashes,
        f.restarts,
        f.aborted_tasks,
        f.lost_replicas,
        f.parked_ios,
        f.degraded_entries,
        f.agg_crashes,
        f.agg_restarts,
        f.rack_partitions,
        f.dup_reports,
        f.reorder_reports,
        f.resyncs,
    ]
}

/// Per-layer metrics with a fixed name, printed by every traced run.
const PER_LAYER_FIXED: [(&str, &str); 26] = [
    ("mapreduce.assign_calls", "count"),
    ("mapreduce.assign_ns_per_call", "ns"),
    ("mapreduce.assign_hit_ratio", "ratio"),
    ("core.coord_ns_per_round", "ns"),
    ("core.broker_reports", "count"),
    ("core.broker_payload_bytes", "B"),
    ("core.broker_agg_bytes", "B"),
    ("core.broker_resyncs", "count"),
    ("core.broker_resync_bytes", "B"),
    ("core.broker_dup_ignored", "count"),
    ("core.sched_ns_per_io", "ns"),
    ("core.sched_decisions", "count"),
    ("storage.device_ns_per_io", "ns"),
    ("storage.link_ns_per_xfer", "ns"),
    ("simcore.queue_ns_per_op", "ns"),
    ("cluster.events", "count"),
    ("cluster.ns_per_event", "ns"),
    ("dfs.alloc_ns_per_block", "ns"),
    ("dfs.rack_local_transfers", "count"),
    ("dfs.cross_rack_transfers", "count"),
    ("workgen.compose_s", "s"),
    ("workgen.jobs", "count"),
    ("obs.audit_s", "s"),
    ("obs.events_recorded", "count"),
    ("obs.truncated_nodes", "count"),
    ("trace.overhead_s", "s"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        FAULT_COUNTERS
            .iter()
            .map(|f| (format!("faults.{f}"), "count")),
    );
    out.extend(
        crate::outcome::INVARIANTS
            .iter()
            .map(|i| (format!("obs.audit_violations.{i}"), "count")),
    );
    out.extend(
        ibis_trace::attribution::COMPONENTS
            .iter()
            .map(|c| (format!("trace.attr.{c}_s"), "s")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(all.len() <= 16 + 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[at + key.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), want_layer);
    }
}

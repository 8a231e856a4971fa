//! What one simulated run produced: the simulated-time metrics, the
//! outcome digest that must repeat across runs of a seed, and the checks.

use crate::stats::{fnv1a, hist_quantile, median, percentile};
use crate::workloads::Inputs;
use ibis_cluster::RunReport;
use ibis_obs::{AuditReport, Invariant};
use ibis_simcore::metrics::Histogram;
use std::fmt::Write as _;

/// Every audit invariant, in the auditor's order.
pub const INVARIANTS: [Invariant; 5] = [
    Invariant::StartTagMonotone,
    Invariant::ProportionalShare,
    Invariant::DelayIdentity,
    Invariant::DegradedPureLocal,
    Invariant::RackScopedRecovery,
];

/// The simulated-time results of one run. Exact for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a of the canonical outcome text.
    pub digest: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that finished before the simulation ended.
    pub finished: u64,
    /// Simulated end of the last event, seconds.
    pub makespan_s: f64,
    /// Median job arrival→completion latency, seconds.
    pub job_p50_s: f64,
    /// p90 job latency, seconds (nearest rank).
    pub job_p90_s: f64,
    /// Median latency of the jobs with the largest I/O weight, seconds.
    pub protected_s: f64,
    /// p99 device latency over every interposed I/O, milliseconds.
    pub io_p99_ms: f64,
    /// Interposed I/Os behind `io_p99_ms`.
    pub ios: u64,
    /// All I/O service over the makespan, MB/s.
    pub throughput_mbs: f64,
    /// Coordination bytes on every level, per node.
    pub sync_bytes_per_node: f64,
    /// Events the engine processed.
    pub events: u64,
}

impl Outcome {
    /// Derives the outcome of `report`, a run of `inputs`.
    pub fn of(inputs: &Inputs, report: &RunReport) -> Self {
        let latency: Vec<f64> = report
            .jobs
            .iter()
            .map(|j| (j.finished - j.submitted).as_secs_f64())
            .collect();
        let top = inputs.protected_weight();
        let protected: Vec<f64> = report
            .jobs
            .iter()
            .zip(&latency)
            .filter(|(j, _)| {
                inputs
                    .jobs
                    .iter()
                    .find(|s| s.name == j.name)
                    .is_some_and(|s| s.io_weight == top)
            })
            .map(|(_, &l)| l)
            .collect();
        let mut io = Histogram::new();
        for h in report.app_latency.values() {
            io.merge(h);
        }
        Outcome {
            digest: fnv1a(canon(report).as_bytes()),
            submitted: inputs.jobs.len() as u64,
            finished: report.jobs.len() as u64,
            makespan_s: report.makespan.as_secs_f64(),
            job_p50_s: percentile(&latency, 50.0),
            job_p90_s: percentile(&latency, 90.0),
            protected_s: median(&protected),
            io_p99_ms: hist_quantile(&io, 0.99).unwrap_or(f64::NAN) / 1e6,
            ios: io.count(),
            throughput_mbs: report.mean_total_throughput() / 1e6,
            sync_bytes_per_node: report.broker.total_bytes() as f64 / inputs.cluster.nodes as f64,
            events: report.events,
        }
    }

    /// Descriptions of every failed output check; empty when correct.
    pub fn failures(&self, inputs: &Inputs, report: &RunReport) -> Vec<String> {
        let mut out = Vec::new();
        if self.finished != self.submitted {
            out.push(format!(
                "{} of {} jobs unfinished at the end of the simulation",
                self.submitted - self.finished,
                self.submitted
            ));
        }
        for t in &report.tenants {
            if t.finished != t.submitted {
                out.push(format!(
                    "tenant {} finished {} of {} jobs",
                    t.name, t.finished, t.submitted
                ));
            }
        }
        let tenant_jobs: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        let named = inputs.jobs.iter().filter(|j| j.tenant.is_some()).count() as u64;
        if tenant_jobs != named {
            out.push(format!(
                "tenants saw {tenant_jobs} jobs, {named} were submitted"
            ));
        }
        let values = [
            self.makespan_s,
            self.job_p50_s,
            self.job_p90_s,
            self.protected_s,
            self.io_p99_ms,
            self.throughput_mbs,
            self.sync_bytes_per_node,
        ];
        if values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            out.push(format!(
                "a simulated metric is zero or undefined: {values:?}"
            ));
        }
        out
    }
}

/// The canonical outcome text: events, makespan, per-app service and
/// device-latency counts, per-job completion, per-tenant latency
/// quantiles, and the coordination counters. Wall-clock fields are left
/// out, so two runs of one seed must produce the same text.
pub fn canon(r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "events {} makespan {}", r.events, r.makespan.as_nanos());
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    let _ = writeln!(s, "service {service:?}");
    let mut ios: Vec<(u32, u64)> = r
        .app_latency
        .iter()
        .map(|(a, h)| (a.0, h.count()))
        .collect();
    ios.sort_unstable();
    let _ = writeln!(s, "ios {ios:?}");
    for j in &r.jobs {
        let _ = writeln!(s, "job {} {} {}", j.name, j.app.0, j.finished.as_nanos());
    }
    for t in &r.tenants {
        let _ = writeln!(
            s,
            "tenant {} sub={} fin={} q50={:?} q90={:?} q99={:?}",
            t.name,
            t.submitted,
            t.finished,
            t.latency.quantile(0.5),
            t.latency.quantile(0.9),
            t.latency.quantile(0.99),
        );
    }
    let b = &r.broker;
    let _ = writeln!(
        s,
        "broker {} {} {} {} {} {} {} {} decisions {}",
        b.reports,
        b.replies,
        b.payload_bytes,
        b.agg_msgs,
        b.agg_bytes,
        b.resyncs,
        b.resync_bytes,
        b.dup_ignored,
        r.sched_decisions
    );
    let _ = writeln!(s, "faults {:?}", r.faults);
    s
}

/// Audit verdict counts the benchmark reports: violations per invariant
/// and the nodes whose ring evicted events.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCounts {
    /// `(invariant name, violations)`, [`INVARIANTS`] order.
    pub violations: Vec<(String, u64)>,
    /// Nodes skipped by the audit because their ring was truncated.
    pub truncated_nodes: u64,
    /// Events the audit replayed.
    pub events: u64,
}

impl AuditCounts {
    /// Extracts the counts from an audit report.
    pub fn of(a: &AuditReport) -> Self {
        AuditCounts {
            violations: INVARIANTS
                .iter()
                .map(|&i| (i.to_string(), a.violations_of(i)))
                .collect(),
            truncated_nodes: a.truncated_nodes.len() as u64,
            events: a.events,
        }
    }
}

/// Audits the run's recording, when it has one.
pub fn audit(report: &RunReport) -> Option<AuditCounts> {
    let rec = report.recording.as_ref()?;
    Some(AuditCounts::of(&ibis_obs::audit(
        rec,
        &ibis_obs::AuditConfig::default(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tiny;
    use ibis_cluster::engine::Sim;

    fn run_tiny(seed: u64) -> (Inputs, RunReport) {
        let inputs = tiny(seed);
        let exp = inputs.experiment();
        let sim: Sim = Sim::new(&exp);
        let report = sim.run();
        (inputs, report)
    }

    #[test]
    fn digest_is_stable_across_runs_of_a_seed() {
        let (inputs, a) = run_tiny(7);
        let (_, b) = run_tiny(7);
        let oa = Outcome::of(&inputs, &a);
        let ob = Outcome::of(&inputs, &b);
        assert_eq!(oa, ob);
        assert_eq!(canon(&a), canon(&b));
        assert!(
            oa.failures(&inputs, &a).is_empty(),
            "{:?}",
            oa.failures(&inputs, &a)
        );
        assert_eq!(oa.finished, 2);
    }

    #[test]
    fn digest_matches_between_traced_and_untraced_runs() {
        let (inputs, plain) = run_tiny(11);
        let mut traced_inputs = tiny(11);
        traced_inputs.cluster = traced_inputs.cluster.with_trace();
        let exp = traced_inputs.experiment();
        let sim: Sim = Sim::new(&exp);
        let traced = sim.run();
        assert!(traced.trace.is_some());
        assert_eq!(
            Outcome::of(&inputs, &plain).digest,
            Outcome::of(&traced_inputs, &traced).digest
        );
    }

    #[test]
    fn digest_moves_with_the_seed() {
        let (ia, a) = run_tiny(1);
        let (ib, b) = run_tiny(2);
        assert_ne!(Outcome::of(&ia, &a).digest, Outcome::of(&ib, &b).digest);
    }
}

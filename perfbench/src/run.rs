//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics from spans and `RunReport` counters).

use crate::catalog::{fault_values, FAULT_COUNTERS};
use crate::outcome::{audit, AuditCounts, Outcome, INVARIANTS};
use crate::replay;
use crate::spans::{self, Recorder};
use crate::stats::{median, tail_percentile};
use crate::workloads::{compose, instance_seed, Inputs, Workload, INSTANCES};
use ibis_cluster::engine::Sim;
use ibis_cluster::RunReport;
use ibis_core::broker_tree::BrokerTreeConfig;
use ibis_core::AppId;
use ibis_simcore::SimDuration;
use std::cmp::Reverse;
use std::time::{Duration, Instant};

/// Set-ups per measured run: each builds a new simulator and
/// all but the last are dropped unrun, so `setup_s` has three samples per
/// run sample.
const SETUPS_PER_RUN: usize = 3;

/// No further run starts once it would end after this much wall time, so
/// a slow host still exits well inside the harness's limit.
const HARD_CAP: Duration = Duration::from_secs(150);

/// A benchmark process's result: named metrics, the operation counts, and
/// every failed check.
#[derive(Debug, Default)]
pub struct Measured {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Jobs submitted across every simulated run.
    pub attempted: u64,
    /// Jobs unfinished when their simulation ended.
    pub failed: u64,
    /// Failed output checks; empty when correct.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Measured {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one simulated run's jobs and checks it against the first
    /// run's outcome (and audit counts, where audited).
    fn account(
        &mut self,
        reference: &(Outcome, Option<AuditCounts>),
        run: &(Outcome, Option<AuditCounts>),
    ) {
        self.attempted += run.0.submitted;
        self.failed += run.0.submitted - run.0.finished;
        if run.0.digest != reference.0.digest {
            self.failures.push(format!(
                "outcome digest {:016x} differs from the first run's {:016x}",
                run.0.digest, reference.0.digest
            ));
        }
        if run.1 != reference.1 {
            self.failures
                .push("audit counts differ between runs of one seed".to_string());
        }
    }
}

/// Composes and builds one simulator; returns the inputs, the simulator
/// and the set-up seconds.
fn set_up(w: Workload, seed: u64) -> (Inputs, Sim, f64) {
    let t = Instant::now();
    let inputs = compose(w, seed);
    let exp = inputs.experiment();
    let sim: Sim = Sim::new(&exp);
    (inputs, sim, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The untraced run: set up and run the workload's instances in turn for
/// about `seconds`, each at least once, and report medians of the host
/// times beside the medians across instances of the simulated metrics,
/// which every repetition of an instance must reproduce exactly.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut firsts: Vec<Option<(Outcome, Option<AuditCounts>)>> = vec![None; INSTANCES as usize];
    loop {
        let i = runs.len() % firsts.len();
        let instance = instance_seed(seed, i as u64);
        let mut built = None;
        for _ in 0..SETUPS_PER_RUN {
            let (inputs, sim, secs) = set_up(w, instance);
            setups.push(secs);
            drop(built.replace((inputs, sim)));
        }
        let (inputs, sim) = built.expect("at least one set-up");
        let t = Instant::now();
        let report = sim.run();
        let counts = if w.audited() { audit(&report) } else { None };
        runs.push(t.elapsed().as_secs_f64());

        let run = (Outcome::of(&inputs, &report), counts);
        if firsts[i].is_none() {
            m.failures.extend(run.0.failures(&inputs, &report));
            if w.audited() && run.1.is_none() {
                m.failures
                    .push("audited workload produced no recording".to_string());
            }
            firsts[i] = Some(run.clone());
        }
        m.account(firsts[i].as_ref().expect("set above"), &run);
        drop(report);

        let elapsed = start.elapsed();
        let per_run = elapsed / runs.len() as u32;
        let done = runs.len() >= firsts.len() && (elapsed + per_run).as_secs_f64() > seconds;
        if done || elapsed + per_run > HARD_CAP {
            break;
        }
    }
    let firsts: Vec<(Outcome, Option<AuditCounts>)> = firsts.into_iter().flatten().collect();
    let across =
        |f: fn(&Outcome) -> f64| median(&firsts.iter().map(|(o, _)| f(o)).collect::<Vec<_>>());
    m.notes.push(format!(
        "runs {} set-ups {} instances {}",
        runs.len(),
        setups.len(),
        firsts.len()
    ));
    for (i, (o, counts)) in firsts.iter().enumerate() {
        m.notes.push(format!(
            "instance {i} seed {} digest {:016x} events {} ios {}",
            instance_seed(seed, i as u64),
            o.digest,
            o.events,
            o.ios
        ));
        if let Some(c) = counts {
            m.notes.push(format!(
                "instance {i} audit: {} events, {} truncated nodes, violations {:?}",
                c.events, c.truncated_nodes, c.violations
            ));
        }
    }
    let ms: Vec<String> = runs.iter().map(|r| format!("{:.0}", r * 1e3)).collect();
    m.notes
        .push(format!("run_s samples (ms): {}", ms.join(" ")));
    let jobs = across(|o| o.finished as f64);
    if tail_percentile(jobs as usize).is_none_or(|p| p < 90.0) {
        m.notes.push(format!(
            "note: {jobs} jobs leave fewer than ten beyond p90; sim_job_p50_s/p90_s are nearest-rank \
             values of so few jobs"
        ));
    }
    m.push("setup_s", median(&setups), "s");
    m.push("run_s", median(&runs), "s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    m.push("sim_makespan_s", across(|o| o.makespan_s), "s");
    m.push("sim_job_p50_s", across(|o| o.job_p50_s), "s");
    m.push("sim_job_p90_s", across(|o| o.job_p90_s), "s");
    m.push("sim_jobs", jobs, "count");
    m.push("sim_protected_runtime_s", across(|o| o.protected_s), "s");
    m.push("sim_io_p99_ms", across(|o| o.io_p99_ms), "ms");
    m.push("sim_throughput_mbs", across(|o| o.throughput_mbs), "MB/s");
    m.push(
        "sync_bytes_per_node",
        across(|o| o.sync_bytes_per_node),
        "B",
    );
    m
}

/// One simulated run inside spans, with its recording already audited
/// and dropped so that a traced process holds one recording at a time.
struct Spanned {
    inputs: Inputs,
    report: RunReport,
    audit: Option<AuditCounts>,
    /// Events the run's published recording retained.
    recorded: usize,
}

impl Spanned {
    fn outcome(&self) -> (Outcome, Option<AuditCounts>) {
        (Outcome::of(&self.inputs, &self.report), self.audit.clone())
    }
}

/// Set-up, `Sim::run`, and the audit when the run has a recording, each
/// in its own span.
fn spanned_run(rec: &mut Recorder, w: Workload, seed: u64, traced: bool) -> Spanned {
    let (new, run) = if traced {
        ("cluster.sim_new_traced", "cluster.sim_run_traced")
    } else {
        ("cluster.sim_new", "cluster.sim_run")
    };
    let (inputs, exp) = rec.span("workgen.compose", |_| {
        let inputs = compose(w, seed);
        let inputs = if traced { inputs.traced() } else { inputs };
        let exp = inputs.experiment();
        let jobs = inputs.jobs.len() as u64;
        ((inputs, exp), jobs)
    });
    let sim: Sim = rec.span(new, |_| (Sim::new(&exp), 1));
    let mut report = rec.span(run, |_| {
        let r = sim.run();
        let events = r.events;
        (r, events)
    });
    let audit = rec.span("obs.audit", |_| {
        let c = audit(&report);
        let events = c.as_ref().map_or(0, |c| c.events);
        (c, events)
    });
    let recorded = report.recording.take().map_or(0, |r| r.len());
    Spanned {
        inputs,
        report,
        audit,
        recorded,
    }
}

/// Distinct `(app, weight)` flows of a run, in app order.
fn flows(inputs: &Inputs, report: &RunReport) -> Vec<(AppId, f64)> {
    let mut out: Vec<(AppId, f64)> = report
        .jobs
        .iter()
        .map(|j| {
            let w = inputs
                .jobs
                .iter()
                .find(|s| s.name == j.name)
                .map_or(1.0, |s| s.io_weight);
            (j.app, w)
        })
        .collect();
    out.sort_by_key(|f| f.0);
    out.dedup_by_key(|f| f.0);
    out
}

/// Share of interposed bytes that were reads.
fn read_share(report: &RunReport) -> f64 {
    let total =
        |s: &Option<ibis_simcore::metrics::TimeSeries>| s.as_ref().map_or(0.0, |t| t.total());
    let (r, w) = (total(&report.total_read), total(&report.total_write));
    if r + w > 0.0 {
        r / (r + w)
    } else {
        0.5
    }
}

/// Upper bound on each replay's operations, so the replays stay
/// a few seconds of the traced run on every workload.
const REPLAY_OPS: u64 = 200_000;

/// The traced run: one untraced and one traced simulation (more pairs if
/// time allows), then every layer replay, all inside spans. Spans are
/// written to `spans_path`.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
    header: &[(&str, String)],
) -> Measured {
    let start = Instant::now();
    let mut m = Measured::default();
    let mut rec = Recorder::new();
    let root = rec.open("perfbench");

    // The traced run replays instance 0, whose cluster seed is the run seed.
    let seed = instance_seed(seed, 0);
    let first = spanned_run(&mut rec, w, seed, false);
    let reference = first.outcome();
    m.failures
        .extend(reference.0.failures(&first.inputs, &first.report));
    // Counts the first run's jobs; it matches itself trivially.
    m.account(&reference, &reference);
    let second = spanned_run(&mut rec, w, seed, true);
    m.account(&reference, &second.outcome());
    let Spanned {
        inputs,
        report: plain,
        audit: plain_audit,
        ..
    } = first;
    let traced = &second.report;
    match traced.trace.as_ref() {
        None => m
            .failures
            .push("traced run produced no trace report".to_string()),
        Some(t) => {
            for a in &t.per_app {
                if a.components_sum_ns() != a.swept_ns {
                    m.failures.push(format!(
                        "app {}: attribution components sum to {} ns, swept total is {} ns",
                        a.app,
                        a.components_sum_ns(),
                        a.swept_ns
                    ));
                }
            }
        }
    }

    // Layer replays, fed with this workload's inputs and run shape.
    let c = &inputs.cluster;
    let o = &reference.0;
    let apps = flows(&inputs, &plain);
    let share = read_share(&plain);
    let depth = (c.nodes * (c.cores_per_node + 2)) as usize;
    rec.span("replay.simcore", |rec| {
        replay::event_queue(rec, depth, o.events.min(2 * REPLAY_OPS), seed);
        ((), 0)
    });
    rec.span("replay.storage", |rec| {
        replay::device(
            rec,
            &c.hdfs_device,
            c.chunk,
            o.ios.min(REPLAY_OPS),
            share,
            seed,
        );
        replay::link(rec, c.nic_bw, c.chunk, REPLAY_OPS / 2);
        ((), 0)
    });
    let (header_bytes, entry_bytes) = replay::wire_sizes();
    let b = &plain.broker;
    let msgs = (b.reports + b.replies).max(1);
    let per_report =
        (b.payload_bytes.saturating_sub(header_bytes * msgs) / entry_bytes.max(1) / msgs).max(1);
    let rounds =
        ((plain.makespan.as_secs_f64() / c.sync_period.as_secs_f64()) as u64).clamp(1, 300);
    rec.span("replay.core", |rec| {
        replay::scheduler(rec, &inputs, &apps, o.ios.min(REPLAY_OPS), share, seed);
        let tree = c.broker_tree.unwrap_or(BrokerTreeConfig {
            rack_size: c.nodes,
            hop_latency: SimDuration::ZERO,
        });
        replay::broker_tree(
            rec,
            tree,
            c.nodes,
            apps.len() as u32,
            per_report as u32,
            rounds,
        );
        ((), 0)
    });
    let nn = rec.span("replay.dfs", |rec| (replay::dfs(rec, &inputs), 0));
    let placed = rec.span("replay.mapreduce", |rec| {
        (replay::job_manager(rec, &inputs, &nn), 0)
    });
    let placed = placed.unwrap_or_else(|e| {
        m.failures.push(e);
        replay::Placement::default()
    });

    // Further untraced/traced pairs while the time budget allows, so the
    // overhead is a difference of medians.
    // The first pass took longer than a pair (it includes the replays),
    // so using it as the estimate never overruns the budget.
    let pass = start.elapsed();
    while (start.elapsed() + pass).as_secs_f64() < seconds && start.elapsed() + pass < HARD_CAP {
        let again = spanned_run(&mut rec, w, seed, false).outcome();
        m.account(&reference, &again);
        let again = spanned_run(&mut rec, w, seed, true).outcome();
        m.account(&reference, &again);
    }
    rec.close(root, 0);

    let spans = rec.spans();
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e9)
            .collect()
    };
    let ns_per_op = |names: &[&str]| -> f64 {
        let (d, n) = names
            .iter()
            .map(|n| spans::sum_of(spans, n))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        d as f64 / n.max(1) as f64
    };
    let plain_median = median(&durations("cluster.sim_run"));
    let traced_median = median(&durations("cluster.sim_run_traced"));

    m.push("mapreduce.assign_calls", placed.calls as f64, "count");
    m.push(
        "mapreduce.assign_ns_per_call",
        ns_per_op(&["mapreduce.assign_pass"]),
        "ns",
    );
    m.push(
        "mapreduce.assign_hit_ratio",
        placed.hits as f64 / placed.calls.max(1) as f64,
        "ratio",
    );
    let (coord_ns, _) = spans::sum_of(spans, "core.coord_round");
    m.push(
        "core.coord_ns_per_round",
        coord_ns as f64 / rounds as f64,
        "ns",
    );
    let tb = &traced.broker;
    m.push("core.broker_reports", tb.reports as f64, "count");
    m.push("core.broker_payload_bytes", tb.payload_bytes as f64, "B");
    m.push("core.broker_agg_bytes", tb.agg_bytes as f64, "B");
    m.push("core.broker_resyncs", tb.resyncs as f64, "count");
    m.push("core.broker_resync_bytes", tb.resync_bytes as f64, "B");
    m.push("core.broker_dup_ignored", tb.dup_ignored as f64, "count");
    m.push(
        "core.sched_ns_per_io",
        ns_per_op(&["core.sched_submit_dispatch_complete"]),
        "ns",
    );
    m.push(
        "core.sched_decisions",
        traced.sched_decisions as f64,
        "count",
    );
    m.push(
        "storage.device_ns_per_io",
        ns_per_op(&["storage.device_submit_complete"]),
        "ns",
    );
    m.push(
        "storage.link_ns_per_xfer",
        ns_per_op(&["storage.link_transfer"]),
        "ns",
    );
    m.push(
        "simcore.queue_ns_per_op",
        ns_per_op(&["simcore.queue_push_pop"]),
        "ns",
    );
    m.push("cluster.events", traced.events as f64, "count");
    m.push(
        "cluster.ns_per_event",
        plain_median * 1e9 / traced.events.max(1) as f64,
        "ns",
    );
    m.push(
        "dfs.alloc_ns_per_block",
        ns_per_op(&["dfs.create_file", "dfs.allocate_block"]),
        "ns",
    );
    m.push(
        "dfs.rack_local_transfers",
        traced.rack_local_transfers as f64,
        "count",
    );
    m.push(
        "dfs.cross_rack_transfers",
        traced.cross_rack_transfers as f64,
        "count",
    );
    m.push(
        "workgen.compose_s",
        median(&durations("workgen.compose")),
        "s",
    );
    m.push("workgen.jobs", inputs.jobs.len() as f64, "count");
    let audited = plain_audit.is_some();
    m.push(
        "obs.audit_s",
        if audited {
            median(&durations("obs.audit"))
        } else {
            0.0
        },
        "s",
    );
    m.push("obs.events_recorded", second.recorded as f64, "count");
    m.push(
        "obs.truncated_nodes",
        plain_audit.as_ref().map_or(0, |a| a.truncated_nodes) as f64,
        "count",
    );
    m.push("trace.overhead_s", traced_median - plain_median, "s");
    let faults = traced.faults.as_ref().map(fault_values).unwrap_or_default();
    for (name, v) in FAULT_COUNTERS.iter().zip(faults) {
        m.push(&format!("faults.{name}"), v as f64, "count");
    }
    for (i, inv) in INVARIANTS.iter().enumerate() {
        let v = plain_audit.as_ref().map_or(0, |a| a.violations[i].1);
        m.push(&format!("obs.audit_violations.{inv}"), v as f64, "count");
    }
    let mut attr = [0u64; 6];
    for a in traced.trace.iter().flat_map(|t| &t.per_app) {
        for (acc, v) in attr.iter_mut().zip(a.components) {
            *acc += v;
        }
    }
    for (name, ns) in ibis_trace::COMPONENTS.iter().zip(attr) {
        m.push(&format!("trace.attr.{name}_s"), ns as f64 / 1e9, "s");
    }

    m.notes.push(format!("peak rss {:.1} MiB", peak_rss_mib()));
    m.notes.push(format!(
        "digest {:016x}; traced pairs {}; replays: queue depth {depth}, {} apps, {per_report} apps/report, {rounds} rounds",
        reference.0.digest,
        durations("cluster.sim_run_traced").len(),
        apps.len()
    ));
    m.notes.push(format!(
        "{:<36} {:>6} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "ops"
    ));
    let mut rows = spans::totals(spans);
    rows.sort_by_key(|r| Reverse(r.3));
    for (name, count, total, own, ops) in rows {
        m.notes.push(format!(
            "{name:<36} {count:>6} {:>12.3} {:>12.3} {ops:>12}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    match write_spans(spans_path, &spans::to_json(spans, header)) {
        Ok(()) => m
            .notes
            .push(format!("spans written to {}", spans_path.display())),
        Err(e) => m
            .failures
            .push(format!("cannot write {}: {e}", spans_path.display())),
    }
    m
}

fn write_spans(path: &std::path::Path, doc: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

//! The determinism canon shared by the `*_determinism` suites: one text
//! serialization of every result-bearing [`RunReport`] field, so two runs
//! that must agree can be compared as a plain string diff, plus the
//! small cluster and chaos schedule most suites build on.
//!
//! `wall_secs` is never serialized: it is host wall-clock time and
//! legitimately differs between identical runs. Hash-map-backed fields
//! are emitted in sorted key order and floats as their bit patterns.

#![allow(dead_code)] // each suite uses its own subset

use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;

/// The optional report sections a suite turned on. Each flagged section
/// is serialized and asserted present, so a suite whose observers
/// silently switched off fails loudly instead of comparing less.
#[derive(Debug, Clone, Copy, Default)]
pub struct Canon {
    /// `RunReport::faults` (a fault schedule was active).
    pub faults: bool,
    /// `RunReport::recording`, every event verbatim in ring order.
    pub recording: bool,
    /// `RunReport::metrics`, every series point bit-exact.
    pub metrics: bool,
    /// `RunReport::trace`: the attribution table and span-forest shape.
    pub trace: bool,
}

impl Canon {
    /// The always-present fields only.
    pub const BASE: Canon = Canon {
        faults: false,
        recording: false,
        metrics: false,
        trace: false,
    };
    /// Recorder and metrics sampler on.
    pub const OBSERVED: Canon = Canon {
        recording: true,
        metrics: true,
        ..Canon::BASE
    };
    /// Recorder, metrics sampler and a fault schedule on.
    pub const CHAOS: Canon = Canon {
        faults: true,
        ..Canon::OBSERVED
    };

    /// The canonical text of `r`.
    pub fn of(self, r: &RunReport) -> String {
        let mut s = String::new();
        write_core(&mut s, r);
        if self.faults {
            let f = r.faults.as_ref().expect("fault schedule active");
            writeln!(s, "faults {f:?}").unwrap();
        }
        if self.recording {
            let rec = r.recording.as_ref().expect("recording enabled");
            writeln!(s, "rec seen={} retained={}", rec.seen(), rec.len()).unwrap();
            // Ids inside the events are encoded slab keys, so identical
            // text means identical key assignment, not just timing.
            for e in rec.events() {
                writeln!(s, "ev {:?} n{} d{} {:?}", e.at, e.node, e.dev, e.kind).unwrap();
            }
        }
        if self.metrics {
            let m = r.metrics.as_ref().expect("metrics enabled");
            writeln!(s, "metrics samples={}", m.samples_taken).unwrap();
            let mut series: Vec<&ibis_metrics::Series> = m.series.iter().collect();
            series.sort_by(|a, b| (&a.key.name, a.key.labels).cmp(&(&b.key.name, b.key.labels)));
            for sr in series {
                write!(s, "series {} {:?}:", sr.key.name, sr.key.labels).unwrap();
                for &(at, v) in &sr.points {
                    write!(s, " {:?}={:#x}", at, v.to_bits()).unwrap();
                }
                writeln!(s).unwrap();
            }
        }
        if self.trace {
            write_trace(&mut s, r);
        }
        s
    }
}

/// Jobs with phases, queries, tenants, per-app service, read/write
/// totals, per-app p99, broker counters, makespan, events, reference
/// latencies and rack transfers.
fn write_core(s: &mut String, r: &RunReport) {
    for j in &r.jobs {
        writeln!(
            s,
            "job {} app={} sub={:?} fin={:?} rt={} map={} red={}",
            j.name,
            j.app.0,
            j.submitted,
            j.finished,
            j.runtime.as_nanos(),
            j.map_phase.as_nanos(),
            j.reduce_phase.as_nanos(),
        )
        .unwrap();
    }
    for q in &r.queries {
        writeln!(s, "query {} app={} rt={}", q.name, q.first_app.0, q.runtime.as_nanos()).unwrap();
    }
    for t in &r.tenants {
        write!(
            s,
            "tenant {} app={} w={} sub={} fin={} n={}",
            t.name,
            t.app.0,
            t.weight,
            t.submitted,
            t.finished,
            t.latency.count(),
        )
        .unwrap();
        for q in [0.5, 0.9, 0.99, 1.0] {
            write!(s, " q{q}={:?}", t.latency.quantile(q)).unwrap();
        }
        writeln!(s, " mean={:#x}", t.latency.mean().to_bits()).unwrap();
    }
    let mut service: Vec<(u32, u64)> = r.app_service.iter().map(|(a, &b)| (a.0, b)).collect();
    service.sort_unstable();
    writeln!(s, "service {service:?}").unwrap();
    let total = |t: &Option<ibis_simcore::metrics::TimeSeries>| {
        t.as_ref().map_or(0, |t| t.total().to_bits())
    };
    writeln!(s, "reads {:#x} writes {:#x}", total(&r.total_read), total(&r.total_write)).unwrap();
    let mut lat: Vec<(u32, Option<u64>)> = r
        .app_latency
        .iter()
        .map(|(a, h)| (a.0, h.quantile(0.99)))
        .collect();
    lat.sort_unstable();
    writeln!(s, "p99 {lat:?}").unwrap();
    writeln!(
        s,
        "broker {:?} decisions {} makespan {} events {} refs {:?}",
        r.broker,
        r.sched_decisions,
        r.makespan.as_nanos(),
        r.events,
        r.reference_latencies_ms.map(|a| a.map(f64::to_bits)),
    )
    .unwrap();
    writeln!(
        s,
        "racks local={} cross={}",
        r.rack_local_transfers, r.cross_rack_transfers
    )
    .unwrap();
}

/// The assembled trace: the attribution table and the span forest shape.
fn write_trace(s: &mut String, r: &RunReport) {
    let t = r.trace.as_ref().expect("trace assembled");
    for a in &t.per_app {
        writeln!(
            s,
            "app {} jobs={} measured={} swept={} comps={:?}",
            a.app, a.jobs, a.measured_ns, a.swept_ns, a.components
        )
        .unwrap();
    }
    writeln!(
        s,
        "forest jobs={} unattached={}",
        t.forest.jobs.len(),
        t.forest.unattached.len()
    )
    .unwrap();
    for j in &t.forest.jobs {
        writeln!(
            s,
            "tree job={} app={} tasks={} reqs={} lat={}",
            j.job,
            j.app,
            j.tasks.len(),
            j.requests.len(),
            j.latency_ns()
        )
        .unwrap();
    }
}

/// A 4-node, 4-core cluster on Ideal devices (150 MB/s, 300 µs), with
/// `policy` coordinated whenever it can be. Observers stay as the
/// environment sets them; suites that need them pin them on.
pub fn ideal_cluster(policy: Policy, seed: u64) -> ClusterConfig {
    let coordinated = policy.coordinates();
    ClusterConfig {
        nodes: 4,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 150e6,
            latency: SimDuration::from_micros(300),
        },
        auto_reference: false,
        ..ClusterConfig::default()
    }
    .with_policy(policy)
    .with_coordination(coordinated)
}

/// Every flat-broker fault kind in one run: a broker outage, 1-in-3
/// report drops, delayed replies, a node crash with restart, and a device
/// slowdown. Windows overlap the busy phase of GiB-scale workloads on
/// [`ideal_cluster`].
pub fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(4), SimDuration::from_secs(4))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 3)
        .delay_replies(
            SimTime::from_secs(10),
            SimDuration::from_secs(3),
            SimDuration::from_millis(1500),
        )
        .node_crash(1, SimTime::from_secs(6), Some(SimDuration::from_secs(4)))
        .device_slowdown(0, 0, 3.0, SimTime::from_secs(2), SimDuration::from_secs(5))
}

/// `schedule` armed with the suites' common degradation knobs: a 2 s
/// staleness bound and three broker retries 100 ms apart.
pub fn faults(schedule: FaultSchedule) -> FaultsConfig {
    FaultsConfig {
        enabled: true,
        schedule,
        staleness_bound: SimDuration::from_secs(2),
        retry_backoff: SimDuration::from_millis(100),
        retry_limit: 3,
    }
}

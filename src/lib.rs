//! # IBIS — Interposed Big-data I/O Scheduler
//!
//! Umbrella crate for the Rust reproduction of *"IBIS: Interposed Big-data
//! I/O Scheduler"* (Xu & Zhao, HPDC 2016). It re-exports every workspace
//! crate under one roof so examples, integration tests, and downstream
//! users need a single dependency:
//!
//! ```
//! use ibis::prelude::*;
//! ```
//!
//! The layering (bottom-up):
//!
//! * [`simcore`] — deterministic discrete-event engine, RNG, metrics.
//! * [`storage`] — HDD/SSD device models and the processor-sharing network
//!   link model.
//! * [`core`] — the paper's contribution: SFQ, SFQ(D), **SFQ(D2)**, the
//!   baseline schedulers, and the distributed scheduling **broker**.
//! * [`dfs`] — the HDFS-like distributed file system substrate.
//! * [`mapreduce`] — jobs, tasks, slots, fair scheduling, shuffle.
//! * [`workgen`] — open-system workload generation: arrival processes,
//!   heavy-tailed samplers, multi-tenant mixes, DAG jobs, burst tenants,
//!   and the JSONL trace format.
//! * [`workloads`] — TeraGen / TeraSort / TeraValidate / WordCount /
//!   Facebook2009 (SWIM) / TPC-H-on-Hive generators.
//! * [`cluster`] — the full-cluster simulator and experiment harness.
//! * [`obs`] — flight-recorder tracing, the fairness auditor, and the
//!   Chrome trace exporter (`IBIS_OBS=1` to record any run).
//! * [`metrics`] — sampled time-series telemetry, controller convergence
//!   diagnostics, and Prometheus/CSV export (`IBIS_METRICS=1`).

#![forbid(unsafe_code)]

pub use ibis_cluster as cluster;
pub use ibis_core as core;
pub use ibis_dfs as dfs;
pub use ibis_mapreduce as mapreduce;
pub use ibis_metrics as metrics;
pub use ibis_obs as obs;
pub use ibis_simcore as simcore;
pub use ibis_storage as storage;
pub use ibis_workgen as workgen;
pub use ibis_workloads as workloads;

/// Convenient glob-import surface covering the types most programs need.
pub mod prelude {
    pub use ibis_cluster::prelude::*;
    pub use ibis_core::prelude::*;
    pub use ibis_simcore::{SimDuration, SimTime};
    pub use ibis_workgen::{
        burst_tenant, ArrivalProcess, BurstProfile, ColdStart, DagSpec, DagStage, JobShape,
        MixConfig, ReducePolicy, SizeDist, TenantSpec, TraceRecord,
    };
    pub use ibis_workloads::prelude::*;
}

//! # ibis-mapreduce — the MapReduce/YARN substrate
//!
//! The paper's workloads are Hadoop MapReduce jobs (and Hive queries that
//! compile to chains of them) running under YARN with the Fair Scheduler.
//! This crate models exactly the parts of that stack that shape a job's
//! I/O demand — the phases of Fig. 1:
//!
//! * ① map input reads from the DFS (node-local where possible),
//! * ② map-side spill/merge writes of intermediate data to the local FS,
//! * ③ shuffle pulls of map outputs by reduce tasks (disk read at the map
//!   node served by the Node Manager + a network transfer),
//! * ④ reduce-side merge spills to the local FS,
//! * ⑤ reduce output writes to the DFS through the replication pipeline.
//!
//! Modules:
//!
//! * [`spec`] — declarative [`spec::JobSpec`]: data volumes, per-phase
//!   ratios, compute rates, CPU/memory demands.
//! * [`plan`] — turns a scheduled task into the exact sequence of compute
//!   and I/O [`plan::Step`]s the cluster engine executes.
//! * [`fair`] — the slot-level weighted fair scheduler (Hadoop Fair
//!   Scheduler stand-in) with data-locality preference.
//! * [`shuffle`] — the map-output registry reduce tasks pull from.
//! * [`job`] — job/task lifecycle bookkeeping and sequential workflows
//!   (Hive queries as chains of jobs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fair;
pub mod job;
pub mod plan;
pub mod shuffle;
pub mod spec;

pub use fair::FairScheduler;
pub use job::{JobId, JobManager, JobRuntime, TaskAssignment, TaskKind, TaskRef};
pub use plan::{plan_map_task, plan_reduce_task, Step, TaskPlan};
pub use shuffle::{MapOutput, ShuffleTracker};
pub use spec::{InputSpec, JobSpec};

//! Fault-injection determinism (ISSUE 5): the chaos subsystem must be as
//! replayable as the engine it perturbs. A fixed seed and fault schedule
//! — broker outage, probabilistic report drops, delayed replies, a node
//! crash with restart, and a device slowdown, all at once — must produce
//! **byte-identical** reports across the slab and `HashMap` side-table
//! backends, and through the parallel sweep engine at `IBIS_JOBS=1` vs
//! `IBIS_JOBS=2`. The canon includes the flight recording, every metrics
//! series point, and the `FaultSummary`, so any nondeterminism in crash
//! sweeps, retry chains, or failover routing shows up as a text diff.

mod common;

use common::{chaos_schedule, faults, ideal_cluster, Canon};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::SimDuration;
use ibis_workloads::{teragen, terasort, wordcount};

fn chaos_cluster(policy: Policy, seed: u64) -> ClusterConfig {
    ClusterConfig {
        obs: ObsConfig::enabled(1 << 18),
        metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
        faults: faults(chaos_schedule(0xFA17 ^ seed)),
        ..ideal_cluster(policy, seed)
    }
}

fn canonical(r: &RunReport) -> String {
    Canon::CHAOS.of(r)
}

/// Chaos runs on the engine paths that differ most: uncoordinated SFQ(D)
/// (no broker to lose, but crashes and slowdowns still hit) and fully
/// coordinated SFQ(D2) (every fault kind active).
fn batch() -> Vec<Experiment> {
    let policies = [
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(chaos_cluster(policy, 90 + i as u64));
            exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
            exp.add_job(wordcount(GIB).max_slots(8));
            if i % 2 == 1 {
                exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
            }
            exp
        })
        .collect()
}

#[test]
fn chaos_runs_are_byte_identical_across_backends() {
    for exp in batch() {
        let slab = canonical(&exp.run());
        let hash = canonical(&exp.run_hashmap_reference());
        assert_eq!(slab, hash, "backends diverged under fault injection");
    }
}

#[test]
fn chaos_runs_are_byte_identical_across_sweep_parallelism() {
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    let parallel: Vec<String> = SweepRunner::with_jobs(2)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    assert_eq!(serial, parallel, "IBIS_JOBS=1 vs =2 diverged under fault injection");
}

#[test]
fn chaos_run_actually_injected_faults() {
    let exp = &batch()[1];
    let r = exp.run();
    let f = r.faults.expect("fault schedule active");
    assert!(f.crashes == 1 && f.restarts == 1, "crash/restart missing: {f:?}");
    assert!(f.broker_outages > 0, "outage window never hit a sync: {f:?}");
    assert!(f.report_drops > 0, "probabilistic drops never fired: {f:?}");
    assert!(f.degraded_entries > 0, "no scheduler ever degraded: {f:?}");
    assert!(r.jobs.len() == 3, "all jobs should still finish: {:?}", r.jobs);
}

//! The slab refactor's core guarantee (DESIGN.md §12): swapping the
//! engine's side tables from `HashMap`s to generational slabs changes
//! *nothing* observable. The same experiment run over `Sim<SlabArenas>`
//! (`Experiment::run`) and `Sim<HashArenas>`
//! (`Experiment::run_hashmap_reference`) must produce **byte-identical**
//! reports — including the flight-recorder event stream and every sampled
//! metrics series, the two outputs that would expose any reordering or
//! id-assignment drift — and the guarantee must hold through the parallel
//! sweep engine at `IBIS_JOBS=2`.

mod common;

use common::{ideal_cluster, Canon};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::SimDuration;
use ibis_workloads::{teragen, terasort, wordcount};

fn observed_cluster(policy: Policy, seed: u64) -> ClusterConfig {
    ClusterConfig {
        // Both observers on: the recording's event stream and the metrics
        // series are the most id- and order-sensitive outputs the engine
        // has, so they are exactly what a backend divergence would hit.
        obs: ObsConfig::enabled(1 << 18),
        metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
        ..ideal_cluster(policy, seed)
    }
}

fn canonical(r: &RunReport) -> String {
    Canon::OBSERVED.of(r)
}

/// Mixed workloads across the policies whose engine paths differ most:
/// Native (no interposition), SFQ(D), and coordinated SFQ(D2); plus the
/// streaming regime: 8 nodes, wide per-task read windows and 1 MiB chunks
/// over a 2 ms device latency, so many read-ahead completions unblock
/// saturated tasks back to back.
fn batch() -> Vec<Experiment> {
    let policies = [
        Policy::Native,
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    let mut batch: Vec<Experiment> = policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(observed_cluster(policy, 70 + i as u64));
            exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
            exp.add_job(wordcount(GIB).max_slots(8));
            if i % 2 == 0 {
                exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
            }
            exp
        })
        .collect();
    let streaming_device = DeviceSpec::Ideal {
        bandwidth: 300e6,
        latency: SimDuration::from_millis(2),
    };
    let mut streaming = Experiment::new(ClusterConfig {
        nodes: 8,
        hdfs_device: streaming_device.clone(),
        scratch_device: streaming_device,
        chunk: ibis_simcore::units::MIB,
        read_window: 8,
        ..observed_cluster(Policy::SfqD { depth: 4 }, 17)
    });
    streaming.add_job(terasort(2 * GIB).max_slots(16).io_weight(4.0));
    streaming.add_job(wordcount(GIB).max_slots(16));
    streaming.add_job(teragen(4 * GIB).max_slots(16));
    batch.push(streaming);
    batch
}

#[test]
fn slab_and_hashmap_backends_byte_identical() {
    for exp in batch() {
        let slab = canonical(&exp.run());
        let hash = canonical(&exp.run_hashmap_reference());
        assert_eq!(slab, hash, "backends diverged");
    }
}

#[test]
fn backends_agree_through_parallel_sweep_at_jobs_2() {
    let runner = SweepRunner::with_jobs(2);
    let slab: Vec<String> = runner.run_all(batch()).iter().map(canonical).collect();
    let hash: Vec<String> = runner
        .map(batch(), |_, e| e.run_hashmap_reference())
        .iter()
        .map(canonical)
        .collect();
    assert_eq!(slab, hash, "backends diverged under IBIS_JOBS=2 sweep");
}

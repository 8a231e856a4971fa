//! Hierarchical-broker determinism at scale (ISSUE 9): a rack-sharded
//! cluster (64 nodes in debug tier-1 runs, 256 in release / CI's
//! scale-smoke job) coordinated through the `BrokerTree` — leaf
//! aggregators per rack, delta-encoded reports up, delta-encoded replies
//! down — running a `MixConfig::flood` open-system mix under the full
//! chaos schedule must produce **byte-identical** reports across the
//! slab and `HashMap` side-table backends. The shared canon carries the
//! per-tenant section, the broker's per-level traffic counters (inside
//! `BrokerStats`'s `Debug`), and the rack-topology transfer counters, so
//! any nondeterminism in leaf aggregation order, delta encoding, round
//! completion, or rack-aware placement shows up as a text diff.

mod common;

use common::{faults, Canon};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::MixConfig;

/// Debug builds (plain `cargo test -q`, the tier-1 pass) run the same
/// suite at 64 nodes / 4 racks so it fits the tier-1 time budget; the
/// full 256-node ladder is release-scale and runs in CI's `scale-smoke`
/// job (`cargo test --release --test scale_determinism`).
const NODES: u32 = if cfg!(debug_assertions) { 64 } else { 256 };
const TENANTS: u32 = if cfg!(debug_assertions) { 12 } else { 24 };
const RACK: u32 = 16;

/// The all-kinds chaos schedule: a broker outage, dropped / duplicated /
/// reordered reports, delayed replies, a node crash with restart, a leaf
/// aggregator crash, and a rack partition — every fault path the
/// tree-coordination plane shares with the flat broker plus every
/// rack-scoped failure domain of the fault-tolerant protocol (ISSUE 10).
fn chaos_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .broker_outage(SimTime::from_secs(15), SimDuration::from_secs(6))
        .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 5)
        .dup_reports(SimTime::ZERO, SimDuration::from_secs(3600), 7)
        .reorder_reports(SimTime::ZERO, SimDuration::from_secs(3600), 9)
        .delay_replies(
            SimTime::from_secs(30),
            SimDuration::from_secs(4),
            SimDuration::from_millis(1500),
        )
        .node_crash(33, SimTime::from_secs(20), Some(SimDuration::from_secs(10)))
        .aggregator_crash(1, SimTime::from_secs(18), SimDuration::from_secs(6))
        .rack_partition(2, SimTime::from_secs(26), SimDuration::from_secs(5))
}

/// A `NODES`-wide observed cluster, tree-coordinated over 16-node racks
/// with a 50 µs per-hop latency, rack-aware placement on, fast devices
/// so the flood jobs finish quickly.
fn scale_cluster(seed: u64, chaos: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        cores_per_node: 4,
        seed,
        hdfs_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        scratch_device: DeviceSpec::Ideal {
            bandwidth: 300e6,
            latency: SimDuration::from_millis(2),
        },
        chunk: 2 * ibis_simcore::units::MIB,
        read_window: 8,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 16),
        metrics: MetricsConfig::enabled(SimDuration::from_secs(20)),
        faults: if chaos {
            faults(chaos_schedule(0xFA17 ^ seed))
        } else {
            FaultsConfig::default()
        },
        ..ClusterConfig::default()
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_broker_tree(RACK, SimDuration::from_micros(50))
}

/// The flood mix: `TENANTS` tenants (every 16th premium at weight 4)
/// cycling short-task / SWIM / heavy-tailed shapes, arriving
/// open-system. Small enough that three full runs fit a CI budget; the
/// thousands-of-tenants regime is `fig_scale`'s job.
fn flood(seed: u64) -> MixConfig {
    MixConfig::flood(seed, TENANTS, 2, SimDuration::from_secs(12))
}

fn scale_experiment(seed: u64, chaos: bool) -> Experiment {
    let mut exp = Experiment::new(scale_cluster(seed, chaos));
    exp.add_mix(&flood(seed ^ 0x5eed));
    exp
}

#[test]
fn tree_broker_chaos_run_is_byte_identical_across_backends() {
    let exp = scale_experiment(9, true);
    let slab = exp.run();
    // The run really coordinated through the tree: scheduler reports
    // reached rack leaves, aggregator traffic flowed on level 1, the
    // rack topology steered transfers, and the chaos schedule fired.
    assert!(slab.broker.reports > 0, "no scheduler reports reached a leaf");
    assert!(slab.broker.agg_msgs > 0, "no leaf→root aggregator traffic");
    let faults = slab.faults.expect("chaos active");
    assert!(faults.crashes > 0);
    // The rack-scoped fault paths really fired: a leaf aggregator crashed
    // and restarted, a rack partitioned, wire-level dup/reorder faults
    // hit reports, and the protocol repaired at least one gap with a
    // snapshot resync.
    assert!(faults.agg_crashes > 0, "aggregator crash never fired");
    assert!(faults.agg_restarts > 0, "aggregator never restarted");
    assert!(faults.rack_partitions > 0, "rack partition never fired");
    assert!(faults.dup_reports > 0, "no duplicated reports");
    assert!(faults.reorder_reports > 0, "no reordered reports");
    assert!(faults.resyncs > 0, "protocol never ran a snapshot resync");
    assert!(slab.broker.resyncs > 0, "tree stats saw no resyncs");
    assert!(slab.broker.dup_ignored > 0, "no duplicate was ever ignored");
    assert!(slab.rack_local_transfers > 0, "rack topology saw no local transfers");
    assert_eq!(
        Canon::CHAOS.of(&slab),
        Canon::CHAOS.of(&exp.run_hashmap_reference()),
        "tree-broker chaos run diverged between slab and HashMap backends"
    );
}

//! The three benchmark workloads, built from a seed with every cluster
//! field that the environment could otherwise set pinned explicitly.

use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_mapreduce::JobSpec;
use ibis_simcore::units::{GIB, TIB};
use ibis_simcore::{SimDuration, SimTime};
use ibis_storage::{HddConfig, SsdConfig};
use ibis_workgen::MixConfig;

/// Nodes per rack (one leaf aggregator per rack) on the mixes.
pub const RACK: u32 = 16;

/// Flood tenants on the mixes; each submits [`JOBS_PER_TENANT`] jobs.
pub const TENANTS: u32 = 128;

/// Jobs per flood tenant.
pub const JOBS_PER_TENANT: u32 = 2;

/// Seed of the tenant mix both mixes replay. The mix is fixed so that the
/// spread across run seeds measures the host and the seeded placement,
/// not the luck of a heavy-tailed draw: over 16 mix seeds one 512-node
/// run ranged from 1.0M to 2.2M events and 46 s to 98 s of p90 latency.
pub const MIX_SEED: u64 = 0x5ca1e;

/// Instances one run measures: the workload on clusters seeded
/// differently from the run seed. Simulated metrics are medians across
/// them, so one placement's luck cannot move a run's figures alone.
pub const INSTANCES: u64 = 5;

/// The cluster seed of instance `i` of a run with seed `seed`; instance 0
/// uses the run seed itself.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    ibis_simcore::rng::SimRng::stream_seed(seed, i)
}

/// Per-node flight-recorder ring for audited and traced runs. Rings grow
/// on demand, and no node of any workload comes near this bound, so no
/// event is evicted: a truncated ring makes the audit and the latency
/// attribution partial.
pub const RING: usize = 1 << 24;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 isolation at paper volumes on the 8-node HDD testbed.
    PaperHdd,
    /// 512 nodes in 16-node racks, broker tree, 128 flood tenants.
    Scale512,
    /// 256 nodes, the same mix, every fault kind, recorder and audit on.
    TenantsChaos,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperHdd,
        Workload::Scale512,
        Workload::TenantsChaos,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHdd => "paper_hdd",
            Workload::Scale512 => "scale_512",
            Workload::TenantsChaos => "tenants_chaos",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker datanodes.
    pub fn nodes(self) -> u32 {
        match self {
            Workload::PaperHdd => 8,
            Workload::Scale512 => 512,
            Workload::TenantsChaos => 256,
        }
    }

    /// True when the workload runs the flight recorder and audits it
    /// after the run; both are part of what `run_s` measures there.
    pub fn audited(self) -> bool {
        self == Workload::TenantsChaos
    }
}

/// The composed jobs of one instance, and the cluster they run on.
pub struct Inputs {
    /// The cluster, every environment-read field pinned.
    pub cluster: ClusterConfig,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Inputs {
    /// The experiment `Sim::new` consumes.
    pub fn experiment(&self) -> Experiment {
        let mut exp = Experiment::new(self.cluster.clone());
        exp.add_jobs(self.jobs.iter().cloned());
        exp
    }

    /// The same inputs with causal tracing on. The internal recorder
    /// tracing runs takes its ring size from the obs config.
    pub fn traced(mut self) -> Self {
        self.cluster = self.cluster.with_trace();
        self.cluster.obs.capacity = RING;
        self
    }

    /// Largest I/O weight among the jobs: the protected class.
    pub fn protected_weight(&self) -> f64 {
        self.jobs.iter().map(|j| j.io_weight).fold(0.0, f64::max)
    }
}

/// Pins every subsystem that `ClusterConfig::default()` would read from
/// the environment: recorder, metrics sampler, faults and tracing off.
fn pinned(nodes: u32, seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes,
        seed,
        obs: ibis_obs::ObsConfig::default(),
        metrics: ibis_metrics::MetricsConfig::default(),
        faults: FaultsConfig::default(),
        trace: ibis_trace::TraceConfig::default(),
        ..ClusterConfig::default()
    }
}

/// Builds one instance's inputs: the workload composition the benchmark
/// counts as set-up.
pub fn compose(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::PaperHdd => paper_hdd(seed),
        Workload::Scale512 => {
            // An Ideal device's latency is a pure function of request
            // size, so without faults its p99 would read the same on every
            // seed. The SSD model costs about as little per I/O and queues
            // internally, so its latency follows the schedule.
            let ssd = DeviceSpec::Ssd(SsdConfig {
                seed,
                ..SsdConfig::default()
            });
            mix(w, seed, ssd)
        }
        Workload::TenantsChaos => {
            // Ideal devices: the slowdown window and crash parking already
            // make device latency follow the seed, while SSD queueing would
            // let one crash or slowdown move tail job latency by a quarter
            // between seeds.
            let ideal = DeviceSpec::Ideal {
                bandwidth: 300e6,
                latency: SimDuration::from_millis(2),
            };
            let mut inputs = mix(w, seed, ideal);
            inputs.cluster.obs = ibis_obs::ObsConfig::enabled(RING);
            inputs.cluster.faults = chaos_faults(seed);
            inputs
        }
    }
}

/// WordCount (weight 2) reads 48 GiB while TeraGen writes 1 TiB through
/// the 3-replica pipeline, under SFQ(D2) with the broker on. The seed
/// drives block placement and every disk's jitter stream.
fn paper_hdd(seed: u64) -> Inputs {
    let hdd = DeviceSpec::Hdd(HddConfig {
        seed,
        ..HddConfig::default()
    });
    let cluster = ClusterConfig {
        hdfs_device: hdd.clone(),
        scratch_device: hdd,
        ..pinned(Workload::PaperHdd.nodes(), seed)
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_coordination(true);
    let jobs = vec![
        ibis_workloads::wordcount(48 * GIB)
            .max_slots(48)
            .io_weight(2.0),
        ibis_workloads::teragen(TIB).max_slots(48).io_weight(1.0),
    ];
    Inputs { cluster, jobs }
}

/// The flood mix on `device` behind the rack-sharded broker tree. The
/// seed drives block placement.
fn mix(w: Workload, seed: u64, device: DeviceSpec) -> Inputs {
    let cluster = ClusterConfig {
        cores_per_node: 4,
        hdfs_device: device.clone(),
        scratch_device: device,
        auto_reference: false,
        ..pinned(w.nodes(), seed)
    }
    .with_policy(Policy::SfqD2(SfqD2Config::default()))
    .with_broker_tree(RACK, SimDuration::from_micros(50));
    let jobs = MixConfig::flood(
        MIX_SEED,
        TENANTS,
        JOBS_PER_TENANT,
        SimDuration::from_secs(10),
    )
    .compose();
    Inputs { cluster, jobs }
}

/// One window of every fault kind the engine injects, early in the run
/// while most tenants are active: broker outage, reply delay, node crash
/// with restart, device slowdown, report drop/dup/reorder, aggregator
/// crash and rack partition. The seed drives the wire faults' coins and
/// picks the crashed node in the first rack, where placement packs work,
/// so the crash aborts running tasks. The slowdown covers four nodes'
/// HDFS devices: enough I/Os that the p99 device latency lies inside the
/// slowed population on every seed instead of jumping across its edge.
fn chaos_faults(seed: u64) -> FaultsConfig {
    let crashed = (seed % u64::from(RACK)) as u32;
    let s = |secs: u64| SimTime::from_secs(secs);
    let d = SimDuration::from_secs;
    let mut schedule = FaultSchedule::new(seed)
        .broker_outage(s(40), d(5))
        .delay_replies(s(60), d(10), SimDuration::from_millis(1500))
        .node_crash(crashed, s(60), Some(d(30)))
        .drop_reports(s(80), d(20), 7)
        .dup_reports(s(100), d(20), 5)
        .reorder_reports(s(120), d(20), 5)
        .aggregator_crash(1, s(150), d(8))
        .rack_partition(3, s(170), d(8));
    for node in 0..4 {
        schedule = schedule.device_slowdown(node, 0, 4.0, s(60), d(120));
    }
    FaultsConfig {
        enabled: true,
        schedule,
        ..FaultsConfig::default()
    }
}

/// An 8-node, 2-job run of the `paper_hdd` shape at small volumes, for the
/// benchmark's own tests.
#[cfg(test)]
pub fn tiny(seed: u64) -> Inputs {
    let mut inputs = paper_hdd(seed);
    inputs.jobs = vec![
        ibis_workloads::wordcount(2 * GIB)
            .max_slots(48)
            .io_weight(2.0),
        ibis_workloads::teragen(2 * GIB)
            .max_slots(48)
            .io_weight(1.0),
    ];
    inputs
}

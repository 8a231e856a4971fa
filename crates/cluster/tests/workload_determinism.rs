//! Open-system workload determinism (ISSUE 7): a trace-driven,
//! multi-tenant mix — a Poisson batch tenant plus a FaaS-style burst
//! tenant emitting over a thousand short jobs with cold-start spikes —
//! must produce **byte-identical** reports across the slab and `HashMap`
//! side-table backends. The shared canon carries the per-tenant section
//! (arrival/completion counts and the latency histogram), so any
//! nondeterminism in mid-run tenant registration, flow pooling, or
//! arrival-event handling shows up as a text diff.
//! A chaos + JSONL-trace smoke run covers the `ibis-faults`
//! compatibility requirement.

mod common;

use common::{faults, Canon};
use ibis_cluster::prelude::*;
use ibis_faults::{FaultSchedule, FaultsConfig};
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::{SimDuration, SimTime};
use ibis_workgen::{
    burst_tenant, ArrivalProcess, BurstProfile, JobShape, MixConfig, TenantSpec,
};

/// The open-system scenario of the acceptance criteria: a Poisson batch
/// tenant (heavy-tailed DFS-reading jobs) plus a burst tenant carrying
/// ≥ 1000 short jobs with cold-start spikes.
fn open_mix(seed: u64) -> MixConfig {
    MixConfig::new(seed)
        .tenant(TenantSpec::new(
            "batch",
            4.0,
            24,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(6),
            },
            JobShape::heavy_tailed(),
        ))
        .tenant(burst_tenant(
            "faas",
            BurstProfile::faas(1000).weight(1.0),
        ))
}

/// A small observed cluster, fast devices so a thousand jobs finish
/// quickly, obs + metrics on so the canon covers the full report.
fn observed_cluster(seed: u64, chaos: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
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
        chunk: ibis_simcore::units::MIB,
        read_window: 8,
        auto_reference: false,
        obs: ObsConfig::enabled(1 << 18),
        metrics: MetricsConfig::enabled(SimDuration::from_secs(5)),
        faults: if chaos {
            faults(
                FaultSchedule::new(0xFA17 ^ seed)
                    .broker_outage(SimTime::from_secs(20), SimDuration::from_secs(10))
                    .drop_reports(SimTime::ZERO, SimDuration::from_secs(3600), 4)
                    .node_crash(1, SimTime::from_secs(40), Some(SimDuration::from_secs(8))),
            )
        } else {
            FaultsConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn canonical(r: &RunReport) -> String {
    Canon::OBSERVED.of(r)
}

fn open_experiment(seed: u64, chaos: bool) -> Experiment {
    let mut exp = Experiment::new(observed_cluster(seed, chaos));
    exp.add_mix(&open_mix(seed ^ 0x5eed));
    exp
}

#[test]
fn open_system_run_is_byte_identical_across_backends() {
    let mix = open_mix(42 ^ 0x5eed);
    assert!(mix.total_jobs() >= 1000, "scenario must carry ≥1000 jobs");

    let exp = open_experiment(42, false);
    let slab = exp.run();
    assert_eq!(slab.tenants.len(), 2);
    for t in &slab.tenants {
        assert_eq!(t.finished, t.submitted, "tenant {} lost jobs", t.name);
        assert!(t.latency_ms(0.5).is_some());
    }
    assert_eq!(
        canonical(&slab),
        canonical(&exp.run_hashmap_reference()),
        "open-system run diverged between slab and HashMap backends"
    );
}

#[test]
fn tenant_jobs_share_one_flow_and_pool_service() {
    let r = open_experiment(7, false).run();
    let batch = r.tenant("batch").expect("batch tenant reported");
    let faas = r.tenant("faas").expect("faas tenant reported");
    assert_ne!(batch.app, faas.app);
    // Every job of a tenant is tagged with the tenant's shared flow id.
    for j in &r.jobs {
        if let Some(t) = r.tenants.iter().find(|t| j.name.starts_with(&t.name)) {
            assert_eq!(j.app, t.app, "job {} left its tenant flow", j.name);
        }
    }
    // Pooled service: exactly one service entry per tenant flow, not one
    // per job.
    assert!(r.app_service.contains_key(&batch.app));
    assert!(r.app_service.contains_key(&faas.app));
    assert_eq!(r.app_service.len(), 2, "service was not pooled per tenant");
}

/// Chaos + JSONL-trace smoke: a replayed trace under the fault schedule
/// still completes and stays byte-identical across backends.
#[test]
fn chaos_trace_replay_is_deterministic() {
    let trace = "\
# two interleaved tenants, hand-written offsets
{\"at\": 0.5, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 4, \"shuffle_ratio\": 0.5, \"reduces\": 2}
{\"at\": 1.0, \"tenant\": \"adhoc\", \"maps\": 2, \"input\": \"gen\"}
{\"at\": 12.0, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 6, \"shuffle_ratio\": 1.2, \"reduces\": 3}
{\"at\": 30.0, \"tenant\": \"adhoc\", \"maps\": 1, \"input\": \"gen\"}
{\"at\": 55.0, \"tenant\": \"etl\", \"weight\": 4, \"maps\": 3, \"shuffle_ratio\": 0.8, \"reduces\": 1}
";
    let mut exp = Experiment::new(observed_cluster(11, true));
    exp.add_trace(trace).expect("trace parses");
    let slab = exp.run();
    assert_eq!(slab.tenants.len(), 2);
    let etl = slab.tenant("etl").expect("etl tenant reported");
    assert_eq!(etl.submitted, 3);
    assert_eq!(etl.finished, 3);
    assert!(slab.faults.as_ref().expect("chaos active").crashes > 0);
    assert_eq!(
        Canon::CHAOS.of(&slab),
        Canon::CHAOS.of(&exp.run_hashmap_reference()),
        "chaos trace replay diverged between backends"
    );
}

//! Tracing determinism (ISSUE 8): causal tracing must be a pure
//! *observer*. For the same experiment, `IBIS_TRACE` on vs off must
//! produce **byte-identical** reports — with observability on (the
//! flight recording included, event by event) and off — clean and under
//! the chaos schedule. Traced runs must also be byte-identical, assembled
//! trace included, across the slab and `HashMap` side-table backends:
//! the trace is a pure function of the event timeline.

mod common;

use common::{chaos_schedule, faults, ideal_cluster, Canon};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_faults::FaultsConfig;
use ibis_metrics::MetricsConfig;
use ibis_obs::ObsConfig;
use ibis_simcore::units::GIB;
use ibis_simcore::SimDuration;
use ibis_workloads::{teragen, terasort, wordcount};

fn experiment(seed: u64, obs: bool, chaos: bool, trace: bool) -> Experiment {
    let mut cfg = ClusterConfig {
        obs: if obs {
            ObsConfig::enabled(1 << 18)
        } else {
            ObsConfig::default()
        },
        metrics: MetricsConfig::enabled(SimDuration::from_millis(500)),
        faults: if chaos {
            faults(chaos_schedule(0xFA17 ^ seed))
        } else {
            FaultsConfig::default()
        },
        ..ideal_cluster(Policy::SfqD2(SfqD2Config::default()), seed)
    };
    if trace {
        cfg = cfg.with_trace();
    }
    let mut exp = Experiment::new(cfg);
    exp.add_job(terasort(GIB).max_slots(8).io_weight(4.0));
    exp.add_job(wordcount(GIB).max_slots(8));
    exp.add_job(teragen(GIB).arriving_at(SimDuration::from_secs(5)));
    exp
}

#[test]
fn tracing_on_and_off_byte_identical() {
    for (obs, chaos) in [(false, false), (true, false), (true, true)] {
        let canon = Canon {
            faults: chaos,
            recording: obs,
            metrics: true,
            ..Canon::BASE
        };
        let off = canon.of(&experiment(42, obs, chaos, false).run());
        let on = canon.of(&experiment(42, obs, chaos, true).run());
        assert_eq!(off, on, "tracing perturbed the report (obs={obs} chaos={chaos})");
    }
}

#[test]
fn traced_runs_byte_identical_across_backends() {
    for chaos in [false, true] {
        let canon = Canon {
            faults: chaos,
            trace: true,
            ..Canon::OBSERVED
        };
        let exp = experiment(42, true, chaos, true);
        assert_eq!(
            canon.of(&exp.run()),
            canon.of(&exp.run_hashmap_reference()),
            "traced run diverged between slab and HashMap backends (chaos={chaos})"
        );
    }
}

#[test]
fn traced_chaos_run_spans_stay_well_formed() {
    let r = experiment(7, true, true, true).run();
    let rec = r.recording.as_ref().expect("recording enabled");
    let (jobs, tasks, reqs) =
        ibis_trace::check_well_formed(rec).expect("span tree well-formed under chaos");
    assert!(jobs > 0 && tasks > 0 && reqs > 0);
    let chk = ibis_trace::check(rec, ibis_trace::SUM_REL_TOL);
    assert!(chk.checked > 0);
    assert_eq!(chk.violations, 0, "attribution sums violated (worst {})", chk.worst_rel_err);
}

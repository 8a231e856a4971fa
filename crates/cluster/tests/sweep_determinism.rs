//! The sweep engine's core guarantee: a batch fanned across worker
//! threads produces **byte-identical** reports to the serial loop, at any
//! width. Each experiment is a self-contained simulation, so the only
//! thing parallelism may change is wall-clock time — `wall_secs`, which
//! the shared canon never serializes.
//!
//! CI runs this suite under `IBIS_JOBS=2` so the env-selected path is
//! exercised too (see `env_selected_width_matches_serial`).

mod common;

use common::{ideal_cluster, Canon};
use ibis_cluster::prelude::*;
use ibis_core::SfqD2Config;
use ibis_simcore::units::GIB;
use ibis_workloads::{terasort, wordcount};

fn canonical(r: &RunReport) -> String {
    Canon::BASE.of(r)
}

/// A representative batch: different policies, seeds, and job mixes, so
/// reordered execution would be caught on any of them.
fn batch() -> Vec<Experiment> {
    let policies = [
        Policy::Native,
        Policy::SfqD { depth: 4 },
        Policy::SfqD2(SfqD2Config::default()),
        Policy::CgroupWeight,
        Policy::Strict { depth: 8 },
        Policy::SfqD2(SfqD2Config::default()),
    ];
    policies
        .into_iter()
        .enumerate()
        .map(|(i, policy)| {
            let mut exp = Experiment::new(ideal_cluster(policy, 40 + i as u64));
            exp.add_job(terasort(GIB).max_slots(8).io_weight(8.0));
            if i % 2 == 0 {
                exp.add_job(wordcount(GIB).max_slots(8).io_weight(1.0));
            }
            exp
        })
        .collect()
}

#[test]
fn parallel_results_byte_identical_to_serial_at_two_widths() {
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    assert_eq!(serial.len(), 6);
    for width in [2, 4] {
        let parallel: Vec<String> = SweepRunner::with_jobs(width)
            .run_all(batch())
            .iter()
            .map(canonical)
            .collect();
        assert_eq!(serial, parallel, "width {width} diverged from serial");
    }
}

#[test]
fn env_selected_width_matches_serial() {
    // Under CI this runs with IBIS_JOBS=2; locally it covers whatever
    // width the machine defaults to.
    let runner = SweepRunner::from_env();
    let serial: Vec<String> = SweepRunner::with_jobs(1)
        .run_all(batch())
        .iter()
        .map(canonical)
        .collect();
    let env: Vec<String> = runner.run_all(batch()).iter().map(canonical).collect();
    assert_eq!(serial, env, "env width {} diverged from serial", runner.jobs());
}

//! The traced replay must reproduce the fleet runner device for device:
//! if the runner changes its order, its reuse rule or its accounting, the
//! per-layer numbers would describe a different program.

use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore};
use amulet_perfbench::measure::document;
use amulet_perfbench::replay::replay;
use amulet_perfbench::workloads::Workload;

/// Small instances: `scaling` spans two calendar blocks so block
/// boundaries and the cross-block silent cache are covered.
fn small(workload: Workload) -> usize {
    match workload {
        Workload::Dense => 40,
        Workload::Scaling => 1100,
        Workload::Storm => 300,
    }
}

#[test]
fn replay_matches_the_fleet_runner_device_for_device() {
    for workload in Workload::ALL {
        let scenario = workload.scenario(workload.default_seed(), small(workload));
        let traced = replay(&scenario, true).expect("replay runs");
        let store = FirmwareStore::for_scenario(&scenario);
        let report = simulate_in(&scenario, 2, &store);
        assert_eq!(traced.devices.len(), report.devices.len(), "{workload:?}");
        for (r, d) in traced.devices.iter().zip(&report.devices) {
            assert_eq!(r, d, "{workload:?} device {}", d.index);
        }
        let summary = simulate_summary_in(&scenario, 2, &store);
        assert_eq!(
            traced.document,
            document(&scenario, &summary.aggregate),
            "{workload:?} document"
        );
    }
}

#[test]
fn replay_counts_the_work_each_workload_is_chosen_for() {
    let trace = |w: Workload| {
        replay(&w.scenario(w.default_seed(), small(w)), false)
            .expect("replay runs")
            .trace
    };
    let (dense, scaling, storm) = (
        trace(Workload::Dense),
        trace(Workload::Scaling),
        trace(Workload::Storm),
    );
    assert!(scaling.silent_reused > 0, "scaling reuses silent outcomes");
    assert_eq!(dense.silent_reused + storm.silent_reused, 0);
    assert!(
        storm.probes > 0 && storm.ota_attempts > 0,
        "storm arms faults"
    );
    assert_eq!(dense.probes + dense.ota_attempts, 0);
    assert_eq!(scaling.probes + scaling.ota_attempts, 0);
    assert!(
        dense.instructions / 40 > storm.instructions / 300
            && storm.instructions / 300 > scaling.instructions / 1100,
        "retired instructions per device rank dense > storm > scaling"
    );
}

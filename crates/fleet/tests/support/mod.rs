//! The fleet oracle shared by the integration tests.
//!
//! Every device is a pure function of (scenario, index), so the simplest
//! correct fleet run maps [`replay_device`] over every index — a fresh
//! runtime per device, no runtime reuse, no silent-outcome cache, one
//! thread — and reduces the results with the same `stats::aggregate` the
//! runner uses.  The runner must reproduce this bit for bit.

use amulet_fleet::stats::aggregate;
use amulet_fleet::{replay_device, FirmwareStore, FleetReport, FleetScenario};

/// The oracle report of `scenario`.
pub fn oracle(scenario: &FleetScenario) -> FleetReport {
    let store = FirmwareStore::for_scenario(scenario);
    let devices: Vec<_> = (0..scenario.devices)
        .map(|index| replay_device(scenario, index, &store))
        .collect();
    FleetReport {
        scenario: scenario.clone(),
        workers: 1,
        aggregate: aggregate(&devices),
        devices,
    }
}

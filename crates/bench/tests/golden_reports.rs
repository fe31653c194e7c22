//! Pins the deterministic fleet document byte for byte across commits.
//!
//! The in-tree determinism tests compare one worker count against another
//! inside a single build; none of them notices a change that moves every
//! worker count the same way.  This test renders the deterministic document
//! (no `timing`, `scaling` or `firmware_store` sections) for four scenarios
//! — the default fleet in arrival order and stepped, the scaling preset and
//! the fault storm — at one and at three workers, and checks each
//! document's FNV-1a64 against a constant recorded when the test was
//! written.  A refactor that keeps these digests keeps every report byte.
//!
//! A digest may only change with a deliberate change to the simulation or
//! the renderer; the failure message prints the new value to record.

use amulet_bench::fleet_sim::render_document;
use amulet_core::serial::fnv1a64;
use amulet_fleet::{simulate_in, FirmwareStore, FleetScenario, TimeMode};

fn default_fleet(time_mode: TimeMode) -> FleetScenario {
    FleetScenario {
        devices: 48,
        events_per_device: 12,
        time_mode,
        ..FleetScenario::default()
    }
}

fn check(label: &str, scenario: &FleetScenario, pinned: u64) {
    for workers in [1, 3] {
        let report = simulate_in(scenario, workers, &FirmwareStore::for_scenario(scenario));
        let doc = render_document(
            &report.scenario,
            report.workers,
            &report.aggregate,
            None,
            None,
            None,
        );
        let digest = fnv1a64(doc.as_bytes());
        assert_eq!(
            digest, pinned,
            "{label} at {workers} workers: document digest {digest:#018x}, pinned {pinned:#018x}"
        );
    }
}

#[test]
fn arrival_order_default_fleet_document_is_pinned() {
    check(
        "arrival-order default",
        &default_fleet(TimeMode::ArrivalOrder),
        0x4695_25c3_1600_ece0,
    );
}

#[test]
fn stepped_default_fleet_document_is_pinned() {
    check(
        "stepped default",
        &default_fleet(TimeMode::Stepped),
        0x1a06_0a56_51de_78ec,
    );
}

#[test]
fn scaling_preset_document_is_pinned() {
    check(
        "scaling preset",
        &FleetScenario::scaling(300),
        0xd472_ce44_a837_f9a1,
    );
}

#[test]
fn storm_preset_document_is_pinned() {
    check(
        "storm preset",
        &FleetScenario::storm(60),
        0x0e15_f50c_0e02_610d,
    );
}

//! Property tests for the rendered fleet report's compatibility guarantee:
//! an arrival-order document must be **byte-identical** no matter which of
//! the PR's time-stepped knobs are present on the scenario — the pre-PR
//! renderer had no `time_mode`, no LPM override and no latency fields, so
//! any byte they could leak into an arrival-order report is a regression.

use amulet_bench::fleet_sim::render_document;
use amulet_fleet::{simulate_in, FirmwareStore, FleetScenario, TimeMode};
use proptest::prelude::*;

/// Runs `scenario` on two workers and renders its document, untimed.
fn render(scenario: &FleetScenario) -> String {
    let r = simulate_in(scenario, 2, &FirmwareStore::for_scenario(scenario));
    render_document(&r.scenario, r.workers, &r.aggregate, None, None, None)
}

proptest! {
    // Each case runs a few small fleets end to end; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn arrival_order_bytes_are_invariant_to_the_stepped_knobs(
        seed in 0u64..1_000_000,
        devices in 3usize..8,
        lpm_na in 0u32..1_000_000,
    ) {
        let base = FleetScenario {
            seed,
            devices,
            events_per_device: 10,
            ..FleetScenario::default()
        };
        let plain = render(&base);
        // The LPM override is a stepped-only knob: arrival-order rendering
        // must not change by a single byte when it is set.
        let with_knob = render(&FleetScenario {
            lpm_current_override_na: Some(lpm_na),
            ..base.clone()
        });
        prop_assert_eq!(&plain, &with_knob);
        // No stepped-only field may appear in an arrival-order document.
        for absent in [
            "time_mode",
            "idle_joules",
            "duty_cycle",
            "delivery_latency_ms",
            "battery_weeks_p50",
            "latency_vs_batching",
        ] {
            prop_assert!(!plain.contains(absent), "{} leaked", absent);
        }
        // The identical scenario in stepped mode renders a superset: the
        // shared prefix of fields carries the same scenario numbers.
        let stepped = render(&FleetScenario {
            time_mode: TimeMode::Stepped,
            ..base
        });
        prop_assert!(stepped.contains("\"time_mode\": \"stepped\""));
        prop_assert!(stepped.contains("\"delivery_latency_ms\""));
    }
}

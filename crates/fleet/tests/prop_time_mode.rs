//! Property tests for the time-mode equivalence guarantee: an
//! arrival-order report is the stepped replay rendered without its clock,
//! so it carries no clock field, and with idling made free (LPM current
//! overridden to zero) every cycle and energy number must match the
//! arrival-order run exactly — for any scenario seed, fleet size and
//! batching parameters.

use amulet_fleet::{simulate_in, FirmwareStore, FleetReport, FleetScenario, TimeMode};
use proptest::prelude::*;

fn run(scenario: &FleetScenario, workers: usize) -> FleetReport {
    simulate_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
}

fn scenario(seed: u64, devices: usize, events: usize, max_batch: usize) -> FleetScenario {
    FleetScenario {
        seed,
        devices,
        events_per_device: events,
        max_batch,
        ..FleetScenario::default()
    }
}

proptest! {
    // Each case simulates two small fleets end to end; a handful of cases
    // keeps the suite fast while still roaming the seed space.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn stepped_with_free_idling_matches_arrival_order_exactly(
        seed in 0u64..1_000_000,
        devices in 3usize..8,
        events in 8usize..24,
        max_batch in 2usize..10,
    ) {
        let arrival = run(&scenario(seed, devices, events, max_batch), 2);
        let stepped = run(
            &FleetScenario {
                time_mode: TimeMode::Stepped,
                lpm_current_override_na: Some(0),
                ..scenario(seed, devices, events, max_batch)
            },
            2,
        );
        for (a, s) in arrival.devices.iter().zip(&stepped.devices) {
            // Arrival order is the same replay rendered without its clock:
            // no clock field and no latency sample may leak through.  The
            // rendered document omits these fields, so only this check
            // would notice.
            prop_assert!(a.per_event_latencies_ms.is_empty(), "device {}", a.index);
            prop_assert!(a.batched_latencies_ms.is_empty(), "device {}", a.index);
            for ao in [&a.per_event, &a.batched] {
                prop_assert_eq!(ao.virtual_seconds, 0.0, "device {}", a.index);
                prop_assert_eq!(ao.active_seconds, 0.0, "device {}", a.index);
                prop_assert_eq!(ao.idle_joules, 0.0, "device {}", a.index);
                prop_assert_eq!(ao.battery_weeks, 0.0, "device {}", a.index);
                prop_assert_eq!(ao.truncated_events, 0, "device {}", a.index);
            }
            for (ao, so) in [(&a.per_event, &s.per_event), (&a.batched, &s.batched)] {
                prop_assert_eq!(ao.total_cycles, so.total_cycles, "device {}", a.index);
                prop_assert_eq!(ao.switch_cycles, so.switch_cycles, "device {}", a.index);
                prop_assert_eq!(ao.app_cycles, so.app_cycles, "device {}", a.index);
                prop_assert_eq!(ao.service_cycles, so.service_cycles, "device {}", a.index);
                prop_assert_eq!(ao.events_delivered, so.events_delivered, "device {}", a.index);
                prop_assert_eq!(ao.syscalls, so.syscalls, "device {}", a.index);
                prop_assert_eq!(ao.faults, so.faults, "device {}", a.index);
                prop_assert_eq!(ao.full_switches, so.full_switches, "device {}", a.index);
                prop_assert_eq!(ao.batch_boundaries, so.batch_boundaries, "device {}", a.index);
                prop_assert_eq!(ao.energy_joules, so.energy_joules, "device {}", a.index);
                prop_assert_eq!(so.idle_joules, 0.0, "free idling, device {}", a.index);
                // The clock itself still runs in stepped mode.
                prop_assert!(so.virtual_seconds > 0.0, "device {}", a.index);
            }
        }
        // And the reductions agree wherever both modes define the field.
        let (a, s) = (&arrival.aggregate, &stepped.aggregate);
        for (ap, sp) in [(&a.per_event, &s.per_event), (&a.batched, &s.batched)] {
            prop_assert_eq!(ap.total_cycles, sp.total_cycles);
            prop_assert_eq!(ap.switch_cycles, sp.switch_cycles);
            prop_assert_eq!(ap.events_delivered, sp.events_delivered);
            prop_assert_eq!(ap.energy.total_joules, sp.energy.total_joules);
            prop_assert_eq!(ap.energy.p50_joules, sp.energy.p50_joules);
            prop_assert_eq!(ap.energy.p99_joules, sp.energy.p99_joules);
            prop_assert_eq!(sp.idle_joules, 0.0);
        }
        prop_assert_eq!(
            a.switch_cycles_saved_percent,
            s.switch_cycles_saved_percent
        );
        prop_assert_eq!(a.battery_histograms.clone(), s.battery_histograms.clone());
    }

    #[test]
    fn stepped_reports_are_worker_count_free(
        seed in 0u64..1_000_000,
        devices in 3usize..8,
    ) {
        let sc = FleetScenario {
            time_mode: TimeMode::Stepped,
            ..scenario(seed, devices, 12, 4)
        };
        let serial = run(&sc, 1);
        let parallel = run(&sc, 8);
        prop_assert_eq!(serial.devices, parallel.devices);
        prop_assert_eq!(serial.aggregate, parallel.aggregate);
    }
}

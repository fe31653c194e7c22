//! Property tests for the fleet runner: the config partition must be
//! **bit-identical** to the one-device-at-a-time oracle
//! (`support::oracle`, a fresh runtime per device) — the oracle pattern
//! that made the attribute cache and the NAPOT solver safe — and the
//! streaming block aggregation must reproduce the exact reduction at
//! small N, delivery-latency percentiles included.

mod support;

use amulet_fleet::{
    simulate_in, simulate_summary_in, FirmwareStore, FleetReport, FleetScenario, FleetSummary,
    TimeMode,
};
use proptest::prelude::*;
use support::oracle;

fn run(scenario: &FleetScenario, workers: usize) -> FleetReport {
    simulate_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
}

fn run_summary(scenario: &FleetScenario, workers: usize) -> FleetSummary {
    simulate_summary_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
}

fn stepped(seed: u64, devices: usize, events: usize) -> FleetScenario {
    FleetScenario {
        seed,
        devices,
        events_per_device: events,
        time_mode: TimeMode::Stepped,
        ..FleetScenario::default()
    }
}

/// All five platform profiles at 64 devices under the default seed — the
/// deterministic anchor case (≤64 devices, every profile), checked bit
/// for bit against the oracle.
#[test]
fn runner_matches_the_oracle_on_all_five_platforms() {
    let sc = stepped(FleetScenario::default().seed, 64, 20);
    let fleet = run(&sc, 4);
    let expected = oracle(&sc);
    let platforms: std::collections::BTreeSet<_> =
        fleet.devices.iter().map(|d| d.platform.clone()).collect();
    assert_eq!(platforms.len(), 5, "64 devices span all five profiles");
    assert_eq!(fleet.devices, expected.devices);
    assert_eq!(fleet.aggregate, expected.aggregate);
}

/// A fleet smaller than one block is sliced across every worker: each
/// worker keeps its own silent-outcome cache and probes it, yet any worker
/// count must reproduce the oracle bit for bit.
#[test]
fn sub_block_fleet_sliced_across_workers_matches_the_oracle() {
    let sc = FleetScenario::scaling(96);
    let silent = (0..sc.devices)
        .filter(|&i| sc.device_config(i).silent_cacheable())
        .count();
    assert!(
        silent > 32,
        "silent devices for every worker's cache: {silent}"
    );
    let expected = oracle(&sc);
    for workers in [1, 2, 3, 7] {
        let fleet = run(&sc, workers);
        assert_eq!(fleet.workers, workers, "every worker gets a slice");
        assert_eq!(fleet.devices, expected.devices, "{workers} workers");
        assert_eq!(fleet.aggregate, expected.aggregate, "{workers} workers");
    }
}

/// Three blocks, the last one partial: slices of several blocks are in
/// flight at once and each block folds on whichever worker finishes it,
/// yet the streamed aggregate is the same for every worker count.
#[test]
fn multi_block_summary_is_worker_count_free() {
    let sc = FleetScenario::scaling(2600);
    let serial = run_summary(&sc, 1);
    assert_eq!(serial.workers, 1);
    for workers in [2, 3, 8] {
        let parallel = run_summary(&sc, workers);
        assert_eq!(parallel.workers, workers, "every worker gets a slice");
        assert_eq!(parallel.aggregate, serial.aggregate, "{workers} workers");
    }
}

/// Grouping by firmware key is what amortises runtime boots: each boot
/// draws its image from the store once, so a one-worker run over two fold
/// blocks looks up at most one image per distinct key per block — far
/// fewer than one per device.
#[test]
fn grouping_boots_once_per_config_per_block() {
    let sc = FleetScenario::scaling(2048);
    let store = FirmwareStore::for_scenario(&sc);
    simulate_in(&sc, 1, &store);
    let stats = store.stats();
    let lookups = stats.hits + stats.misses;
    let keys_per_block: u64 = (0..sc.devices)
        .step_by(1024)
        .map(|lo| {
            (lo..sc.devices.min(lo + 1024))
                .map(|i| sc.device_config(i).firmware_key())
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64
        })
        .sum();
    assert!(
        lookups <= keys_per_block,
        "{lookups} store lookups for {keys_per_block} per-block configs"
    );
    assert!(
        lookups * 4 <= sc.devices as u64,
        "{lookups} store lookups for {} devices",
        sc.devices
    );
}

/// Truncation semantics: a per-event leg never defers deliveries past the
/// horizon, so only batched legs may report truncated events, and those
/// events are excluded from the latency population.
#[test]
fn truncated_events_only_appear_on_the_batched_leg() {
    let report = run(&stepped(0xF1EE7, 48, 16), 2);
    let mut batched_truncations = 0;
    for d in &report.devices {
        assert_eq!(
            d.per_event.truncated_events, 0,
            "per-event delivery has no horizon stragglers (device {})",
            d.index
        );
        batched_truncations += d.batched.truncated_events;
        // Truncated events are excluded from the latency samples, so the
        // two together never exceed the delivered-event count.
        assert!(
            d.batched_latencies_ms.len() as u64 + d.batched.truncated_events
                <= d.batched.events_delivered,
            "latency samples + truncated events stay within deliveries (device {})",
            d.index
        );
    }
    assert_eq!(report.aggregate.per_event.truncated_events, 0);
    assert_eq!(
        report.aggregate.batched.truncated_events,
        batched_truncations
    );
    assert!(
        batched_truncations > 0,
        "a 48-device batched fleet leaves stragglers at the horizon"
    );
}

proptest! {
    // Each case simulates small fleets end to end; a handful of cases
    // keeps the suite fast while still roaming the seed space.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core oracle: for any seed, size, time mode and knob setting —
    /// silent devices and catalogue windows included — the partition
    /// runner produces the same `DeviceResult`s, bit for bit, as replaying
    /// every device on its own.
    #[test]
    fn runner_is_bit_identical_to_the_oracle(
        seed in 0u64..1_000_000,
        devices in 3usize..32,
        events in 4usize..16,
        silent_permille in prop_oneof![Just(0u16), Just(500u16), Just(800u16)],
        windowed in any::<bool>(),
        arrival_order in any::<bool>(),
    ) {
        let sc = FleetScenario {
            silent_permille,
            catalog_window: windowed.then_some((2, 4)),
            time_mode: if arrival_order {
                TimeMode::ArrivalOrder
            } else {
                TimeMode::Stepped
            },
            ..stepped(seed, devices, events)
        };
        let fleet = run(&sc, 3);
        let expected = oracle(&sc);
        prop_assert_eq!(fleet.devices, expected.devices);
        prop_assert_eq!(fleet.aggregate, expected.aggregate);
    }

    /// The streaming reduction: block summaries folded on the workers
    /// must reproduce the exact aggregate — every field, latency
    /// percentiles included — at small N, in both time modes, for any
    /// worker count.
    #[test]
    fn streaming_summary_matches_the_exact_aggregate(
        seed in 0u64..1_000_000,
        devices in 3usize..32,
        arrival_order in any::<bool>(),
        workers in prop_oneof![Just(1usize), Just(8usize)],
    ) {
        let sc = FleetScenario {
            time_mode: if arrival_order {
                TimeMode::ArrivalOrder
            } else {
                TimeMode::Stepped
            },
            silent_permille: 250,
            ..stepped(seed, devices, 12)
        };
        let exact = run(&sc, 2);
        let summary = run_summary(&sc, workers);
        prop_assert_eq!(summary.aggregate, exact.aggregate);
        prop_assert_eq!(summary.scenario, sc);
    }
}

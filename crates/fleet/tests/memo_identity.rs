//! The firmware store compiles each distinct AFT unit once and links it
//! into every image that uses it.  That is only sound if phases 1–2 are a
//! pure function of the unit key, so these tests build every distinct
//! image twice — through one shared [`UnitMemo`] and through a fresh memo
//! per image — and demand byte-identical envelopes and equal build
//! reports (check sites included), plus an identical store image.  They
//! also pin the memo's scope: one per store, never shared across stores,
//! and that a prewarmed store leaves the campaign nothing to build.

use amulet_aft::{Aft, BuildOutput, UnitMemo};
use amulet_fleet::{simulate_summary_in, DeviceConfig, FirmwareStore, FleetScenario};
use amulet_mcu::serial::encode_firmware;

fn build(cfg: &DeviceConfig, memo: &UnitMemo) -> BuildOutput {
    let mut aft = Aft::for_platform(cfg.method, &cfg.platform);
    for app in &cfg.apps {
        aft = aft.add_app(app.app_source());
    }
    aft.build_with(memo)
        .unwrap_or_else(|e| panic!("{}: {e}", cfg.firmware_key()))
}

/// Builds every distinct image of `scenario` through one shared memo and
/// through a fresh memo each, and checks the two agree with each other
/// and with the store's image.  Returns (images, distinct units).
fn assert_memoised_builds_match_fresh(scenario: &FleetScenario) -> (usize, u64) {
    let configs = FirmwareStore::distinct_configs(scenario);
    let shared = UnitMemo::default();
    let store = FirmwareStore::for_scenario(scenario);
    for (key, cfg) in &configs {
        let memoised = build(cfg, &shared);
        let fresh = build(cfg, &UnitMemo::default());
        let bytes = encode_firmware(key, &fresh.firmware);
        assert_eq!(
            encode_firmware(key, &memoised.firmware),
            bytes,
            "{key}: memoised image differs"
        );
        assert_eq!(memoised.report, fresh.report, "{key}: report differs");
        assert_eq!(
            encode_firmware(key, &store.get_or_build(key, cfg)),
            bytes,
            "{key}: store image differs"
        );
    }
    assert_eq!(shared.compiles(), shared.len() as u64);
    assert_eq!(store.stats().unit_compiles, shared.compiles());
    (configs.len(), shared.compiles())
}

#[test]
fn scaling_preset_images_are_identical_through_a_shared_memo() {
    let (images, units) = assert_memoised_builds_match_fresh(&FleetScenario::scaling(5000));
    assert_eq!(images, 240, "the scaling preset's full image set");
    assert!(units < images as u64, "units are shared across images");
}

#[test]
fn storm_images_are_identical_through_a_shared_memo() {
    for seed in [0x57_0421, 0x57_0B5E] {
        let scenario = FleetScenario {
            seed,
            ..FleetScenario::storm(5000)
        };
        let (images, units) = assert_memoised_builds_match_fresh(&scenario);
        assert!(images > 1000, "seed {seed:#x}: {images} images");
        assert!(units < 100, "seed {seed:#x}: {units} units");
    }
}

#[test]
fn each_store_compiles_every_distinct_unit_once() {
    let scenario = FleetScenario::storm(5000);
    for _ in 0..2 {
        // A fresh store starts with an empty memo: it never inherits the
        // units an earlier store compiled.
        let store = FirmwareStore::for_scenario(&scenario);
        assert_eq!(store.prewarm(&scenario), 1618);
        let stats = store.stats();
        assert_eq!(stats.builds, 1618);
        assert_eq!(stats.unit_compiles, 81);
    }
}

#[test]
fn a_parallel_prewarm_matches_a_serial_store_byte_for_byte() {
    for seed in [0x57_0421, 0x57_0B5E] {
        let scenario = FleetScenario {
            seed,
            ..FleetScenario::storm(5000)
        };
        let configs = FirmwareStore::distinct_configs(&scenario);
        let serial = FirmwareStore::for_scenario(&scenario);
        for (key, cfg) in &configs {
            serial.get_or_build(key, cfg);
        }

        let parallel = FirmwareStore::for_scenario(&scenario);
        assert_eq!(parallel.prewarm(&scenario), configs.len());
        let stats = parallel.stats();
        let images = configs.len() as u64;
        assert_eq!(
            (stats.builds, stats.misses, stats.hits),
            (images, images, 0),
            "seed {seed:#x}: one build per distinct key"
        );
        assert_eq!(
            stats.unit_compiles,
            serial.stats().unit_compiles,
            "seed {seed:#x}: the memo compiles each unit once"
        );
        if seed == 0x57_0421 {
            assert_eq!((images, stats.unit_compiles), (1618, 81));
        }
        for (key, cfg) in &configs {
            assert_eq!(
                encode_firmware(key, &parallel.get_or_build(key, cfg)),
                encode_firmware(key, &serial.get_or_build(key, cfg)),
                "seed {seed:#x}, {key}: the prewarmed image differs"
            );
        }
    }
}

#[test]
fn a_prewarmed_campaign_builds_nothing_and_matches_a_lazy_one() {
    for scenario in [FleetScenario::scaling(600), FleetScenario::storm(600)] {
        let warm = FirmwareStore::for_scenario(&scenario);
        let configs = warm.prewarm(&scenario) as u64;
        assert!(configs > 0);
        let prewarmed = simulate_summary_in(&scenario, 4, &warm);
        let stats = warm.stats();
        assert_eq!(
            (stats.builds, stats.misses),
            (configs, configs),
            "{}: the campaign built an image the prewarm did not",
            scenario.name
        );

        // A fresh store that builds inside the campaign runs the same one.
        let lazy = simulate_summary_in(&scenario, 4, &FirmwareStore::for_scenario(&scenario));
        assert_eq!(prewarmed.aggregate, lazy.aggregate, "{}", scenario.name);
    }
}

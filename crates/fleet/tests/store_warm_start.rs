//! End-to-end guard for the warm-start claim two `fleet_sim --store DIR`
//! runs over one directory show: a second process (here: a second store
//! instance) over the same store directory must materialise the scaling
//! preset's full distinct-config set without building a single firmware,
//! and the campaign it then runs must render byte-identically to the cold
//! campaign.

use amulet_fleet::{simulate_summary_in, FirmwareStore, FleetScenario};

fn store_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amulet-warm-start-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn warm_store_rebuilds_nothing_and_reproduces_the_cold_report() {
    let dir = store_dir();
    let mut scenario = FleetScenario::scaling(600);
    scenario.store_dir = Some(dir.clone());

    // Cold pass: every distinct config is an AFT build, persisted to disk.
    let cold = FirmwareStore::for_scenario(&scenario);
    let configs = cold.prewarm(&scenario);
    let cold_summary = simulate_summary_in(&scenario, 4, &cold);
    let cold_stats = cold.stats();
    assert!(configs > 0);
    assert_eq!(cold_stats.builds as usize, configs);
    assert_eq!(cold_stats.disk_hits, 0);
    assert!(cold_stats.bytes_written > 0);

    // Warm pass: a fresh instance over the same directory loads everything.
    let warm = FirmwareStore::for_scenario(&scenario);
    assert_eq!(warm.prewarm(&scenario), configs);
    let warm_summary = simulate_summary_in(&scenario, 4, &warm);
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.builds, 0, "warm start must rebuild nothing");
    assert_eq!(warm_stats.disk_hits as usize, configs);
    assert_eq!(warm_stats.bytes_read, cold_stats.bytes_written);
    assert_eq!(warm_stats.verify_failures, 0);

    // The simulated campaign is oblivious to where its firmware came from.
    assert_eq!(cold_summary.aggregate, warm_summary.aggregate);

    // Paranoid pass: every disk image verifies byte-identical to a fresh
    // build — the check the CI store job runs at 10⁴ devices.
    let mut paranoid_scenario = scenario.clone();
    paranoid_scenario.paranoid = true;
    let paranoid = FirmwareStore::for_scenario(&paranoid_scenario);
    assert_eq!(paranoid.prewarm(&paranoid_scenario), configs);
    assert_eq!(paranoid.stats().verify_failures, 0);
    assert_eq!(paranoid.stats().builds as usize, configs);

    let _ = std::fs::remove_dir_all(&dir);
}

//! Heap-allocation budget of the fleet runner's per-device path.
//!
//! A counting global allocator wraps the system one, and the campaigns
//! below run through `simulate_summary_in` on one worker against a
//! prewarmed store, so every counted allocation belongs to the runner
//! itself (config derivation, grouping, runtime reuse, simulation, silent
//! reuse and the block fold) rather than to firmware builds.  The
//! prewarm's distinct-config walk is budgeted on its own: it must grow
//! with the number of images, not the number of devices.  So is the
//! set-up itself: a fresh store's prewarm (the walk, every unit's compile
//! and every image's link) per image it builds.
//!
//! The binary holds exactly one test: the allocator counts every thread
//! of the process, and a second test running beside it would pollute the
//! counts.

// A counting allocator cannot be written without `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use amulet_fleet::{simulate_summary_in, ConfigContext, FirmwareStore, FleetScenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations one single-worker campaign of `scenario` makes, its
/// store prewarmed first so no firmware build is counted.
fn campaign_allocations(scenario: &FleetScenario) -> u64 {
    let store = FirmwareStore::for_scenario(scenario);
    store.prewarm(scenario);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = simulate_summary_in(scenario, 1, &store);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.aggregate.devices, scenario.devices);
    allocations
}

/// `(silent-cacheable devices, distinct firmware keys among them)`: on
/// one worker every distinct key's first silent device is its probe and
/// every later one a silent hit.
fn silent_census(scenario: &FleetScenario) -> (u64, u64) {
    let ctx = ConfigContext::new();
    let mut keys = BTreeSet::new();
    let mut silent = 0;
    for index in 0..scenario.devices {
        let cfg = scenario.device_config_in(&ctx, index);
        if cfg.silent_cacheable() {
            silent += 1;
            keys.insert(cfg.firmware_key());
        }
    }
    (silent, keys.len() as u64)
}

/// Allocations per device of the 4096-device scaling campaign: about
/// 1.25× the 12.8 measured once each device booted once for both
/// delivery legs and the scheduler reused one batch buffer (18.7 before;
/// 49.8 before each worker kept one runtime).
const MAX_ALLOCATIONS_PER_DEVICE: f64 = 16.0;

/// Allocations per silent hit (0.04 measured: the extra blocks' fixed
/// costs spread over the hits; 24.7 before).
const MAX_ALLOCATIONS_PER_SILENT_HIT: f64 = 1.0;

/// Allocations [`FirmwareStore::distinct_configs`] makes per device that
/// adds no firmware key (0 measured; at least 3 when every device
/// formatted its `String` key).
const MAX_DISTINCT_WALK_ALLOCATIONS_PER_DEVICE: f64 = 0.01;

/// Allocations a fresh store's [`FirmwareStore::prewarm`] of the storm
/// preset at 2000 devices makes per image it builds: 56.0 measured, on one
/// core and on two, once each unit's code was resolved once and linked by copying (167.8
/// before, when every image re-resolved every instruction, formatted its
/// symbols, cloned its names, placements and memory map and copied each
/// app's source text).
const MAX_SETUP_ALLOCATIONS_PER_IMAGE: f64 = 60.0;

/// `(images built, heap allocations)` of one fresh-store prewarm of
/// `scenario`.
fn prewarm_allocations(scenario: &FleetScenario) -> (usize, u64) {
    let store = FirmwareStore::for_scenario(scenario);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let images = store.prewarm(scenario);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(store.stats().builds, images as u64);
    (images, allocations)
}

/// `(distinct configs, heap allocations)` of one
/// [`FirmwareStore::distinct_configs`] call.
fn distinct_walk_allocations(scenario: &FleetScenario) -> (usize, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let distinct = FirmwareStore::distinct_configs(scenario);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (distinct.len(), allocations)
}

#[test]
fn the_scaling_campaign_stays_inside_its_allocation_budget() {
    let scaling = FleetScenario::scaling(4096);
    let per_device = campaign_allocations(&scaling) as f64 / scaling.devices as f64;

    // The silent-hit cost is the difference between two all-silent
    // campaigns whose larger one adds no new firmware key: every extra
    // device is then a silent hit, and the extra blocks' fixed costs are
    // charged to those hits too.
    let all_silent = |devices| FleetScenario {
        silent_permille: 1000,
        ..FleetScenario::scaling(devices)
    };
    let (small, large) = (all_silent(4096), all_silent(8192));
    let (small_silent, small_keys) = silent_census(&small);
    let (large_silent, large_keys) = silent_census(&large);
    assert_eq!(small_keys, large_keys, "the larger fleet adds no probe");
    let hits = (large_silent - large_keys) - (small_silent - small_keys);
    let extra = campaign_allocations(&large) - campaign_allocations(&small);
    let per_hit = extra as f64 / hits as f64;

    // The prewarm walk: the larger fleet draws no new image, so its
    // extra devices may cost next to no allocation.
    let (small, large) = (FleetScenario::scaling(4096), FleetScenario::scaling(8192));
    let (small_configs, small_walk) = distinct_walk_allocations(&small);
    let (large_configs, large_walk) = distinct_walk_allocations(&large);
    assert_eq!(
        small_configs, large_configs,
        "the larger fleet adds no image"
    );
    let per_walk_device =
        large_walk.saturating_sub(small_walk) as f64 / (large.devices - small.devices) as f64;

    let (images, setup) = prewarm_allocations(&FleetScenario::storm(2000));
    let per_image = setup as f64 / images as f64;

    eprintln!(
        "allocations per device {per_device:.2}, per silent hit {per_hit:.3} ({hits} hits), \
         per extra distinct-walk device {per_walk_device:.4} ({small_walk} -> {large_walk}), \
         per prewarmed storm image {per_image:.1} ({setup} for {images} images)"
    );
    assert!(
        per_device <= MAX_ALLOCATIONS_PER_DEVICE,
        "{per_device:.2} allocations per device (budget {MAX_ALLOCATIONS_PER_DEVICE})"
    );
    assert!(
        per_hit <= MAX_ALLOCATIONS_PER_SILENT_HIT,
        "{per_hit:.3} allocations per silent hit (budget {MAX_ALLOCATIONS_PER_SILENT_HIT})"
    );
    assert!(
        per_walk_device <= MAX_DISTINCT_WALK_ALLOCATIONS_PER_DEVICE,
        "{per_walk_device:.4} distinct-walk allocations per extra device \
         (budget {MAX_DISTINCT_WALK_ALLOCATIONS_PER_DEVICE})"
    );
    assert!(
        per_image <= MAX_SETUP_ALLOCATIONS_PER_IMAGE,
        "{per_image:.1} prewarm allocations per storm image \
         (budget {MAX_SETUP_ALLOCATIONS_PER_IMAGE})"
    );
}

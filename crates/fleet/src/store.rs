//! The firmware store: the in-process cache of built firmware images the
//! fleet runner draws from.
//!
//! The paper's AFT builds each app's firmware once, at compile time; the
//! store does the same for a campaign.  It is one `Mutex`-guarded map:
//! one `Arc<Firmware>` per distinct firmware key, shared by every runtime
//! booted for that configuration, with builds performed outside the lock
//! (a racing duplicate build produces an identical image and is dropped).
//! Nothing is evicted: a scenario's distinct images are bounded by its
//! config space, at most 2 835 images (DESIGN.md §4).
//!
//! Every build goes through the store's [`UnitMemo`]: each distinct app
//! unit (name, source, method, check policy) is compiled once per store
//! and only linked per image — exactly once, even when builds race: a
//! build that needs a unit another build is compiling waits for it.  The
//! memo lives and dies with the store, so a fresh store compiles
//! everything again.
//!
//! [`FirmwareStore::prewarm`] walks a scenario's devices for its distinct
//! images and builds them on every core: the walk splits the devices into
//! contiguous ranges and the builds are dealt out in fixed strides, each
//! over [`std::thread::available_parallelism`] threads on the fleet
//! runner's claim loop, whatever worker count the campaign itself uses.
//! Every key is asked for once, so the store's images and counters do not
//! depend on that thread count.

use crate::partition::claim_loop;
use crate::scenario::{DeviceConfig, FleetScenario};
use amulet_aft::{build_image, UnitMemo};
use amulet_apps::CatalogApp;
use amulet_mcu::firmware::Firmware;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A point-in-time snapshot of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirmwareStoreStats {
    /// Lookups served from the in-memory map.
    pub hits: u64,
    /// Lookups that missed the in-memory map.
    pub misses: u64,
    /// Misses that ran an AFT build.
    pub builds: u64,
    /// AFT unit compilations (phases 1–2 of one app) the store's builds
    /// ran; every other unit came from the store's memo.
    pub unit_compiles: u64,
}

#[derive(Default, Debug)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
}

/// The firmware store (see the module docs).
#[derive(Debug)]
pub struct FirmwareStore {
    /// Builds happen outside this lock.
    images: Mutex<HashMap<Arc<str>, Arc<Firmware>>>,
    /// Every build of this store compiles each distinct app unit once.
    memo: UnitMemo,
    counters: Counters,
}

impl FirmwareStore {
    /// The store a campaign of `scenario` draws its images from.  Every
    /// store starts empty, with an empty unit memo; nothing in the
    /// scenario changes how it builds.
    pub fn for_scenario(_scenario: &FleetScenario) -> Self {
        FirmwareStore {
            images: Mutex::new(HashMap::new()),
            memo: UnitMemo::default(),
            counters: Counters::default(),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FirmwareStoreStats {
        FirmwareStoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            builds: self.counters.builds.load(Ordering::Relaxed),
            unit_compiles: self.memo.compiles(),
        }
    }

    /// Returns the image for `key`, from memory or a fresh build.  The
    /// returned `Arc` is shared with every other caller asking for the
    /// same key.
    pub fn get_or_build(&self, key: &str, cfg: &DeviceConfig) -> Arc<Firmware> {
        if let Some(fw) = self
            .images
            .lock()
            .expect("firmware store poisoned")
            .get(key)
        {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(fw);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        // Build outside the lock: two workers may race on the same key,
        // but the image is a pure function of the config, so the loser's
        // copy is identical and simply dropped.
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        let apps = cfg.apps.iter().map(CatalogApp::app_ref);
        let built = Arc::new(
            build_image(cfg.method, &cfg.platform, apps, &self.memo)
                .unwrap_or_else(|e| panic!("fleet firmware build failed for {key}: {e}")),
        );
        let mut images = self.images.lock().expect("firmware store poisoned");
        Arc::clone(images.entry(Arc::from(key)).or_insert(built))
    }

    /// Materialises every distinct firmware configuration of `scenario`
    /// through the store ahead of a campaign — the set-up phase the
    /// benchmark harness times.  Returns the number of distinct
    /// configurations.
    ///
    /// Both halves run on [`std::thread::available_parallelism`] threads
    /// on the runner's claim loop.  The distinct-config walk splits the
    /// devices into one contiguous range per thread (see
    /// [`FirmwareStore::distinct_configs`]).  The builds are dealt out in
    /// fixed strides: claim `t` of `T` builds images `t`, `t + T`, …, so
    /// each thread allocates the same images in the same order on every
    /// prewarm: with one claim per image, timing picked the allocator
    /// arena each image landed in, and successive stores fragmented the
    /// arenas (DESIGN.md §4).  Each key is asked for exactly once and the
    /// memo compiles each unit once, so the store's images and counters
    /// do not depend on the thread count.
    pub fn prewarm(&self, scenario: &FleetScenario) -> usize {
        let distinct = Self::distinct_configs(scenario);
        let strides = available_threads().clamp(1, distinct.len().max(1));
        claim_loop(
            strides,
            strides,
            || (),
            |(), stride| {
                for (key, cfg) in distinct.iter().skip(stride).step_by(strides) {
                    self.get_or_build(key, cfg);
                }
                None::<()>
            },
        );
        distinct.len()
    }

    /// The distinct firmware configurations `scenario` draws, in firmware-key
    /// order, each kept as its key's lowest-index device.  [`prewarm`]
    /// builds these, the benchmark harness times their derivation on its
    /// own, and `memo_identity` builds each one fresh for comparison.  The
    /// device walk is [`FleetScenario::distinct_configs_by_first_use`],
    /// split over [`std::thread::available_parallelism`] threads; this
    /// only sorts its output by key.
    ///
    /// [`prewarm`]: FirmwareStore::prewarm
    pub fn distinct_configs(scenario: &FleetScenario) -> Vec<(String, DeviceConfig)> {
        let mut distinct = scenario.distinct_configs_by_first_use(available_threads());
        distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        distinct
    }
}

/// The host's available parallelism (1 when it cannot be read).
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetScenario {
        FleetScenario {
            devices: 8,
            ..FleetScenario::scaling(8)
        }
    }

    #[test]
    fn store_counts_hits_and_builds() {
        let s = tiny();
        let store = FirmwareStore::for_scenario(&s);
        let cfg = s.device_config(0);
        let key = cfg.firmware_key();
        let a = store.get_or_build(&key, &cfg);
        let b = store.get_or_build(&key, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "one image shared by reference");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
    }

    #[test]
    fn the_widest_storm_draws_the_whole_config_space() {
        // Five platforms.  A mix is one to three consecutive catalogue apps
        // from any of nine starts (27 mixes).  Under each method but
        // Feature Limited it is installed clean or followed by one of five
        // adversarial apps (6 ways); Feature Limited adapts every attack to
        // one of two apps (3 ways).  No scenario the harness can ask for
        // draws more, so the store needs no eviction bound.
        let s = FleetScenario {
            fault_permille: 500,
            ..FleetScenario::storm(200_000)
        };
        let config_space = 5 * (3 * 27 * 6 + 27 * 3);
        assert_eq!(config_space, 2_835);
        assert_eq!(FirmwareStore::distinct_configs(&s).len(), config_space);
    }
}

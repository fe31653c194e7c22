//! The firmware store: the in-process cache of built firmware images the
//! fleet runner draws from.
//!
//! The paper's AFT builds each app's firmware once, at compile time; the
//! store does the same for a campaign.  It is one `Mutex`-guarded map per
//! store: one `Arc<Firmware>` per distinct firmware key, shared by every
//! runtime booted for that configuration, with builds performed outside
//! the lock (a racing duplicate build produces an identical image and is
//! dropped).  A FIFO eviction bound keeps pathological many-config runs
//! from holding every image alive at once.
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
use crate::run::build_firmware;
use crate::scenario::{DeviceConfig, FleetScenario};
use amulet_aft::UnitMemo;
use amulet_mcu::firmware::Firmware;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// In-memory image bound: beyond this many distinct configurations the
/// least-recently-*inserted* image is dropped and rebuilt if asked for
/// again.  Every realistic scenario holds well under this — the full
/// config space of the default catalogue is 540 keys.
const DEFAULT_CAPACITY: usize = 4096;

/// A point-in-time snapshot of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirmwareStoreStats {
    /// Lookups served from the in-memory map.
    pub hits: u64,
    /// Lookups that missed the in-memory map.
    pub misses: u64,
    /// Misses that ran an AFT build.
    pub builds: u64,
    /// Images evicted from the in-memory map.
    pub evictions: u64,
    /// AFT unit compilations (phases 1–2 of one app) the store's builds
    /// ran; every other unit came from the store's memo.
    pub unit_compiles: u64,
}

#[derive(Default, Debug)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
}

/// The in-memory map plus its FIFO insertion order, kept under one lock;
/// both share one copy of each key.
type ImageMap = (HashMap<Arc<str>, Arc<Firmware>>, VecDeque<Arc<str>>);

/// The firmware store (see the module docs).
#[derive(Debug)]
pub struct FirmwareStore {
    capacity: usize,
    /// Builds happen outside the `images` lock.
    images: Mutex<ImageMap>,
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
            capacity: DEFAULT_CAPACITY,
            images: Mutex::new((HashMap::new(), VecDeque::new())),
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
            evictions: self.counters.evictions.load(Ordering::Relaxed),
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
            .0
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
        let built = build_firmware(key, cfg, &self.memo);
        let mut guard = self.images.lock().expect("firmware store poisoned");
        let (images, order) = &mut *guard;
        let arc = match images.get(key) {
            Some(fw) => Arc::clone(fw),
            None => {
                let key: Arc<str> = Arc::from(key);
                order.push_back(Arc::clone(&key));
                images.insert(key, Arc::clone(&built));
                built
            }
        };
        while images.len() > self.capacity {
            let Some(evict) = order.pop_front() else {
                break;
            };
            images.remove(&evict);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        arc
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
    /// do not depend on the thread count (as long as the images fit the
    /// in-memory bound; beyond it, which ones stay resident follows the
    /// order the builds finished in).
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
    /// device walk is the one `verify_fleet_reports` uses, split over
    /// [`std::thread::available_parallelism`] threads; this only sorts its
    /// output by key.
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
    fn eviction_is_fifo_and_counted() {
        let s = tiny();
        let mut store = FirmwareStore::for_scenario(&s);
        store.capacity = 2;
        let mut distinct = s.distinct_configs_by_first_use(1);
        assert!(distinct.len() >= 3, "need three distinct configs");
        distinct.truncate(3);
        for (key, cfg) in &distinct {
            store.get_or_build(key, cfg);
        }
        assert_eq!(store.stats().evictions, 1);
        // The evicted key (FIFO: the first inserted) misses again.
        store.get_or_build(&distinct[0].0, &distinct[0].1);
        assert_eq!(store.stats().hits, 0);
        assert_eq!(store.stats().misses, 4);
    }
}

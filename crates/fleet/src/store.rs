//! The content-addressable firmware store: a cross-run cache of built
//! firmware images.
//!
//! Once the fleet runner skips most per-device set-up (runtime reuse,
//! the silent cache), AFT firmware builds (compile + link + MPU planning) dominate a
//! campaign's cold start — and they were redone on every process start.
//! This store persists each distinct image once, keyed by a stable
//! content address derived from everything that determines the build:
//!
//! ```text
//! store key  = "<platform>|<method>|<app1>+<app2>|<policy label>"
//! file name  = fw-<fnv1a64(store key) as 16 hex digits>.bin
//! ```
//!
//! The on-disk bytes are the versioned envelope of
//! [`amulet_mcu::serial`] — magic, format version, content hash, the
//! embedded store key, and the image payload — so a loaded file proves
//! both *what* it is (the embedded key must match the key asked for;
//! hash collisions in the file name cannot alias images) and *that* it
//! is intact (any single-bit flip fails the envelope hash).  A file
//! that fails any of these checks is treated as a miss and rebuilt over;
//! corruption can cost time, never correctness.
//!
//! In memory the store is exactly the map the runner draws from, one
//! `Mutex`-guarded map per store: one `Arc<Firmware>` per distinct key,
//! shared by every runtime booted for that configuration, with builds
//! performed outside the lock (a racing duplicate build produces an
//! identical image and is dropped).  A FIFO eviction bound keeps
//! pathological many-config runs from holding every image alive at once.
//!
//! Every build goes through the store's [`UnitMemo`]: each distinct app
//! unit (name, source, method, check policy) is compiled once per store
//! and only linked per image.  The memo lives and dies with the store, so
//! a fresh store compiles everything again.
//!
//! **Paranoid mode** ([`FleetScenario::paranoid`], `fleet_sim
//! --paranoid`, run by CI) rebuilds every disk hit from source (through
//! this store's memo) and compares the encodings byte for byte before
//! reuse; a mismatch is counted, the fresh build wins, and the stale file
//! is rewritten.
//!
//! **Disk cap** ([`FleetScenario::store_cap_bytes`], `fleet_sim
//! --store-cap-bytes`): when set, every persist re-checks the
//! directory's total image size and removes least-recently-*used* files
//! (by modification time; disk hits refresh it) until the cap holds
//! again.  Evicting is always safe — an evicted image is just a future
//! rebuild — so the cap bounds disk footprint without ever affecting
//! results.

use crate::run::build_firmware;
use crate::scenario::{DeviceConfig, FleetScenario};
use amulet_aft::UnitMemo;
use amulet_core::serial::fnv1a64;
use amulet_mcu::firmware::Firmware;
use amulet_mcu::serial::{decode_firmware, encode_firmware};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// In-memory image bound: beyond this many distinct configurations the
/// least-recently-*inserted* image is dropped (re-loadable from disk when
/// a directory is configured, rebuildable otherwise).  Every realistic
/// scenario holds well under this — the full config space of the default
/// catalogue is 540 keys.
const DEFAULT_CAPACITY: usize = 4096;

/// A point-in-time snapshot of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirmwareStoreStats {
    /// Lookups served from the in-memory map.
    pub hits: u64,
    /// Lookups that missed the in-memory map.
    pub misses: u64,
    /// Misses served by decoding an on-disk image.
    pub disk_hits: u64,
    /// Misses that ran a fresh AFT build (includes paranoid re-builds).
    pub builds: u64,
    /// Envelope bytes read from disk (successful loads only).
    pub bytes_read: u64,
    /// Envelope bytes written to disk.
    pub bytes_written: u64,
    /// Images evicted from the in-memory map.
    pub evictions: u64,
    /// Image files removed from disk to hold the byte cap.
    pub disk_evictions: u64,
    /// Paranoid verifications where the decoded image was **not**
    /// byte-identical to a fresh build (the fresh build was used and the
    /// file rewritten).  Nonzero means the store directory was corrupted
    /// in a hash-preserving way or written by a different build.
    pub verify_failures: u64,
    /// AFT unit compilations (phases 1–2 of one app) the store's builds
    /// ran; every other unit came from the store's memo.
    pub unit_compiles: u64,
}

#[derive(Default, Debug)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    evictions: AtomicU64,
    disk_evictions: AtomicU64,
    verify_failures: AtomicU64,
}

/// The in-memory map plus its FIFO insertion order, kept under one lock.
type ImageMap = (HashMap<String, Arc<Firmware>>, VecDeque<String>);

/// Best-effort LRU touch: refreshes an image file's modification time so
/// the disk-cap eviction order tracks recency of *use*, not of writing.
/// Failure is harmless — the file just keeps its stale position.
fn touch(path: &Path) {
    if let Ok(f) = std::fs::File::options().write(true).open(path) {
        let _ = f.set_times(std::fs::FileTimes::new().set_modified(std::time::SystemTime::now()));
    }
}

/// The content-addressable firmware store (see the module docs).
#[derive(Debug)]
pub struct FirmwareStore {
    dir: Option<PathBuf>,
    /// Whether `dir` exists: the first persist creates it, so a store
    /// calls `create_dir_all` at most once however many images it writes.
    dir_ready: OnceLock<bool>,
    paranoid: bool,
    /// Policy component of the store key, from
    /// [`FleetScenario::policy_label`].
    policy_label: String,
    capacity: usize,
    /// Byte cap for the on-disk directory; `None` never evicts.
    cap_bytes: Option<u64>,
    /// Builds and disk I/O happen outside the `images` lock.
    images: Mutex<ImageMap>,
    /// Every build of this store compiles each distinct app unit once.
    memo: UnitMemo,
    counters: Counters,
}

impl FirmwareStore {
    /// A purely in-memory store — the pre-PR-7 behaviour.
    pub fn in_memory() -> Self {
        FirmwareStore {
            dir: None,
            dir_ready: OnceLock::new(),
            paranoid: false,
            policy_label: String::new(),
            capacity: DEFAULT_CAPACITY,
            cap_bytes: None,
            images: Mutex::new((HashMap::new(), VecDeque::new())),
            memo: UnitMemo::default(),
            counters: Counters::default(),
        }
    }

    /// The store a scenario asks for: on-disk under
    /// [`FleetScenario::store_dir`] when set (created on demand), in
    /// memory otherwise; paranoid when the scenario says so.
    pub fn for_scenario(scenario: &FleetScenario) -> Self {
        let mut store = FirmwareStore::in_memory();
        store.dir = scenario.store_dir.clone();
        store.paranoid = scenario.paranoid;
        store.policy_label = scenario.policy_label();
        store.cap_bytes = scenario.store_cap_bytes;
        store
    }

    /// Whether this store persists images to disk.
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The full store key of a firmware configuration key: the firmware
    /// key plus the delivery-policy label.
    pub fn store_key(&self, firmware_key: &str) -> String {
        format!("{firmware_key}|{}", self.policy_label)
    }

    /// The file an image is stored under: the key's FNV-1a64 content
    /// address.  The embedded key is still verified on load, so a
    /// (astronomically unlikely) address collision degrades to a rebuild,
    /// never to the wrong image.
    fn image_path(&self, store_key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("fw-{:016x}.bin", fnv1a64(store_key.as_bytes()))))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FirmwareStoreStats {
        FirmwareStoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            builds: self.counters.builds.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            disk_evictions: self.counters.disk_evictions.load(Ordering::Relaxed),
            verify_failures: self.counters.verify_failures.load(Ordering::Relaxed),
            unit_compiles: self.memo.compiles(),
        }
    }

    /// Returns the image for `key`, from memory, disk, or a fresh build —
    /// in that order.  The returned `Arc` is shared with every other
    /// caller asking for the same key.
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
        // Load or build outside the lock: two workers may race on the
        // same key, but the image is a pure function of the config, so
        // the loser's copy is identical and simply dropped.
        let built = self.load_or_build(key, cfg);
        let mut guard = self.images.lock().expect("firmware store poisoned");
        let (images, order) = &mut *guard;
        let arc = Arc::clone(images.entry(key.to_string()).or_insert_with(|| {
            order.push_back(key.to_string());
            built
        }));
        while images.len() > self.capacity {
            let Some(evict) = order.pop_front() else {
                break;
            };
            images.remove(&evict);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        arc
    }

    fn load_or_build(&self, key: &str, cfg: &DeviceConfig) -> Arc<Firmware> {
        let store_key = self.store_key(key);
        let path = match self.image_path(&store_key) {
            Some(p) => p,
            None => return self.build_fresh(key, cfg),
        };
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                let fresh = self.build_fresh(key, cfg);
                self.persist(&path, &store_key, &fresh);
                return fresh;
            }
        };
        match decode_firmware(&bytes) {
            Ok((embedded_key, firmware)) if embedded_key == store_key => {
                if self.paranoid {
                    // Verify byte-identity against a fresh build before
                    // trusting the decoded image.  The fresh build is
                    // authoritative either way.
                    self.counters
                        .bytes_read
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    let fresh = self.build_fresh(key, cfg);
                    if encode_firmware(&store_key, &fresh) != bytes {
                        self.counters
                            .verify_failures
                            .fetch_add(1, Ordering::Relaxed);
                        self.persist(&path, &store_key, &fresh);
                    }
                    return fresh;
                }
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                touch(&path);
                Arc::new(firmware)
            }
            // Wrong key (file-name hash collision) or any decode error
            // (truncation, corruption, version skew): rebuild and write
            // the file over.
            _ => {
                let fresh = self.build_fresh(key, cfg);
                self.persist(&path, &store_key, &fresh);
                fresh
            }
        }
    }

    fn build_fresh(&self, key: &str, cfg: &DeviceConfig) -> Arc<Firmware> {
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        build_firmware(key, cfg, &self.memo)
    }

    /// Writes an image atomically (temp file + rename) so a crashed or
    /// raced writer can never leave a half-written envelope behind — a
    /// torn write surfaces as a missing or stale file, both of which the
    /// load path already handles.
    fn persist(&self, path: &Path, store_key: &str, firmware: &Firmware) {
        let Some(dir) = self.dir.as_deref() else {
            return;
        };
        if !*self
            .dir_ready
            .get_or_init(|| std::fs::create_dir_all(dir).is_ok())
        {
            return;
        }
        let bytes = encode_firmware(store_key, firmware);
        let tmp = path.with_extension(format!("tmp.{:016x}", fnv1a64(store_key.as_bytes())));
        if std::fs::write(&tmp, &bytes).is_ok() && std::fs::rename(&tmp, path).is_ok() {
            self.counters
                .bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.enforce_disk_cap(path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Shrinks the store directory back under the byte cap after a
    /// persist: image files are removed least-recently-used first (by
    /// modification time — refreshed on every disk hit — with the file
    /// name as the deterministic tie-break) until the total fits.  The
    /// just-written file is never removed, so a cap smaller than one
    /// image still makes progress.
    fn enforce_disk_cap(&self, keep: &Path) {
        let (Some(dir), Some(cap)) = (self.dir.as_deref(), self.cap_bytes) else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                if path.extension().is_none_or(|x| x != "bin") {
                    return None;
                }
                let meta = e.metadata().ok()?;
                Some((meta.modified().ok()?, path, meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        files.sort();
        for (_, path, len) in files {
            if total <= cap {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                self.counters.disk_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Materialises every distinct firmware configuration of `scenario`
    /// through the store — the explicit cold/warm phase `fleet_sim`
    /// times.  Returns the number of distinct configurations.
    pub fn prewarm(&self, scenario: &FleetScenario) -> usize {
        let distinct = Self::distinct_configs(scenario);
        for (key, cfg) in &distinct {
            self.get_or_build(key, cfg);
        }
        distinct.len()
    }

    /// The distinct firmware configurations `scenario` draws, in firmware-key
    /// order, each kept as its key's lowest-index device.  [`prewarm`]
    /// builds these, the benchmark harness times their derivation on its
    /// own, and `memo_identity` builds each one fresh for comparison.  The
    /// device walk is the one `verify_fleet_reports` uses; this only sorts
    /// its output by key.
    ///
    /// [`prewarm`]: FirmwareStore::prewarm
    pub fn distinct_configs(scenario: &FleetScenario) -> Vec<(String, DeviceConfig)> {
        let mut distinct = scenario.distinct_configs_by_first_use();
        distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("amulet-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny() -> FleetScenario {
        FleetScenario {
            devices: 8,
            ..FleetScenario::scaling(8)
        }
    }

    #[test]
    fn in_memory_store_counts_hits_and_builds() {
        let s = tiny();
        let store = FirmwareStore::for_scenario(&s);
        let cfg = s.device_config(0);
        let key = cfg.firmware_key();
        let a = store.get_or_build(&key, &cfg);
        let b = store.get_or_build(&key, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "one image shared by reference");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.bytes_written, 0, "no directory, nothing persisted");
    }

    #[test]
    fn disk_store_round_trips_images_across_instances() {
        let dir = tmpdir("roundtrip");
        let s = FleetScenario {
            store_dir: Some(dir.clone()),
            ..tiny()
        };
        let cfg = s.device_config(0);
        let key = cfg.firmware_key();

        let cold = FirmwareStore::for_scenario(&s);
        let built = cold.get_or_build(&key, &cfg);
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.builds, 1);
        assert!(cold_stats.bytes_written > 0, "image persisted");

        // A new instance (a new process, morally) must load, not build.
        let warm = FirmwareStore::for_scenario(&s);
        let loaded = warm.get_or_build(&key, &cfg);
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.builds, 0, "warm start builds nothing");
        assert_eq!(warm_stats.disk_hits, 1);
        assert_eq!(*loaded, *built, "decoded image equals the built one");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_files_degrade_to_rebuilds() {
        let dir = tmpdir("corrupt");
        let s = FleetScenario {
            store_dir: Some(dir.clone()),
            ..tiny()
        };
        let cfg = s.device_config(0);
        let key = cfg.firmware_key();
        let cold = FirmwareStore::for_scenario(&s);
        let built = cold.get_or_build(&key, &cfg);

        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "bin"))
            .expect("persisted image file");
        let original = std::fs::read(&file).unwrap();

        // Bit-flip: the warm instance must rebuild, not decode garbage.
        let mut flipped = original.clone();
        flipped[original.len() / 2] ^= 0x10;
        std::fs::write(&file, &flipped).unwrap();
        let warm = FirmwareStore::for_scenario(&s);
        let got = warm.get_or_build(&key, &cfg);
        assert_eq!(*got, *built);
        assert_eq!(warm.stats().builds, 1, "corruption forces a rebuild");
        assert_eq!(warm.stats().disk_hits, 0);
        assert_eq!(
            std::fs::read(&file).unwrap(),
            original,
            "the rebuilt image is written back over the corrupt file"
        );

        // Truncation behaves the same.
        std::fs::write(&file, &original[..original.len() / 3]).unwrap();
        let warm = FirmwareStore::for_scenario(&s);
        warm.get_or_build(&key, &cfg);
        assert_eq!(warm.stats().builds, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paranoid_mode_verifies_and_repairs() {
        let dir = tmpdir("paranoid");
        let s = FleetScenario {
            store_dir: Some(dir.clone()),
            ..tiny()
        };
        let cfg = s.device_config(0);
        let key = cfg.firmware_key();
        FirmwareStore::for_scenario(&s).get_or_build(&key, &cfg);

        // An intact file verifies clean.
        let paranoid = FirmwareStore::for_scenario(&FleetScenario {
            paranoid: true,
            ..s.clone()
        });
        paranoid.get_or_build(&key, &cfg);
        let stats = paranoid.stats();
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.builds, 1, "paranoid mode rebuilds to compare");

        // A file whose envelope is valid but whose content was produced
        // for different bytes: simulate by storing a different config's
        // image under this key's file name (hash-valid, key-matching
        // envelope, wrong payload).
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "bin"))
            .unwrap();
        let other_cfg = (1..s.devices)
            .map(|i| s.device_config(i))
            .find(|c| c.firmware_key() != key)
            .expect("a second distinct config");
        let other = build_firmware(&other_cfg.firmware_key(), &other_cfg, &UnitMemo::default());
        let store_key = paranoid.store_key(&key);
        std::fs::write(&file, encode_firmware(&store_key, &other)).unwrap();

        let paranoid = FirmwareStore::for_scenario(&FleetScenario {
            paranoid: true,
            ..s.clone()
        });
        let got = paranoid.get_or_build(&key, &cfg);
        assert_eq!(paranoid.stats().verify_failures, 1);
        let fresh = build_firmware(&key, &cfg, &UnitMemo::default());
        assert_eq!(*got, *fresh, "the fresh build wins");
        assert_eq!(
            std::fs::read(&file).unwrap(),
            encode_firmware(&store_key, &fresh),
            "the stale file is repaired"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prewarm_materialises_every_distinct_config_once() {
        let dir = tmpdir("prewarm");
        let s = FleetScenario {
            devices: 64,
            store_dir: Some(dir.clone()),
            ..FleetScenario::scaling(64)
        };
        let cold = FirmwareStore::for_scenario(&s);
        let distinct = cold.prewarm(&s);
        assert!(distinct > 0);
        assert_eq!(cold.stats().builds as usize, distinct);
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "bin")
            })
            .count();
        assert_eq!(files, distinct, "one file per distinct config");

        let warm = FirmwareStore::for_scenario(&s);
        assert_eq!(warm.prewarm(&s), distinct);
        assert_eq!(warm.stats().builds, 0, "warm prewarm builds nothing");
        assert_eq!(warm.stats().disk_hits as usize, distinct);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_first_persist_creates_a_missing_store_directory() {
        let root = tmpdir("lazy-dir");
        let dir = root.join("nested").join("store");
        let s = FleetScenario {
            devices: 16,
            store_dir: Some(dir.clone()),
            ..FleetScenario::scaling(16)
        };
        let store = FirmwareStore::for_scenario(&s);
        assert!(!dir.exists());
        let distinct = store.prewarm(&s);
        assert!(distinct > 1);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), distinct);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Pins a file's modification time to a deterministic epoch offset so
    /// the eviction order under test never depends on write timing.
    fn set_mtime(path: &Path, secs: u64) {
        let t = std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs);
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(t))
            .unwrap();
    }

    #[test]
    fn disk_cap_evicts_least_recently_used_images() {
        let dir = tmpdir("diskcap");
        let s = FleetScenario {
            devices: 64,
            store_dir: Some(dir.clone()),
            ..FleetScenario::scaling(64)
        };
        let configs = FirmwareStore::distinct_configs(&s);
        assert!(configs.len() >= 4, "need four distinct configs");
        let (first3, fourth) = (&configs[..3], &configs[3]);

        // Persist all four images with no cap to measure them, then drop
        // the fourth again and pin the first three mtimes: configs[0]
        // oldest, configs[2] newest.
        let cold = FirmwareStore::for_scenario(&s);
        for (key, cfg) in &configs[..4] {
            cold.get_or_build(key, cfg);
        }
        let path_of =
            |store: &FirmwareStore, key: &str| store.image_path(&store.store_key(key)).unwrap();
        let len_of = |key: &str| std::fs::metadata(path_of(&cold, key)).unwrap().len();
        let size: u64 = first3.iter().map(|(key, _)| len_of(key)).sum();
        let fourth_len = len_of(&fourth.0);
        std::fs::remove_file(path_of(&cold, &fourth.0)).unwrap();
        for (i, (key, _)) in first3.iter().enumerate() {
            set_mtime(&path_of(&cold, key), 1000 + 100 * i as u64);
        }

        // A capped store: a disk hit on the *oldest* image refreshes its
        // recency, so when persisting the fourth image overflows the cap
        // by one byte, the single eviction removes configs[1] — now the
        // least recently used — and leaves the touched configs[0] alone.
        let mut capped = FirmwareStore::for_scenario(&s);
        capped.cap_bytes = Some(size + fourth_len - 1);
        capped.get_or_build(&first3[0].0, &first3[0].1);
        assert_eq!(capped.stats().disk_hits, 1);
        capped.get_or_build(&fourth.0, &fourth.1);
        assert_eq!(capped.stats().disk_evictions, 1, "one file had to go");
        assert!(!path_of(&capped, &first3[1].0).exists(), "LRU evicted");
        for key in [&first3[0].0, &first3[2].0, &fourth.0] {
            assert!(path_of(&capped, key).exists(), "{key} survives");
        }

        // An evicted image is only a future rebuild, never an error.
        let reload = FirmwareStore::for_scenario(&s);
        reload.get_or_build(&first3[1].0, &first3[1].1);
        assert_eq!(reload.stats().builds, 1);

        // A cap smaller than a single image keeps only the newest file.
        std::fs::remove_file(path_of(&cold, &first3[1].0)).unwrap();
        let mut tiny_cap = FirmwareStore::for_scenario(&s);
        tiny_cap.cap_bytes = Some(1);
        tiny_cap.get_or_build(&first3[1].0, &first3[1].1);
        let survivors = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "bin")
            })
            .count();
        assert_eq!(survivors, 1, "only the just-written image remains");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let s = tiny();
        let mut store = FirmwareStore::for_scenario(&s);
        store.capacity = 2;
        let mut distinct = s.distinct_configs_by_first_use();
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

//! The discrete-event fleet core: a wake calendar over device blocks.
//!
//! Fleet devices sleep ~99.99 % of virtual time, so a walk that replays
//! every device front to back pays O(devices) per unit of virtual time.
//! This module is the fleet's one runner, for both time modes, built
//! around the classic discrete-event shape — work happens only where
//! events are:
//!
//! - **Wake calendar.**  Within a block, devices are grouped by firmware
//!   configuration and each group enters a priority queue keyed by the
//!   earliest *next-wake* time among its members (the first trace
//!   arrival; silent devices have no arrivals and sort last).  The runner
//!   pops the earliest wake, advances the woken devices' virtual clocks
//!   through the existing `pump_counted`/`flush_counted` machinery (each
//!   trace arrival is that device's next calendar entry; the LPM idle
//!   accounting between arrivals is unchanged), and retires the group.
//!   Fleet devices are causally independent — no event ever crosses from
//!   one device to another — so running a woken device to completion is
//!   result-identical to fine-grained interleaving, and the coarse grain
//!   is what lets one booted runtime serve a whole group through
//!   [`AmuletOs::reset`].
//!
//! - **Fold grid and claim grid.**  Devices are partitioned into fixed
//!   [`BLOCK_SIZE`] index blocks — the *fold grid*.  Each block is folded
//!   (per-device vector or [`crate::stats::BlockSummary`]) as a whole and
//!   the folded values merge **in block order** on the calling thread.
//!   The fold grid never depends on the worker count: the summaries sum
//!   energy and time as per-block f64 partials, so moving a block edge
//!   would re-associate those sums and change the report bytes.  Workers
//!   instead claim *slices* — the claim grid — from a shared atomic
//!   counter: each block splits into contiguous slices sized to the
//!   worker count ([`claim_slices`]), so a fleet smaller than one block
//!   still spreads over every worker.  A slice's results land in its
//!   block's slot, and whichever worker finishes a block's last slice
//!   concatenates the slices in order and folds the block.  Every
//!   per-device result is a pure function of the scenario, so which
//!   worker ran a slice cannot show, and any worker count produces
//!   byte-identical reports — the guarantee CI asserts at 10⁴ devices,
//!   1 vs 8 workers.
//!
//! - **Silent-device outcome cache.**  A mostly-idle fleet is dominated
//!   by devices whose campaign trace is empty
//!   ([`FleetScenario::silent_permille`]).  Such a device still boots and
//!   flushes — but if its whole two-leg run performs **zero sensor-model
//!   reads** (every sensor-backed syscall, `amulet_get_time` included,
//!   advances the model's tick counter), the outcome provably cannot
//!   depend on the device's `sensor_seed`, because the seed influences
//!   execution only through a read.  The first silent device of a config
//!   is simulated as the probe; when the proof holds, every later silent
//!   device of that config reuses the outcome with only the index
//!   patched.  When it does not (an app samples sensors at boot or in the
//!   final flush), the cache records the refusal and every silent device
//!   of that config is simulated individually — slower, never wrong.
//!
//! - **Shared firmware.**  Distinct configurations are materialised once
//!   through the content-addressable [`FirmwareStore`] — from memory,
//!   from the cross-run on-disk cache, or by a fresh AFT build — and
//!   runtimes share the image by reference.

use crate::run::{boot_runtime, device_trace, simulate_device, DeviceResult};
use crate::scenario::{ConfigContext, DeviceConfig, FleetScenario};
use crate::store::FirmwareStore;
use amulet_os::os::AmuletOs;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Devices per fold block.  Fixed — never derived from the worker count —
/// so the fold grid, and with it the association of every per-block f64
/// partial, is identical no matter how many workers run the fleet.
pub(crate) const BLOCK_SIZE: usize = 1024;

/// Claim slices the calendar aims to give each worker.  More slices than
/// workers bound the tail: when one worker draws a slow slice, the others
/// still have slices left to claim.
const SLICES_PER_WORKER: usize = 4;

/// One claimable unit of work: devices `lo..hi`, part `part` of block
/// `block`.
struct Slice {
    block: usize,
    part: usize,
    lo: usize,
    hi: usize,
}

/// The claim grid of a `devices`-device fleet on `workers` threads, listed
/// block-major in device order: each block is cut into
/// `ceil(SLICES_PER_WORKER · workers / blocks)` non-empty contiguous
/// slices (at most one per device), and into exactly one when one worker
/// runs everything or the blocks alone already give every worker
/// [`SLICES_PER_WORKER`] claims.
fn claim_slices(devices: usize, workers: usize) -> Vec<Slice> {
    let blocks = devices.div_ceil(BLOCK_SIZE);
    let per_block = if workers <= 1 {
        1
    } else {
        (SLICES_PER_WORKER * workers).div_ceil(blocks.max(1))
    };
    let mut slices = Vec::new();
    for block in 0..blocks {
        let start = block * BLOCK_SIZE;
        let len = BLOCK_SIZE.min(devices - start);
        let parts = per_block.min(len);
        slices.extend((0..parts).map(|part| Slice {
            block,
            part,
            lo: start + len * part / parts,
            hi: start + len * (part + 1) / parts,
        }));
    }
    slices
}

/// A device waiting on the block's wake calendar.
struct Pending {
    cfg: DeviceConfig,
    trace: Vec<amulet_apps::TraceEvent>,
    /// Virtual time of the device's first wake (its first trace arrival);
    /// `u64::MAX` for devices with no arrivals at all.
    first_wake_ms: u64,
}

/// Per-worker state that persists across the slices a worker claims.
struct Worker<'a> {
    scenario: &'a FleetScenario,
    store: &'a FirmwareStore,
    ctx: ConfigContext,
    /// The one live runtime, tagged with its firmware key; re-created
    /// only when the key changes (the expensive parts — 64 KiB memory,
    /// attribute tables, API tables — are rebuilt then, never per
    /// device).
    runtime: Option<(String, AmuletOs)>,
    /// Silent-device outcome cache: `Some(template)` when the draw-free
    /// proof held for this config's probe, `None` when it did not and
    /// silent devices must be simulated individually.
    silent_cache: HashMap<String, Option<DeviceResult>>,
}

impl<'a> Worker<'a> {
    fn new(scenario: &'a FleetScenario, store: &'a FirmwareStore) -> Self {
        Worker {
            scenario,
            store,
            ctx: ConfigContext::new(),
            runtime: None,
            silent_cache: HashMap::new(),
        }
    }

    fn runtime_for(&mut self, key: &str, cfg: &DeviceConfig) -> &mut AmuletOs {
        let hit = matches!(&self.runtime, Some((k, _)) if k == key);
        if !hit {
            self.runtime = Some((key.to_string(), boot_runtime(self.store, key, cfg)));
        }
        &mut self.runtime.as_mut().expect("runtime just installed").1
    }

    /// Simulates one pending device, probing or consulting the silent
    /// cache as appropriate.
    fn run_pending(&mut self, key: &str, p: &Pending) -> DeviceResult {
        let scenario = self.scenario;
        if p.cfg.silent_cacheable() {
            // The cache may have been decided since the block was
            // planned — by an earlier member of this very group.
            if let Some(Some(template)) = self.silent_cache.get(key) {
                let mut r = template.clone();
                r.index = p.cfg.index;
                return r;
            }
            let undecided = !self.silent_cache.contains_key(key);
            let os = self.runtime_for(key, &p.cfg);
            let sim = simulate_device(scenario, &p.cfg, os, &p.trace);
            if undecided {
                let template = (sim.sensor_draws == 0).then(|| sim.result.clone());
                self.silent_cache.insert(key.to_string(), template);
            }
            sim.result
        } else {
            let os = self.runtime_for(key, &p.cfg);
            simulate_device(scenario, &p.cfg, os, &p.trace).result
        }
    }

    /// Runs device indices `lo..hi` through the wake calendar and returns
    /// their results sorted by device index.
    fn run_block(&mut self, lo: usize, hi: usize) -> Vec<DeviceResult> {
        let mut results = Vec::with_capacity(hi - lo);
        // Plan the block: derive configs, resolve trivially-cached silent
        // devices immediately, queue the rest on the calendar grouped by
        // firmware config.
        let mut groups: BTreeMap<String, Vec<Pending>> = BTreeMap::new();
        for index in lo..hi {
            let cfg = self.scenario.device_config_in(&self.ctx, index);
            let key = cfg.firmware_key();
            // Only trivially-silent devices are cache-eligible: the cache
            // is keyed by firmware config, and armed or OTA-swept devices
            // can differ (fault kind, OTA seed) while sharing an image.
            if cfg.silent_cacheable() {
                if let Some(Some(template)) = self.silent_cache.get(&key) {
                    let mut r = template.clone();
                    r.index = index;
                    results.push(r);
                    continue;
                }
                groups.entry(key).or_default().push(Pending {
                    cfg,
                    trace: Vec::new(),
                    first_wake_ms: u64::MAX,
                });
            } else {
                let trace = device_trace(self.scenario, &cfg);
                let first_wake_ms = trace.first().map(|e| e.at_ms).unwrap_or(u64::MAX);
                groups.entry(key).or_default().push(Pending {
                    cfg,
                    trace,
                    first_wake_ms,
                });
            }
        }
        // The calendar: groups keyed by their earliest member wake.
        let mut calendar: BinaryHeap<Reverse<(u64, String)>> = groups
            .iter()
            .map(|(key, members)| {
                let wake = members
                    .iter()
                    .map(|p| p.first_wake_ms)
                    .min()
                    .unwrap_or(u64::MAX);
                Reverse((wake, key.clone()))
            })
            .collect();
        while let Some(Reverse((_, key))) = calendar.pop() {
            let mut members = groups.remove(&key).expect("group scheduled twice");
            members.sort_by_key(|p| (p.first_wake_ms, p.cfg.index));
            for p in &members {
                results.push(self.run_pending(&key, p));
            }
        }
        results.sort_by_key(|r| r.index);
        results
    }
}

/// Runs the scenario across `workers` scoped threads claiming slices of
/// the claim grid, and folds each block through `fold` on the worker that
/// finished the block's last slice; the folded values are returned **in
/// block order** regardless of which worker ran which slice.  `fold`
/// receives `(block_index, results)` with the whole block's results
/// sorted by device index.  Also returns the number of threads spawned.
pub(crate) fn collect_blocks_in<R, F>(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
    fold: F,
) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(usize, Vec<DeviceResult>) -> R + Sync,
{
    let slices = claim_slices(scenario.devices, workers);
    let blocks = scenario.devices.div_ceil(BLOCK_SIZE);
    // Each block's slot holds its finished slices until the last one
    // lands; claims run block-major, so only blocks in flight hold any.
    let mut slots: Vec<Mutex<Vec<Option<Vec<DeviceResult>>>>> =
        (0..blocks).map(|_| Mutex::new(Vec::new())).collect();
    for s in &slices {
        slots[s.block]
            .get_mut()
            .expect("no thread has run yet")
            .push(None);
    }
    let threads = workers.max(1).min(slices.len().max(1));
    // The counter only hands out claims; results travel through the slot
    // mutexes, so `Relaxed` publishes nothing it must order.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(blocks);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (store, next, fold, slices, slots) = (store, &next, &fold, &slices, &slots);
            handles.push(scope.spawn(move || {
                let mut worker = Worker::new(scenario, store);
                let mut out = Vec::new();
                while let Some(s) = slices.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let results = worker.run_block(s.lo, s.hi);
                    let finished = {
                        let mut parts = slots[s.block].lock().expect("a fleet worker panicked");
                        parts[s.part] = Some(results);
                        parts
                            .iter()
                            .all(Option::is_some)
                            .then(|| std::mem::take(&mut *parts))
                    };
                    if let Some(parts) = finished {
                        let mut parts = parts.into_iter().flatten();
                        let mut block = parts.next().expect("a block has at least one slice");
                        for part in parts {
                            block.extend(part);
                        }
                        out.push((s.block, fold(s.block, block)));
                    }
                }
                out
            }));
        }
        for h in handles {
            tagged.extend(h.join().expect("fleet worker panicked"));
        }
    });
    tagged.sort_by_key(|&(block, _)| block);
    (tagged.into_iter().map(|(_, r)| r).collect(), threads)
}

/// Materialises every device's result in device order from a caller-held
/// [`FirmwareStore`].  Also returns the threads spawned.
pub(crate) fn simulate_devices_in(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
) -> (Vec<DeviceResult>, usize) {
    let (blocks, threads) = collect_blocks_in(scenario, workers, store, |_, results| results);
    let mut devices = Vec::with_capacity(scenario.devices);
    for block in blocks {
        devices.extend(block);
    }
    (devices, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TimeMode;

    /// A mostly-silent stepped fleet drawn from the **full** catalogue,
    /// which contains apps whose boot path samples the seeded sensors —
    /// the configs the silent-device outcome cache must refuse.
    fn sensorful() -> FleetScenario {
        FleetScenario {
            name: "refusal-probe".to_string(),
            devices: 64,
            events_per_device: 4,
            silent_permille: 900,
            time_mode: TimeMode::Stepped,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn sensor_sampling_probes_are_refused_and_silent_devices_stay_exact() {
        let scenario = sensorful();
        let store = FirmwareStore::for_scenario(&scenario);
        let mut worker = Worker::new(&scenario, &store);
        let results = worker.run_block(0, scenario.devices);
        assert_eq!(results.len(), scenario.devices);

        // The refusal path must actually be recorded: at least one config's
        // probe performed sensor reads, so its cache entry is `None`.
        let refused: Vec<String> = worker
            .silent_cache
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| k.clone())
            .collect();
        assert!(
            !refused.is_empty(),
            "a full-catalogue fleet must hit at least one sensor-sampling probe"
        );

        // A refusal is a promise of individual simulation, never a wrong
        // reuse: every silent device of a refused config must match a
        // fresh single-device oracle bit for bit, and the probe's grounds
        // (sensor draws > 0) must hold.
        let ctx = ConfigContext::new();
        let mut checked = 0;
        for (index, block_result) in results.iter().enumerate() {
            let cfg = scenario.device_config_in(&ctx, index);
            let key = cfg.firmware_key();
            if !cfg.silent || !refused.contains(&key) {
                continue;
            }
            let mut os = boot_runtime(&store, &key, &cfg);
            let oracle = simulate_device(&scenario, &cfg, &mut os, &[]);
            assert!(
                oracle.sensor_draws > 0,
                "config {key} was refused, so its silent run must draw sensors"
            );
            assert_eq!(*block_result, oracle.result, "device {index}");
            checked += 1;
        }
        assert!(
            checked > 0,
            "the fleet must contain a silent device of a refused config"
        );
    }

    #[test]
    fn claim_slices_tile_every_block_in_order() {
        for devices in [1, 250, 1023, 1024, 1025, 5000, 50_000] {
            for workers in [1, 2, 3, 8] {
                let slices = claim_slices(devices, workers);
                let blocks = devices.div_ceil(BLOCK_SIZE);
                let mut next = 0;
                for (i, s) in slices.iter().enumerate() {
                    let block_lo = s.block * BLOCK_SIZE;
                    let block_hi = (block_lo + BLOCK_SIZE).min(devices);
                    assert_eq!(s.lo, next, "{devices}/{workers}: gap or overlap at {i}");
                    assert!(s.lo < s.hi, "{devices}/{workers}: empty slice {i}");
                    assert!(
                        block_lo <= s.lo && s.hi <= block_hi,
                        "{devices}/{workers}: slice {i} leaves block {}",
                        s.block
                    );
                    let first_of_block = s.lo == block_lo;
                    assert_eq!(
                        s.part == 0,
                        first_of_block,
                        "{devices}/{workers}: part order"
                    );
                    if !first_of_block {
                        assert_eq!(slices[i - 1].block, s.block);
                        assert_eq!(slices[i - 1].part + 1, s.part);
                    }
                    next = s.hi;
                }
                assert_eq!(next, devices, "{devices}/{workers}: every index covered");
                assert!(
                    slices.len() >= workers.min(devices),
                    "{devices}/{workers}: every worker can claim a slice"
                );
                if workers == 1 || blocks >= SLICES_PER_WORKER * workers {
                    assert_eq!(slices.len(), blocks, "{devices}/{workers}: whole blocks");
                }
            }
        }
    }

    #[test]
    fn subscription_only_probes_are_accepted() {
        // The scaling preset's window is chosen so silent runs are
        // provably sensor-free — every probe's proof must hold.
        let scenario = FleetScenario::scaling(64);
        let store = FirmwareStore::for_scenario(&scenario);
        let mut worker = Worker::new(&scenario, &store);
        worker.run_block(0, scenario.devices);
        assert!(!worker.silent_cache.is_empty(), "probes ran");
        assert!(
            worker.silent_cache.values().all(|v| v.is_some()),
            "no subscription-only config may be refused"
        );
    }
}

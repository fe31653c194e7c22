//! The fleet's one runner: a partition of the device indices by firmware
//! configuration (DESIGN.md §4).
//!
//! Devices never exchange events and each keeps its virtual clock inside
//! its own replay, so their run order cannot show in any result; the
//! runner picks the cheapest order, in both time modes:
//!
//! - **Fold grid and claim grid.**  Fixed [`BLOCK_SIZE`] index blocks are
//!   folded whole and merged **in block order**.  The grid never depends
//!   on the worker count, because a block's f64 partial sums must
//!   associate identically for any worker count.  Workers claim slices of
//!   the blocks ([`claim_slices`]) from one shared counter
//!   ([`claim_loop`]), so a fleet smaller than one block still spreads
//!   over every worker; whoever lands a block's last slice folds it.
//! - **Config partition.**  A slice groups its devices by firmware
//!   config ([`ConfigKey`], platform first) and runs the groups in key
//!   order, each group's members in index order.
//! - **One runtime per worker.**  Each worker keeps one [`AmuletOs`] and
//!   loads each group's image into it with [`AmuletOs::reload`], which
//!   keeps the device memory, the bus and its attribute-table memo, and
//!   rebuilds the runtime only when the platform changes — about once
//!   per platform per slice, since keys sort by platform.  Devices of a
//!   group run on it back to back through [`AmuletOs::reset`].
//! - **Silent-device outcome cache.**  A device with an empty trace
//!   ([`FleetScenario::silent_permille`]) still boots and flushes, but if
//!   its two-leg run performs **zero sensor-model reads** (every
//!   sensor-backed syscall advances the tick counter) its outcome cannot
//!   depend on its `sensor_seed`.  The first silent device of a config is
//!   the probe; when the proof holds, later silent devices of that config
//!   are folded from its shared outcome with their own index, and when it
//!   fails they are simulated individually — slower, never wrong.
//! - **Shared firmware.**  Each configuration's image comes once from the
//!   [`FirmwareStore`] and runtimes share it by reference.
//!
//! Past a slice's two result vectors, a silent hit allocates nothing: its
//! config shares the worker context's platform and apps, the grouping
//! sorts compact keys in a buffer kept across slices, and the block fold
//! reads the template by reference (`tests/alloc_budget.rs` pins this).

use crate::run::{boot_runtime, device_trace, runtime_options, simulate_device, DeviceResult};
use crate::scenario::{ConfigContext, ConfigKey, DeviceConfig, FleetScenario};
use crate::store::FirmwareStore;
use amulet_os::os::{AmuletOs, OsCheckpoint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Devices per fold block.  Fixed — never derived from the worker count —
/// so the fold grid, and with it the association of every per-block f64
/// partial, is identical no matter how many workers run the fleet.
const BLOCK_SIZE: usize = 1024;

/// Claim slices the runner aims to give each worker.  More slices than
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

/// One device's outcome as its slice hands it to the block fold.  The
/// result is shared with the silent cache when the device was a config's
/// probe or a silent hit — and then carries the probe's index, so the
/// device's own index travels beside it.
pub(crate) struct Outcome {
    pub(crate) index: usize,
    pub(crate) result: Arc<DeviceResult>,
}

impl Outcome {
    /// The device's own result (cloned out of the cache when shared).
    pub(crate) fn into_result(self) -> DeviceResult {
        let mut result = Arc::unwrap_or_clone(self.result);
        result.index = self.index;
        result
    }
}

/// Per-worker state that persists across the slices a worker claims.
struct Worker<'a> {
    scenario: &'a FleetScenario,
    store: &'a FirmwareStore,
    ctx: ConfigContext,
    /// The worker's one runtime, tagged with the config whose image it
    /// holds; each other config's image is loaded into it with
    /// [`AmuletOs::reload`].
    runtime: Option<(ConfigKey, AmuletOs)>,
    /// The runtime's checkpoint after boot and probe, its buffers kept
    /// across devices.
    checkpoint: OsCheckpoint,
    /// Silent-device outcome cache: `Some(template)` when the draw-free
    /// proof held for this config's probe, `None` when it did not and
    /// silent devices must be simulated individually.
    silent_cache: HashMap<ConfigKey, Option<Arc<DeviceResult>>>,
    /// A slice's configs and their run order (key, then offset), kept
    /// across slices so that grouping allocates nothing per device.
    configs: Vec<DeviceConfig>,
    order: Vec<(ConfigKey, usize)>,
}

impl<'a> Worker<'a> {
    fn new(scenario: &'a FleetScenario, store: &'a FirmwareStore) -> Self {
        Worker {
            scenario,
            store,
            ctx: ConfigContext::new(),
            runtime: None,
            checkpoint: OsCheckpoint::default(),
            silent_cache: HashMap::new(),
            configs: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The worker's `runtime` with `cfg`'s image loaded; the image comes
    /// from `store` (its string key formatted) only when the loaded
    /// config changes.
    fn runtime_for<'r>(
        runtime: &'r mut Option<(ConfigKey, AmuletOs)>,
        store: &FirmwareStore,
        cfg: &DeviceConfig,
    ) -> &'r mut AmuletOs {
        match runtime {
            Some((key, _)) if *key == cfg.key => {}
            Some((key, os)) => {
                os.reload(
                    store.get_or_build(&cfg.firmware_key(), cfg),
                    runtime_options(cfg),
                );
                *key = cfg.key;
            }
            None => {
                let os = boot_runtime(store, &cfg.firmware_key(), cfg);
                *runtime = Some((cfg.key, os));
            }
        }
        &mut runtime.as_mut().expect("runtime just loaded").1
    }

    /// Simulates device `cfg`: from the silent cache when its config's
    /// probe proved the outcome seed-free, otherwise on the worker's
    /// runtime — recording the first silent device of a config as its
    /// probe.
    fn run_device(&mut self, cfg: &DeviceConfig) -> Outcome {
        // Only trivially-silent devices are cache-eligible: the cache is
        // keyed by firmware config, and armed or OTA-swept devices can
        // differ (fault kind, OTA seed) while sharing an image.
        let cacheable = cfg.silent_cacheable();
        let index = cfg.index;
        if cacheable {
            if let Some(Some(template)) = self.silent_cache.get(&cfg.key) {
                let result = Arc::clone(template);
                return Outcome { index, result };
            }
        }
        let scenario = self.scenario;
        let trace = device_trace(scenario, cfg);
        let os = Self::runtime_for(&mut self.runtime, self.store, cfg);
        let sim = simulate_device(scenario, cfg, os, &mut self.checkpoint, &trace);
        let result = Arc::new(sim.result);
        if cacheable && !self.silent_cache.contains_key(&cfg.key) {
            let template = (sim.sensor_draws == 0).then(|| Arc::clone(&result));
            self.silent_cache.insert(cfg.key, template);
        }
        Outcome { index, result }
    }

    /// Runs device indices `lo..hi` — grouped by firmware config, the
    /// groups in key order, each group's members in index order — and
    /// returns their outcomes in index order.
    fn run_block(&mut self, lo: usize, hi: usize) -> Vec<Outcome> {
        let mut configs = std::mem::take(&mut self.configs);
        let mut order = std::mem::take(&mut self.order);
        configs.clear();
        configs.extend((lo..hi).map(|index| self.scenario.device_config_in(&self.ctx, index)));
        order.clear();
        order.extend(
            configs
                .iter()
                .enumerate()
                .map(|(offset, cfg)| (cfg.key, offset)),
        );
        order.sort_unstable();
        let mut outcomes: Vec<Option<Outcome>> = (lo..hi).map(|_| None).collect();
        for &(_, offset) in &order {
            outcomes[offset] = Some(self.run_device(&configs[offset]));
        }
        self.configs = configs;
        self.order = order;
        outcomes
            .into_iter()
            .map(|o| o.expect("every device of the slice ran"))
            .collect()
    }
}

/// The fleet's one parallel shape: runs `work` over the claims
/// `0..claims` on up to `workers` scoped threads, each drawing its next
/// claim from one shared atomic counter and keeping its own `state()`
/// across the claims it draws.  Returns every output `work` produced, in
/// claim order whichever thread ran it, and the number of threads
/// spawned.
pub(crate) fn claim_loop<S, R, I, W>(
    claims: usize,
    workers: usize,
    state: I,
    work: W,
) -> (Vec<R>, usize)
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> Option<R> + Sync,
{
    let threads = workers.max(1).min(claims.max(1));
    // The counter only hands out claims; results travel through mutexes
    // and the join handles, so `Relaxed` publishes nothing it must order.
    let next = AtomicUsize::new(0);
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let (state, work, next) = (&state, &work, &next);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut s = state();
                    let mut out = Vec::new();
                    loop {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        if claim >= claims {
                            return out;
                        }
                        out.extend(work(&mut s, claim).map(|r| (claim, r)));
                    }
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("fleet worker panicked"));
        }
    });
    out.sort_unstable_by_key(|&(claim, _)| claim);
    (out.into_iter().map(|(_, r)| r).collect(), threads)
}

/// Runs the scenario across `workers` threads claiming slices of the
/// claim grid, and folds each block through `fold` on the worker that
/// finished the block's last slice; the folded values are returned **in
/// block order** regardless of which worker ran which slice.  `fold`
/// receives the whole block's outcomes sorted by device index.  Also
/// returns the number of threads spawned.
pub(crate) fn collect_blocks_in<R, F>(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
    fold: F,
) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(Vec<Outcome>) -> R + Sync,
{
    let slices = claim_slices(scenario.devices, workers);
    let blocks = scenario.devices.div_ceil(BLOCK_SIZE);
    // Each block's slot holds its finished slices until the last one
    // lands; claims run block-major, so only blocks in flight hold any.
    let mut slots: Vec<Mutex<Vec<Option<Vec<Outcome>>>>> =
        (0..blocks).map(|_| Mutex::new(Vec::new())).collect();
    for s in &slices {
        slots[s.block]
            .get_mut()
            .expect("no thread has run yet")
            .push(None);
    }
    // Claims run block-major, so the claim that folds a block puts the
    // folded blocks in block order.
    claim_loop(
        slices.len(),
        workers,
        || Worker::new(scenario, store),
        |worker, claim| {
            let s = &slices[claim];
            let outcomes = worker.run_block(s.lo, s.hi);
            let parts = {
                let mut parts = slots[s.block].lock().expect("a fleet worker panicked");
                parts[s.part] = Some(outcomes);
                parts
                    .iter()
                    .all(Option::is_some)
                    .then(|| std::mem::take(&mut *parts))
            }?;
            Some(fold(parts.into_iter().flatten().flatten().collect()))
        },
    )
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
        let results: Vec<DeviceResult> = worker
            .run_block(0, scenario.devices)
            .into_iter()
            .map(Outcome::into_result)
            .collect();
        assert_eq!(results.len(), scenario.devices);

        // The refusal path must actually be recorded: at least one config's
        // probe performed sensor reads, so its cache entry is `None`.
        let refused: Vec<ConfigKey> = worker
            .silent_cache
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| *k)
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
            if !cfg.silent || !refused.contains(&cfg.key) {
                continue;
            }
            let mut os = boot_runtime(&store, &key, &cfg);
            let oracle =
                simulate_device(&scenario, &cfg, &mut os, &mut OsCheckpoint::default(), &[]);
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

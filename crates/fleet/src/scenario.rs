//! Fleet scenarios: the seeded description of *what* a fleet run simulates.
//!
//! A [`FleetScenario`] is a compact, copyable recipe; every per-device
//! decision (platform profile, isolation method, app mix, event-arrival
//! trace, sensor seed) is derived deterministically from the scenario seed
//! and the device index.  Two runs of the same scenario — on any number of
//! worker threads, on any machine — therefore simulate byte-identical
//! devices.

use crate::partition::claim_loop;
use amulet_apps::catalog::CatalogApp;
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use amulet_core::platform::builtin_platforms;
use amulet_os::events::DeliveryPolicy;
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, OnceLock};

/// How the fleet runner treats the trace's arrival timestamps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimeMode {
    /// Deliver events in arrival order with no notion of wall-clock time —
    /// the original fleet mode.  Reports carry active-cycle energy only
    /// and are byte-identical to what this mode has always produced.
    #[default]
    ArrivalOrder,
    /// Drive a virtual clock from the trace's `at_ms` stamps: the clock
    /// advances by executed-cycle time while handlers run and jumps across
    /// inter-event idle gaps, which are charged at the platform's LPM
    /// (sleep) current.  Events that arrive while the device is busy (or
    /// that the batching policy defers) accrue measured delivery latency.
    /// The delivered schedule is identical to [`TimeMode::ArrivalOrder`] —
    /// stepping adds time/energy accounting on top, so active cycles,
    /// events and faults match the arrival-order run exactly.
    Stepped,
}

impl TimeMode {
    /// Stable lowercase label (used in reports and CLI arguments).
    pub fn label(&self) -> &'static str {
        match self {
            TimeMode::ArrivalOrder => "arrival-order",
            TimeMode::Stepped => "stepped",
        }
    }
}

/// A seeded fleet-simulation recipe.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetScenario {
    /// Scenario name (recorded in reports).
    pub name: String,
    /// Master seed every per-device decision is derived from.
    pub seed: u64,
    /// Number of simulated devices.
    pub devices: usize,
    /// Events in each device's arrival trace.
    pub events_per_device: usize,
    /// Largest app mix a device may carry (1..=this many catalogue apps).
    pub max_apps_per_device: usize,
    /// `max_batch` of the batched-delivery leg.
    pub max_batch: usize,
    /// `max_latency_events` of the batched-delivery leg.
    pub max_latency_events: usize,
    /// How trace timestamps are treated (see [`TimeMode`]).
    pub time_mode: TimeMode,
    /// Overrides every platform's LPM (sleep) current, in nanoamperes,
    /// for [`TimeMode::Stepped`] runs.  `None` uses each platform's own
    /// datasheet figure; `Some(0)` makes idling free, which must — and
    /// the test suite asserts does — reproduce the arrival-order energy
    /// numbers exactly.
    pub lpm_current_override_na: Option<u32>,
    /// Per-mille of devices whose trace is empty for the whole campaign
    /// (no sensor wore, no subscription fired): a realistic fleet is
    /// mostly idle.  Silent devices still boot, arm their timers and
    /// subscriptions, and pay the final batch flush — they are simulated,
    /// not skipped — but the fleet runner can serve them from a
    /// per-config outcome cache when the run provably never samples the
    /// device's seeded sensors.  `0` (the default) reproduces every
    /// historical report byte for byte.
    pub silent_permille: u16,
    /// Restricts the app-mix draw to a window `(start, len)` of the
    /// nine-app catalogue.  `None` (the default) draws from the whole
    /// catalogue and is arithmetically identical to the historical
    /// derivation; the scaling preset uses a subscription-only window so
    /// silent devices are provably sensor-free.
    pub catalog_window: Option<(usize, usize)>,
    /// Has no effect: the on-disk firmware store is gone and nothing in
    /// the workspace reads it.  It survives only because the `perfbench`
    /// replay still reads it, and will be removed with the next change to
    /// that benchmark, together with [`FleetScenario::elide_checks`] and
    /// [`FleetScenario::fuse`].  Always `None`.
    pub store_dir: Option<std::path::PathBuf>,
    /// Per-mille of devices the fault injector arms with an adversarial
    /// app: each armed device carries one extra application drawn from
    /// [`amulet_apps::adversarial::FaultKind::ALL`] (adapted to the
    /// device's isolation method) and receives one controlled probe whose
    /// verdict feeds the containment matrix.  `0` (the default) draws
    /// nothing and reproduces every historical report byte for byte.
    pub fault_permille: u16,
    /// OS step budget per delivery, so runaway handlers terminate (and
    /// classify as [`crate::faults::Verdict::Hung`]) instead of spinning
    /// to the simulator's own backstop.  `None` keeps the OS default.
    pub step_budget: Option<u64>,
    /// `base_backoff` of the watchdog restart policy (deliveries skipped
    /// after an app's first strike; doubles per strike).  Only meaningful
    /// when [`FleetScenario::watchdog_max_strikes`] is nonzero.
    pub watchdog_base_backoff: u32,
    /// Strikes before the watchdog quarantines an app.  `0` (the
    /// default) leaves the OS on its baseline kill-on-fault policy.
    pub watchdog_max_strikes: u32,
    /// Per-mille of devices swept by the OTA re-install wave.  Each
    /// swept device re-receives its own firmware image through the
    /// versioned envelope at a seeded point in the campaign; see
    /// [`crate::faults::run_ota`].  `0` disables the wave.
    pub ota_permille: u16,
    /// Per-mille chance each OTA delivery attempt suffers a seeded
    /// single-bit flip in transit.
    pub ota_corrupt_permille: u16,
    /// Retries after a corrupt OTA attempt before the device rolls back
    /// to the image it is already running.
    pub ota_max_retries: u32,
    /// Whether the harness statically verified every firmware image of
    /// the campaign before running it (`fleet_sim --verify`); rendered as
    /// `"verify": true`.  The harness reads it and the runner does not:
    /// it changes no device derivation and no build.
    pub verify: bool,
    /// Has no effect: check elision is gone and nothing in the workspace
    /// reads it.  It survives only because the `perfbench` replay still
    /// reads it, and will be removed with the next change to that
    /// benchmark, together with [`FleetScenario::fuse`].  Always `false`.
    pub elide_checks: bool,
    /// Has no effect: nothing in the workspace reads it.  It survives only
    /// because the `perfbench` replay still reads it, and will be removed
    /// with the next change to that benchmark.  Always `false`.
    pub fuse: bool,
}

impl Default for FleetScenario {
    /// The default production-scale scenario: 1000 devices drawn from every
    /// built-in platform, all four isolation methods and one-to-three-app
    /// mixes of the nine-app catalogue.
    fn default() -> Self {
        FleetScenario {
            name: "mixed-fleet".to_string(),
            seed: 0xF1EE7,
            devices: 1000,
            events_per_device: 120,
            max_apps_per_device: 3,
            max_batch: 8,
            max_latency_events: 12,
            time_mode: TimeMode::ArrivalOrder,
            lpm_current_override_na: None,
            silent_permille: 0,
            catalog_window: None,
            store_dir: None,
            fault_permille: 0,
            step_budget: None,
            watchdog_base_backoff: 0,
            watchdog_max_strikes: 0,
            ota_permille: 0,
            ota_corrupt_permille: 0,
            ota_max_retries: 3,
            verify: false,
            elide_checks: false,
            fuse: false,
        }
    }
}

/// The catalogue apps installed on one device, in install order.  A
/// clean device's mix is a run of its [`ConfigContext`]'s shared copy of
/// the catalogue, and an armed device's one of the context's armed mixes,
/// so deriving a config clones no app.  Dereferences to a slice of
/// [`CatalogApp`]s.
#[derive(Clone)]
pub struct AppMix {
    apps: Arc<[CatalogApp]>,
    range: Range<usize>,
}

impl std::fmt::Debug for AppMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Deref for AppMix {
    type Target = [CatalogApp];

    fn deref(&self) -> &[CatalogApp] {
        &self.apps[self.range.clone()]
    }
}

impl<'a> IntoIterator for &'a AppMix {
    type Item = &'a CatalogApp;
    type IntoIter = std::slice::Iter<'a, CatalogApp>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Most apps a [`ConfigKey`] can name: the whole catalogue plus one
/// adversarial app.
const MAX_KEY_APPS: usize = 12;

/// Filler of a [`ConfigKey`]'s unused app positions.
const NO_APP: u8 = u8::MAX;

/// A compact, copyable identity of a device's firmware image: equal
/// exactly when [`DeviceConfig::firmware_key`] is, and ordered by
/// platform first, so a runner that walks configs in key order meets each
/// platform in one run.  The platform and the apps are indices into the
/// [`ConfigContext`] tables (adversarial apps after the catalogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ConfigKey {
    platform: u8,
    method: u8,
    apps: [u8; MAX_KEY_APPS],
}

/// The fully-resolved configuration of one simulated device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device index within the fleet.
    pub index: usize,
    /// Hardware platform profile, shared with the [`ConfigContext`].
    pub platform: Arc<PlatformSpec>,
    /// Isolation method the firmware is built for.
    pub method: IsolationMethod,
    /// The catalogue apps installed on this device.
    pub apps: AppMix,
    /// Seed of the device's event-arrival trace.
    pub trace_seed: u64,
    /// Seed of the device's synthetic sensors.
    pub sensor_seed: u32,
    /// Whether this device's campaign trace is empty (see
    /// [`FleetScenario::silent_permille`]).
    pub silent: bool,
    /// The attack the fault injector armed on this device, already
    /// adapted to the device's isolation method (`None` on clean
    /// devices).  Armed devices carry the attack's adversarial app as
    /// their last installed application.
    pub fault: Option<amulet_apps::FaultKind>,
    /// Seed of this device's OTA re-install transaction, when the OTA
    /// wave sweeps it (see [`FleetScenario::ota_permille`]).
    pub ota_seed: Option<u64>,
    /// The compact form of [`DeviceConfig::firmware_key`].
    pub(crate) key: ConfigKey,
}

impl DeviceConfig {
    /// A key identifying the firmware image this device needs; devices
    /// sharing a key share one AFT build (the fleet runner's cache).
    pub fn firmware_key(&self) -> String {
        let apps: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
        format!("{}|{}|{}", self.platform.name, self.method, apps.join("+"))
    }

    /// Whether the fleet runner may serve this device from the
    /// per-config silent-outcome cache.  The cache is keyed by firmware
    /// key, and two armed devices sharing an image can still differ in
    /// fault kind (every wild write is one app) or OTA seed — so faulted
    /// and swept devices are always simulated individually.
    pub fn silent_cacheable(&self) -> bool {
        self.silent && self.fault.is_none() && self.ota_seed.is_none()
    }
}

/// Pre-resolved immutable inputs to [`FleetScenario::device_config`]: the
/// platform list and the app catalogue both allocate on every call, which
/// is invisible at 10³ devices and dominant at 10⁶.  Build one context per
/// worker and derive through [`FleetScenario::device_config_in`]: the
/// configs it derives share the context's platforms and apps instead of
/// cloning them.
#[derive(Debug)]
pub struct ConfigContext {
    platforms: Vec<Arc<PlatformSpec>>,
    catalog: Vec<CatalogApp>,
    /// Each catalogue window's apps laid out twice in a row, built on first
    /// use and indexed by [`ConfigContext::window_slot`]: a mix — a run of
    /// consecutive window apps that may wrap around — is one contiguous
    /// range of its window's ring.
    rings: Vec<OnceLock<Arc<[CatalogApp]>>>,
    /// The adversarial apps, and the one each [`amulet_apps::FaultKind`]
    /// installs (by position in [`amulet_apps::FaultKind::ALL`]).
    adversarial: Vec<CatalogApp>,
    fault_app: Vec<usize>,
    /// Each armed mix met so far — a window run with an adversarial app
    /// after it — so an armed device clones no app either once its mix
    /// was met.
    armed: Mutex<HashMap<ArmedMix, Arc<[CatalogApp]>>>,
}

/// One device's draws: what its [`DeviceConfig`] holds, as plain values,
/// before its platform and apps are taken from a [`ConfigContext`].
struct Draw {
    index: usize,
    /// Position in the context's platforms.
    platform: usize,
    method: IsolationMethod,
    /// The app mix as `(window start, window length, first, count)`.
    mix: (usize, usize, usize, usize),
    /// An armed device's adversarial app, by position in the context's
    /// adversarial apps.
    adversarial: Option<usize>,
    trace_seed: u64,
    sensor_seed: u32,
    silent: bool,
    fault: Option<amulet_apps::FaultKind>,
    ota_seed: Option<u64>,
    key: ConfigKey,
}

/// An armed mix's identity: `(ring slot, first, count, adversarial app)`.
type ArmedMix = (usize, usize, usize, usize);

impl ConfigContext {
    /// Resolves the built-in platforms and the app catalogue once.
    pub fn new() -> Self {
        let catalog = amulet_apps::catalog();
        let adversarial = amulet_apps::adversarial_catalog();
        assert!(
            catalog.len() < MAX_KEY_APPS && catalog.len() + adversarial.len() < usize::from(NO_APP),
            "the catalogue outgrew the config key"
        );
        let fault_app = amulet_apps::FaultKind::ALL
            .iter()
            .map(|kind| {
                let name = kind.app().name;
                adversarial
                    .iter()
                    .position(|a| a.name == name)
                    .expect("every fault kind installs an adversarial catalogue app")
            })
            .collect();
        ConfigContext {
            platforms: builtin_platforms().into_iter().map(Arc::new).collect(),
            rings: (0..Self::window_slot(catalog.len(), catalog.len(), 0) + 1)
                .map(|_| OnceLock::new())
                .collect(),
            catalog,
            adversarial,
            fault_app,
            armed: Mutex::default(),
        }
    }

    /// The slot of window `(start, len)` in `rings`, for a catalogue of
    /// `apps` apps.
    fn window_slot(apps: usize, start: usize, len: usize) -> usize {
        start * (apps + 1) + len
    }

    /// The `count` apps of window `(start, len)` from its `first`-th app
    /// on, wrapping around the window.
    fn window_mix(&self, start: usize, len: usize, first: usize, count: usize) -> AppMix {
        let ring =
            self.rings[Self::window_slot(self.catalog.len(), start, len)].get_or_init(|| {
                (0..2 * len)
                    .map(|k| self.catalog[start + k % len].clone())
                    .collect()
            });
        AppMix {
            apps: Arc::clone(ring),
            range: first..first + count,
        }
    }

    /// [`ConfigContext::window_mix`] followed by adversarial app
    /// `adversarial`.
    fn armed_mix(
        &self,
        (start, len, first, count): (usize, usize, usize, usize),
        adversarial: usize,
    ) -> AppMix {
        let slot = Self::window_slot(self.catalog.len(), start, len);
        let mut armed = self.armed.lock().expect("config context poisoned");
        let apps = armed
            .entry((slot, first, count, adversarial))
            .or_insert_with(|| {
                let window = self.window_mix(start, len, first, count);
                window
                    .iter()
                    .chain([&self.adversarial[adversarial]])
                    .cloned()
                    .collect()
            });
        AppMix {
            apps: Arc::clone(apps),
            range: 0..count + 1,
        }
    }
}

impl Default for ConfigContext {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64: a tiny deterministic seed mixer (reference constants), used
/// so consecutive device indices decorrelate fully.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FleetScenario {
    /// The batched delivery policy this scenario's batched leg uses.
    pub fn batched_policy(&self) -> DeliveryPolicy {
        DeliveryPolicy::Batched {
            max_batch: self.max_batch.max(1),
            max_latency_events: self.max_latency_events.max(1),
        }
    }

    /// Derives the configuration of device `index` — a pure function of
    /// `(self.seed, index)`.
    pub fn device_config(&self, index: usize) -> DeviceConfig {
        self.device_config_in(&ConfigContext::new(), index)
    }

    /// [`FleetScenario::device_config`] against a pre-built
    /// [`ConfigContext`] — identical output, none of the per-call
    /// catalogue/platform allocation.
    pub fn device_config_in(&self, ctx: &ConfigContext, index: usize) -> DeviceConfig {
        Self::config_of(ctx, self.draw(ctx, index))
    }

    /// Device `index`'s draws.  Reads only `ctx`'s fixed tables (their
    /// sizes and the fault-kind map), never its shared mixes.
    fn draw(&self, ctx: &ConfigContext, index: usize) -> Draw {
        let mut state = self.seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let platform = (splitmix64(&mut state) % ctx.platforms.len() as u64) as usize;
        let method_index = (splitmix64(&mut state) % IsolationMethod::ALL.len() as u64) as usize;
        let method = IsolationMethod::ALL[method_index];
        let catalog = &ctx.catalog;
        let mix = 1 + (splitmix64(&mut state) % self.max_apps_per_device.max(1) as u64) as usize;
        // The window draw: with no window, `(wstart, wlen)` spans the whole
        // catalogue and the arithmetic below reduces to the historical
        // full-catalogue derivation bit for bit.
        let (wstart, wlen) = match self.catalog_window {
            Some((s, l)) => {
                let s = s.min(catalog.len().saturating_sub(1));
                (s, l.clamp(1, catalog.len() - s))
            }
            None => (0, catalog.len()),
        };
        let start = (splitmix64(&mut state) % wlen as u64) as usize;
        let count = mix.min(wlen);
        let mut key = ConfigKey {
            platform: platform as u8,
            method: method_index as u8,
            apps: [NO_APP; MAX_KEY_APPS],
        };
        for (k, slot) in key.apps.iter_mut().take(count).enumerate() {
            *slot = (wstart + (start + k) % wlen) as u8;
        }
        let trace_seed = splitmix64(&mut state);
        let sensor_seed = splitmix64(&mut state) as u32;
        // Appended draw: scenarios with `silent_permille == 0` consume the
        // same draws as they always did.
        let silent =
            self.silent_permille > 0 && splitmix64(&mut state) % 1000 < self.silent_permille as u64;
        // Further appended draws, same contract: each knob consumes draws
        // only when armed, so zero-knob scenarios stay bit-identical to
        // every historical report.
        let fault = if self.fault_permille > 0
            && splitmix64(&mut state) % 1000 < u64::from(self.fault_permille)
        {
            let kind = amulet_apps::FaultKind::ALL
                [(splitmix64(&mut state) % amulet_apps::FaultKind::ALL.len() as u64) as usize];
            Some(kind.adapted_for(method))
        } else {
            None
        };
        let ota_seed = if self.ota_permille > 0
            && splitmix64(&mut state) % 1000 < u64::from(self.ota_permille)
        {
            Some(splitmix64(&mut state))
        } else {
            None
        };
        // The adversarial app rides last, so `apps[0]` is always a normal
        // neighbour for the wild-write-neighbor target.
        let adversarial = fault.map(|kind| {
            let kind_index = amulet_apps::FaultKind::ALL
                .iter()
                .position(|k| *k == kind)
                .expect("every fault kind is listed");
            let adversarial = ctx.fault_app[kind_index];
            key.apps[count] = (catalog.len() + adversarial) as u8;
            adversarial
        });
        Draw {
            index,
            platform,
            method,
            mix: (wstart, wlen, start, count),
            adversarial,
            trace_seed,
            sensor_seed,
            silent,
            fault,
            ota_seed,
            key,
        }
    }

    /// The device configuration `draw` describes, its platform and apps
    /// shared with `ctx`.
    fn config_of(ctx: &ConfigContext, draw: Draw) -> DeviceConfig {
        let (wstart, wlen, start, count) = draw.mix;
        let apps = match draw.adversarial {
            None => ctx.window_mix(wstart, wlen, start, count),
            Some(adversarial) => ctx.armed_mix(draw.mix, adversarial),
        };
        DeviceConfig {
            index: draw.index,
            platform: Arc::clone(&ctx.platforms[draw.platform]),
            method: draw.method,
            apps,
            trace_seed: draw.trace_seed,
            sensor_seed: draw.sensor_seed,
            silent: draw.silent,
            fault: draw.fault,
            ota_seed: draw.ota_seed,
            key: draw.key,
        }
    }

    /// Each distinct firmware configuration of the fleet, keyed by its
    /// firmware key, in the order the device walk first meets it: the
    /// kept config is its key's lowest-index device.  Deduplicates on the
    /// compact copyable key of each device's draws, so only the kept
    /// configs are made and the `String` key is formatted once per
    /// distinct config rather than once per device.  The harness's static
    /// verification reports images in this order, and its `firmware_lint`
    /// golden fixture pins it.
    ///
    /// The walk is split over `threads` threads: each draws its own
    /// contiguous range of device indices and keeps each key's first
    /// device in the range, and the ranges merge in index order, keeping
    /// a key only where it first appears.  A key's first device overall
    /// is its first device in the first range that holds it, so the
    /// result is the serial walk's for any thread count.  The threads
    /// only read the one [`ConfigContext`]; the kept configs are made from
    /// it after the merge.
    pub fn distinct_configs_by_first_use(&self, threads: usize) -> Vec<(String, DeviceConfig)> {
        let threads = threads.clamp(1, self.devices.max(1));
        let per_range = self.devices.div_ceil(threads);
        let ctx = ConfigContext::new();
        let (ranges, _) = claim_loop(
            threads,
            threads,
            || (),
            |_, range| {
                let end = ((range + 1) * per_range).min(self.devices);
                let mut seen = HashSet::new();
                let firsts: Vec<Draw> = (range * per_range..end)
                    .map(|index| self.draw(&ctx, index))
                    .filter(|draw| seen.insert(draw.key))
                    .collect();
                Some(firsts)
            },
        );
        let mut seen = HashSet::new();
        ranges
            .into_iter()
            .flatten()
            .filter(|draw| seen.insert(draw.key))
            .map(|draw| {
                let cfg = Self::config_of(&ctx, draw);
                (cfg.firmware_key(), cfg)
            })
            .collect()
    }

    /// The watchdog restart policy this scenario configures, when its
    /// [`FleetScenario::watchdog_max_strikes`] knob is armed.  The jitter
    /// seed derives from the scenario seed, so backoff schedules are a
    /// pure function of the scenario.
    pub fn watchdog_policy(&self) -> Option<amulet_os::policy::RestartPolicy> {
        if self.watchdog_max_strikes == 0 {
            return None;
        }
        Some(amulet_os::policy::RestartPolicy::RestartWithBackoff {
            base_backoff: self.watchdog_base_backoff.max(1),
            max_strikes: self.watchdog_max_strikes,
            jitter_seed: self.seed ^ 0xBAC0_FF5E,
        })
    }

    /// Number of trace events device `cfg` replays: zero for silent
    /// devices, the scenario's `events_per_device` otherwise.
    pub fn events_for(&self, cfg: &DeviceConfig) -> usize {
        if cfg.silent {
            0
        } else {
            self.events_per_device
        }
    }

    /// The large-N scaling-campaign preset behind the committed
    /// `BENCH_fleet.json`, the benchmark's `scaling` workload and the CI
    /// 10⁴-device smoke: a mostly-silent stepped
    /// fleet (80 % of devices never see an event) drawn from the
    /// subscription-only window of the catalogue — FallDetection, HR,
    /// HRLog, Pedometer — whose `main` handlers only subscribe, so a
    /// silent device's whole run provably never touches the seeded
    /// sensors and the fleet runner may reuse one simulated
    /// outcome per firmware config.
    pub fn scaling(devices: usize) -> Self {
        FleetScenario {
            name: "scaling-campaign".to_string(),
            seed: 0x5CA1E,
            devices,
            events_per_device: 6,
            time_mode: TimeMode::Stepped,
            silent_permille: 800,
            catalog_window: Some((2, 4)),
            ..FleetScenario::default()
        }
    }

    /// The fault-injection storm preset behind the tracked containment
    /// matrix and the CI fault campaign: 40 % of devices armed with a
    /// seeded attack, 25 % swept by an OTA wave whose deliveries corrupt
    /// 20 % of the time, a pinned step budget so runaway verdicts are
    /// reproducible, and the watchdog restart-with-backoff policy so
    /// repeat offenders end the run quarantined rather than respawning
    /// forever.
    pub fn storm(devices: usize) -> Self {
        FleetScenario {
            name: "fault-storm".to_string(),
            seed: 0x57_0421,
            devices,
            events_per_device: 6,
            time_mode: TimeMode::Stepped,
            fault_permille: 400,
            step_budget: Some(20_000),
            watchdog_base_backoff: 2,
            watchdog_max_strikes: 3,
            ota_permille: 250,
            ota_corrupt_permille: 200,
            ota_max_retries: 3,
            ..FleetScenario::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_configs_are_deterministic_functions_of_seed_and_index() {
        let s = FleetScenario::default();
        for i in [0, 1, 17, 999] {
            let a = s.device_config(i);
            let b = s.device_config(i);
            assert_eq!(a.firmware_key(), b.firmware_key());
            assert_eq!(a.trace_seed, b.trace_seed);
            assert_eq!(a.sensor_seed, b.sensor_seed);
        }
        let other = FleetScenario {
            seed: 99,
            ..FleetScenario::default()
        };
        let same =
            (0..50).all(|i| s.device_config(i).trace_seed == other.device_config(i).trace_seed);
        assert!(!same, "different seeds must give different fleets");
    }

    #[test]
    fn the_fleet_spans_platforms_methods_and_mix_sizes() {
        let s = FleetScenario::default();
        let configs: Vec<_> = (0..200).map(|i| s.device_config(i)).collect();
        let platforms: std::collections::BTreeSet<_> =
            configs.iter().map(|c| c.platform.name.clone()).collect();
        let methods: std::collections::BTreeSet<_> =
            configs.iter().map(|c| c.method.label()).collect();
        let sizes: std::collections::BTreeSet<_> = configs.iter().map(|c| c.apps.len()).collect();
        assert_eq!(platforms.len(), 5, "all five built-in platforms appear");
        assert_eq!(methods.len(), 4);
        assert_eq!(sizes, [1, 2, 3].into_iter().collect());
    }

    #[test]
    fn window_and_silent_knobs_leave_historical_draws_untouched() {
        let plain = FleetScenario::default();
        let knobbed = FleetScenario {
            silent_permille: 500,
            catalog_window: Some((0, 9)),
            fault_permille: 500,
            ota_permille: 500,
            watchdog_max_strikes: 3,
            step_budget: Some(20_000),
            ..FleetScenario::default()
        };
        let ctx = ConfigContext::new();
        for i in 0..200 {
            let a = plain.device_config_in(&ctx, i);
            let b = knobbed.device_config_in(&ctx, i);
            // The knobbed fleet arms faults (appending an adversarial
            // app), but every historical draw — platform, method, the
            // normal app mix, trace and sensor seeds — is untouched.
            assert_eq!(a.platform.name, b.platform.name);
            assert_eq!(a.method, b.method);
            assert_eq!(
                a.apps.iter().map(|x| x.name).collect::<Vec<_>>(),
                b.apps
                    .iter()
                    .take(a.apps.len())
                    .map(|x| x.name)
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.trace_seed, b.trace_seed);
            assert_eq!(a.sensor_seed, b.sensor_seed);
            assert!(!a.silent, "permille 0 never marks a device silent");
            assert!(a.fault.is_none() && a.ota_seed.is_none());
        }
    }

    #[test]
    fn storm_preset_arms_faults_and_ota_across_the_fleet() {
        let s = FleetScenario::storm(500);
        assert_eq!(s.time_mode, TimeMode::Stepped);
        assert!(s.watchdog_policy().is_some());
        assert!(FleetScenario::default().watchdog_policy().is_none());
        let ctx = ConfigContext::new();
        let configs: Vec<_> = (0..500).map(|i| s.device_config_in(&ctx, i)).collect();
        let armed: Vec<_> = configs.iter().filter(|c| c.fault.is_some()).collect();
        let swept = configs.iter().filter(|c| c.ota_seed.is_some()).count();
        assert!(
            (120..=280).contains(&armed.len()),
            "~40% armed, got {}/500",
            armed.len()
        );
        assert!((60..=190).contains(&swept), "~25% swept, got {swept}/500");
        let kinds: std::collections::BTreeSet<_> = armed
            .iter()
            .filter_map(|c| c.fault)
            .map(|k| k.label())
            .collect();
        assert!(
            kinds.len() >= 7,
            "the draw spans the attack kinds: {kinds:?}"
        );
        for c in &configs {
            match c.fault {
                Some(kind) => {
                    assert_eq!(kind, kind.adapted_for(c.method), "stored kind is adapted");
                    assert_eq!(
                        c.apps.last().map(|a| a.name),
                        Some(kind.app().name),
                        "adversarial app rides last"
                    );
                    assert!(!c.silent_cacheable());
                }
                None => {
                    let adversarial: Vec<_> = amulet_apps::adversarial_catalog()
                        .iter()
                        .map(|a| a.name)
                        .collect();
                    assert!(c.apps.iter().all(|a| !adversarial.contains(&a.name)));
                }
            }
            if c.ota_seed.is_some() {
                assert!(!c.silent_cacheable());
            }
        }
    }

    #[test]
    fn scaling_preset_is_mostly_silent_subscription_only() {
        let s = FleetScenario::scaling(500);
        assert_eq!(s.time_mode, TimeMode::Stepped);
        let ctx = ConfigContext::new();
        let configs: Vec<_> = (0..500).map(|i| s.device_config_in(&ctx, i)).collect();
        let silent = configs.iter().filter(|c| c.silent).count();
        assert!(
            (300..=490).contains(&silent),
            "~80% of devices silent, got {silent}/500"
        );
        let window = ["FallDetection", "HR", "HRLog", "Pedometer"];
        for c in &configs {
            for a in &c.apps {
                assert!(
                    window.contains(&a.name),
                    "app {} outside the subscription-only window",
                    a.name
                );
            }
            assert_eq!(s.events_for(c), if c.silent { 0 } else { 6 });
        }
    }

    #[test]
    fn firmware_keys_collapse_identical_builds() {
        let s = FleetScenario::default();
        let keys: std::collections::BTreeSet<_> = (0..500)
            .map(|i| s.device_config(i).firmware_key())
            .collect();
        // 5 platforms × 4 methods × (9 windows × 3 sizes) = 540 is the
        // ceiling; 500 devices drawn from it must repeat keys often
        // (expected ≈330 distinct), which is what makes caching pay.
        assert!(keys.len() < 400, "got {} distinct keys", keys.len());
    }

    #[test]
    fn distinct_configs_dedup_on_the_compact_key_is_sound() {
        use crate::store::FirmwareStore;
        use std::collections::{BTreeMap, HashMap};

        let windowed = FleetScenario {
            catalog_window: Some((1, 5)),
            fault_permille: 300,
            ..FleetScenario::default()
        };
        for s in [
            FleetScenario::default(),
            FleetScenario::scaling(300),
            FleetScenario::storm(300),
            windowed,
        ] {
            let s = FleetScenario { devices: 300, ..s };
            let ctx = ConfigContext::new();
            let mut by_key: HashMap<ConfigKey, String> = HashMap::new();
            let mut by_name: HashMap<String, ConfigKey> = HashMap::new();
            // The oracle: the firmware-key-deduplicated walk, first device kept.
            let mut oracle: BTreeMap<String, DeviceConfig> = BTreeMap::new();
            for index in 0..s.devices {
                let cfg = s.device_config_in(&ctx, index);
                let name = cfg.firmware_key();
                let known_name = by_key.entry(cfg.key).or_insert_with(|| name.clone());
                assert_eq!(
                    *known_name, name,
                    "{}: one ConfigKey, two firmware keys",
                    s.name
                );
                let known_key = by_name.entry(name.clone()).or_insert(cfg.key);
                assert_eq!(
                    *known_key, cfg.key,
                    "{}: one firmware key, two ConfigKeys",
                    s.name
                );
                oracle.entry(name).or_insert(cfg);
            }
            let pairs = |v: Vec<(String, DeviceConfig)>| -> Vec<(String, usize)> {
                v.into_iter().map(|(k, cfg)| (k, cfg.index)).collect()
            };
            let got = pairs(FirmwareStore::distinct_configs(&s));
            assert_eq!(got, pairs(oracle.into_iter().collect()), "{}", s.name);
            assert!(got.len() > 1, "{}: more than one image", s.name);
        }
    }

    #[test]
    fn the_split_walk_keeps_the_serial_walks_configs_in_its_order() {
        // The benchmark's workloads at their device counts, each at its
        // default and its held-out seed.
        let dense = FleetScenario {
            devices: 250,
            ..FleetScenario::default()
        };
        let workloads = [
            (dense, [0xF1EE7, 0xD0_0D1E]),
            (FleetScenario::scaling(50_000), [0x5CA1E, 0x5CA1_0B5E]),
            (FleetScenario::storm(5_000), [0x57_0421, 0x57_0B5E]),
        ];
        for (workload, seeds) in workloads {
            for seed in seeds {
                let s = FleetScenario {
                    seed,
                    ..workload.clone()
                };
                // The serial walk: every device in index order, each
                // firmware key kept at its first device.
                let ctx = ConfigContext::new();
                let mut seen = HashSet::new();
                let serial: Vec<(String, usize)> = (0..s.devices)
                    .map(|index| s.device_config_in(&ctx, index))
                    .map(|cfg| (cfg.firmware_key(), cfg.index))
                    .filter(|(key, _)| seen.insert(key.clone()))
                    .collect();
                for threads in [1, 2, 3, 7] {
                    let split: Vec<(String, usize)> = s
                        .distinct_configs_by_first_use(threads)
                        .into_iter()
                        .map(|(key, cfg)| (key, cfg.index))
                        .collect();
                    assert_eq!(
                        split, serial,
                        "{} seed {seed:#x}, {threads} threads",
                        s.name
                    );
                }
            }
        }
    }
}

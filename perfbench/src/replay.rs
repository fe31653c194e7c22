//! The traced replay: one worker re-runs a workload through the same
//! public calls the fleet runner makes, in the runner's order and with its
//! silent-outcome reuse rule, timing each call into a layer.
//!
//! Nothing inside the program is instrumented: every span opens and closes
//! here, around a call into a crate's public API.  The replay is only
//! trustworthy while it matches the runner, so it is checked twice: the
//! replay-fidelity test compares its per-device results with
//! `simulate_in`'s, and every traced run compares its rendered document
//! with the untraced run's.
//!
//! The firmware store exposes no hook inside its builds, so the AFT phases
//! (parse + analyse, code generation, link) are replayed beside the
//! store's own build of each image and their output is checked to encode
//! byte-identically to the stored image.  Their busy times are therefore
//! children of the `fleet.store` spans, and the compile replay's own
//! duration is left out of the traced wall time.

use amulet_aft::codegen::generate;
use amulet_aft::link::{link, AppUnit};
use amulet_aft::parser::parse;
use amulet_aft::sema::analyze;
use amulet_aft::ApiSpec;
use amulet_apps::TraceEvent;
use amulet_arp::arp::Arp;
use amulet_core::checks::CheckPolicy;
use amulet_core::energy::{BatteryModel, EnergyModel};
use amulet_core::layout::OsImageSpec;
use amulet_core::method::IsolationMethod;
use amulet_fleet::faults::{attack_payload, classify, run_ota, FaultProbe};
use amulet_fleet::stats::reduce_blocks;
use amulet_fleet::{
    BlockSummary, ConfigContext, DeviceConfig, DeviceResult, FirmwareStore, FirmwareStoreStats,
    FleetAggregate, FleetScenario, PolicyOutcome, TimeMode,
};
use amulet_mcu::firmware::Firmware;
use amulet_mcu::serial::encode_firmware;
use amulet_os::events::{DeliveryPolicy, Event, EventKind};
use amulet_os::os::{AmuletOs, OsOptions};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::time::Instant;

/// Devices per calendar block; must equal the fleet runner's block size
/// (the fidelity test runs more than one block, so a drift fails it).
const BLOCK_SIZE: usize = 1024;

/// Accumulated host time and call count of one traced layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Host nanoseconds spent inside the layer's spans.
    pub ns: u64,
    /// Spans recorded.
    pub calls: u64,
}

impl Busy {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(start);
        out
    }

    /// Closes a span opened at `start`; returns its duration.
    fn add(&mut self, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.calls += 1;
        ns
    }

    /// Busy time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// Slot of an isolation method in the per-method counters.
pub fn method_slot(method: IsolationMethod) -> usize {
    IsolationMethod::ALL
        .iter()
        .position(|m| *m == method)
        .expect("method listed in ALL")
}

/// Everything one traced replay measured.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `device_config_in` (set-up derivation and campaign planning).
    pub scenario: Busy,
    /// `FirmwareStore::get_or_build`, including the builds inside it.
    pub store: Busy,
    /// `parser::parse` + `sema::analyze`, one span per app unit.
    pub frontend: Busy,
    /// `codegen::generate`, one span per app unit.
    pub codegen: Busy,
    /// `link::link`, one span per image.
    pub link: Busy,
    /// `traces::generate`.
    pub traces: Busy,
    /// `AmuletOs::with_options_shared`.
    pub runtime: Busy,
    /// `reset` + `set_delivery_policy` + `boot`, one span per leg.
    pub boot: Busy,
    /// `post_event` / `pump_counted` / `flush_counted`, one span per leg.
    pub deliver: Busy,
    /// The fault-probe stage of each leg (`attack_payload` +
    /// `call_handler` + `classify` on armed devices).
    pub probe: Busy,
    /// The OTA stage of each device (`run_ota` on swept devices).
    pub ota: Busy,
    /// `BlockSummary::from_devices` + `reduce_blocks`.
    pub stats: Busy,
    /// `render_document`.
    pub render: Busy,
    /// Calendar blocks run.
    pub blocks: u64,
    /// Devices eligible for silent-outcome reuse.
    pub silent_devices: u64,
    /// Devices served from the silent-outcome cache.
    pub silent_reused: u64,
    /// Trace events generated.
    pub trace_events: u64,
    /// Trace events posted for delivery (both legs).
    pub posted_events: u64,
    /// Full directed switches charged (both legs).
    pub full_switches: u64,
    /// Intra-batch boundaries charged (both legs).
    pub batch_boundaries: u64,
    /// Instructions retired (boot, probe and delivery of every leg).
    pub instructions: u64,
    /// Instructions retired inside delivery spans, per method slot.
    pub deliver_instructions: [u64; 4],
    /// Delivery-span nanoseconds, per method slot.
    pub deliver_ns: [u64; 4],
    /// Bus data reads + writes.
    pub data_accesses: u64,
    /// Bus instruction-fetch permission checks.
    pub exec_checks: u64,
    /// Bus accesses denied by an MPU.
    pub denied: u64,
    /// Fault probes delivered.
    pub probes: u64,
    /// OTA delivery attempts.
    pub ota_attempts: u64,
    /// Distinct images compiled.
    pub images: u64,
    /// App units compiled.
    pub units: u64,
    /// Distinct (app, method, check policy) units.
    pub distinct_units: u64,
    /// The store's counters at the end of the replay.
    pub store_stats: FirmwareStoreStats,
    /// Bytes of the rendered document.
    pub render_bytes: u64,
    /// Host nanoseconds per simulated (not reused) device.
    pub device_ns: Vec<u64>,
    /// Host nanoseconds per replayed image compile.
    pub image_ns: Vec<u64>,
    /// Traced wall time, compile replay excluded.
    pub wall_ns: u64,
}

impl Trace {
    /// Sum of layer self times: the store's self time excludes the AFT
    /// phases, which are its children.
    pub fn layers_ns(&self) -> u64 {
        let aft = self.frontend.ns + self.codegen.ns + self.link.ns;
        [
            self.scenario.ns,
            self.store.ns.saturating_sub(aft),
            aft,
            self.traces.ns,
            self.runtime.ns,
            self.boot.ns,
            self.deliver.ns,
            self.probe.ns,
            self.ota.ns,
            self.stats.ns,
            self.render.ns,
        ]
        .iter()
        .sum()
    }
}

/// The outcome of one traced replay.
#[derive(Debug)]
pub struct Replay {
    /// Per-layer measurements.
    pub trace: Trace,
    /// The aggregate the replay folded.
    pub aggregate: FleetAggregate,
    /// The deterministic report document rendered from it.
    pub document: String,
    /// Per-device results in device order (only when asked for).
    pub devices: Vec<DeviceResult>,
}

/// Replays `scenario` on one worker: set-up through a fresh in-memory
/// store, then the calendar campaign, the block fold and the render.
pub fn replay(scenario: &FleetScenario, keep_devices: bool) -> Result<Replay, String> {
    if scenario.time_mode != TimeMode::Stepped {
        return Err("the replay models stepped campaigns only".into());
    }
    if scenario.verify || scenario.elide_checks || scenario.fuse || scenario.store_dir.is_some() {
        return Err("the replay models the shipping defaults only (no verify, elision, fusion or disk store)".into());
    }
    let start = Instant::now();
    let mut trace = Trace::default();
    let mut compile_replay_ns = 0u64;

    // Set-up: what `FirmwareStore::prewarm` does, one span per call.
    let store = FirmwareStore::for_scenario(scenario);
    let distinct = trace
        .scenario
        .time(|| FirmwareStore::distinct_configs(scenario));
    // `distinct_configs` derives every device's config once.
    trace.scenario.calls = scenario.devices as u64;
    let mut units = BTreeSet::new();
    for (key, cfg) in &distinct {
        let stored = trace.store.time(|| store.get_or_build(key, cfg));
        let replay_start = Instant::now();
        let before = trace.frontend.ns + trace.codegen.ns + trace.link.ns;
        let compiled = compile(cfg, &mut trace, &mut units)
            .map_err(|e| format!("compile replay of {key} failed: {e}"))?;
        trace
            .image_ns
            .push(trace.frontend.ns + trace.codegen.ns + trace.link.ns - before);
        if encode_firmware(key, &compiled) != encode_firmware(key, &stored) {
            return Err(format!(
                "compile replay of {key} drifted from the AFT build"
            ));
        }
        compile_replay_ns += replay_start.elapsed().as_nanos() as u64;
    }
    trace.images = distinct.len() as u64;
    trace.distinct_units = units.len() as u64;

    // The campaign: the calendar's blocks in block order on one worker.
    let mut worker = Worker {
        scenario,
        store: &store,
        ctx: ConfigContext::new(),
        runtime: None,
        silent_cache: HashMap::new(),
        trace,
    };
    let mut summaries = Vec::new();
    let mut devices = Vec::new();
    for lo in (0..scenario.devices).step_by(BLOCK_SIZE) {
        let hi = (lo + BLOCK_SIZE).min(scenario.devices);
        let results = worker.run_block(lo, hi);
        worker.trace.blocks += 1;
        summaries.push(
            worker
                .trace
                .stats
                .time(|| BlockSummary::from_devices(&results)),
        );
        if keep_devices {
            devices.extend(results);
        }
    }
    let mut trace = worker.trace;
    let aggregate = trace.stats.time(|| reduce_blocks(&summaries));
    let document = trace
        .render
        .time(|| crate::measure::document(scenario, &aggregate));
    trace.render_bytes = document.len() as u64;
    trace.store_stats = store.stats();
    trace.wall_ns = (start.elapsed().as_nanos() as u64).saturating_sub(compile_replay_ns);
    Ok(Replay {
        trace,
        aggregate,
        document,
        devices,
    })
}

/// Replays `Aft::build` for one configuration phase by phase.
fn compile(
    cfg: &DeviceConfig,
    t: &mut Trace,
    units: &mut BTreeSet<(String, IsolationMethod, String)>,
) -> Result<Firmware, String> {
    let api = ApiSpec::amulet();
    let policy = CheckPolicy::for_method_on(cfg.method, &cfg.platform.mpu);
    let mut app_units = Vec::with_capacity(cfg.apps.len());
    for app in &cfg.apps {
        let src = app.app_source();
        let (program, analysis) = t.frontend.time(|| {
            let program = parse(&src.source).map_err(|e| e.to_string())?;
            let analysis =
                analyze(&src.name, &program, &api, cfg.method).map_err(|e| e.to_string())?;
            Ok::<_, String>((program, analysis))
        })?;
        let code = t
            .codegen
            .time(|| generate(&src.name, &program, &analysis, &api, cfg.method, policy))
            .map_err(|e| e.to_string())?;
        app_units.push(AppUnit {
            code,
            handlers: src.handlers.clone(),
            stack_override: src.stack_override,
        });
        t.units += 1;
        units.insert((src.name, cfg.method, format!("{policy:?}")));
    }
    let out = t
        .link
        .time(|| {
            link(
                cfg.method,
                &cfg.platform,
                &OsImageSpec::default(),
                &app_units,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(out.firmware)
}

/// A device waiting on the block's wake calendar.
struct Pending {
    cfg: DeviceConfig,
    trace: Vec<TraceEvent>,
    first_wake_ms: u64,
}

/// The replay's one worker: the runner's per-worker state plus the trace.
struct Worker<'a> {
    scenario: &'a FleetScenario,
    store: &'a FirmwareStore,
    ctx: ConfigContext,
    runtime: Option<(String, AmuletOs)>,
    silent_cache: HashMap<String, Option<DeviceResult>>,
    trace: Trace,
}

impl Worker<'_> {
    /// Plans block `lo..hi` on the calendar and runs it; results come back
    /// in device order.
    fn run_block(&mut self, lo: usize, hi: usize) -> Vec<DeviceResult> {
        let scenario = self.scenario;
        let mut results = Vec::with_capacity(hi - lo);
        let mut groups: BTreeMap<String, Vec<Pending>> = BTreeMap::new();
        for index in lo..hi {
            let ctx = &self.ctx;
            let cfg = self
                .trace
                .scenario
                .time(|| scenario.device_config_in(ctx, index));
            let key = cfg.firmware_key();
            if cfg.silent_cacheable() {
                self.trace.silent_devices += 1;
                if let Some(Some(template)) = self.silent_cache.get(&key) {
                    let mut r = template.clone();
                    r.index = index;
                    results.push(r);
                    self.trace.silent_reused += 1;
                    continue;
                }
                groups.entry(key).or_default().push(Pending {
                    cfg,
                    trace: Vec::new(),
                    first_wake_ms: u64::MAX,
                });
            } else {
                let trace = self.trace.traces.time(|| match scenario.events_for(&cfg) {
                    0 => Vec::new(),
                    n => amulet_apps::traces::generate(&cfg.apps, cfg.trace_seed, n),
                });
                self.trace.trace_events += trace.len() as u64;
                let first_wake_ms = trace.first().map(|e| e.at_ms).unwrap_or(u64::MAX);
                groups.entry(key).or_default().push(Pending {
                    cfg,
                    trace,
                    first_wake_ms,
                });
            }
        }
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
                let r = self.run_pending(&key, p);
                results.push(r);
            }
        }
        results.sort_by_key(|r| r.index);
        results
    }

    /// Simulates one pending device, probing or consulting the silent
    /// cache exactly as the runner does.
    fn run_pending(&mut self, key: &str, p: &Pending) -> DeviceResult {
        if !p.cfg.silent_cacheable() {
            return self.simulate_device(key, p).0;
        }
        if let Some(Some(template)) = self.silent_cache.get(key) {
            let mut r = template.clone();
            r.index = p.cfg.index;
            self.trace.silent_reused += 1;
            return r;
        }
        let undecided = !self.silent_cache.contains_key(key);
        let (result, sensor_draws) = self.simulate_device(key, p);
        if undecided {
            let template = (sensor_draws == 0).then(|| result.clone());
            self.silent_cache.insert(key.to_string(), template);
        }
        result
    }

    /// Simulates one device under both delivery policies on the worker's
    /// runtime; returns its result and the sensor-model reads it made.
    fn simulate_device(&mut self, key: &str, p: &Pending) -> (DeviceResult, u64) {
        let device_start = Instant::now();
        let scenario = self.scenario;
        let cfg = &p.cfg;
        if !matches!(&self.runtime, Some((k, _)) if k == key) {
            let store = self.store;
            let firmware = self.trace.store.time(|| store.get_or_build(key, cfg));
            let os = self.trace.runtime.time(|| {
                AmuletOs::with_options_shared(
                    firmware,
                    OsOptions {
                        sensor_seed: cfg.sensor_seed,
                        delivery: DeliveryPolicy::PerEvent,
                        ..OsOptions::default()
                    },
                )
            });
            self.runtime = Some((key.to_string(), os));
        }
        let t = &mut self.trace;
        let os = &mut self.runtime.as_mut().expect("runtime just installed").1;

        let mut energy = EnergyModel::for_platform(&cfg.platform);
        if let Some(na) = scenario.lpm_current_override_na {
            energy.lpm_current_a = na as f64 / 1e9;
        }
        os.set_sensor_seed(cfg.sensor_seed);
        if let Some(budget) = scenario.step_budget {
            os.set_step_budget(budget);
        }
        if let Some(policy) = scenario.watchdog_policy() {
            os.set_restart_policy(policy);
        }
        let slot = method_slot(cfg.method);
        let mut sensor_draws = 0u64;
        let mut verdicts = Vec::new();
        let mut legs = Vec::with_capacity(2);
        for policy in [DeliveryPolicy::PerEvent, scenario.batched_policy()] {
            t.boot.time(|| {
                os.reset();
                os.set_delivery_policy(policy);
                os.boot();
            });
            t.probe.time(|| {
                if let Some(kind) = cfg.fault {
                    let payload = attack_payload(kind, os.firmware());
                    let (outcome, _) = os.call_handler(cfg.apps.len() - 1, "attack", payload);
                    verdicts.push(classify(outcome));
                }
            });
            let retired = os.cpu_stats().instructions;
            let deliver_start = Instant::now();
            let run = run_trace_stepped(os, &p.trace, &energy);
            t.deliver_ns[slot] += t.deliver.add(deliver_start);
            t.deliver_instructions[slot] += os.cpu_stats().instructions - retired;
            t.posted_events += p.trace.len() as u64;

            let outcome = collect(os, &energy, &run);
            t.full_switches += outcome.full_switches;
            t.batch_boundaries += outcome.batch_boundaries;
            t.instructions += os.cpu_stats().instructions;
            let bus = os.device.bus.stats;
            t.data_accesses += bus.reads + bus.writes;
            t.exec_checks += bus.exec_checks;
            t.denied += bus.denied;
            sensor_draws += os.services.sensors.ticks;
            legs.push((outcome, run.latencies_ms));
        }
        t.probes += verdicts.len() as u64;
        let fault = cfg.fault.map(|kind| FaultProbe {
            kind,
            verdict: verdicts[0],
        });
        let ota = t.ota.time(|| {
            cfg.ota_seed.map(|seed| {
                run_ota(
                    os.firmware(),
                    &cfg.firmware_key(),
                    seed,
                    amulet_apps::traces::span_ms(&p.trace),
                    scenario.ota_corrupt_permille,
                    scenario.ota_max_retries,
                    cfg.index,
                )
            })
        });
        t.ota_attempts += ota.map_or(0, |o| u64::from(o.attempts));

        let arp = Arp::for_platform(&cfg.platform);
        let battery_impacts = cfg
            .apps
            .iter()
            .map(|a| {
                let impact = arp
                    .estimate_on(&cfg.platform, &a.profile, cfg.method)
                    .battery_impact_percent;
                (a.name.to_string(), impact)
            })
            .collect();
        let (batched, batched_latencies_ms) = legs.pop().expect("two legs");
        let (per_event, per_event_latencies_ms) = legs.pop().expect("two legs");
        let result = DeviceResult {
            index: cfg.index,
            platform: cfg.platform.name.clone(),
            method: cfg.method,
            app_names: cfg.apps.iter().map(|a| a.name.to_string()).collect(),
            per_event,
            batched,
            battery_impacts,
            per_event_latencies_ms,
            batched_latencies_ms,
            fault,
            ota,
        };
        t.device_ns.push(device_start.elapsed().as_nanos() as u64);
        (result, sensor_draws)
    }
}

/// The event kind a trace handler maps to (the runner's rule).
fn kind_for(handler: &str) -> EventKind {
    if handler.starts_with("on_timer") {
        EventKind::Timer
    } else if handler.starts_with("on_accel") || handler.starts_with("on_hr") {
        EventKind::Sensor
    } else {
        EventKind::System
    }
}

/// What a time-stepped leg measured besides the runtime's own counters.
struct SteppedRun {
    virtual_seconds: f64,
    latencies_ms: Vec<f64>,
    truncated_events: u64,
}

/// Replays a trace under the virtual clock, arithmetic for arithmetic as
/// the runner does, so every latency sample is bit-identical.
fn run_trace_stepped(os: &mut AmuletOs, trace: &[TraceEvent], energy: &EnergyModel) -> SteppedRun {
    let mut now_s = energy.cycles_to_seconds(os.total_cycles());
    let mut latencies_ms = Vec::new();
    let mut cursor = os.delivery_log.len();
    for e in trace {
        now_s = now_s.max(e.at_ms as f64 / 1000.0);
        os.post_event(
            Event::new(
                e.app_index,
                e.handler.as_str(),
                e.payload,
                kind_for(&e.handler),
            )
            .stamped(e.at_ms),
        );
        let start_cycles = os.total_cycles();
        let (_, pump_cycles) = os.pump_counted();
        latencies_ms.extend(os.delivery_log[cursor..].iter().map(|r| {
            let at_s = now_s + energy.cycles_to_seconds(r.at_cycles - start_cycles);
            (at_s * 1000.0 - r.stamp_ms as f64).max(0.0)
        }));
        cursor = os.delivery_log.len();
        now_s += energy.cycles_to_seconds(pump_cycles);
    }
    let (_, flush_cycles) = os.flush_counted();
    let truncated_events = (os.delivery_log.len() - cursor) as u64;
    now_s += energy.cycles_to_seconds(flush_cycles);
    SteppedRun {
        virtual_seconds: now_s,
        latencies_ms,
        truncated_events,
    }
}

/// Reduces a finished stepped leg into its outcome (the runner's rule).
fn collect(os: &AmuletOs, energy: &EnergyModel, run: &SteppedRun) -> PolicyOutcome {
    let mut out = PolicyOutcome {
        total_cycles: os.total_cycles(),
        switch_cycles: 0,
        app_cycles: 0,
        service_cycles: 0,
        events_delivered: 0,
        syscalls: 0,
        faults: 0,
        full_switches: 0,
        batch_boundaries: 0,
        energy_joules: 0.0,
        idle_joules: 0.0,
        virtual_seconds: 0.0,
        active_seconds: 0.0,
        battery_weeks: 0.0,
        truncated_events: 0,
    };
    for s in &os.stats {
        out.switch_cycles += s.switch_cycles;
        out.app_cycles += s.app_cycles;
        out.service_cycles += s.service_cycles;
        out.events_delivered += s.events_delivered;
        out.syscalls += s.syscalls;
        out.faults += s.faults;
        out.full_switches += s.full_switches;
        out.batch_boundaries += s.batch_boundaries;
    }
    out.energy_joules = energy.cycles_to_joules(out.total_cycles);
    out.truncated_events = run.truncated_events;
    out.virtual_seconds = run.virtual_seconds;
    out.active_seconds = energy.cycles_to_seconds(out.total_cycles);
    out.idle_joules = energy.idle_joules(run.virtual_seconds - out.active_seconds);
    if run.virtual_seconds > 0.0 {
        let power_w = (out.energy_joules + out.idle_joules) / run.virtual_seconds;
        out.battery_weeks = BatteryModel::amulet().lifetime_weeks_at_power(power_w);
    }
    out
}

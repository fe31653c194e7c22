//! The fleet runner's entry points and its one per-device replay.
//!
//! Every run goes through the config partition (the `partition`
//! module), which hands each device to one replay: both delivery legs
//! under the virtual clock.  An arrival-order scenario is a
//! rendering of that same replay with the clock fields left out.  On top
//! sit the reductions — the materialised [`FleetReport`], the streaming
//! [`FleetSummary`] — and [`replay_device`], which replays one device on
//! a fresh runtime with nothing shared.

use crate::scenario::{DeviceConfig, FleetScenario, TimeMode};
use crate::stats::{aggregate, FleetAggregate};
use crate::store::FirmwareStore;
use amulet_aft::aft::{Aft, BuildOutput, UnitMemo};
use amulet_arp::arp::Arp;
use amulet_core::energy::{BatteryModel, EnergyModel};
use amulet_core::method::IsolationMethod;
use amulet_mcu::firmware::Firmware;
use amulet_os::events::{DeliveryPolicy, Event, EventKind};
use amulet_os::os::{AmuletOs, OsCheckpoint, OsOptions};
use std::sync::Arc;

/// What one device did under one delivery policy.
///
/// The time fields (`virtual_seconds`, `active_seconds`, `idle_joules`,
/// `battery_weeks`, `truncated_events`) are populated only under
/// [`TimeMode::Stepped`]; an arrival-order report has no clock, so they
/// stay zero there and the report renderer omits them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyOutcome {
    /// Total cycles the device consumed (boot + trace).
    pub total_cycles: u64,
    /// Cycles spent on OS↔app switching.
    pub switch_cycles: u64,
    /// Cycles spent executing application instructions.
    pub app_cycles: u64,
    /// Cycles spent in OS service bodies.
    pub service_cycles: u64,
    /// Events delivered (boot events included).
    pub events_delivered: u64,
    /// System calls serviced.
    pub syscalls: u64,
    /// Faults raised.
    pub faults: u64,
    /// Full directed OS↔app switches charged.
    pub full_switches: u64,
    /// Cheap intra-batch boundaries charged.
    pub batch_boundaries: u64,
    /// Active (executed-cycle) energy the run consumed, in joules
    /// (platform energy model).
    pub energy_joules: f64,
    /// LPM (sleep) energy spent in the inter-event gaps, in joules.
    pub idle_joules: f64,
    /// Virtual wall-clock span of the run, in seconds (active + idle).
    pub virtual_seconds: f64,
    /// The active part of `virtual_seconds`: executed cycles over the
    /// platform clock frequency.
    pub active_seconds: f64,
    /// End-to-end battery-lifetime projection, in weeks, from the run's
    /// long-run average power draw ((active + idle energy) / virtual
    /// time) against the Amulet battery.
    pub battery_weeks: f64,
    /// Stamped trace events still queued when the trace horizon ended
    /// ([`TimeMode::Stepped`] only).  The final flush delivers them, but
    /// their latency is an artefact of where the finite trace stops — a
    /// longer trace would have seen them delivered when the next batch
    /// formed — so they are counted here instead of being folded into the
    /// latency population (DESIGN §6).
    pub truncated_events: u64,
}

/// The result of simulating one device under both delivery policies.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceResult {
    /// Device index within the fleet.
    pub index: usize,
    /// Platform profile name.
    pub platform: String,
    /// Isolation method.
    pub method: IsolationMethod,
    /// Names of the installed apps.
    pub app_names: Vec<String>,
    /// Outcome under [`DeliveryPolicy::PerEvent`].
    pub per_event: PolicyOutcome,
    /// Outcome under the scenario's batched policy.
    pub batched: PolicyOutcome,
    /// Analytic weekly battery-lifetime impact, in percent, of each
    /// installed app's ARP profile under this device's method and platform
    /// (the Figure-2 extrapolation, fleet-wide).
    pub battery_impacts: Vec<(String, f64)>,
    /// Per-delivered-event latency samples (virtual milliseconds between
    /// a trace event's arrival and its dispatch) of the per-event leg, in
    /// dispatch order.  Empty under [`TimeMode::ArrivalOrder`].
    pub per_event_latencies_ms: Vec<f64>,
    /// Latency samples of the batched leg (see `per_event_latencies_ms`).
    pub batched_latencies_ms: Vec<f64>,
    /// The fault injector's controlled probe and its containment verdict,
    /// on devices the scenario armed (`None` on clean devices).
    pub fault: Option<crate::faults::FaultProbe>,
    /// How this device's OTA re-install ended, on devices the wave swept.
    pub ota: Option<crate::faults::OtaOutcome>,
}

/// A complete fleet run: the scenario, every per-device result (in device
/// order) and the aggregate reduction.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// The scenario that was simulated.
    pub scenario: FleetScenario,
    /// Worker threads used (does not affect any other field).
    pub workers: usize,
    /// Per-device results, indexed by device.
    pub devices: Vec<DeviceResult>,
    /// The aggregate statistics.
    pub aggregate: FleetAggregate,
}

/// The event kind a trace handler maps to.
fn kind_for(handler: &str) -> EventKind {
    if handler.starts_with("on_timer") {
        EventKind::Timer
    } else if handler.starts_with("on_accel") || handler.starts_with("on_hr") {
        EventKind::Sensor
    } else {
        EventKind::System
    }
}

/// What a time-stepped replay measured on top of the run itself.
struct SteppedRun {
    /// Virtual wall-clock span of the run in seconds: boot + every
    /// handler's executed-cycle time + every inter-event idle gap.
    virtual_seconds: f64,
    /// Delivery latency of each dispatched trace event, in virtual
    /// milliseconds, in dispatch order.  Events the final flush delivered
    /// are excluded (they are `truncated_events`).
    latencies_ms: Vec<f64>,
    /// Stamped events the final flush delivered after the trace horizon.
    truncated_events: u64,
}

/// Replays a trace under a virtual clock.
///
/// Every arrival is posted and the scheduler pumped, so a batched policy
/// sees exactly the queue build-up a live device would; a final flush
/// delivers the stragglers.  The clock only observes that schedule — it
/// never reorders a post or a pump — which is why an arrival-order report
/// can be read off the same replay.  The clock starts after boot (boot
/// runs busy from t = 0), jumps forward to each event's `at_ms` when the
/// device finished its work earlier (an LPM idle gap), stays put when the
/// event arrived while the device was still busy (the event waits), and
/// advances by executed-cycle time across every pump.  Each dispatched
/// trace event's [`amulet_os::os::DeliveryRecord`] is joined against the
/// clock to yield its delivery latency — including latency added by the
/// batching policy deferring delivery until a batch forms.
fn run_trace_stepped(
    os: &mut AmuletOs,
    trace: &[amulet_apps::TraceEvent],
    energy: &EnergyModel,
) -> SteppedRun {
    let mut now_s = energy.cycles_to_seconds(os.total_cycles());
    let mut latencies_ms = Vec::new();
    let mut cursor = os.delivery_log.len();
    // Joins the delivery records a pump produced against the virtual
    // clock: a record `dc` cycles into a pump that started at `start_s`
    // happened at virtual time `start_s + dc / f`.
    let mut harvest = |os: &AmuletOs, cursor: &mut usize, start_s: f64, start_cycles: u64| {
        let records = &os.delivery_log[*cursor..];
        latencies_ms.extend(records.iter().map(|r| {
            let at_s = start_s + energy.cycles_to_seconds(r.at_cycles - start_cycles);
            (at_s * 1000.0 - r.stamp_ms as f64).max(0.0)
        }));
        *cursor = os.delivery_log.len();
    };
    for e in trace {
        // Idle jump: if the device went to sleep before this arrival, the
        // clock skips ahead; if it is still busy, the event queues at its
        // arrival stamp and waits.
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
        harvest(os, &mut cursor, now_s, start_cycles);
        now_s += energy.cycles_to_seconds(pump_cycles);
    }
    // The final flush delivers whatever the batching policy still held
    // when the trace ran out.  Those deliveries only happen *here* because
    // the trace is finite — their latency measures the horizon, not the
    // policy — so they are counted as truncated instead of being joined
    // into the latency samples.
    let (_, flush_cycles) = os.flush_counted();
    let truncated_events = (os.delivery_log.len() - cursor) as u64;
    now_s += energy.cycles_to_seconds(flush_cycles);
    debug_assert!(
        now_s * 1000.0 >= amulet_apps::traces::span_ms(trace) as f64,
        "the virtual clock ends at or after the last arrival"
    );
    SteppedRun {
        virtual_seconds: now_s,
        latencies_ms,
        truncated_events,
    }
}

/// Reduces one finished leg into its [`PolicyOutcome`] and latency
/// samples.  With `timed` the run's virtual clock fills in the
/// idle/duty/lifetime fields; without it (an arrival-order report) those
/// fields stay zero and the latencies and truncation count are dropped.
fn collect(
    os: &AmuletOs,
    energy: &EnergyModel,
    run: SteppedRun,
    timed: bool,
) -> (PolicyOutcome, Vec<f64>) {
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
    if !timed {
        return (out, Vec::new());
    }
    out.truncated_events = run.truncated_events;
    out.virtual_seconds = run.virtual_seconds;
    out.active_seconds = energy.cycles_to_seconds(out.total_cycles);
    out.idle_joules = energy.idle_joules(run.virtual_seconds - out.active_seconds);
    if run.virtual_seconds > 0.0 {
        let power_w = (out.energy_joules + out.idle_joules) / run.virtual_seconds;
        out.battery_weeks = BatteryModel::amulet().lifetime_weeks_at_power(power_w);
    }
    (out, run.latencies_ms)
}

/// Generates device `cfg`'s event-arrival trace — empty for silent
/// devices.
pub(crate) fn device_trace(
    scenario: &FleetScenario,
    cfg: &DeviceConfig,
) -> Vec<amulet_apps::TraceEvent> {
    match scenario.events_for(cfg) {
        0 => Vec::new(),
        n => amulet_apps::traces::generate(&cfg.apps, cfg.trace_seed, n),
    }
}

/// A [`DeviceResult`] plus the evidence the runner's silent-device
/// outcome cache needs: how many sensor-model reads the two legs
/// performed in total.  The sensor seed can only influence a run through
/// a read (every sensor-backed syscall advances the model), so
/// `sensor_draws == 0` proves the result is identical for every
/// `sensor_seed` — the soundness condition for reusing one simulated
/// outcome across a firmware config's silent devices.
pub(crate) struct SimulatedDevice {
    pub(crate) result: DeviceResult,
    pub(crate) sensor_draws: u64,
}

/// Simulates one device on a (possibly reused) runtime: the same firmware
/// image and the same trace are run under per-event delivery, then under
/// the scenario's batched policy.
///
/// `os` is a runtime with this device's firmware image loaded.  The run
/// starts with an [`AmuletOs::reset`], which restores the power-on state
/// **in place** — so one runtime serves every device that shares a
/// firmware configuration, and (through [`AmuletOs::reload`]) every
/// configuration of a platform: the expensive setup (64 KiB memory, the
/// bus's memoised access-attribute tables, the API tables) is allocated
/// and built once per worker and platform instead of once per device.
/// `reset` and `reload` guarantee a replayed run is bit-identical to a
/// fresh runtime's, so results do not depend on which devices shared a
/// runtime (the oracle tests pin this against [`replay_device`], which
/// boots a fresh runtime per device).
///
/// Boot and the fault probe run once.  Neither depends on the delivery
/// policy (boot delivers one event per app, and the probe is one
/// delivery), so the runtime is saved into `checkpoint` after them, the
/// per-event leg runs, and the batched leg runs from the restored
/// checkpoint.  `checkpoint`'s buffers are reused across devices.
pub(crate) fn simulate_device(
    scenario: &FleetScenario,
    cfg: &DeviceConfig,
    os: &mut AmuletOs,
    checkpoint: &mut OsCheckpoint,
    trace: &[amulet_apps::TraceEvent],
) -> SimulatedDevice {
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
    os.reset();
    os.set_delivery_policy(DeliveryPolicy::PerEvent);
    os.boot();
    let fault = cfg.fault.map(|kind| {
        // The controlled probe: one delivery to the adversarial app
        // (always installed last) carrying the concrete target address
        // computed from this image's real memory map.  It runs before the
        // trace — like boot, busy from t = 0.
        let payload = crate::faults::attack_payload(kind, os.firmware());
        let (outcome, _) = os.call_handler(cfg.apps.len() - 1, "attack", payload);
        crate::faults::FaultProbe {
            kind,
            verdict: crate::faults::classify(outcome),
        }
    });
    os.save(checkpoint);

    // One leg under one delivery policy, always replayed under the
    // virtual clock; an arrival-order scenario keeps only the untimed
    // fields.  Alongside the outcome, each leg reports how many
    // sensor-model reads it performed — `AmuletOs::reset` zeroes the
    // counter, and every sensor-backed syscall (including
    // `amulet_get_time`) advances it.
    let timed = scenario.time_mode == TimeMode::Stepped;
    let leg = |os: &mut AmuletOs| {
        let run = run_trace_stepped(os, trace, &energy);
        let (outcome, latencies) = collect(os, &energy, run, timed);
        (outcome, latencies, os.services.sensors.ticks)
    };
    let (per_event, per_event_latencies_ms, per_event_draws) = leg(os);
    os.restore(checkpoint);
    os.set_delivery_policy(scenario.batched_policy());
    let (batched, batched_latencies_ms, batched_draws) = leg(os);
    let sensor_draws = per_event_draws + batched_draws;

    let ota = cfg.ota_seed.map(|seed| {
        crate::faults::run_ota(
            os.firmware(),
            &cfg.firmware_key(),
            seed,
            amulet_apps::traces::span_ms(trace),
            scenario.ota_corrupt_permille,
            scenario.ota_max_retries,
            cfg.index,
        )
    });

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

    SimulatedDevice {
        result: DeviceResult {
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
        },
        sensor_draws,
    }
}

/// Compiles device `cfg`'s apps through the AFT for its method and
/// platform, each distinct app once per `memo` — the one build both
/// [`build_firmware`] and [`verify_fleet_reports`] start from.
fn aft_build(key: &str, cfg: &DeviceConfig, memo: &UnitMemo) -> BuildOutput {
    let mut aft = Aft::for_platform(cfg.method, &cfg.platform);
    for app in &cfg.apps {
        aft = aft.add_app(app.app_source());
    }
    aft.build_with(memo)
        .unwrap_or_else(|e| panic!("fleet firmware build failed for {key}: {e}"))
}

/// Builds one device configuration's firmware image, compiling its apps
/// through `memo`.  With [`DeviceConfig::verify`] the amulet-verify gate
/// must certify the build free of proven-escape accesses before the image
/// may enter the fleet.
pub(crate) fn build_firmware(key: &str, cfg: &DeviceConfig, memo: &UnitMemo) -> Arc<Firmware> {
    let out = aft_build(key, cfg, memo);
    if cfg.verify {
        let report = amulet_verify::verify_build(&out);
        assert!(
            report.passes_gate(),
            "fleet verify gate refused firmware {key}:\n{report}"
        );
    }
    Arc::new(out.firmware)
}

/// The options a runtime boots device `cfg`'s image with.
pub(crate) fn runtime_options(cfg: &DeviceConfig) -> OsOptions {
    OsOptions {
        sensor_seed: cfg.sensor_seed,
        delivery: DeliveryPolicy::PerEvent,
        ..OsOptions::default()
    }
}

/// A runtime booted from device `cfg`'s firmware image, drawn through
/// `store` under `key` (the config's [`DeviceConfig::firmware_key`]).
pub(crate) fn boot_runtime(store: &FirmwareStore, key: &str, cfg: &DeviceConfig) -> AmuletOs {
    AmuletOs::with_options_shared(store.get_or_build(key, cfg), runtime_options(cfg))
}

/// Replays device `index` of `scenario` on its own: a fresh runtime
/// booted from the device's image, the device's trace, both delivery
/// legs.  No runtime is reused and no silent outcome is shared, so this
/// is the plain "(scenario, index)" contract every fleet run must agree
/// with — the partition's runtime reuse and silent cache are
/// optimisations over mapping this function across the fleet, and the
/// test suite holds them to it bit for bit.
pub fn replay_device(
    scenario: &FleetScenario,
    index: usize,
    store: &FirmwareStore,
) -> DeviceResult {
    let cfg = scenario.device_config(index);
    let mut os = boot_runtime(store, &cfg.firmware_key(), &cfg);
    let trace = device_trace(scenario, &cfg);
    simulate_device(
        scenario,
        &cfg,
        &mut os,
        &mut OsCheckpoint::default(),
        &trace,
    )
    .result
}

/// Runs the whole scenario on `workers` threads, drawing firmware
/// images through `store` (a pure cache: its hit/build statistics stay
/// readable by the caller afterwards).
///
/// Determinism guarantee: every field of the returned [`FleetReport`]
/// except `workers` is a pure function of the scenario — the same
/// `DeviceResult`s, bit for bit, as mapping [`replay_device`] over every
/// index (the oracle property tests pin this).
pub fn simulate_in(scenario: &FleetScenario, workers: usize, store: &FirmwareStore) -> FleetReport {
    let (blocks, threads) =
        crate::partition::collect_blocks_in(scenario, workers, store, |block| {
            block
                .into_iter()
                .map(crate::partition::Outcome::into_result)
                .collect::<Vec<_>>()
        });
    let devices: Vec<DeviceResult> = blocks.into_iter().flatten().collect();
    let aggregate = aggregate(&devices);
    FleetReport {
        scenario: scenario.clone(),
        workers: threads,
        devices,
        aggregate,
    }
}

/// A fleet run reduced on the fly: the scenario and the aggregate, with
/// no per-device result vector.  This is how 10⁵–10⁶-device campaigns
/// run in bounded memory — workers fold each finished device block into a
/// [`crate::stats::BlockSummary`] and the summaries merge in block order,
/// so every aggregate field is still a pure function of the scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// The scenario that was simulated.
    pub scenario: FleetScenario,
    /// Worker threads used (does not affect the aggregate).
    pub workers: usize,
    /// The aggregate statistics.
    pub aggregate: FleetAggregate,
}

/// Runs the whole scenario on `workers` threads through streaming
/// aggregation, materialising block summaries instead of per-device
/// results, and drawing firmware through `store` (see [`simulate_in`]).
/// Works in both time modes.
///
/// For fleets that fit one fold block (and whose latency-sample count
/// fits the sketch) the aggregate is identical to [`simulate_in`]'s;
/// beyond that, delivery-latency mean/p50/p99 become deterministic
/// uniform-sample estimates (see [`crate::stats::BlockSummary`]) while
/// every other field stays exact.
pub fn simulate_summary_in(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
) -> FleetSummary {
    let (blocks, threads) =
        crate::partition::collect_blocks_in(scenario, workers, store, |block| {
            crate::stats::BlockSummary::fold(block.iter().map(|o| (o.index, &*o.result)))
        });
    FleetSummary {
        scenario: scenario.clone(),
        workers: threads,
        aggregate: crate::stats::reduce_blocks(&blocks),
    }
}

/// Verdict counters from statically verifying every distinct firmware
/// image a scenario would build.
///
/// This is a pure function of the scenario — the images are rebuilt
/// fresh through the AFT (never read back from a cache), so the counters
/// cannot depend on what an earlier run left in a [`FirmwareStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetVerifySummary {
    /// Distinct firmware images the fleet derivation produces.
    pub images: usize,
    /// Application instances verified across those images.
    pub apps: usize,
    /// Reachable memory accesses proven inside the app's isolation plan.
    pub proven_safe: usize,
    /// Reachable memory accesses proven to escape the plan.  Any
    /// non-zero count fails the gate.
    pub proven_escape: usize,
    /// Reachable memory accesses the abstract domain cannot decide.
    pub unknown: usize,
    /// Software bound checks certified redundant (lint findings).
    pub elidable_sites: usize,
    /// Software bound checks the redundancy lint considered.
    pub elidable_candidates: usize,
    /// Firmware keys whose report failed [`VerifyReport::passes_gate`],
    /// in derivation order.
    ///
    /// [`VerifyReport::passes_gate`]: amulet_verify::VerifyReport::passes_gate
    pub gate_failures: Vec<String>,
}

impl FleetVerifySummary {
    /// Whether every image in the fleet passed the verify gate.
    pub fn passes_gate(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Folds keyed per-image reports (as [`verify_fleet_reports`]
    /// returns them) into the fleet-wide counters.
    pub fn from_reports(reports: &[(String, amulet_verify::VerifyReport)]) -> Self {
        let mut summary = FleetVerifySummary {
            images: reports.len(),
            apps: 0,
            proven_safe: 0,
            proven_escape: 0,
            unknown: 0,
            elidable_sites: 0,
            elidable_candidates: 0,
            gate_failures: Vec::new(),
        };
        for (key, report) in reports {
            summary.apps += report.apps.len();
            summary.proven_safe += report.proven_safe();
            summary.proven_escape += report.proven_escape();
            summary.unknown += report.unknown();
            summary.elidable_sites += report.elidable_sites();
            summary.elidable_candidates += report
                .apps
                .iter()
                .map(|a| a.elidable_candidates)
                .sum::<usize>();
            if !report.passes_gate() {
                summary.gate_failures.push(key.clone());
            }
        }
        summary
    }
}

/// Statically verifies every distinct firmware image `scenario` would
/// deploy, claiming the builds across `workers` threads, and reduces
/// the per-image [`VerifyReport`]s into one [`FleetVerifySummary`] in
/// derivation order.  The gate judges exactly the image the compiler
/// emitted, which is the image the fleet deploys.
///
/// [`VerifyReport`]: amulet_verify::VerifyReport
pub fn verify_fleet(scenario: &FleetScenario, workers: usize) -> FleetVerifySummary {
    FleetVerifySummary::from_reports(&verify_fleet_reports(scenario, workers))
}

/// The per-image half of [`verify_fleet`]: statically verifies every
/// distinct firmware image `scenario` would deploy and returns the keyed
/// [`VerifyReport`]s in derivation order (the order the fleet's
/// device-config walk first encounters each image).
///
/// [`VerifyReport`]: amulet_verify::VerifyReport
pub fn verify_fleet_reports(
    scenario: &FleetScenario,
    workers: usize,
) -> Vec<(String, amulet_verify::VerifyReport)> {
    let distinct = scenario.distinct_configs_by_first_use();
    let memo = UnitMemo::default();
    let (reports, _) = crate::partition::claim_loop(
        distinct.len(),
        workers,
        || (),
        |_, claim| {
            let (key, cfg) = &distinct[claim];
            Some((
                key.clone(),
                amulet_verify::verify_build(&aft_build(key, cfg, &memo)),
            ))
        },
    );
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: &FleetScenario, workers: usize) -> FleetReport {
        simulate_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
    }

    fn small() -> FleetScenario {
        FleetScenario {
            devices: 24,
            events_per_device: 30,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn a_small_fleet_simulates_and_aggregates() {
        let report = run(&small(), 4);
        assert_eq!(report.devices.len(), 24);
        assert_eq!(report.aggregate.devices, 24);
        for d in &report.devices {
            assert!(d.per_event.events_delivered > 0, "device {}", d.index);
            assert!(d.per_event.total_cycles > 0);
            assert!(d.per_event.energy_joules > 0.0);
            // Batching may only reduce switch work, never app-visible work.
            assert!(d.batched.batch_boundaries <= d.batched.events_delivered);
        }
        assert!(report.aggregate.per_event.energy.total_joules > 0.0);
    }

    #[test]
    fn batching_saves_switch_cycles_fleet_wide() {
        let report = run(&small(), 2);
        let per_event = report.aggregate.per_event.switch_cycles;
        let batched = report.aggregate.batched.switch_cycles;
        assert!(
            batched < per_event,
            "batched {batched} must undercut per-event {per_event}"
        );
        assert!(report.aggregate.batched.batch_boundaries > 0);
        assert_eq!(report.aggregate.per_event.batch_boundaries, 0);
        assert!(report.aggregate.switch_cycles_saved_percent > 0.0);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let a = run(&small(), 1);
        let b = run(&small(), 8);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.aggregate, b.aggregate);
    }

    fn small_stepped() -> FleetScenario {
        FleetScenario {
            time_mode: TimeMode::Stepped,
            ..small()
        }
    }

    #[test]
    fn stepped_mode_measures_time_idle_energy_and_latency() {
        let report = run(&small_stepped(), 4);
        for d in &report.devices {
            for o in [&d.per_event, &d.batched] {
                assert!(o.virtual_seconds > 0.0, "device {}", d.index);
                assert!(o.active_seconds > 0.0 && o.active_seconds < o.virtual_seconds);
                assert!(o.idle_joules > 0.0, "gaps cost LPM energy");
                assert!(o.battery_weeks > 0.0 && o.battery_weeks.is_finite());
            }
            // A wearable trace is overwhelmingly idle: the duty cycle
            // must be tiny, which is the whole point of LPM accounting.
            let duty = d.per_event.active_seconds / d.per_event.virtual_seconds;
            assert!(duty < 0.05, "device {}", d.index);
            // A device may legitimately have *no* latency samples: a
            // pure-timer app's re-arms cancel the still-pending trace
            // timer events (coalescing), so nothing stamped gets
            // dispatched.  Samples that do exist must be sane.
            assert!(d
                .per_event_latencies_ms
                .iter()
                .all(|l| l.is_finite() && *l >= 0.0));
        }
        assert!(
            report
                .devices
                .iter()
                .filter(|d| !d.per_event_latencies_ms.is_empty())
                .count()
                > report.devices.len() / 2,
            "most devices measure delivery latency"
        );
        let agg = &report.aggregate;
        assert!(agg.per_event.idle_energy_share > 0.5, "idle dominates");
        assert!(agg.per_event.duty_cycle > 0.0 && agg.per_event.duty_cycle < 0.05);
        assert!(agg.per_event.delivery_latency.events > 0);
        assert!(agg.per_event.battery_weeks_p50 > 0.0);
        // Batching defers deliveries, so its latency percentiles must sit
        // visibly above per-event delivery's.
        assert!(
            agg.batched.delivery_latency.p50_ms > agg.per_event.delivery_latency.p50_ms,
            "batched p50 {} vs per-event p50 {}",
            agg.batched.delivery_latency.p50_ms,
            agg.per_event.delivery_latency.p50_ms
        );
        assert!(agg.batched.delivery_latency.p99_ms >= agg.per_event.delivery_latency.p99_ms);
    }

    #[test]
    fn stepped_mode_is_deterministic_across_worker_counts() {
        let a = run(&small_stepped(), 1);
        let b = run(&small_stepped(), 8);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.aggregate, b.aggregate);
    }

    /// Everything of a runtime's device a run can observe or leave
    /// behind: bus counters, memory, the MPU, the timer and the CPU.
    fn device_state(os: &AmuletOs) -> (String, Vec<u8>, String) {
        let bus = &os.device.bus;
        (
            format!("{:?}", bus.stats),
            bus.dump_bytes(amulet_core::addr::AddrRange::new(0, 0x1_0000)),
            format!("{:?} {:?} {:?}", bus.mpu(), bus.timer, os.device.cpu),
        )
    }

    #[test]
    fn a_reloaded_runtime_matches_a_fresh_boot_for_every_image() {
        // One stepped device per (platform, method) on two MPU platforms
        // with different backends, so the reloads cross all four methods,
        // the attribute-table memo, and one rebuild.
        let scenario = FleetScenario {
            devices: 400,
            events_per_device: 12,
            ..small_stepped()
        };
        let store = FirmwareStore::for_scenario(&scenario);
        let ctx = crate::scenario::ConfigContext::new();
        let pick = |platform: &str, method: IsolationMethod| {
            (0..scenario.devices)
                .map(|i| scenario.device_config_in(&ctx, i))
                .find(|c| c.platform.name == platform && c.method == method)
                .unwrap_or_else(|| panic!("no {platform} device runs {method}"))
        };
        // Per platform: A→B→A for each adjacent method pair; the last
        // step of the first platform switches platforms.
        let mut sequence = Vec::new();
        for platform in ["msp430fr5969", "riscv-pmp"] {
            let configs: Vec<DeviceConfig> = IsolationMethod::ALL
                .iter()
                .map(|&m| pick(platform, m))
                .collect();
            for pair in configs.windows(2) {
                sequence.extend([pair[0].clone(), pair[1].clone(), pair[0].clone()]);
            }
        }
        assert!(sequence.iter().any(|c| c.method.uses_mpu()));

        let mut shared: Option<AmuletOs> = None;
        let mut checkpoint = OsCheckpoint::default();
        for cfg in &sequence {
            let key = cfg.firmware_key();
            let os = match shared.as_mut() {
                Some(os) => {
                    os.reload(store.get_or_build(&key, cfg), runtime_options(cfg));
                    os
                }
                None => shared.insert(boot_runtime(&store, &key, cfg)),
            };
            let mut fresh = boot_runtime(&store, &key, cfg);
            assert_eq!(
                device_state(os),
                device_state(&fresh),
                "{key}: after reload"
            );
            let trace = device_trace(&scenario, cfg);
            let reused = simulate_device(&scenario, cfg, os, &mut checkpoint, &trace);
            let oracle = simulate_device(
                &scenario,
                cfg,
                &mut fresh,
                &mut OsCheckpoint::default(),
                &trace,
            );
            assert_eq!(reused.result, oracle.result, "{key}: device result");
            assert_eq!(reused.sensor_draws, oracle.sensor_draws, "{key}");
            assert_eq!(
                device_state(os),
                device_state(&fresh),
                "{key}: after the run"
            );
        }
        let memo = shared
            .expect("the sequence ran")
            .device
            .bus
            .attr_memo_stats();
        assert!(memo.tables > 1, "the MPU images installed their own tables");
    }

    /// One leg the way it runs without a checkpoint: reset, `policy`,
    /// boot, the probe, then the trace.  Returns the outcome, the latency
    /// samples, the sensor ticks and the probe verdict.
    fn leg_from_boot(
        scenario: &FleetScenario,
        cfg: &DeviceConfig,
        os: &mut AmuletOs,
        trace: &[amulet_apps::TraceEvent],
        policy: DeliveryPolicy,
    ) -> (PolicyOutcome, Vec<f64>, u64, Option<crate::faults::Verdict>) {
        let mut energy = EnergyModel::for_platform(&cfg.platform);
        if let Some(na) = scenario.lpm_current_override_na {
            energy.lpm_current_a = na as f64 / 1e9;
        }
        os.set_sensor_seed(cfg.sensor_seed);
        if let Some(budget) = scenario.step_budget {
            os.set_step_budget(budget);
        }
        if let Some(watchdog) = scenario.watchdog_policy() {
            os.set_restart_policy(watchdog);
        }
        os.reset();
        os.set_delivery_policy(policy);
        os.boot();
        let verdict = cfg.fault.map(|kind| {
            let payload = crate::faults::attack_payload(kind, os.firmware());
            let (outcome, _) = os.call_handler(cfg.apps.len() - 1, "attack", payload);
            crate::faults::classify(outcome)
        });
        let run = run_trace_stepped(os, trace, &energy);
        let timed = scenario.time_mode == TimeMode::Stepped;
        let (outcome, latencies) = collect(os, &energy, run, timed);
        (outcome, latencies, os.services.sensors.ticks, verdict)
    }

    #[test]
    fn the_batched_leg_from_the_checkpoint_matches_a_second_boot() {
        // `replay_device` shares the checkpoint with the runner, so only
        // an independent second boot can catch a checkpoint that misses
        // part of the state.  One runtime and one checkpoint serve every
        // device, as in a worker.
        let scenarios = [
            FleetScenario::storm(96),
            FleetScenario::scaling(96),
            FleetScenario {
                devices: 96,
                ..small_stepped()
            },
            FleetScenario {
                devices: 96,
                ..small()
            },
        ];
        for scenario in &scenarios {
            let store = FirmwareStore::for_scenario(scenario);
            let mut shared: Option<AmuletOs> = None;
            let mut checkpoint = OsCheckpoint::default();
            for index in 0..scenario.devices {
                let cfg = scenario.device_config(index);
                let key = cfg.firmware_key();
                let trace = device_trace(scenario, &cfg);
                let os = shared.get_or_insert_with(|| boot_runtime(&store, &key, &cfg));
                os.reload(store.get_or_build(&key, &cfg), runtime_options(&cfg));
                let sim = simulate_device(scenario, &cfg, os, &mut checkpoint, &trace);

                let mut fresh = boot_runtime(&store, &key, &cfg);
                let per_event =
                    leg_from_boot(scenario, &cfg, &mut fresh, &trace, DeliveryPolicy::PerEvent);
                let batched = leg_from_boot(
                    scenario,
                    &cfg,
                    &mut fresh,
                    &trace,
                    scenario.batched_policy(),
                );
                let at = format!("{} device {index} ({key})", scenario.name);
                assert_eq!(sim.result.batched, batched.0, "{at}: batched outcome");
                assert_eq!(
                    sim.result.batched_latencies_ms, batched.1,
                    "{at}: batched latencies"
                );
                assert_eq!(sim.sensor_draws, per_event.2 + batched.2, "{at}: ticks");
                assert_eq!(sim.result.per_event, per_event.0, "{at}: per-event outcome");
                let verdict = sim.result.fault.map(|probe| probe.verdict);
                assert_eq!(verdict, batched.3, "{at}: probe verdict");
                assert_eq!(verdict, per_event.3, "{at}: probe verdict");
            }
        }
    }

    #[test]
    fn stepped_with_zero_lpm_current_matches_arrival_order_exactly() {
        // The stepped replay delivers the identical schedule; with idling
        // made free it must reproduce the arrival-order energy and cycle
        // numbers exactly, field for field.
        let arrival = run(&small(), 2);
        let stepped = run(
            &FleetScenario {
                lpm_current_override_na: Some(0),
                ..small_stepped()
            },
            2,
        );
        for (a, s) in arrival.devices.iter().zip(&stepped.devices) {
            for (ao, so) in [(&a.per_event, &s.per_event), (&a.batched, &s.batched)] {
                assert_eq!(ao.total_cycles, so.total_cycles, "device {}", a.index);
                assert_eq!(ao.switch_cycles, so.switch_cycles);
                assert_eq!(ao.events_delivered, so.events_delivered);
                assert_eq!(ao.faults, so.faults);
                assert_eq!(ao.energy_joules, so.energy_joules);
                assert_eq!(so.idle_joules, 0.0, "free idling");
            }
        }
        let (a, s) = (&arrival.aggregate, &stepped.aggregate);
        assert_eq!(a.per_event.total_cycles, s.per_event.total_cycles);
        assert_eq!(a.batched.total_cycles, s.batched.total_cycles);
        assert_eq!(
            a.per_event.energy.total_joules,
            s.per_event.energy.total_joules
        );
        assert_eq!(a.batched.energy.total_joules, s.batched.energy.total_joules);
        assert_eq!(s.per_event.idle_joules, 0.0);
    }
}

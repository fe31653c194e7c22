//! The AmuletOS runtime: scheduler, context switches, system-call servicing
//! and fault handling, running applications on the simulated device.
//!
//! The runtime follows §3 of the paper:
//!
//! * the OS drives each application's state machine by delivering events to
//!   its handler functions;
//! * on every OS↔app transition it swaps MPU configurations and stacks as
//!   the isolation method requires (see
//!   [`amulet_core::switch::ContextSwitchPlan`] — the same plan whose cycle
//!   costs appear in Table 1);
//! * application-provided pointers passed through API calls are validated
//!   against the calling app's bounds before the OS dereferences them;
//! * invalid accesses (MPU violations or compiler-inserted check failures)
//!   land in the FAULT handler, which logs the fault and applies the restart
//!   policy.

use crate::events::{DeliveryPolicy, Event, EventKind, EventQueue};
use crate::policy::{AppState, FaultAction, FaultHandler, RestartPolicy};
use crate::syscalls::{service_costs, Services, SyscallArgs};
use amulet_aft::api::ApiSpec;
use amulet_core::addr::Addr;
use amulet_core::fault::FaultClass;
use amulet_core::method::IsolationMethod;
use amulet_core::switch::{ContextSwitchPlan, SwitchDirection};
use amulet_mcu::bus::BusCheckpoint;
use amulet_mcu::cpu::{Cpu, FaultInfo};
use amulet_mcu::device::{Device, StopReason};
use amulet_mcu::firmware::Firmware;
use amulet_mcu::isa::Reg;
use std::sync::Arc;

/// Configuration knobs for the runtime.
#[derive(Clone, Copy, Debug)]
pub struct OsOptions {
    /// What to do with applications that fault.
    pub restart_policy: RestartPolicy,
    /// Ablation A: when the isolation method shares a single stack between
    /// the OS and apps, zero the stack region whenever the running app
    /// changes (the cost the paper's per-app-stack design avoids).
    pub zero_shared_stack: bool,
    /// Seed for the synthetic sensors.
    pub sensor_seed: u32,
    /// Maximum instructions a single handler may execute before the OS
    /// declares it runaway and faults it.
    pub step_budget: u64,
    /// How queued events are handed to applications: one switch round trip
    /// per event (the paper's baseline) or one per batch of consecutive
    /// same-app events.
    pub delivery: DeliveryPolicy,
}

impl Default for OsOptions {
    fn default() -> Self {
        OsOptions {
            restart_policy: RestartPolicy::Kill,
            zero_shared_stack: false,
            sensor_seed: 0xA11CE,
            step_budget: 5_000_000,
            delivery: DeliveryPolicy::PerEvent,
        }
    }
}

/// Per-application runtime statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppRuntimeStats {
    /// Events delivered to the app.
    pub events_delivered: u64,
    /// System calls the app made.
    pub syscalls: u64,
    /// Faults the app triggered.
    pub faults: u64,
    /// Cycles spent executing the app's own instructions.
    pub app_cycles: u64,
    /// Cycles spent on OS↔app context switching on the app's behalf.
    pub switch_cycles: u64,
    /// Cycles spent inside OS service bodies on the app's behalf.
    pub service_cycles: u64,
    /// Full directed OS↔app transitions charged (each direction counts 1).
    pub full_switches: u64,
    /// Intra-batch delivery boundaries charged instead of a full switch
    /// pair (always 0 under [`DeliveryPolicy::PerEvent`]).
    pub batch_boundaries: u64,
}

impl AppRuntimeStats {
    /// All cycles attributable to this app.
    pub fn total_cycles(&self) -> u64 {
        self.app_cycles + self.switch_cycles + self.service_cycles
    }
}

/// The dispatch record of one **stamped** event (see [`Event::stamped`]):
/// when the scheduler took the event up, on the device's cycle clock.
///
/// Unstamped events (boot `main`s, timer re-arms the OS queues itself)
/// record nothing, so runs that never stamp pay nothing and see an empty
/// log.  The time-stepped fleet runner stamps every trace arrival and
/// joins these records against its virtual clock to compute per-event
/// delivery latency — including events that were queued while the device
/// was busy or deferred by the batching policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The arrival stamp the event carried (trace milliseconds).
    pub stamp_ms: u64,
    /// Device cycle counter at the moment the scheduler dispatched the
    /// event (before its switch/boundary was charged).
    pub at_cycles: u64,
    /// The destination application.
    pub app_index: usize,
}

/// Why a delivery finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The handler ran to completion.
    Completed,
    /// The handler faulted (and the restart policy was applied).
    Faulted(FaultClass),
    /// The app is killed or has no such handler; nothing ran.
    Skipped,
}

/// Precomputed directed context-switch cycle costs.
///
/// A switch's cost is a pure function of platform × method × direction ×
/// pointer-argument count, but building a [`ContextSwitchPlan`] allocates
/// its step list — measurable when the fleet simulator charges two switches
/// per delivered event across hundreds of thousands of events.  The
/// runtime therefore computes the costs once per platform and method and
/// charges from this table; the plan type remains the single source of
/// truth for the values.
#[derive(Clone, Debug)]
struct SwitchCostCache {
    /// Cost of the OS → app transition (never validates pointers).
    os_to_app: u64,
    /// Cost of the app → OS transition, indexed by pointer-argument count.
    app_to_os: [u64; MAX_CACHED_POINTER_ARGS as usize + 1],
}

/// Pointer-argument counts precomputed in [`SwitchCostCache::app_to_os`]
/// (no Amulet API call passes more; higher counts fall back to building
/// the plan).
const MAX_CACHED_POINTER_ARGS: u32 = 4;

impl SwitchCostCache {
    fn new(platform: &amulet_core::layout::PlatformSpec, method: IsolationMethod) -> Self {
        SwitchCostCache {
            os_to_app: ContextSwitchPlan::new_for(platform, method, SwitchDirection::OsToApp, 0)
                .cycles(),
            app_to_os: std::array::from_fn(|n| {
                ContextSwitchPlan::new_for(platform, method, SwitchDirection::AppToOs, n as u32)
                    .cycles()
            }),
        }
    }
}

/// A saved runtime state ([`AmuletOs::save`], [`AmuletOs::restore`]):
/// the device (its bus checkpoint and CPU) and every piece of OS run
/// state.  The firmware image and the options are not part of it.  Its
/// buffers are reused by every later save, so a checkpoint kept across
/// devices saves and restores without allocating.
#[derive(Clone, Debug, Default)]
pub struct OsCheckpoint {
    bus: BusCheckpoint,
    cpu: Cpu,
    services: Services,
    queue: EventQueue,
    faults: FaultHandler,
    app_states: Vec<AppState>,
    stats: Vec<AppRuntimeStats>,
    subscriptions: Vec<(usize, u16)>,
    delivery_log: Vec<DeliveryRecord>,
    last_app_on_shared_stack: Option<usize>,
    pending_yield: bool,
}

/// The AmuletOS runtime.
#[derive(Debug)]
pub struct AmuletOs {
    /// The simulated device the firmware runs on.
    pub device: Device,
    firmware: Arc<Firmware>,
    api: ApiSpec,
    /// OS services (sensors, log, display).
    pub services: Services,
    /// The pending event queue.
    pub queue: EventQueue,
    /// The fault handler and its records.
    pub faults: FaultHandler,
    /// Per-app lifecycle states.
    app_states: Vec<AppState>,
    /// Per-app statistics.
    pub stats: Vec<AppRuntimeStats>,
    /// Event-stream subscriptions (app index, stream id).
    pub subscriptions: Vec<(usize, u16)>,
    /// Dispatch records of stamped events, in dispatch order (empty unless
    /// the caller stamps events; see [`DeliveryRecord`]).
    pub delivery_log: Vec<DeliveryRecord>,
    options: OsOptions,
    method: IsolationMethod,
    switch_costs: SwitchCostCache,
    last_app_on_shared_stack: Option<usize>,
    /// Set when the running handler called `amulet_yield`; consumed by the
    /// batch-delivery machinery to end the current batch early.
    pending_yield: bool,
    /// The scheduler's batch buffer, reused by every batch it pops.
    batch: Vec<Event>,
}

impl AmuletOs {
    /// Boots the runtime with a firmware image and default options.
    pub fn new(firmware: Firmware) -> Self {
        Self::with_options(firmware, OsOptions::default())
    }

    /// Boots the runtime with explicit options: the simulated device is
    /// built for whatever platform the firmware was linked against.
    pub fn with_options(firmware: Firmware, options: OsOptions) -> Self {
        Self::with_options_shared(Arc::new(firmware), options)
    }

    /// [`AmuletOs::with_options`] for an already-shared firmware image: the
    /// runtime holds a reference instead of cloning the image, so creating
    /// many runtimes from one build (the fleet case) costs no instruction
    /// store or metadata copies.
    pub fn with_options_shared(firmware: Arc<Firmware>, options: OsOptions) -> Self {
        let mut device = Device::new(firmware.memory_map.platform.clone());
        device.load_firmware_shared(Arc::clone(&firmware));
        device.bus.timer.start();
        let method = firmware.method;
        let switch_costs = SwitchCostCache::new(&firmware.memory_map.platform, method);
        let mut os = AmuletOs {
            device,
            api: ApiSpec::amulet(),
            services: Services::default(),
            queue: EventQueue::new(),
            faults: FaultHandler::default(),
            app_states: Vec::new(),
            stats: Vec::new(),
            subscriptions: Vec::new(),
            delivery_log: Vec::new(),
            options,
            method,
            switch_costs,
            firmware,
            last_app_on_shared_stack: None,
            pending_yield: false,
            batch: Vec::new(),
        };
        os.install_fresh_state();
        os
    }

    /// Loads another firmware image into this runtime, leaving it in the
    /// state [`AmuletOs::with_options_shared`]`(firmware, options)` builds.
    /// An image for the same platform reuses the device — its 64 KiB
    /// memory, the bus and its attribute-table memo — the API tables, and
    /// for the same method the switch-cost table.  Only an image for
    /// another platform rebuilds the runtime.
    pub fn reload(&mut self, firmware: Arc<Firmware>, options: OsOptions) {
        if firmware.memory_map.platform != self.firmware.memory_map.platform {
            *self = Self::with_options_shared(firmware, options);
            return;
        }
        if firmware.method != self.method {
            self.method = firmware.method;
            self.switch_costs = SwitchCostCache::new(&firmware.memory_map.platform, self.method);
        }
        self.options = options;
        self.device.reload_firmware(Arc::clone(&firmware));
        self.device.bus.timer.start();
        self.firmware = firmware;
        self.install_fresh_state();
    }

    /// (Re-)initialises every piece of runtime state that must be cleared
    /// for a fresh run — the single source of truth shared by
    /// [`AmuletOs::with_options`], [`AmuletOs::reload`] and
    /// [`AmuletOs::reset`] so they can never drift.  Buffers are cleared
    /// in place, so a reset allocates nothing.
    fn install_fresh_state(&mut self) {
        let app_count = self.firmware.apps.len();
        self.services.reset(self.options.sensor_seed);
        self.queue.clear();
        self.faults.reset(self.options.restart_policy, app_count);
        self.app_states.clear();
        self.app_states.resize(app_count, AppState::Active);
        self.stats.clear();
        self.stats.resize(app_count, AppRuntimeStats::default());
        self.subscriptions.clear();
        self.delivery_log.clear();
        self.last_app_on_shared_stack = None;
        self.pending_yield = false;
    }

    /// Restores the runtime (and its device) to the freshly-loaded,
    /// pre-[`boot`](AmuletOs::boot) state without rebuilding or re-decoding
    /// the firmware image.  The fleet simulator runs each device from this
    /// state; the expensive AFT build and instruction decode happen once
    /// per image, and the memory reset zeroes only the pages the previous
    /// run wrote.  Options set since the runtime was built are kept.
    pub fn reset(&mut self) {
        self.device.reset();
        self.device.bus.timer.start();
        self.install_fresh_state();
    }

    /// Saves the run state into `checkpoint` for a later
    /// [`restore`](AmuletOs::restore): the device's bus (written pages,
    /// MPU, timer, counters) and CPU, the services, the queue,
    /// the fault handler, the app states and statistics, the
    /// subscriptions, the delivery log and the scheduler's shared-stack
    /// and yield state.  The fleet simulator saves after boot and the
    /// fault probe, whose outcome does not depend on the delivery policy,
    /// and runs the second delivery policy from there.
    pub fn save(&self, checkpoint: &mut OsCheckpoint) {
        self.device.bus.save(&mut checkpoint.bus);
        checkpoint.cpu.clone_from(&self.device.cpu);
        checkpoint.services.clone_from(&self.services);
        checkpoint.queue.clone_from(&self.queue);
        checkpoint.faults.clone_from(&self.faults);
        checkpoint.app_states.clone_from(&self.app_states);
        checkpoint.stats.clone_from(&self.stats);
        checkpoint.subscriptions.clone_from(&self.subscriptions);
        checkpoint.delivery_log.clone_from(&self.delivery_log);
        checkpoint.last_app_on_shared_stack = self.last_app_on_shared_stack;
        checkpoint.pending_yield = self.pending_yield;
    }

    /// Returns the runtime to the state [`save`](AmuletOs::save) recorded
    /// in `checkpoint`, which must have been taken on this runtime with
    /// its current image loaded.  The image and the options (delivery
    /// policy included) are left as they are.
    pub fn restore(&mut self, checkpoint: &OsCheckpoint) {
        self.device.bus.restore(&checkpoint.bus);
        self.device.cpu.clone_from(&checkpoint.cpu);
        self.services.clone_from(&checkpoint.services);
        self.queue.clone_from(&checkpoint.queue);
        self.faults.clone_from(&checkpoint.faults);
        self.app_states.clone_from(&checkpoint.app_states);
        self.stats.clone_from(&checkpoint.stats);
        self.subscriptions.clone_from(&checkpoint.subscriptions);
        self.delivery_log.clone_from(&checkpoint.delivery_log);
        self.last_app_on_shared_stack = checkpoint.last_app_on_shared_stack;
        self.pending_yield = checkpoint.pending_yield;
    }

    /// Changes the delivery policy (takes effect at the next delivery).
    pub fn set_delivery_policy(&mut self, policy: DeliveryPolicy) {
        self.options.delivery = policy;
    }

    /// Changes the synthetic-sensor seed: the sensor RNG is re-seeded
    /// **immediately** and the seed is recorded for every future
    /// [`AmuletOs::reset`].  The fleet simulator uses this to reuse one
    /// runtime (decoded instruction store, bus attribute tables, API
    /// tables) across many simulated devices that share a firmware image
    /// but draw different sensor streams — and because the call applies in
    /// place, `reset(); set_sensor_seed(s)` and `set_sensor_seed(s);
    /// reset()` both leave the sensors in exactly the fresh-boot state for
    /// `s`: the previous device's RNG state can never leak through either
    /// ordering.  (Only the sensor RNG is touched; the log, display and
    /// dispatch counters are left for `reset` to clear.)
    pub fn set_sensor_seed(&mut self, seed: u32) {
        self.options.sensor_seed = seed;
        self.services.sensors = crate::sensors::SensorModel::new(seed);
    }

    /// The firmware image the runtime is executing.  Fleet campaigns use
    /// this to compute attack targets from real placements and to
    /// serialise the running image for OTA re-install transactions.
    pub fn firmware(&self) -> &Arc<Firmware> {
        &self.firmware
    }

    /// Changes the restart policy, both for the live fault handler and for
    /// every future [`AmuletOs::reset`], so a shared runtime can serve
    /// devices with different watchdog configurations.  (Fault counts and
    /// backoff state are untouched; `reset` clears those.)
    pub fn set_restart_policy(&mut self, policy: RestartPolicy) {
        self.options.restart_policy = policy;
        self.faults.policy = policy;
    }

    /// Changes the watchdog step budget (maximum instructions one handler
    /// may execute).  Applies to the next delivery.
    pub fn set_step_budget(&mut self, budget: u64) {
        self.options.step_budget = budget;
    }

    /// Number of installed applications.
    pub fn app_count(&self) -> usize {
        self.firmware.apps.len()
    }

    /// The lifecycle state of an app.
    pub fn app_state(&self, index: usize) -> AppState {
        self.app_states[index]
    }

    /// Finds an app's index by name.
    pub fn app_index(&self, name: &str) -> Option<usize> {
        self.firmware.apps.iter().position(|a| &*a.name == name)
    }

    /// Total cycles elapsed on the device.
    pub fn total_cycles(&self) -> u64 {
        self.device.cycles()
    }

    /// Read-only view of the device's CPU execution statistics (retired
    /// instructions, data accesses, syscalls, faults).  Cycle and energy
    /// accounting derive from [`Self::total_cycles`], not from these
    /// counters.
    pub fn cpu_stats(&self) -> amulet_mcu::cpu::CpuStats {
        self.device.cpu.stats
    }

    /// Delivers each app's `main` handler once (firmware boot).
    ///
    /// Only the boot events themselves are delivered here; events the apps
    /// arm during boot (timers, subscriptions) stay queued for the caller's
    /// scheduler loop.
    pub fn boot(&mut self) {
        let mut boot_events = 0;
        for i in 0..self.app_count() {
            if self.firmware.apps[i].handlers.contains_key("main") {
                self.queue.push(Event::new(i, "main", 0, EventKind::System));
                boot_events += 1;
            }
        }
        self.run_queue(boot_events);
    }

    /// Posts an event for later delivery.
    pub fn post_event(&mut self, event: Event) {
        self.queue.push(event);
    }

    /// Delivers up to `max_events` pending events; returns how many were
    /// delivered.  Under a batched policy, consecutive same-app events are
    /// grouped (never beyond `max_events`) and delivered through one switch
    /// pair each.
    pub(crate) fn run_queue(&mut self, max_events: usize) -> usize {
        let mut batch = std::mem::take(&mut self.batch);
        let mut delivered = 0;
        while delivered < max_events {
            let room = max_events - delivered;
            self.queue
                .pop_batch_into(self.options.delivery.max_batch().min(room), &mut batch);
            if batch.is_empty() {
                break;
            }
            delivered += batch.len();
            self.deliver_batch(&batch);
        }
        self.batch = batch;
        delivered
    }

    /// Services pending events as the delivery policy allows, bounded by
    /// the number of events pending at call time (so handlers that enqueue
    /// further events cannot make one pump run forever).
    ///
    /// * [`DeliveryPolicy::PerEvent`] delivers everything pending;
    /// * [`DeliveryPolicy::Batched`] delivers only while a full batch is
    ///   ready at the queue head **or** the head event has waited through
    ///   `max_latency_events` later arrivals
    ///   (`EventQueue::head_wait_events`) — otherwise events keep
    ///   accumulating so a later pump can amortise the switch over a
    ///   bigger batch.  The latency bound is a property of the *waiting
    ///   head event*, not of the total queue length: a backlog of
    ///   unrelated other-app events cannot force a premature partial
    ///   flush of a freshly-arrived run, and a head event's wait counts
    ///   even when the events it waited through belonged to other apps.
    ///   [`flush`](Self::flush) delivers the stragglers.
    ///
    /// Returns how many events were delivered.
    pub fn pump(&mut self) -> usize {
        match self.options.delivery {
            DeliveryPolicy::PerEvent => self.flush(),
            DeliveryPolicy::Batched {
                max_batch,
                max_latency_events,
            } => {
                let budget = self.queue.len();
                let mut batch = std::mem::take(&mut self.batch);
                let mut delivered = 0;
                while delivered < budget {
                    let full_batch_ready = self.queue.head_run_len() >= max_batch.max(1);
                    let latency_bound_hit =
                        self.queue.head_wait_events() >= max_latency_events.max(1);
                    if !full_batch_ready && !latency_bound_hit {
                        break;
                    }
                    let room = budget - delivered;
                    self.queue
                        .pop_batch_into(max_batch.max(1).min(room), &mut batch);
                    if batch.is_empty() {
                        break;
                    }
                    delivered += batch.len();
                    self.deliver_batch(&batch);
                }
                self.batch = batch;
                delivered
            }
        }
    }

    /// [`pump`](Self::pump), also reporting the executed cycles the pump
    /// consumed — the per-pump totals the time-stepped fleet runner turns
    /// into virtual-clock advances.
    pub fn pump_counted(&mut self) -> (usize, u64) {
        let before = self.device.cycles();
        let delivered = self.pump();
        (delivered, self.device.cycles() - before)
    }

    /// [`flush`](Self::flush), also reporting the executed cycles consumed.
    pub fn flush_counted(&mut self) -> (usize, u64) {
        let before = self.device.cycles();
        let delivered = self.flush();
        (delivered, self.device.cycles() - before)
    }

    /// Delivers every event pending at call time, ignoring the batching
    /// thresholds (batches are still formed, so batched switch accounting
    /// applies).  Returns how many events were delivered.
    pub fn flush(&mut self) -> usize {
        let pending = self.queue.len();
        self.run_queue(pending)
    }

    /// Invokes one handler of one app synchronously (the benches use this to
    /// measure individual operations).  Returns the outcome and the cycles
    /// the delivery consumed.
    pub fn call_handler(
        &mut self,
        app_index: usize,
        handler: &str,
        payload: u16,
    ) -> (DeliveryOutcome, u64) {
        let before = self.device.cycles();
        let outcome = self.deliver(&Event::new(app_index, handler, payload, EventKind::System));
        (outcome, self.device.cycles() - before)
    }

    /// Delivers a single event (one full switch round trip).
    pub(crate) fn deliver(&mut self, event: &Event) -> DeliveryOutcome {
        self.deliver_batch(std::slice::from_ref(event))
            .expect("a one-event batch has an outcome")
    }

    /// Delivers a batch of events addressed to a single application.
    ///
    /// The first event that actually runs pays the full OS→app switch; the
    /// boundaries between events of the batch run through the trusted
    /// dispatch trampoline (the app's MPU configuration is already
    /// installed, nothing needs saving or restoring) and are charged
    /// [`ContextSwitchPlan::batched_boundary_cycles`]; the last event pays
    /// the full app→OS switch.  Faults, missing handlers and `amulet_yield`
    /// fall back to full switches, so app-visible behaviour is identical to
    /// event-at-a-time delivery — only the switch cost differs.
    ///
    /// Returns the outcome of the batch's last event (`None` for an empty
    /// batch); the scheduler needs none, so no per-event list is built.
    pub(crate) fn deliver_batch(&mut self, events: &[Event]) -> Option<DeliveryOutcome> {
        let mut last_outcome = None;
        // Whether the app's context is live because the previous event of
        // this batch elided its exit switch.
        let mut in_app = false;
        debug_assert!(
            events.windows(2).all(|w| w[0].app_index == w[1].app_index),
            "a delivery batch must not span applications"
        );
        // The exit switch may be elided only when a later event of this
        // batch will actually run a handler.  Handler presence cannot
        // change inside a batch, so one reverse scan finds the last event
        // that has one.
        let last_with_handler = events.first().and_then(|first| {
            let handlers = &self.firmware.apps.get(first.app_index)?.handlers;
            events
                .iter()
                .rposition(|e| handlers.contains_key(e.handler.as_str()))
        });
        for (i, event) in events.iter().enumerate() {
            let idx = event.app_index;
            if let Some(stamp_ms) = event.stamp_ms {
                // The event's wait ends here: the scheduler has taken it up
                // (even if it is about to be skipped).  Recording reads the
                // clock only — it never advances it, so stamping cannot
                // perturb any simulated quantity.
                self.delivery_log.push(DeliveryRecord {
                    stamp_ms,
                    at_cycles: self.device.cycles(),
                    app_index: idx,
                });
            }
            if idx >= self.app_count() || self.app_states[idx] != AppState::Active {
                last_outcome = Some(DeliveryOutcome::Skipped);
                continue;
            }
            // Restart backoff: an app held back after a watchdog restart
            // forfeits deliveries until its backoff is spent.
            if self.faults.consume_backoff(idx) {
                last_outcome = Some(DeliveryOutcome::Skipped);
                continue;
            }
            let Some(&entry) = self.firmware.apps[idx].handlers.get(event.handler.as_str()) else {
                last_outcome = Some(DeliveryOutcome::Skipped);
                continue;
            };

            self.stats[idx].events_delivered += 1;

            // Ablation A: a shared stack must be scrubbed when the running
            // app changes, lest the new app read the previous app's stack
            // tailings.
            if self.options.zero_shared_stack
                && !self.method.uses_per_app_stacks()
                && self.last_app_on_shared_stack != Some(idx)
            {
                let stack = self.firmware.memory_map.os_stack;
                self.device.bus.fill(stack, 0);
                // One word written per cycle pair plus loop overhead.
                let words = (stack.len() / 2) as u64;
                self.charge_switch(idx, 2 * words + 10);
            }
            self.last_app_on_shared_stack = Some(idx);

            if in_app {
                // Intra-batch boundary: no MPU traffic, no save/restore.
                self.charge_batch_boundary(idx);
            } else {
                // OS → app half of the switch.
                self.switch_to_app(idx);
            }

            // Set up the handler call: argument word, then the sentinel
            // return address (pushed by `prepare_call`).
            let sp0 = self.app_stack_pointer(idx);
            let arg_sp = sp0.wrapping_sub(2) & 0xFFFF;
            self.device.bus.write_raw(arg_sp, 2, event.payload);
            self.device.prepare_call(entry, arg_sp);

            let later_runnable = last_with_handler.is_some_and(|last| last > i);
            self.pending_yield = false;
            let (outcome, still_in_app) = self.run_app_until_return(idx, later_runnable);
            in_app = still_in_app;
            last_outcome = Some(outcome);
        }
        debug_assert!(
            !in_app,
            "a batch must end with the OS configuration installed"
        );
        last_outcome
    }

    fn app_stack_pointer(&self, idx: usize) -> Addr {
        if self.method.uses_per_app_stacks() {
            self.firmware.apps[idx].initial_sp
        } else {
            self.firmware.os.initial_sp
        }
    }

    fn charge_switch(&mut self, idx: usize, cycles: u64) {
        self.device.charge_cycles(cycles);
        self.stats[idx].switch_cycles += cycles;
    }

    /// Charges the cheap intra-batch delivery boundary (handler-return trap
    /// plus next-event dispatch; see
    /// [`ContextSwitchPlan::batched_boundary_cycles`]).
    fn charge_batch_boundary(&mut self, idx: usize) {
        let cycles = ContextSwitchPlan::batched_boundary_cycles();
        self.charge_switch(idx, cycles);
        self.stats[idx].batch_boundaries += 1;
    }

    /// OS → app transition: charge the (precomputed) plan cost and install
    /// the app's MPU configuration by writing the real memory-mapped
    /// registers through the bus, exactly as the OS switch code does on
    /// hardware.  The install cannot fail: the OS never locks the MPU.
    fn switch_to_app(&mut self, idx: usize) {
        self.charge_switch(idx, self.switch_costs.os_to_app);
        self.stats[idx].full_switches += 1;
        if self.method.uses_mpu() {
            let _ = self
                .device
                .bus
                .install_mpu_config(&self.firmware.apps[idx].mpu_config);
        }
    }

    /// App → OS transition: charge the (precomputed) plan cost, including
    /// validation of any pointer arguments, and install the OS MPU
    /// configuration.
    fn switch_to_os(&mut self, idx: usize, pointer_args: u32) {
        let cycles = match self.switch_costs.app_to_os.get(pointer_args as usize) {
            Some(&c) => c,
            None => ContextSwitchPlan::new_for(
                &self.firmware.memory_map.platform,
                self.method,
                SwitchDirection::AppToOs,
                pointer_args,
            )
            .cycles(),
        };
        self.charge_switch(idx, cycles);
        self.stats[idx].full_switches += 1;
        if self.method.uses_mpu() {
            let _ = self
                .device
                .bus
                .install_mpu_config(&self.firmware.os.mpu_config);
        }
    }

    /// Validates an app-supplied pointer argument against the app's bounds
    /// (performed by the OS before dereferencing, for methods that allow
    /// pointers at all).
    fn pointer_arg_in_bounds(&self, idx: usize, ptr: u16) -> bool {
        let placement = &self.firmware.apps[idx].placement;
        placement.data_stack().contains(ptr as Addr)
    }

    /// Runs the app until its handler returns (or faults).  `elide_exit`
    /// allows the completion switch to be skipped because another event of
    /// the same batch follows; the second element of the return value says
    /// whether the app's context is still live (exit actually elided).
    fn run_app_until_return(&mut self, idx: usize, elide_exit: bool) -> (DeliveryOutcome, bool) {
        let mut steps_left = self.options.step_budget;
        loop {
            let exit = self.device.run(steps_left.max(1));
            self.stats[idx].app_cycles += exit.cycles;
            steps_left = steps_left.saturating_sub(exit.steps);
            match exit.reason {
                StopReason::HandlerDone | StopReason::Halted => {
                    if elide_exit && !self.pending_yield {
                        // Stay in the app's context: the next event of the
                        // batch is dispatched without a full switch.
                        return (DeliveryOutcome::Completed, true);
                    }
                    // App → OS on handler completion.
                    self.switch_to_os(idx, 0);
                    return (DeliveryOutcome::Completed, false);
                }
                StopReason::Syscall { num } => {
                    let args = SyscallArgs {
                        arg0: self.device.cpu.reg(Reg::R14),
                        arg1: self.device.cpu.reg(Reg::R15),
                    };
                    let (pointer_args, service_cycles) = service_costs(&self.api, num);
                    self.stats[idx].syscalls += 1;

                    // App → OS.
                    let validate = self.method.allows_pointers() && self.method.inserts_checks();
                    self.switch_to_os(idx, if validate { pointer_args } else { 0 });

                    // Validate pointer arguments before the OS touches them.
                    if validate && pointer_args > 0 && !self.pointer_arg_in_bounds(idx, args.arg0) {
                        let info = FaultInfo {
                            class: FaultClass::ApiViolation,
                            pc: self.device.cpu.pc(),
                            addr: Some(args.arg0 as Addr),
                        };
                        return (self.handle_fault(idx, info), false);
                    }

                    // Service body.
                    let at = self.device.cycles();
                    let mut reader = {
                        let bus = &mut self.device.bus;
                        move |addr: Addr| bus.read_raw(addr, 2)
                    };
                    let outcome =
                        self.services
                            .dispatch(service_cycles, idx, num, args, at, &mut reader);
                    self.device.charge_cycles(outcome.service_cycles);
                    self.stats[idx].service_cycles += outcome.service_cycles;

                    if let Some(ms) = outcome.timer_armed_ms {
                        if self.firmware.apps[idx].handlers.contains_key("on_timer") {
                            // An app owns one timer: re-arming replaces any
                            // still-pending timer event instead of stacking
                            // a second one.
                            self.queue.cancel_timers_for(idx);
                            self.queue
                                .push(Event::new(idx, "on_timer", ms, EventKind::Timer));
                        }
                    }
                    if let Some(stream) = outcome.subscribed_stream {
                        self.subscriptions.push((idx, stream));
                    }
                    if outcome.yielded {
                        self.pending_yield = true;
                    }

                    // OS → app, with the return value in R14.
                    self.switch_to_app(idx);
                    self.device.cpu.set_reg(Reg::R14, outcome.ret);
                }
                StopReason::Fault(info) => {
                    return (self.handle_fault(idx, info), false);
                }
                StopReason::StepLimit => {
                    let info = FaultInfo {
                        class: FaultClass::WatchdogBudget,
                        pc: self.device.cpu.pc(),
                        addr: None,
                    };
                    return (self.handle_fault(idx, info), false);
                }
            }
        }
    }

    fn handle_fault(&mut self, idx: usize, info: FaultInfo) -> DeliveryOutcome {
        self.stats[idx].faults += 1;
        // The FAULT handler logs app-specific information about the fault;
        // charge a modest fixed cost for that bookkeeping.
        self.charge_switch(idx, 60);
        // Make sure the OS configuration is back in force before the OS
        // touches anything.
        if self.method.uses_mpu() {
            let _ = self
                .device
                .bus
                .install_mpu_config(&self.firmware.os.mpu_config);
        }
        let action = self.faults.handle(
            idx,
            &self.firmware.apps[idx].name,
            info,
            self.device.cycles(),
        );
        match action {
            FaultAction::Killed => {
                self.app_states[idx] = AppState::Killed;
            }
            FaultAction::Restarted => {
                self.restart_app(idx);
            }
            FaultAction::Quarantined => {
                self.app_states[idx] = AppState::Quarantined;
            }
        }
        DeliveryOutcome::Faulted(info.class)
    }

    /// Reinitialises an app's data region from the firmware image (the
    /// restart policy from the paper's discussion section).
    fn restart_app(&mut self, idx: usize) {
        let data_stack = self.firmware.apps[idx].placement.data_stack();
        // Clear the whole data/stack segment, then re-copy initialisers.
        self.device.bus.fill(data_stack, 0);
        for seg in self
            .firmware
            .data
            .iter()
            .filter(|s| data_stack.contains(s.addr))
        {
            self.device.bus.load_bytes(seg.addr, &seg.bytes);
        }
        self.app_states[idx] = AppState::Active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_aft::aft::{Aft, AppSource};

    const COUNTER_APP: &str = r#"
        int count = 0;
        void main(void) { amulet_subscribe(1); }
        int on_tick(int delta) {
            count += delta;
            amulet_log_value(count);
            return count;
        }
    "#;

    const WILD_APP: &str = r#"
        void main(void) { }
        int poke(int where) {
            int *p;
            p = where;
            *p = 99;
            return 1;
        }
    "#;

    fn build(method: IsolationMethod, sources: &[(&str, &str, &[&str])]) -> AmuletOs {
        let mut aft = Aft::new(method);
        for (name, src, handlers) in sources {
            aft = aft.add_app(AppSource::new(*name, *src, handlers));
        }
        AmuletOs::new(aft.build().unwrap().firmware)
    }

    #[test]
    fn boot_runs_main_and_records_subscriptions() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Counter", COUNTER_APP, &["main", "on_tick"])],
        );
        os.boot();
        assert_eq!(os.subscriptions, vec![(0, 1)]);
        assert_eq!(os.stats[0].events_delivered, 1);
        assert_eq!(os.stats[0].syscalls, 1);
    }

    #[test]
    fn events_drive_handlers_and_state_persists() {
        for method in IsolationMethod::ALL {
            // The counter app is pointer-free so it builds under every
            // method, including Feature Limited.
            let mut os = build(method, &[("Counter", COUNTER_APP, &["main", "on_tick"])]);
            os.boot();
            for i in 1..=5 {
                let (outcome, _) = os.call_handler(0, "on_tick", i);
                assert_eq!(outcome, DeliveryOutcome::Completed, "{method}");
            }
            // 1+2+3+4+5 = 15 logged last.
            assert_eq!(os.services.log.last().unwrap().value, 15, "{method}");
            assert_eq!(os.stats[0].syscalls, 1 + 5);
        }
    }

    #[test]
    fn wild_pointer_faults_and_kill_policy_disables_the_app() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Wild", WILD_APP, &["main", "poke"])],
        );
        os.boot();
        // Poke the OS data region (below the app): caught by the
        // compiler-inserted lower-bound check.
        let (outcome, _) = os.call_handler(0, "poke", 0x4500);
        assert!(matches!(
            outcome,
            DeliveryOutcome::Faulted(FaultClass::DataPointerLowerBound)
        ));
        assert_eq!(os.app_state(0), AppState::Killed);
        assert_eq!(os.faults.records.len(), 1);
        // Further deliveries are skipped.
        let (outcome, _) = os.call_handler(0, "poke", 0x4500);
        assert_eq!(outcome, DeliveryOutcome::Skipped);
    }

    #[test]
    fn wild_pointer_above_faults_through_the_mpu_hardware() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Wild", WILD_APP, &["main", "poke"])],
        );
        os.boot();
        // 0xF000 is above the app: no software check exists under the MPU
        // method, so this must be caught by the MPU itself.
        let (outcome, _) = os.call_handler(0, "poke", 0xF000);
        assert!(matches!(
            outcome,
            DeliveryOutcome::Faulted(FaultClass::MpuViolation)
        ));
    }

    #[test]
    fn no_isolation_lets_the_wild_write_corrupt_memory() {
        let mut os = build(
            IsolationMethod::NoIsolation,
            &[("Wild", WILD_APP, &["main", "poke"])],
        );
        os.boot();
        let target = 0x4500;
        let before = os.device.bus.read_raw(target, 2);
        let (outcome, _) = os.call_handler(0, "poke", target as u16);
        assert_eq!(outcome, DeliveryOutcome::Completed);
        assert_ne!(
            os.device.bus.read_raw(target, 2),
            before,
            "OS memory was silently corrupted"
        );
    }

    #[test]
    fn restart_policy_reinitialises_app_data() {
        let src = r#"
            int count = 7;
            void main(void) { }
            int crash(int x) {
                int *p;
                count += 1;
                p = 0x4400;
                *p = 1;
                return 0;
            }
            int get(int x) { return count; }
        "#;
        let out = Aft::new(IsolationMethod::SoftwareOnly)
            .add_app(AppSource::new("Restarty", src, &["main", "crash", "get"]))
            .build()
            .unwrap();
        let mut os = AmuletOs::with_options(
            out.firmware,
            OsOptions {
                restart_policy: RestartPolicy::Restart,
                ..OsOptions::default()
            },
        );
        os.boot();
        let (outcome, _) = os.call_handler(0, "crash", 0);
        assert!(matches!(outcome, DeliveryOutcome::Faulted(_)));
        assert_eq!(os.app_state(0), AppState::Active, "restarted, not killed");
        // The increment performed before the crash was rolled back by the
        // data reinitialisation.
        let (outcome, _) = os.call_handler(0, "get", 0);
        assert_eq!(outcome, DeliveryOutcome::Completed);
        assert_eq!(os.device.cpu.reg(Reg::R14), 7);
    }

    #[test]
    fn one_app_cannot_reach_anothers_data_under_mpu() {
        let victim = r#"
            int secret = 1234;
            void main(void) { }
            int get_secret(int x) { return secret; }
        "#;
        let attacker = r#"
            void main(void) { }
            int steal(int addr) {
                int *p;
                p = addr;
                return *p;
            }
        "#;
        let out = Aft::new(IsolationMethod::Mpu)
            .add_app(AppSource::new("Victim", victim, &["main", "get_secret"]))
            .add_app(AppSource::new("Attacker", attacker, &["main", "steal"]))
            .build()
            .unwrap();
        let victim_data = out.firmware.apps[0].placement.data.start;
        let mut os = AmuletOs::new(out.firmware);
        os.boot();
        // Attacker (app 1, above or below victim) tries to read the victim's
        // secret.  Victim sits below the attacker, so the *lower bound*
        // software check fires.
        let (outcome, _) = os.call_handler(1, "steal", victim_data as u16);
        assert!(
            matches!(outcome, DeliveryOutcome::Faulted(_)),
            "read was blocked"
        );
    }

    #[test]
    fn timer_syscall_schedules_a_timer_event() {
        let src = r#"
            int fired = 0;
            void main(void) { amulet_set_timer(250); }
            int on_timer(int ms) { fired = ms; return fired; }
        "#;
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Timed", src, &["main", "on_timer"])],
        );
        os.boot();
        // boot() delivered main, which armed the timer; the timer event is
        // now queued and carries the period as its payload.
        assert_eq!(os.queue.len(), 1);
        assert_eq!(os.run_queue(10), 1);
        assert_eq!(os.device.cpu.reg(Reg::R14), 250);
    }

    #[test]
    fn switch_overhead_matches_table1_ordering() {
        // Deliver the same pointer-free handler under each method and
        // compare per-delivery switch cycles: MPU must pay the most, the
        // shared-stack methods the least, Software Only in between.
        let mut per_method = std::collections::BTreeMap::new();
        for method in IsolationMethod::ALL {
            let mut os = build(method, &[("Counter", COUNTER_APP, &["main", "on_tick"])]);
            os.boot();
            let before = os.stats[0].switch_cycles;
            os.call_handler(0, "on_tick", 1);
            per_method.insert(method, os.stats[0].switch_cycles - before);
        }
        assert_eq!(
            per_method[&IsolationMethod::NoIsolation],
            per_method[&IsolationMethod::FeatureLimited]
        );
        assert!(
            per_method[&IsolationMethod::SoftwareOnly] > per_method[&IsolationMethod::NoIsolation]
        );
        assert!(per_method[&IsolationMethod::Mpu] > per_method[&IsolationMethod::SoftwareOnly]);
    }

    #[test]
    fn zero_shared_stack_ablation_costs_extra_cycles() {
        let apps: &[(&str, &str, &[&str])] = &[
            ("A", COUNTER_APP, &["main", "on_tick"]),
            ("B", COUNTER_APP, &["main", "on_tick"]),
        ];
        let build_fw = |method| {
            let mut aft = Aft::new(method);
            for (name, src, handlers) in apps {
                aft = aft.add_app(AppSource::new(*name, *src, handlers));
            }
            aft.build().unwrap().firmware
        };
        let mut plain = AmuletOs::new(build_fw(IsolationMethod::FeatureLimited));
        let mut zeroed = AmuletOs::with_options(
            build_fw(IsolationMethod::FeatureLimited),
            OsOptions {
                zero_shared_stack: true,
                ..OsOptions::default()
            },
        );
        for os in [&mut plain, &mut zeroed] {
            os.boot();
            // Alternate between apps so the zeroing path triggers.
            for i in 0..10 {
                os.call_handler(i % 2, "on_tick", 1);
            }
        }
        assert!(
            zeroed.total_cycles() > plain.total_cycles() + 1000,
            "zeroing the shared stack on every app change is visibly expensive"
        );
    }

    fn log_projection(os: &AmuletOs) -> Vec<(usize, i16)> {
        os.services
            .log
            .iter()
            .map(|l| (l.app_index, l.value))
            .collect()
    }

    #[test]
    fn batched_delivery_preserves_behaviour_and_saves_switch_cycles() {
        let run = |policy| {
            let mut os = build(
                IsolationMethod::Mpu,
                &[("Counter", COUNTER_APP, &["main", "on_tick"])],
            );
            os.set_delivery_policy(policy);
            os.boot();
            for i in 1..=6 {
                os.post_event(Event::new(0, "on_tick", i, EventKind::Sensor));
            }
            assert_eq!(os.flush(), 6);
            os
        };
        let per_event = run(DeliveryPolicy::PerEvent);
        let batched = run(DeliveryPolicy::Batched {
            max_batch: 3,
            max_latency_events: 8,
        });
        // App-visible behaviour is identical…
        assert_eq!(log_projection(&per_event), log_projection(&batched));
        assert_eq!(
            per_event.stats[0].events_delivered,
            batched.stats[0].events_delivered
        );
        assert_eq!(per_event.stats[0].syscalls, batched.stats[0].syscalls);
        assert_eq!(per_event.stats[0].faults, batched.stats[0].faults);
        // …only the switch accounting differs: 6 deliveries become 2
        // batches, replacing 4 full switches with 4 cheap boundaries.
        assert_eq!(per_event.stats[0].batch_boundaries, 0);
        assert_eq!(batched.stats[0].batch_boundaries, 4);
        // 6 per-event delivery round trips (12 directed switches) become 2
        // batch round trips (4 directed switches).
        assert_eq!(
            per_event.stats[0].full_switches,
            batched.stats[0].full_switches + 8
        );
        assert!(batched.stats[0].switch_cycles < per_event.stats[0].switch_cycles);
    }

    #[test]
    fn pump_defers_until_a_full_batch_or_the_latency_bound() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Counter", COUNTER_APP, &["main", "on_tick"])],
        );
        os.set_delivery_policy(DeliveryPolicy::Batched {
            max_batch: 2,
            max_latency_events: 10,
        });
        os.boot();
        os.post_event(Event::new(0, "on_tick", 1, EventKind::Sensor));
        assert_eq!(os.pump(), 0, "a lone event waits for a batch to form");
        os.post_event(Event::new(0, "on_tick", 2, EventKind::Sensor));
        assert_eq!(os.pump(), 2, "a full batch is delivered");
        os.post_event(Event::new(0, "on_tick", 3, EventKind::Sensor));
        assert_eq!(os.pump(), 0);
        assert_eq!(os.flush(), 1, "flush delivers the straggler");
        assert_eq!(os.services.log.last().unwrap().value, 1 + 2 + 3);
    }

    #[test]
    fn latency_bound_ignores_backlog_behind_a_fresh_head() {
        // Regression (shape 1): the latency bound used to trigger on total
        // queue length, so after a full batch was delivered, a backlog of
        // *other-app* events (len 4 >= max_latency_events) would force the
        // next head out as a premature one-event batch.  Bounding by the
        // head event's own wait lets the interleaved B/C runs keep
        // accumulating instead.
        let mut os = build(
            IsolationMethod::Mpu,
            &[
                ("A", COUNTER_APP, &["main", "on_tick"]),
                ("B", COUNTER_APP, &["main", "on_tick"]),
                ("C", COUNTER_APP, &["main", "on_tick"]),
            ],
        );
        os.set_delivery_policy(DeliveryPolicy::Batched {
            max_batch: 4,
            max_latency_events: 4,
        });
        os.boot();
        for (app, payload) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 5),
            (2, 6),
            (1, 7),
            (2, 8),
        ] {
            os.post_event(Event::new(app, "on_tick", payload, EventKind::Sensor));
        }
        // App 0's head run is a full batch and goes out; each B/C event
        // behind it becomes a fresh head that has waited through nothing.
        assert_eq!(os.pump(), 4, "only the full batch is delivered");
        assert_eq!(os.queue.len(), 4, "the B/C backlog keeps accumulating");
        assert_eq!(os.flush(), 4);
    }

    #[test]
    fn latency_bound_delivers_a_head_event_after_its_own_wait() {
        // Regression (shape 2): a lone app-B event at the head must be
        // delivered once *it* has waited through `max_latency_events`
        // arrivals — but its delivery must not drag app A's fresh run out
        // with it (the old queue-length bound flushed everything while the
        // length stayed at or above the bound).
        let mut os = build(
            IsolationMethod::Mpu,
            &[
                ("A", COUNTER_APP, &["main", "on_tick"]),
                ("B", COUNTER_APP, &["main", "on_tick"]),
            ],
        );
        os.set_delivery_policy(DeliveryPolicy::Batched {
            max_batch: 4,
            max_latency_events: 3,
        });
        os.boot();
        os.post_event(Event::new(1, "on_tick", 1, EventKind::Sensor));
        assert_eq!(os.pump(), 0, "a fresh head waits");
        for i in 0..2 {
            os.post_event(Event::new(0, "on_tick", i, EventKind::Sensor));
            assert_eq!(os.pump(), 0, "wait {i} below the bound");
        }
        os.post_event(Event::new(0, "on_tick", 9, EventKind::Sensor));
        // The head (app 1) has now watched 3 arrivals go by: deliver it —
        // and only it; app 0's run is fresh and keeps accumulating.
        assert_eq!(os.pump(), 1, "exactly the over-waited head goes out");
        assert_eq!(os.queue.len(), 3);
        assert_eq!(os.stats[1].events_delivered, 2, "boot main + the event");
        assert_eq!(os.flush(), 3);
    }

    #[test]
    fn stamped_events_record_dispatch_and_unstamped_events_do_not() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Counter", COUNTER_APP, &["main", "on_tick"])],
        );
        os.boot();
        assert!(os.delivery_log.is_empty(), "boot events are unstamped");
        os.post_event(Event::new(0, "on_tick", 1, EventKind::Sensor).stamped(250));
        os.post_event(Event::new(0, "on_tick", 2, EventKind::Sensor));
        os.flush();
        assert_eq!(os.delivery_log.len(), 1, "only the stamped event records");
        assert_eq!(os.delivery_log[0].stamp_ms, 250);
        assert_eq!(os.delivery_log[0].app_index, 0);
        assert!(os.delivery_log[0].at_cycles > 0);
        os.reset();
        assert!(os.delivery_log.is_empty(), "reset clears the log");
    }

    #[test]
    fn reseeding_after_reset_matches_a_fresh_boot_with_that_seed() {
        // Regression: `set_sensor_seed` used to take effect only at the
        // *next* reset, so the fleet's reuse path could leak the previous
        // device's sensor RNG state into `Services` if a re-seed landed
        // after the reset.  It now applies in place, making both orderings
        // equivalent to a fresh boot.
        let src = r#"
            void main(void) { }
            int sample(int x) {
                amulet_log_value(amulet_get_heart_rate());
                amulet_log_value(amulet_get_accel(0));
                return 0;
            }
        "#;
        let apps: &[(&str, &str, &[&str])] = &[("Sampler", src, &["main", "sample"])];
        let seed = 0xB0A7;
        let run = |os: &mut AmuletOs| -> Vec<i16> {
            os.boot();
            for i in 0..8 {
                os.call_handler(0, "sample", i);
            }
            os.services.log.iter().map(|l| l.value).collect()
        };
        let mut fresh = AmuletOs::with_options(
            Aft::new(IsolationMethod::Mpu)
                .add_app(AppSource::new(apps[0].0, apps[0].1, apps[0].2))
                .build()
                .unwrap()
                .firmware,
            OsOptions {
                sensor_seed: seed,
                ..OsOptions::default()
            },
        );
        let expected = run(&mut fresh);

        // A reused runtime: run with a different seed, reset, *then* seed.
        let mut reused = build(IsolationMethod::Mpu, apps);
        run(&mut reused);
        reused.reset();
        reused.set_sensor_seed(seed);
        assert_eq!(run(&mut reused), expected, "reset-then-seed replays");

        // And the opposite ordering (seed before reset) agrees too.
        let mut reused = build(IsolationMethod::Mpu, apps);
        run(&mut reused);
        reused.set_sensor_seed(seed);
        reused.reset();
        assert_eq!(run(&mut reused), expected, "seed-then-reset replays");
    }

    #[test]
    fn batched_faults_behave_like_per_event_faults() {
        let run = |policy| {
            let mut os = build(
                IsolationMethod::Mpu,
                &[("Wild", WILD_APP, &["main", "poke"])],
            );
            os.set_delivery_policy(policy);
            os.boot();
            // Three wild pokes: the first kills the app, the rest are
            // skipped — batched delivery must agree exactly.
            for _ in 0..3 {
                os.post_event(Event::new(0, "poke", 0xF000, EventKind::User));
            }
            os.flush();
            os
        };
        let per_event = run(DeliveryPolicy::PerEvent);
        let batched = run(DeliveryPolicy::Batched {
            max_batch: 4,
            max_latency_events: 8,
        });
        for os in [&per_event, &batched] {
            assert_eq!(os.stats[0].faults, 1);
            // Boot's `main` plus the first poke; the rest were skipped.
            assert_eq!(os.stats[0].events_delivered, 2);
            assert_eq!(os.app_state(0), AppState::Killed);
            assert_eq!(os.faults.records.len(), 1);
        }
        assert_eq!(
            per_event.faults.records[0].class,
            batched.faults.records[0].class
        );
    }

    #[test]
    fn yield_ends_the_batch_early() {
        let src = r#"
            int n = 0;
            void main(void) { }
            int tick(int d) { n += d; amulet_yield(); return n; }
        "#;
        let mut os = build(IsolationMethod::Mpu, &[("Yielder", src, &["main", "tick"])]);
        os.set_delivery_policy(DeliveryPolicy::Batched {
            max_batch: 4,
            max_latency_events: 8,
        });
        os.boot();
        for i in 1..=4 {
            os.post_event(Event::new(0, "tick", i, EventKind::User));
        }
        assert_eq!(os.flush(), 4);
        // Every handler yields, so no boundary is ever elided.
        assert_eq!(os.stats[0].batch_boundaries, 0);
        // Boot's `main` plus the four ticks.
        assert_eq!(os.stats[0].events_delivered, 5);
    }

    #[test]
    fn reset_replays_a_run_identically() {
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Counter", COUNTER_APP, &["main", "on_tick"])],
        );
        let run = |os: &mut AmuletOs| {
            os.boot();
            for i in 1..=3 {
                let (outcome, _) = os.call_handler(0, "on_tick", i);
                assert_eq!(outcome, DeliveryOutcome::Completed);
            }
            (os.total_cycles(), log_projection(os), os.stats.clone())
        };
        let first = run(&mut os);
        os.reset();
        assert_eq!(os.total_cycles(), 0);
        assert!(os.services.log.is_empty());
        let second = run(&mut os);
        assert_eq!(first, second, "a reset runtime replays the run exactly");
    }

    #[test]
    fn pointer_api_arguments_are_validated_by_the_os() {
        let src = r#"
            int buf[4] = {1, 2, 3, 4};
            void main(void) { }
            int good(int x) { amulet_log_buffer(&buf[0], 4); return 1; }
            int evil(int addr) { amulet_log_buffer(addr, 4); return 1; }
        "#;
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Logger", src, &["main", "good", "evil"])],
        );
        os.boot();
        let (outcome, _) = os.call_handler(0, "good", 0);
        assert_eq!(outcome, DeliveryOutcome::Completed);
        assert_eq!(os.services.log.len(), 1);
        // Passing an OS address to the API is rejected during argument
        // validation, before the OS dereferences it.
        let mut os = build(
            IsolationMethod::Mpu,
            &[("Logger", src, &["main", "good", "evil"])],
        );
        os.boot();
        let (outcome, _) = os.call_handler(0, "evil", 0x4600);
        assert!(matches!(
            outcome,
            DeliveryOutcome::Faulted(FaultClass::ApiViolation)
        ));
    }
}

//! # amulet-fleet
//!
//! Fleet-scale simulation for the memory-isolation reproduction: thousands
//! of independent simulated devices — each with its own platform profile,
//! isolation method, application mix, sensor seed and event-arrival trace,
//! all drawn deterministically from one [`FleetScenario`] seed — run in
//! parallel across `std::thread::scope` workers and reduced to aggregate
//! statistics (total/mean/p50/p99 energy, switch-overhead share, fault
//! counts, battery-impact histograms per ARP profile).
//!
//! The paper evaluates isolation overhead one device at a time; this crate
//! asks the production question instead: *what do the isolation methods
//! cost across a whole deployed fleet, under realistic event-driven load?*
//! Every device is simulated twice over the identical trace — once with
//! the paper's per-event delivery, once with
//! [`amulet_os::events::DeliveryPolicy::Batched`] delivery — so the report
//! quantifies exactly how much switch overhead batching recovers.
//!
//! Under [`TimeMode::Stepped`] the runner additionally drives a **virtual
//! clock** from each trace event's arrival time: handlers advance the
//! clock by executed-cycle time, inter-event gaps are charged at the
//! platform's LPM (sleep) current, and every delivered event's latency —
//! including latency the batching policy trades for switch savings — is
//! measured in virtual milliseconds.  Reports then carry idle-energy
//! share, duty cycle, delivery-latency percentiles and an end-to-end
//! battery-lifetime projection, closing the loop on the paper's Figure 2.
//!
//! Determinism is a hard guarantee: the report (aggregates included) is a
//! pure function of the scenario, regardless of worker count or machine.
//!
//! Every run, in either time mode, goes through one runner, the **config
//! partition** (`partition` module; DESIGN.md §4): fixed 1024-device fold
//! blocks, worker-claimed slices, devices grouped by firmware key on one
//! runtime per worker (reloaded with each group's image), and a
//! provably-sound silent-device cache —
//! which is how 10⁵–10⁶-device campaigns stay tractable.  An
//! arrival-order report is the stepped replay rendered without its clock
//! fields.  [`replay_device`] replays one device on a fresh runtime with
//! nothing shared — the property-tested oracle the runner must match bit
//! for bit.  [`simulate_in`] materialises every device's result and
//! [`simulate_summary_in`] streams block summaries in bounded memory;
//! both draw firmware through a caller-held [`FirmwareStore`].
//!
//! ```
//! use amulet_fleet::{simulate_in, FirmwareStore, FleetScenario};
//!
//! let scenario = FleetScenario {
//!     devices: 6,
//!     events_per_device: 20,
//!     ..FleetScenario::default()
//! };
//! let report = simulate_in(&scenario, 2, &FirmwareStore::for_scenario(&scenario));
//! assert_eq!(report.aggregate.devices, 6);
//! // Batching never does *more* switch work than per-event delivery.
//! assert!(
//!     report.aggregate.batched.switch_cycles
//!         <= report.aggregate.per_event.switch_cycles
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
mod partition;
pub(crate) mod run;
pub(crate) mod scenario;
pub mod stats;
pub(crate) mod store;

pub use faults::Verdict;
pub use run::{
    replay_device, simulate_in, simulate_summary_in, DeviceResult, FleetReport, FleetSummary,
    PolicyOutcome,
};
pub use scenario::{ConfigContext, DeviceConfig, FleetScenario, TimeMode};
pub use stats::{
    BlockSummary, ContainmentRow, FleetAggregate, OtaWaveStats, PolicyAggregate,
    BATTERY_IMPACT_BUCKET_EDGES,
};
pub use store::{FirmwareStore, FirmwareStoreStats};

//! # amulet-os
//!
//! The AmuletOS runtime for the memory-isolation reproduction: an
//! event-driven scheduler that drives application state machines on the
//! simulated MSP430FR5969, a system-call API served against deterministic
//! synthetic sensors, per-app (or shared) stacks, MPU reconfiguration and
//! stack switching on every OS↔app transition, validation of
//! application-supplied pointers at the API boundary, and fault handling
//! with the restart policies sketched in the paper's discussion section.
//!
//! The central type is [`os::AmuletOs`]; a typical session is:
//!
//! ```
//! use amulet_aft::aft::{Aft, AppSource};
//! use amulet_core::method::IsolationMethod;
//! use amulet_os::os::AmuletOs;
//!
//! let firmware = Aft::new(IsolationMethod::Mpu)
//!     .add_app(AppSource::new(
//!         "Hello",
//!         "int n = 0; void main(void) { } int tick(int d) { n += d; amulet_log_value(n); return n; }",
//!         &["main", "tick"],
//!     ))
//!     .build()
//!     .unwrap()
//!     .firmware;
//! let mut os = AmuletOs::new(firmware);
//! os.boot();
//! os.call_handler(0, "tick", 5);
//! assert_eq!(os.services.log.last().unwrap().value, 5);
//! ```
//!
//! Event delivery is governed by an [`events::DeliveryPolicy`]: the paper's
//! per-event model pays a full context-switch round trip per event, while
//! batched delivery amortises one round trip over a run of consecutive
//! same-app events (see [`os::AmuletOs::pump`] and
//! [`os::AmuletOs::deliver_batch`]) without changing app-visible behaviour
//! — the fleet simulator (`amulet-fleet`) measures the difference at scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod os;
pub mod policy;
pub mod sensors;
pub mod syscalls;

pub use events::{DeliveryPolicy, Event, EventKind, EventQueue};
pub use os::{AmuletOs, AppRuntimeStats, DeliveryOutcome, DeliveryRecord, OsCheckpoint, OsOptions};
pub use policy::{AppState, FaultAction, FaultHandler, FaultRecord, RestartPolicy};
pub use sensors::SensorModel;
pub use syscalls::{LogEntry, Services, SyscallArgs, SyscallOutcome};

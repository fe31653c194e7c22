//! # amulet-apps
//!
//! The application suite for the memory-isolation reproduction: the nine
//! Amulet applications whose isolation overhead Figure 2 extrapolates
//! (BatteryMeter, Clock, FallDetection, HR, HRLog, Pedometer, Rest, Sun,
//! Temperature) and the three §4.2 benchmark applications (Synthetic,
//! Activity Detection, Quicksort) behind Table 1 and Figure 3 — each as
//! AmuletC source plus ARP resource profiles — plus seeded event-arrival
//! [`traces`] that turn the catalogue's rates into the event-driven
//! workloads the fleet simulator replays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub(crate) mod benchmarks;
pub mod catalog;
pub mod traces;

pub use adversarial::{adversarial_catalog, FaultKind};
pub use benchmarks::{activity_detection, quicksort, synthetic, BenchmarkApp};
pub use catalog::{catalog, CatalogApp};
pub use traces::TraceEvent;

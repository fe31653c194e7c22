//! # amulet-core
//!
//! Core abstractions for the Amulet memory-isolation reproduction
//! ("Application Memory Isolation on Ultra-Low-Power MCUs", USENIX ATC 2018).
//!
//! This crate contains everything that is *policy*: which isolation methods
//! exist, which run-time checks each method requires the compiler to insert,
//! how the MPU must be programmed while an application or the OS is running,
//! how application images are laid out in FRAM, what a context switch costs,
//! and the analytic overhead / energy model used by the Amulet Resource
//! Profiler.
//!
//! The *mechanisms* live in the sibling crates: `amulet-mcu` simulates the
//! MSP430FR5969-class hardware, `amulet-aft` is the compiler that actually
//! inserts the checks this crate describes, and `amulet-os` performs the
//! context switches this crate plans.
//!
//! ## Quick tour
//!
//! * [`method::IsolationMethod`] — the four memory models compared in the
//!   paper (No Isolation, Feature Limited, Software Only, MPU).
//! * [`checks::CheckPolicy`] — which compare-and-branch checks the toolchain
//!   inserts for a given method.
//! * [`layout::MemoryMapPlanner`] — places the OS and every application into
//!   the Figure-1 memory map and derives each app's bounds `C_i`/`D_i`.
//! * [`mpu_plan`] — MPU segment boundaries and permissions for "app *i*
//!   running" and "OS running".
//! * [`switch::ContextSwitchPlan`] — the steps (and cycle cost) of an
//!   OS↔app transition under each method.
//! * [`overhead::OverheadModel`] — per-operation overhead cycles, the model
//!   behind Figure 2.
//! * [`energy`] — cycles → Joules → battery-lifetime impact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod checks;
pub mod energy;
pub mod error;
pub mod fault;
pub mod layout;
pub mod method;
pub mod mpu_plan;
pub mod overhead;
pub mod perm;
pub mod platform;
pub mod serial;
pub mod switch;

pub use addr::Addr;
pub use layout::{AppImageSpec, MemoryMap, MemoryMapPlanner};
pub use method::IsolationMethod;
pub use mpu_plan::MpuPlan;
pub use platform::builtin_platforms;
pub use serial::{fnv1a64, Codec, DecodeError};

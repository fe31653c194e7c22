//! # amulet-arp
//!
//! The Amulet Resource Profiler (ARP) and ARP-view: per-application resource
//! profiles (memory accesses and context switches per handler, event rates),
//! extrapolation of weekly isolation-overhead cycles for each memory model,
//! and conversion to energy and battery-lifetime impact — the machinery
//! behind Figure 2 of "Application Memory Isolation on Ultra-Low-Power MCUs"
//! (USENIX ATC 2018).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod profile;

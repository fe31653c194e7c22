//! Fleet campaign benchmark for the Amulet memory-isolation reproduction.
//!
//! `perfbench` runs three named fleet workloads through the public
//! `amulet-fleet` API and reports end-to-end host throughput
//! ([`measure`]), and replays the same campaigns on one worker with a span
//! around every call into a layer for per-layer attribution ([`replay`]).

#![forbid(unsafe_code)]

pub mod measure;
pub mod replay;
pub mod workloads;

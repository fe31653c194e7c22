//! # amulet-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! "Application Memory Isolation on Ultra-Low-Power MCUs" (USENIX ATC 2018):
//!
//! * [`table1`] — average cycle counts for the basic isolation operations
//!   (memory access, context switch) under the four memory models;
//! * [`fig2`] — weekly isolation-overhead cycles and battery-lifetime impact
//!   for the nine Amulet applications;
//! * [`fig3`] — percentage slowdown of the Activity Detection and Quicksort
//!   benchmarks under each isolation method;
//! * [`ablation`] — the per-app-stack-vs-shared-stack ablation (a §3 design
//!   decision) and the "advanced MPU" ablation (§5 future work);
//! * [`platform_compare`] — the same isolation policies evaluated on every
//!   built-in platform profile, as JSON;
//! * [`fleet_sim`] — the fleet-scale study: ≥ 1000 seeded devices in
//!   parallel, with the per-event vs batched delivery comparison, as JSON;
//! * [`lint`] — the `firmware_lint` static-verification document: every
//!   distinct image of a fleet scenario run through `amulet-verify`, as a
//!   deterministic text report CI pins with a golden fixture.
//!
//! Each module exposes a pure function returning structured rows plus a
//! `render` helper; the `table1`, `fig2`, `fig3`, `ablation_stacks`,
//! `ablation_advanced_mpu`, `platform_compare` and `fleet_sim` binaries
//! print them, and the Criterion benches wrap the same entry points.  The
//! paper-figure binaries share one command-line parser, [`cli`].  JSON
//! output goes through the shared `json` writer.  The simulator's own
//! throughput is measured by the separate `perfbench` harness, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cli;
pub mod fig2;
pub mod fig3;
pub mod fleet_sim;
pub(crate) mod json;
pub mod lint;
pub mod platform_compare;
pub mod table1;

use amulet_aft::aft::Aft;
use amulet_core::method::IsolationMethod;
use amulet_os::os::AmuletOs;

/// Builds a single benchmark app for `method` on any platform and boots an
/// OS around it.
pub(crate) fn boot_benchmark_on(
    platform: &amulet_core::layout::PlatformSpec,
    app: &amulet_apps::BenchmarkApp,
    method: IsolationMethod,
) -> AmuletOs {
    let out = Aft::for_platform(method, platform)
        .add_app(app.app_source(method))
        .build()
        .unwrap_or_else(|e| panic!("{method}: failed to build {}: {e}", app.name));
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    os
}

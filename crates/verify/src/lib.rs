//! Static firmware verifier for Amulet images.
//!
//! This crate closes the loop between the toolchain and the runtime: it
//! analyses a *compiled* [`Firmware`] image — the same bytes the
//! simulator executes — rather than any compiler IR, so its verdicts
//! hold for exactly what ships.
//!
//! Three passes share one fixed point per application:
//!
//! * **CFG recovery** (`analysis`) walks the image from the app's
//!   OS-registered handlers, surfacing odd or out-of-image branch
//!   targets, indirect flows and dead code as typed
//!   [`Finding`]s.
//! * **Containment certification** abstract-interprets register value
//!   ranges (an interval domain, `Interval`) and classifies every
//!   reachable memory-touching instruction against the app's
//!   [`MpuPlan`](amulet_core::mpu_plan::MpuPlan) as
//!   [`ProvenSafe`](AccessVerdict::ProvenSafe),
//!   [`ProvenEscape`](AccessVerdict::ProvenEscape) or
//!   [`Unknown`](AccessVerdict::Unknown).  The analysis is sound, never
//!   complete: handler arguments are unknown at entry, so any
//!   payload-controlled access stays (at best) unknown.
//! * **Redundancy lint** (`AppVerification::elidable_sites`) reports
//!   the compiler-inserted bound checks whose branch provably never
//!   fires.  The image is never rewritten: every check the AFT inserts
//!   ships and is counted, as the paper specifies.
//!
//! [`Firmware`]: amulet_mcu::firmware::Firmware

#![warn(missing_docs)]

pub(crate) mod analysis;
pub(crate) mod interval;
pub(crate) mod report;

pub use analysis::verify_build;
pub use report::{AccessVerdict, Finding, VerifyReport};

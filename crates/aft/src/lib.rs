//! # amulet-aft
//!
//! The Amulet Firmware Toolchain (AFT): a from-scratch compiler for the
//! AmuletC application language that analyzes, transforms, merges and
//! compiles the user's desired applications into a firmware image for the
//! simulated MSP430FR5969-class device — reproducing the toolchain described
//! in "Application Memory Isolation on Ultra-Low-Power MCUs" (USENIX ATC
//! 2018).
//!
//! The pipeline mirrors the paper's four phases:
//!
//! 1. [`sema`] — feature/legality analysis, type checking, call-graph and
//!    maximum-stack analysis, memory-access and API-call enumeration;
//! 2. [`codegen`] — code generation with compiler-inserted isolation checks
//!    (with placeholder bounds);
//! 3. [`link`] (phases 3 + 4) — section assignment, final memory layout via
//!    the Figure-1 planner, bound patching, and firmware emission.
//!
//! The [`aft::Aft`] driver runs the whole pipeline; [`aft::AppSource`] is
//! the unit of input.
//!
//! ```
//! use amulet_aft::aft::{Aft, AppSource};
//! use amulet_core::method::IsolationMethod;
//!
//! let out = Aft::new(IsolationMethod::Mpu)
//!     .add_app(AppSource::new(
//!         "Hello",
//!         "int x = 1; void main(void) { amulet_log_value(x); }",
//!         &["main"],
//!     ))
//!     .build()
//!     .unwrap();
//! assert_eq!(out.firmware.apps.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aft;
pub mod api;
pub mod ast;
pub mod codegen;
pub mod error;
pub mod link;
pub mod parser;
pub mod sema;
pub mod token;
pub mod types;

pub use aft::{Aft, AppSource, BuildOutput, BuildReport, UnitMemo};
pub use api::{sysno, ApiSpec};
pub use error::{AftResult, CompileError};

//! # amulet-mcu
//!
//! A cycle-counted simulator of TI MSP430FR-class microcontrollers
//! (the Amulet wearable's FR5969, and the larger FR5994-class profile),
//! built for the reproduction of "Application Memory Isolation on
//! Ultra-Low-Power MCUs" (USENIX ATC 2018).
//!
//! The simulator models exactly the pieces of the hardware the paper's
//! evaluation depends on:
//!
//! * the platform memory map (peripheral registers, bootstrap loader,
//!   InfoMem, SRAM, main FRAM, interrupt vectors), taken from the
//!   [`amulet_core::layout::PlatformSpec`] the device is built for —
//!   [`bus`];
//! * two Memory Protection Unit backends — [`mpu`]: the FR5969's limited
//!   segmented part (three main-memory segments defined by two movable
//!   boundaries plus a pinned InfoMem segment, per-segment R/W/X bits, a
//!   password/lock register protocol, and *no* coverage of SRAM or
//!   peripherals) and a Tock/Cortex-M-style region MPU (independent
//!   base/limit regions, deny-by-default over FRAM, InfoMem and SRAM) used
//!   by region-MPU platforms such as the FR5994-class profile;
//! * a 16-bit register machine with MSP430-flavoured cycle costs executing
//!   the code produced by the `amulet-aft` compiler — [`isa`], [`cpu`];
//! * the hardware timer used for the paper's measurements, with its 16-cycle
//!   read-out precision — [`timer`];
//! * firmware images carrying per-application bounds, entry points and MPU
//!   register values — [`firmware`];
//! * the flat, word-indexed decoded-instruction store that makes
//!   instruction fetch O(1) — [`code`];
//! * the assembled device — [`device`].
//!
//! See `DESIGN.md` at the repository root for the substitution argument: the
//! ISA is not bit-compatible with the MSP430, but every quantity the paper
//! measures (instruction counts of check sequences, MPU register-write
//! counts, cycle ratios) is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod code;
pub mod cpu;
pub mod device;
pub mod firmware;
pub mod isa;
pub mod mpu;
pub mod serial;
pub mod timer;

pub use bus::BusStats;
pub use code::InstrStore;
pub use cpu::CpuStats;
pub use firmware::{AppBinary, Firmware, FirmwareBuilder, OsBinary, SymbolTable};
pub use isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
pub use serial::{decode_firmware, encode_firmware};

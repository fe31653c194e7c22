//! The whole device: CPU + bus + instruction store + firmware loading.

use crate::bus::Bus;
use crate::code::InstrStore;
use crate::cpu::{Cpu, FaultInfo, StepEvent, HANDLER_RETURN};
use crate::firmware::Firmware;
use amulet_core::addr::Addr;
use amulet_core::layout::PlatformSpec;
use std::sync::Arc;

/// Why a [`Device::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed a `halt` instruction.
    Halted,
    /// The program executed a system call that the embedder must service.
    Syscall {
        /// System-call number.
        num: u16,
    },
    /// The current handler returned to the OS.
    HandlerDone,
    /// A fault was raised.
    Fault(FaultInfo),
    /// The step budget was exhausted before any of the above happened.
    StepLimit,
}

/// Result of a [`Device::run`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunExit {
    /// Why execution stopped.
    pub reason: StopReason,
    /// Instructions executed during this run.
    pub steps: u64,
    /// Cycles consumed during this run (including OS charges made while the
    /// run was in progress).
    pub cycles: u64,
}

/// A simulated MSP430FR5969-class device.
#[derive(Clone, Debug)]
pub struct Device {
    /// CPU core.
    pub cpu: Cpu,
    /// Memory bus (memory, MPU, timer).
    pub bus: Bus,
    /// Decoded instruction store (word-indexed table over the occupied
    /// span, O(1) fetch).
    /// Shared: loading firmware installs a reference to the image's store
    /// rather than copying the slot table.
    pub code: Arc<InstrStore>,
    /// The firmware image currently loaded, if any (shared, not copied).
    pub firmware: Option<Arc<Firmware>>,
}

impl Device {
    /// Creates a device for the given platform with empty memory.
    pub fn new(platform: PlatformSpec) -> Self {
        Device {
            cpu: Cpu::new(),
            bus: Bus::new(platform),
            code: Arc::new(InstrStore::new()),
            firmware: None,
        }
    }

    /// Creates an MSP430FR5969 device.
    pub fn msp430fr5969() -> Self {
        Device::new(PlatformSpec::msp430fr5969())
    }

    /// Loads a firmware image: installs the instruction store, copies
    /// initialised data into memory, and leaves the MPU disabled (the OS
    /// enables it when it schedules the first app).
    pub fn load_firmware(&mut self, fw: &Firmware) {
        self.load_firmware_shared(Arc::new(fw.clone()));
    }

    /// [`Device::load_firmware`] for an already-shared image: no part of the
    /// firmware is copied — the device holds references to the image's
    /// instruction store and metadata.  This is what lets a fleet of
    /// simulated devices with identical configs share one build.
    pub fn load_firmware_shared(&mut self, fw: Arc<Firmware>) {
        self.code = Arc::clone(&fw.code);
        for seg in &fw.data {
            self.bus.load_bytes(seg.addr, &seg.bytes);
        }
        self.cpu.set_sp(fw.os.initial_sp);
        self.firmware = Some(fw);
    }

    /// Swaps the loaded image for `fw` and returns the device to the state
    /// [`Device::new`] followed by [`Device::load_firmware_shared`] would
    /// leave it in, reusing the memory, the bus and its attribute-table
    /// memo.  `fw` must target this device's platform.
    pub fn reload_firmware(&mut self, fw: Arc<Firmware>) {
        debug_assert!(
            fw.memory_map.platform == *self.bus.platform(),
            "an image reloads only onto its own platform"
        );
        self.code = Arc::clone(&fw.code);
        self.firmware = Some(fw);
        self.reset();
    }

    /// Returns the device to its power-on, freshly-loaded state so it can
    /// be reused for another simulation run **without** rebuilding the
    /// firmware or re-decoding the instruction store: the bus is reset in
    /// place (the pages written since the last reset zeroed, MPUs
    /// disabled, timer stopped), the CPU is reset, and the loaded
    /// firmware's data segments and initial stack pointer are
    /// re-installed, so the cost follows what the previous run wrote.  The decoded [`Device::code`] map — the
    /// expensive part of [`Device::load_firmware`] — is untouched, since
    /// instructions live in write-protected FRAM and cannot have changed.
    ///
    /// Returns `false` (after a plain reset) when no firmware is loaded.
    pub fn reset(&mut self) -> bool {
        self.bus.reset();
        self.cpu = Cpu::new();
        let Some(fw) = self.firmware.as_ref() else {
            return false;
        };
        for seg in &fw.data {
            self.bus.load_bytes(seg.addr, &seg.bytes);
        }
        self.cpu.set_sp(fw.os.initial_sp);
        true
    }

    /// Adds `n` cycles to the cycle counter (and the benchmark timer),
    /// modelling work done by OS code that is not executed instruction by
    /// instruction.
    pub fn charge_cycles(&mut self, n: u64) {
        self.cpu.charge(n);
        self.bus.timer.tick(n);
    }

    /// Total cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cpu.cycles
    }

    /// Runs until a halt, syscall, handler return, fault, or the step limit
    /// (one [`Cpu::run_block`] call; the benchmark timer advances with
    /// every executed instruction, so firmware that reads the memory-mapped
    /// counter mid-run observes exact values).
    pub fn run(&mut self, max_steps: u64) -> RunExit {
        let start_cycles = self.cpu.cycles;
        let (stop, steps) = self.cpu.run_block(&mut self.bus, &self.code, max_steps);
        let reason = match stop {
            None => StopReason::StepLimit,
            Some(StepEvent::Halted) => StopReason::Halted,
            Some(StepEvent::Syscall { num }) => StopReason::Syscall { num },
            Some(StepEvent::HandlerDone) => StopReason::HandlerDone,
            Some(StepEvent::Fault(info)) => StopReason::Fault(info),
        };
        RunExit {
            reason,
            steps,
            cycles: self.cpu.cycles - start_cycles,
        }
    }

    /// Prepares the CPU to run a function at `entry` with the given stack
    /// pointer: the stack pointer is installed, the magic handler-return
    /// address is pushed, and the program counter is set.  Used by the OS to
    /// invoke application event handlers, and by tests to call arbitrary
    /// firmware functions.
    pub fn prepare_call(&mut self, entry: Addr, sp: Addr) {
        self.cpu.set_sp(sp);
        // Push the magic return address directly (bypassing MPU checks: on
        // real hardware this push is performed by trusted OS code running
        // under the OS MPU configuration).
        let new_sp = sp.wrapping_sub(2) & 0xFFFF;
        self.bus.write_raw(new_sp, 2, HANDLER_RETURN as u16);
        self.cpu.set_sp(new_sp);
        self.cpu.set_pc(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::{FirmwareBuilder, OsBinary};
    use crate::isa::{AluOp, Instr, Reg};
    use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};
    use amulet_core::method::IsolationMethod;
    use amulet_core::mpu_plan::MpuPlan;

    fn simple_firmware() -> Firmware {
        let map = MemoryMapPlanner::msp430fr5969()
            .plan(
                &OsImageSpec::default(),
                &[AppImageSpec::new("A", 0x400, 0x100, 0x80)],
            )
            .unwrap();
        let os = OsBinary {
            mpu_config: MpuPlan::for_os_on(&map).unwrap().config(&map.platform.mpu),
            initial_sp: map.os_initial_stack_pointer(),
        };
        let mut b = FirmwareBuilder::new(IsolationMethod::NoIsolation, map.clone(), os);
        let entry = map.apps[0].code.start;
        b.emit(
            entry,
            &[
                Instr::MovImm {
                    dst: Reg::R4,
                    imm: 20,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    dst: Reg::R4,
                    imm: 22,
                },
                Instr::Ret,
            ],
        );
        b.define_symbol("A::main", entry);
        b.add_data(map.apps[0].data.start, vec![1, 2, 3, 4]);
        b.build().unwrap()
    }

    #[test]
    fn load_and_call_a_handler() {
        let fw = simple_firmware();
        let mut dev = Device::msp430fr5969();
        dev.load_firmware(&fw);
        // Data segment copied.
        assert_eq!(dev.bus.read_raw(fw.memory_map.apps[0].data.start, 1), 1);

        let entry = fw.symbols["A::main"];
        dev.prepare_call(entry, fw.memory_map.apps[0].initial_stack_pointer());
        let exit = dev.run(100);
        assert_eq!(exit.reason, StopReason::HandlerDone);
        assert_eq!(dev.cpu.reg(Reg::R4), 42);
        assert!(exit.cycles > 0);
    }

    #[test]
    fn step_limit_is_reported() {
        let fw = simple_firmware();
        let mut dev = Device::msp430fr5969();
        dev.load_firmware(&fw);
        let entry = fw.symbols["A::main"];
        dev.prepare_call(entry, fw.memory_map.apps[0].initial_stack_pointer());
        let exit = dev.run(1);
        assert_eq!(exit.reason, StopReason::StepLimit);
        assert_eq!(exit.steps, 1);
    }

    #[test]
    fn reset_reuses_the_device_for_an_identical_second_run() {
        let fw = simple_firmware();
        let mut dev = Device::msp430fr5969();
        dev.load_firmware(&fw);
        let entry = fw.symbols["A::main"];
        dev.prepare_call(entry, fw.memory_map.apps[0].initial_stack_pointer());
        let first = dev.run(100);
        assert_eq!(first.reason, StopReason::HandlerDone);

        assert!(dev.reset());
        assert_eq!(dev.cycles(), 0, "CPU state is back to power-on");
        assert_eq!(
            dev.bus.read_raw(fw.memory_map.apps[0].data.start, 1),
            1,
            "data segments are re-initialised"
        );
        dev.prepare_call(entry, fw.memory_map.apps[0].initial_stack_pointer());
        let again = dev.run(100);
        assert_eq!(again, first, "a reused device replays the run exactly");

        let mut empty = Device::msp430fr5969();
        assert!(!empty.reset(), "reset reports when no firmware is loaded");
    }

    #[test]
    fn charged_cycles_show_up_in_the_timer() {
        let mut dev = Device::msp430fr5969();
        dev.bus.timer.start();
        dev.charge_cycles(100);
        assert_eq!(dev.cycles(), 100);
        assert_eq!(
            dev.bus.timer.read_counter(),
            96,
            "timer quantised to 16 cycles"
        );
    }

    #[test]
    fn run_reports_cycle_delta_not_total() {
        let fw = simple_firmware();
        let mut dev = Device::msp430fr5969();
        dev.load_firmware(&fw);
        dev.charge_cycles(1_000);
        let entry = fw.symbols["A::main"];
        dev.prepare_call(entry, fw.memory_map.apps[0].initial_stack_pointer());
        let exit = dev.run(100);
        assert!(exit.cycles < 1_000, "only the run's own cycles are counted");
        assert!(dev.cycles() > 1_000);
    }
}

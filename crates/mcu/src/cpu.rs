//! The CPU core: registers, flags, and the execute loop.
//!
//! The CPU executes decoded [`Instr`]s fetched from the device's instruction
//! store, performing every data access and instruction-fetch permission check
//! through the [`Bus`] (and therefore through the MPU).  Execution stops at
//! system calls, software faults, MPU violations, handler returns, or an
//! explicit halt, handing control back to the embedding code (`amulet-os`).

use crate::bus::{Bus, BusFault, BusFaultCause};
use crate::code;
use crate::code::InstrStore;
use crate::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use amulet_core::addr::Addr;
use amulet_core::fault::FaultClass;
use std::fmt;

/// Magic return address pushed by the OS before invoking an application
/// handler; a `ret` that pops it ends the handler instead of jumping.
pub const HANDLER_RETURN: Addr = 0xFFFE;

/// Register-file index mask: [`Reg::COUNT`] is 16, so masking a register
/// index replaces the bounds check on every operand access.
const REG_MASK: usize = Reg::COUNT - 1;
const _: () = assert!(Reg::COUNT.is_power_of_two());

/// Details of a fault raised during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInfo {
    /// Classification of the fault.
    pub class: FaultClass,
    /// Program counter of the faulting instruction.
    pub pc: Addr,
    /// Data address involved, when the fault came from a memory access.
    pub addr: Option<Addr>,
}

impl fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(a) => write!(
                f,
                "{} at pc={:#06x} (address {:#06x})",
                self.class, self.pc, a
            ),
            None => write!(f, "{} at pc={:#06x}", self.class, self.pc),
        }
    }
}

/// Dispatch outcome: either the next program counter (execution
/// continues) or a stopping [`StepEvent`] (the PC is already positioned).
enum Flow {
    /// Continue at this program counter.
    Next(Addr),
    /// Stop and report this event.
    Stop(StepEvent),
}

/// What happened during one executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// Execution may continue with the next instruction.
    Continue,
    /// The instruction was a system call; the OS must service it and then
    /// resume execution (the program counter already points past the
    /// `syscall`).
    Syscall {
        /// System-call number.
        num: u16,
    },
    /// The current handler returned to the OS (popped [`HANDLER_RETURN`]).
    HandlerDone,
    /// A fault occurred (software check, MPU violation, illegal instruction).
    Fault(FaultInfo),
    /// The program executed a `halt`.
    Halted,
}

/// CPU execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Instructions that touched data memory (the ARP's "memory access"
    /// count).
    pub data_accesses: u64,
    /// System calls executed.
    pub syscalls: u64,
    /// Faults raised.
    pub faults: u64,
}

/// The CPU register file, flags and cycle counter.
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u16; Reg::COUNT],
    /// Zero flag.
    pub flag_z: bool,
    /// Negative flag.
    pub flag_n: bool,
    /// Carry flag (set when a subtraction does not borrow, MSP430 style).
    pub flag_c: bool,
    /// Overflow flag.
    pub flag_v: bool,
    /// Total cycles consumed (instruction execution plus charges from the
    /// OS model).
    pub cycles: u64,
    /// Execution statistics.
    pub stats: CpuStats,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers zeroed.
    pub fn new() -> Self {
        Cpu {
            regs: [0; Reg::COUNT],
            flag_z: false,
            flag_n: false,
            flag_c: false,
            flag_v: false,
            cycles: 0,
            stats: CpuStats::default(),
        }
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u16 {
        if r == Reg::SR {
            self.status_word()
        } else {
            self.regs[r.index() & REG_MASK]
        }
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u16) {
        if r == Reg::SR {
            self.set_status_word(value);
        } else {
            self.regs[r.index() & REG_MASK] = value;
        }
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> Addr {
        self.regs[Reg::PC.index()] as Addr
    }

    /// Sets the program counter.
    #[inline]
    pub fn set_pc(&mut self, pc: Addr) {
        self.regs[Reg::PC.index()] = pc as u16;
    }

    /// Current stack pointer.
    pub fn sp(&self) -> Addr {
        self.regs[Reg::SP.index()] as Addr
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, sp: Addr) {
        self.regs[Reg::SP.index()] = sp as u16;
    }

    /// Packs the flags into an MSP430-style status word.
    pub fn status_word(&self) -> u16 {
        (self.flag_c as u16)
            | ((self.flag_z as u16) << 1)
            | ((self.flag_n as u16) << 2)
            | ((self.flag_v as u16) << 8)
    }

    /// Unpacks an MSP430-style status word into the flags.
    pub fn set_status_word(&mut self, sr: u16) {
        self.flag_c = sr & 0x0001 != 0;
        self.flag_z = sr & 0x0002 != 0;
        self.flag_n = sr & 0x0004 != 0;
        self.flag_v = sr & 0x0100 != 0;
    }

    /// Adds `n` cycles to the cycle counter (used by the OS cost model) and
    /// returns the new total.
    pub fn charge(&mut self, n: u64) -> u64 {
        self.cycles += n;
        self.cycles
    }

    fn set_flags_logic(&mut self, result: u16) {
        self.flag_z = result == 0;
        self.flag_n = result & 0x8000 != 0;
        self.flag_v = false;
    }

    fn set_flags_add(&mut self, a: u16, b: u16, result: u16) {
        self.flag_z = result == 0;
        self.flag_n = result & 0x8000 != 0;
        self.flag_c = (a as u32 + b as u32) > 0xFFFF;
        self.flag_v = ((a ^ result) & (b ^ result) & 0x8000) != 0;
    }

    fn set_flags_sub(&mut self, a: u16, b: u16, result: u16) {
        self.flag_z = result == 0;
        self.flag_n = result & 0x8000 != 0;
        // MSP430 convention: C is set when no borrow occurred (a >= b
        // unsigned).
        self.flag_c = a >= b;
        self.flag_v = ((a ^ b) & (a ^ result) & 0x8000) != 0;
    }

    fn cond_holds(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.flag_z,
            Cond::Ne => !self.flag_z,
            Cond::Lo => !self.flag_c,
            Cond::Hs => self.flag_c,
            Cond::Lt => self.flag_n != self.flag_v,
            Cond::Ge => self.flag_n == self.flag_v,
            Cond::Mi => self.flag_n,
            Cond::Pl => !self.flag_n,
        }
    }

    fn bus_fault_to_event(&mut self, pc: Addr, fault: BusFault) -> StepEvent {
        self.stats.faults += 1;
        let class = match fault.cause {
            BusFaultCause::MpuViolation | BusFaultCause::ExtendedMpuViolation => {
                FaultClass::MpuViolation
            }
            // Unmapped addresses, read-only memory, misaligned words and MPU
            // register-protocol violations are all programming errors rather
            // than isolation checks; report them as illegal instructions so
            // the OS fault handler can still log and kill the app.
            _ => FaultClass::IllegalInstruction,
        };
        StepEvent::Fault(FaultInfo {
            class,
            pc,
            addr: Some(fault.addr),
        })
    }

    // Data-access counting happens once per retired instruction (via
    // `touches_data_memory`), not in the push/pop helpers, so call/return
    // stack traffic does not inflate the ARP's "memory access" count.
    // Both helpers use the bus's execute-loop entry points, which trust the
    // attribute table `run_block` synced at entry.
    fn push(&mut self, bus: &mut Bus, value: u16) -> Result<(), BusFault> {
        let sp = self.regs[Reg::SP.index()].wrapping_sub(2);
        self.regs[Reg::SP.index()] = sp;
        bus.store(sp, Width::Word.bytes(), value)
    }

    fn pop(&mut self, bus: &mut Bus) -> Result<u16, BusFault> {
        let sp = self.regs[Reg::SP.index()];
        let v = bus.load(sp, Width::Word.bytes())?;
        self.regs[Reg::SP.index()] = sp.wrapping_add(2);
        Ok(v)
    }

    /// The permission check every fetch pays.  An odd PC faults as
    /// misaligned before it counts as an execute check, exactly as
    /// [`Bus::check_execute`] counts.
    #[inline(always)]
    fn fetch_fault(&mut self, bus: &mut Bus, pc: u16, exec_checks: &mut u64) -> Option<StepEvent> {
        *exec_checks += u64::from(pc & 1 == 0);
        match bus.check_fetch(pc) {
            Ok(()) => None,
            Err(fault) => Some(self.bus_fault_to_event(Addr::from(pc), fault)),
        }
    }

    /// The fault for a permitted fetch from a slot holding no instruction.
    fn illegal_fetch(&mut self, pc: u16) -> StepEvent {
        self.stats.faults += 1;
        StepEvent::Fault(FaultInfo {
            class: FaultClass::IllegalInstruction,
            pc: Addr::from(pc),
            addr: None,
        })
    }

    /// Executes one instruction fetched from `code`, performing all memory
    /// traffic through `bus`.  Single-step form of [`Cpu::run_block`].
    pub fn step(&mut self, bus: &mut Bus, code: &InstrStore) -> StepEvent {
        match self.run_block(bus, code, 1) {
            (Some(ev), _) => ev,
            // The budget of one ran out without a stopping event: the one
            // instruction executed and execution may continue.
            (None, _) => StepEvent::Continue,
        }
    }

    /// Executes up to `max_steps` instructions as one block — the hot loop
    /// behind [`crate::device::Device::run`].
    ///
    /// Each step pays only for the instruction it runs.  Everything that
    /// can be resolved once per block is resolved at entry: the bus syncs
    /// its access-attribute table with the installed MPU configuration
    /// (catching direct backend writes and extended-MPU flips made since
    /// the last block; MPU register stores inside the block re-resolve it
    /// themselves), and the instruction table is unwrapped — an empty
    /// store faults on its first fetch before the loop.  Each fetch is
    /// then one attribute-byte load for the permission check plus one
    /// masked slot index, and every data access one attribute-byte load.
    /// The retired-instruction, cycle, data-access and execute-check
    /// counters accumulate in locals, flushed once at block exit.  The
    /// benchmark timer still advances with every executed instruction (its
    /// memory-mapped counter stays exact even for firmware that reads it
    /// mid-block).  Returns `None` when the step budget ran out, otherwise
    /// the stopping event, along with the number of steps consumed.
    pub fn run_block(
        &mut self,
        bus: &mut Bus,
        code: &InstrStore,
        max_steps: u64,
    ) -> (Option<StepEvent>, u64) {
        bus.sync_attr_table();
        let mut exec_checks: u64 = 0;
        let Some(table) = code.table() else {
            // No instruction anywhere: the first fetch is permission-checked
            // like any other, then faults on the empty slot.
            if max_steps == 0 {
                return (None, 0);
            }
            let pc = self.regs[Reg::PC.index()];
            let ev = self
                .fetch_fault(bus, pc, &mut exec_checks)
                .unwrap_or_else(|| self.illegal_fetch(pc));
            bus.stats.exec_checks += exec_checks;
            return (Some(ev), 1);
        };
        let mut steps: u64 = 0;
        let mut instructions: u64 = 0;
        let mut cycles: u64 = 0;
        let mut data_accesses: u64 = 0;
        let stop = loop {
            if steps >= max_steps {
                break None;
            }
            steps += 1;
            let pc = self.regs[Reg::PC.index()];
            if let Some(fault) = self.fetch_fault(bus, pc, &mut exec_checks) {
                break Some(fault);
            }
            // The fetch check rejected odd PCs and the PC register is
            // 16-bit, so the masked slot index is exact.
            let slot = &table[usize::from(pc >> 1) & (code::SLOT_COUNT - 1)];
            if slot.is_empty() {
                break Some(self.illegal_fetch(pc));
            }
            let (instr, meta) = (slot.instr(), slot.meta());
            instructions += 1;
            cycles += meta.base_cycles();
            data_accesses += meta.touches_data_memory() as u64;
            // Every cycle an instruction consumes is its `base_cycles`
            // (dispatch arms never charge more), so ticking the timer after
            // dispatch reproduces per-step ticking exactly: an instruction
            // reading the memory-mapped counter sees all ticks through the
            // *previous* instruction.
            let pc = Addr::from(pc);
            match self.dispatch(bus, instr, pc, pc + meta.size_bytes()) {
                Flow::Next(new_pc) => {
                    self.set_pc(new_pc);
                    bus.timer.tick(meta.base_cycles());
                }
                Flow::Stop(ev) => {
                    bus.timer.tick(meta.base_cycles());
                    break Some(ev);
                }
            }
        };
        self.stats.instructions += instructions;
        self.cycles += cycles;
        self.stats.data_accesses += data_accesses;
        bus.stats.exec_checks += exec_checks;
        (stop, steps)
    }

    /// Executes one already-fetched instruction: every arm either produces
    /// the next program counter or stops with an event (having already
    /// positioned the PC the way [`Cpu::step`] always has).
    #[inline(always)]
    fn dispatch(&mut self, bus: &mut Bus, instr: Instr, pc: Addr, next_pc: Addr) -> Flow {
        let mut new_pc = next_pc;

        macro_rules! try_mem {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return Flow::Stop(self.bus_fault_to_event(pc, fault)),
                }
            };
        }

        match instr {
            Instr::MovImm { dst, imm } => self.set_reg(dst, imm),
            Instr::Mov { dst, src } => {
                let v = self.reg(src);
                self.set_reg(dst, v);
            }
            Instr::Load {
                dst,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add_signed(offset);
                let v = try_mem!(bus.load(addr, width.bytes()));
                self.set_reg(dst, v);
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = self.reg(base).wrapping_add_signed(offset);
                let v = self.reg(src);
                try_mem!(bus.store(addr, width.bytes(), v));
            }
            Instr::LoadAbs { dst, addr, width } => {
                let v = try_mem!(bus.load(addr, width.bytes()));
                self.set_reg(dst, v);
            }
            Instr::StoreAbs { src, addr, width } => {
                let v = self.reg(src);
                try_mem!(bus.store(addr, width.bytes(), v));
            }
            Instr::Push { src } => {
                let v = self.reg(src);
                try_mem!(self.push(bus, v));
            }
            Instr::Pop { dst } => {
                let v = try_mem!(self.pop(bus));
                self.set_reg(dst, v);
            }
            Instr::Alu { op, dst, src } => {
                let v = self.alu(op, self.reg(dst), self.reg(src));
                self.set_reg(dst, v);
            }
            Instr::AluImm { op, dst, imm } => {
                let v = self.alu(op, self.reg(dst), imm);
                self.set_reg(dst, v);
            }
            Instr::Unary { op, reg } => {
                let a = self.reg(reg);
                let v = match op {
                    UnaryOp::Neg => (a as i16).wrapping_neg() as u16,
                    UnaryOp::Not => !a,
                    UnaryOp::Shl(n) => a.wrapping_shl(n as u32),
                    UnaryOp::Shr(n) => a.wrapping_shr(n as u32),
                    UnaryOp::Sar(n) => ((a as i16) >> n.min(15)) as u16,
                };
                self.set_flags_logic(v);
                self.set_reg(reg, v);
            }
            Instr::Cmp { a, b } => {
                let (x, y) = (self.reg(a), self.reg(b));
                let r = x.wrapping_sub(y);
                self.set_flags_sub(x, y, r);
            }
            Instr::CmpImm { a, imm } => {
                let x = self.reg(a);
                let r = x.wrapping_sub(imm);
                self.set_flags_sub(x, imm, r);
            }
            Instr::Jmp { target } => new_pc = target as Addr,
            Instr::Jcc { cond, target } => {
                if self.cond_holds(cond) {
                    new_pc = target as Addr;
                }
            }
            Instr::Br { reg } => {
                let target = self.reg(reg) as Addr;
                if target == HANDLER_RETURN {
                    self.set_pc(next_pc);
                    return Flow::Stop(StepEvent::HandlerDone);
                }
                new_pc = target;
            }
            Instr::Call { target } => {
                try_mem!(self.push(bus, next_pc as u16));
                new_pc = target as Addr;
            }
            Instr::CallReg { reg } => {
                let target = self.reg(reg) as Addr;
                try_mem!(self.push(bus, next_pc as u16));
                new_pc = target;
            }
            Instr::Ret => {
                let ra = try_mem!(self.pop(bus)) as Addr;
                if ra == HANDLER_RETURN {
                    self.set_pc(next_pc);
                    return Flow::Stop(StepEvent::HandlerDone);
                }
                new_pc = ra;
            }
            Instr::Syscall { num } => {
                self.stats.syscalls += 1;
                self.set_pc(next_pc);
                return Flow::Stop(StepEvent::Syscall { num });
            }
            Instr::Fault { code } => {
                self.stats.faults += 1;
                let class = FaultClass::ALL
                    .get(code as usize)
                    .copied()
                    .unwrap_or(FaultClass::IllegalInstruction);
                self.set_pc(next_pc);
                return Flow::Stop(StepEvent::Fault(FaultInfo {
                    class,
                    pc,
                    addr: None,
                }));
            }
            Instr::Halt => {
                self.set_pc(pc);
                return Flow::Stop(StepEvent::Halted);
            }
            Instr::Nop => {}
        }

        Flow::Next(new_pc)
    }

    fn alu(&mut self, op: AluOp, a: u16, b: u16) -> u16 {
        match op {
            AluOp::Add => {
                let r = a.wrapping_add(b);
                self.set_flags_add(a, b, r);
                r
            }
            AluOp::Sub => {
                let r = a.wrapping_sub(b);
                self.set_flags_sub(a, b, r);
                r
            }
            AluOp::And => {
                let r = a & b;
                self.set_flags_logic(r);
                r
            }
            AluOp::Or => {
                let r = a | b;
                self.set_flags_logic(r);
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                self.set_flags_logic(r);
                r
            }
            AluOp::Mul => {
                let r = (a as i16 as i32).wrapping_mul(b as i16 as i32) as u16;
                self.set_flags_logic(r);
                r
            }
            AluOp::Div => {
                let r = if b == 0 {
                    0
                } else {
                    ((a as i16) / (b as i16)) as u16
                };
                self.set_flags_logic(r);
                r
            }
            AluOp::Rem => {
                let r = if b == 0 {
                    0
                } else {
                    ((a as i16) % (b as i16)) as u16
                };
                self.set_flags_logic(r);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;

    /// Assembles a program at `base` into a dense instruction store.
    fn asm(base: Addr, instrs: &[Instr]) -> InstrStore {
        let mut code = InstrStore::new();
        let mut cursor = base;
        for i in instrs {
            code.insert(cursor, *i);
            cursor += i.size_bytes();
        }
        code
    }

    fn run_program(instrs: &[Instr]) -> (Cpu, Bus) {
        let base = 0x4400;
        let code = asm(base, instrs);
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_pc(base);
        cpu.set_sp(0x2400);
        for _ in 0..10_000 {
            match cpu.step(&mut bus, &code) {
                StepEvent::Continue => {}
                StepEvent::Halted => return (cpu, bus),
                other => panic!("unexpected event {other:?}"),
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_and_flags() {
        let (cpu, _) = run_program(&[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 40,
            },
            Instr::MovImm {
                dst: Reg::R5,
                imm: 2,
            },
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg::R4,
                src: Reg::R5,
            },
            Instr::AluImm {
                op: AluOp::Mul,
                dst: Reg::R4,
                imm: 3,
            },
            Instr::Halt,
        ]);
        assert_eq!(cpu.reg(Reg::R4), 126);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_sram() {
        let (cpu, bus) = run_program(&[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 0x1C00,
            },
            Instr::MovImm {
                dst: Reg::R5,
                imm: 0xABCD,
            },
            Instr::Store {
                src: Reg::R5,
                base: Reg::R4,
                offset: 4,
                width: Width::Word,
            },
            Instr::Load {
                dst: Reg::R6,
                base: Reg::R4,
                offset: 4,
                width: Width::Word,
            },
            Instr::Halt,
        ]);
        assert_eq!(cpu.reg(Reg::R6), 0xABCD);
        assert_eq!(bus.read_raw(0x1C04, 2), 0xABCD);
        assert_eq!(cpu.stats.data_accesses, 2);
    }

    #[test]
    fn conditional_branches_follow_unsigned_comparison() {
        // if (r4 < 100) r5 = 1 else r5 = 2
        let (cpu, _) = run_program(&[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 42,
            },
            Instr::CmpImm {
                a: Reg::R4,
                imm: 100,
            },
            Instr::Jcc {
                cond: Cond::Hs,
                target: 0x4410,
            },
            Instr::MovImm {
                dst: Reg::R5,
                imm: 1,
            }, // 0x440A..0x440E
            Instr::Jmp { target: 0x4414 }, // 0x440E..0x4412 -- adjusted below
            Instr::Halt,
        ]);
        // The exact layout matters less than the decision: 42 < 100 so the
        // "lower" path ran.
        assert_eq!(cpu.reg(Reg::R5), 1);
    }

    #[test]
    fn call_and_ret_use_the_stack() {
        let base = 0x4400;
        // main: call f; halt.  f: r4 = 7; ret.
        let code = asm(
            base,
            &[
                Instr::Call { target: 0x4410 }, // 4 bytes
                Instr::Halt,                    // 2 bytes at 0x4404
            ],
        );
        let mut code = code;
        for (a, i) in asm(
            0x4410,
            &[
                Instr::MovImm {
                    dst: Reg::R4,
                    imm: 7,
                },
                Instr::Ret,
            ],
        )
        .iter()
        {
            code.insert(a, *i);
        }
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_pc(base);
        cpu.set_sp(0x2400);
        loop {
            match cpu.step(&mut bus, &code) {
                StepEvent::Continue => {}
                StepEvent::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(cpu.reg(Reg::R4), 7);
        assert_eq!(cpu.sp(), 0x2400, "stack balanced after return");
    }

    #[test]
    fn ret_to_magic_address_ends_the_handler() {
        let base = 0x4400;
        let code = asm(base, &[Instr::Ret]);
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_sp(0x2400);
        // Simulate the OS pushing the magic return address before the call.
        cpu.push(&mut bus, HANDLER_RETURN as u16).unwrap();
        cpu.set_pc(base);
        assert_eq!(cpu.step(&mut bus, &code), StepEvent::HandlerDone);
    }

    #[test]
    fn syscall_reports_number_and_advances_pc() {
        let base = 0x4400;
        let code = asm(base, &[Instr::Syscall { num: 7 }, Instr::Halt]);
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_pc(base);
        cpu.set_sp(0x2400);
        assert_eq!(cpu.step(&mut bus, &code), StepEvent::Syscall { num: 7 });
        assert_eq!(cpu.pc(), base + 2);
        assert_eq!(cpu.stats.syscalls, 1);
    }

    #[test]
    fn fault_instruction_maps_code_to_fault_class() {
        let base = 0x4400;
        let idx = FaultClass::ALL
            .iter()
            .position(|c| *c == FaultClass::DataPointerLowerBound)
            .unwrap() as u16;
        let code = asm(base, &[Instr::Fault { code: idx }]);
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_pc(base);
        match cpu.step(&mut bus, &code) {
            StepEvent::Fault(info) => {
                assert_eq!(info.class, FaultClass::DataPointerLowerBound);
                assert_eq!(info.pc, base);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn executing_unknown_memory_is_an_illegal_instruction() {
        let code = InstrStore::new();
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        cpu.set_pc(0x5000);
        match cpu.step(&mut bus, &code) {
            StepEvent::Fault(info) => assert_eq!(info.class, FaultClass::IllegalInstruction),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mpu_violation_during_store_becomes_a_fault_event() {
        let base = 0x4400;
        let code = asm(
            base,
            &[
                Instr::MovImm {
                    dst: Reg::R4,
                    imm: 0x9000,
                },
                Instr::Store {
                    src: Reg::R4,
                    base: Reg::R4,
                    offset: 0,
                    width: Width::Word,
                },
            ],
        );
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        // Configure MPU: everything below 0x8000 RWX-ish, above 0x8000 no
        // access.
        bus.mpu.write_register(crate::mpu::MPUSEGB1, 0x600).unwrap();
        bus.mpu.write_register(crate::mpu::MPUSEGB2, 0x800).unwrap();
        bus.mpu.write_register(crate::mpu::MPUSAM, 0x0037).unwrap();
        bus.mpu.write_register(crate::mpu::MPUCTL0, 0xA501).unwrap();
        cpu.set_pc(base);
        cpu.set_sp(0x2400);
        assert_eq!(cpu.step(&mut bus, &code), StepEvent::Continue);
        match cpu.step(&mut bus, &code) {
            StepEvent::Fault(info) => {
                assert_eq!(info.class, FaultClass::MpuViolation);
                assert_eq!(info.addr, Some(0x9000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cycles_accumulate_per_instruction() {
        let (cpu, _) = run_program(&[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 1,
            }, // 2 cycles
            Instr::Nop,  // 1
            Instr::Nop,  // 1
            Instr::Halt, // 1
        ]);
        assert_eq!(cpu.cycles, 5);
        assert_eq!(cpu.stats.instructions, 4);
    }

    #[test]
    fn status_word_roundtrip() {
        let mut cpu = Cpu::new();
        cpu.flag_c = true;
        cpu.flag_n = true;
        let sr = cpu.status_word();
        let mut cpu2 = Cpu::new();
        cpu2.set_status_word(sr);
        assert!(cpu2.flag_c && cpu2.flag_n && !cpu2.flag_z && !cpu2.flag_v);
    }

    #[test]
    fn signed_conditions() {
        let mut cpu = Cpu::new();
        // -5 < 3 signed, but 0xFFFB > 3 unsigned.
        let a: u16 = (-5i16) as u16;
        let r = a.wrapping_sub(3);
        cpu.set_flags_sub(a, 3, r);
        assert!(cpu.cond_holds(Cond::Lt));
        assert!(!cpu.cond_holds(Cond::Ge));
        assert!(
            cpu.cond_holds(Cond::Hs),
            "unsigned comparison sees a large value"
        );
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let (cpu, _) = run_program(&[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 10,
            },
            Instr::MovImm {
                dst: Reg::R5,
                imm: 0,
            },
            Instr::Alu {
                op: AluOp::Div,
                dst: Reg::R4,
                src: Reg::R5,
            },
            Instr::Halt,
        ]);
        assert_eq!(cpu.reg(Reg::R4), 0);
    }

    /// What the edge-case tests pin about one `run_block` call.
    type BlockOutcome = (Option<StepEvent>, u64, u64, u64, u64);

    /// Runs one block from `pc` and reports the stop event, the steps
    /// consumed, `CpuStats.faults` and `BusStats.{exec_checks, denied}`.
    fn run_one_block(bus: &mut Bus, code: &InstrStore, pc: Addr, budget: u64) -> BlockOutcome {
        let mut cpu = Cpu::new();
        cpu.set_pc(pc);
        cpu.set_sp(0x2400);
        let (ev, steps) = cpu.run_block(bus, code, budget);
        (
            ev,
            steps,
            cpu.stats.faults,
            bus.stats.exec_checks,
            bus.stats.denied,
        )
    }

    fn illegal_at(pc: Addr, addr: Option<Addr>) -> Option<StepEvent> {
        Some(StepEvent::Fault(FaultInfo {
            class: FaultClass::IllegalInstruction,
            pc,
            addr,
        }))
    }

    #[test]
    fn empty_store_faults_on_the_first_fetch_only() {
        let code = InstrStore::new();
        for (budget, expected) in [
            (0, (None, 0, 0, 0, 0)),
            (1, (illegal_at(0x4400, None), 1, 1, 1, 0)),
            (100, (illegal_at(0x4400, None), 1, 1, 1, 0)),
        ] {
            for cache in [true, false] {
                let mut bus = Bus::msp430fr5969();
                bus.set_attr_cache_enabled(cache);
                assert_eq!(
                    run_one_block(&mut bus, &code, 0x4400, budget),
                    expected,
                    "budget {budget}, cache {cache}"
                );
            }
        }
    }

    #[test]
    fn odd_pc_faults_as_misaligned_without_counting_a_check() {
        let code = asm(0x4400, &[Instr::Nop, Instr::Halt]);
        for store in [&code, &InstrStore::new()] {
            for cache in [true, false] {
                let mut bus = Bus::msp430fr5969();
                bus.set_attr_cache_enabled(cache);
                assert_eq!(
                    run_one_block(&mut bus, store, 0x4401, 100),
                    (illegal_at(0x4401, Some(0x4401)), 1, 1, 0, 0),
                    "cache {cache}"
                );
            }
        }
    }

    #[test]
    fn fetch_from_an_execute_denied_fram_segment_is_an_mpu_fault() {
        // Segment 3 (0x8000 up) grants nothing; segment 1 is execute-only.
        let code = asm(0x9000, &[Instr::Nop, Instr::Halt]);
        for cache in [true, false] {
            let mut bus = Bus::msp430fr5969();
            bus.set_attr_cache_enabled(cache);
            bus.write(crate::mpu::MPUSEGB1, 2, 0x600).unwrap();
            bus.write(crate::mpu::MPUSEGB2, 2, 0x800).unwrap();
            bus.write(crate::mpu::MPUSAM, 2, 0x0034).unwrap();
            bus.write(crate::mpu::MPUCTL0, 2, 0xA501).unwrap();
            assert_eq!(
                run_one_block(&mut bus, &code, 0x9000, 100),
                (
                    Some(StepEvent::Fault(FaultInfo {
                        class: FaultClass::MpuViolation,
                        pc: 0x9000,
                        addr: Some(0x9000),
                    })),
                    1,
                    1,
                    1,
                    1
                ),
                "cache {cache}"
            );
        }
    }
}

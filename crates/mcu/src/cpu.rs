//! The CPU core: registers, flags, and the execute loop.
//!
//! The CPU executes decoded instructions fetched from the device's
//! instruction store (in the execute form [`crate::code`] resolves at
//! insert), performing every data access and instruction-fetch permission
//! check through the [`Bus`] (and therefore through the MPU).  Execution
//! stops at system calls, software faults, MPU violations, handler
//! returns, or an explicit halt, handing control back to the embedding
//! code (`amulet-os`).

use crate::bus::{Bus, BusFault, BusFaultCause};
use crate::code::{InstrStore, Op, Slot};
use crate::isa::{AluOp, Cond, Reg, Width};
use amulet_core::addr::Addr;
use amulet_core::fault::FaultClass;
use std::fmt;

/// Magic return address pushed by the OS before invoking an application
/// handler; a `ret` that pops it ends the handler instead of jumping.
pub const HANDLER_RETURN: Addr = 0xFFFE;

/// Register index mask: [`Reg::COUNT`] is 16, so masking a register
/// index replaces the bounds check on every [`Cpu::reg`] access (and
/// makes register bytes above 15 alias the low sixteen).
const REG_MASK: usize = Reg::COUNT - 1;
const _: () = assert!(Reg::COUNT.is_power_of_two());

/// The register file: the sixteen registers plus [`SR_VIEW`], padded to
/// a power of two so the execute loop's masked operand index needs no
/// bounds check either.
const FILE: usize = 2 * Reg::COUNT;
/// Register-file entry holding the packed status word while an
/// [`Op::Arch`] instruction executes: the `SR` operand's register.
const SR_VIEW: usize = Reg::COUNT;

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

/// Dispatch outcome of one instruction.
enum Flow {
    /// Continue at this program counter.
    Next(u16),
    /// Stop and report this event, leaving the program counter here.
    Stop(StepEvent, u16),
    /// The slot holds no instruction: an illegal fetch that retires
    /// nothing.
    Hole,
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
    /// Entries `0..16` are the registers (`SR`'s entry unused: the flags
    /// below are the status register); [`SR_VIEW`] and above are scratch.
    regs: [u16; FILE],
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
            regs: [0; FILE],
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

    #[inline(always)]
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
            BusFaultCause::MpuViolation => FaultClass::MpuViolation,
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

    // Data accesses are counted by the dispatch arms that touch data
    // memory, not in the push/pop helpers, so call/return stack traffic
    // does not inflate the ARP's "memory access" count.
    fn push(&mut self, bus: &mut Bus, value: u16) -> Result<(), BusFault> {
        let sp = self.regs[Reg::SP.index()].wrapping_sub(2);
        self.regs[Reg::SP.index()] = sp;
        bus.write(Addr::from(sp), Width::Word.bytes(), value)
    }

    fn pop(&mut self, bus: &mut Bus) -> Result<u16, BusFault> {
        let sp = self.regs[Reg::SP.index()];
        let v = bus.read(Addr::from(sp), Width::Word.bytes())?;
        self.regs[Reg::SP.index()] = sp.wrapping_add(2);
        Ok(v)
    }

    /// The fault for a permitted fetch from a word holding no
    /// instruction: outside the store's span or a hole inside it.
    #[cold]
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
    /// Each step pays only for the instruction it runs.  The bus's
    /// access-attribute table is always resolved (every MPU register store
    /// re-resolves it before it returns), and the store's span is
    /// unwrapped at entry into its first word and slot slice.  The
    /// program counter, the remaining step budget and the cycle and
    /// data-access counters live in locals; the PC reaches the register
    /// file only at block exit, and for the rare instruction naming it as
    /// an operand (`Op::Arch` in [`crate::code`]).
    ///
    /// Each fetch is one attribute-byte load, whose execute bit also
    /// proves the PC even, plus one indexed slot load: a PC outside the
    /// span and an empty slot inside it take the same illegal-instruction
    /// path (so an empty store faults on its first fetch), and every data
    /// access is one attribute-byte load.  Operand shapes were resolved
    /// when the instruction was inserted, so dispatch is one `match` on the
    /// slot's op, whose arms know their own sizes.  Retired instructions
    /// and execute checks are derived from the steps taken, since only the
    /// step that stops a block on its fetch retires nothing (and only an
    /// odd PC counts no check).  All counters are flushed once at block
    /// exit.  The benchmark timer still advances with every executed
    /// instruction, so its memory-mapped counter stays exact for firmware
    /// that reads it mid-block.  Returns `None` when the step budget ran
    /// out, otherwise the stopping event, along with the number of steps
    /// consumed.
    pub fn run_block(
        &mut self,
        bus: &mut Bus,
        code: &InstrStore,
        max_steps: u64,
    ) -> (Option<StepEvent>, u64) {
        let (lo, slots) = code.span();
        let mut pc = self.regs[Reg::PC.index()];
        let mut left = max_steps;
        let mut cycles: u64 = 0;
        let mut data_accesses: u64 = 0;
        // Set by the step whose fetch stopped the block: it retired no
        // instruction, and an odd PC counted no execute check either.
        let mut unretired: u64 = 0;
        let mut unchecked: u64 = 0;
        let stop = loop {
            if left == 0 {
                break None;
            }
            left -= 1;
            if let Err(fault) = bus.check_fetch(Addr::from(pc)) {
                unretired = 1;
                unchecked = u64::from(pc & 1);
                break Some(self.bus_fault_to_event(Addr::from(pc), fault));
            }
            // The fetch check rejected odd PCs, so `pc >> 1` is the word
            // index; below the span it wraps past any slice length.  An
            // empty slot dispatches as `Flow::Hole`.
            let Some(slot) = slots.get(usize::from(pc >> 1).wrapping_sub(lo)) else {
                unretired = 1;
                break Some(self.illegal_fetch(pc));
            };
            // Every cycle an instruction consumes is its `base_cycles`
            // (dispatch arms never charge more), so ticking the timer after
            // dispatch reproduces per-step ticking exactly: an instruction
            // reading the memory-mapped counter sees all ticks through the
            // *previous* instruction.
            let base = slot.meta.base_cycles();
            cycles += base;
            match self.exec(bus, slot, pc, &mut data_accesses) {
                Flow::Next(next) => {
                    pc = next;
                    bus.timer.tick(base);
                }
                Flow::Stop(ev, at) => {
                    pc = at;
                    bus.timer.tick(base);
                    break Some(ev);
                }
                Flow::Hole => {
                    unretired = 1;
                    break Some(self.illegal_fetch(pc));
                }
            }
        };
        self.regs[Reg::PC.index()] = pc;
        let steps = max_steps - left;
        self.stats.instructions += steps - unretired;
        self.cycles += cycles;
        self.stats.data_accesses += data_accesses;
        bus.stats.exec_checks += steps - unchecked;
        (stop, steps)
    }

    /// Executes one fetched instruction at `pc`: every arm either produces
    /// the next program counter or stops with an event and the PC to leave
    /// behind.  Register operands are plain register-file entries here;
    /// the [`Op::Arch`] arm makes that true for `PC` and `SR` operands too.
    ///
    /// Each arm knows its op's encoded size, so the next PC never waits on
    /// a load from the slot (a `debug_assert` holds every arm to the
    /// slot's [`InstrMeta`]).  Each arm that touches data memory counts
    /// itself in `data` before its access, so a faulting access counts too
    /// and the return-address traffic of calls and returns does not (the
    /// ARP's "memory access" count).
    ///
    /// [`InstrMeta`]: crate::code::InstrMeta
    #[inline(always)]
    fn exec(&mut self, bus: &mut Bus, slot: &Slot, pc: u16, data: &mut u64) -> Flow {
        let a = usize::from(slot.a) & (FILE - 1);
        let b = usize::from(slot.b) & (FILE - 1);
        let imm = slot.imm;
        // The PC after a one-word and after a two-word instruction.
        let (w1, w2) = (pc.wrapping_add(2), pc.wrapping_add(4));
        let (byte, word) = (Width::Byte.bytes(), Width::Word.bytes());
        let shift = u32::from(imm as u8);

        macro_rules! mem {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => {
                        return Flow::Stop(self.bus_fault_to_event(Addr::from(pc), fault), pc)
                    }
                }
            };
        }
        macro_rules! data {
            ($e:expr) => {{
                *data += 1;
                mem!($e)
            }};
        }
        macro_rules! load {
            ($addr:expr, $width:expr) => {{
                self.regs[a] = data!(bus.read(Addr::from($addr), $width));
                w2
            }};
        }
        macro_rules! store {
            ($addr:expr, $width:expr) => {{
                data!(bus.write(Addr::from($addr), $width, self.regs[a]));
                w2
            }};
        }
        macro_rules! alu {
            ($op:expr, $rhs:expr, $next:expr) => {{
                self.regs[a] = self.alu($op, self.regs[a], $rhs);
                $next
            }};
        }
        macro_rules! unary {
            ($f:expr) => {{
                let v = $f(self.regs[a]);
                self.set_flags_logic(v);
                self.regs[a] = v;
                w1
            }};
        }
        macro_rules! jcc {
            ($cond:expr) => {
                if self.cond_holds($cond) {
                    return Flow::Next(imm);
                } else {
                    w2
                }
            };
        }

        let next = match slot.op {
            Op::Empty => return Flow::Hole,
            Op::Arch => return self.exec_arch(bus, slot, pc),
            Op::MovImm => {
                self.regs[a] = imm;
                w2
            }
            Op::Mov => {
                self.regs[a] = self.regs[b];
                w1
            }
            Op::LoadB => load!(self.regs[b].wrapping_add(imm), byte),
            Op::LoadW => load!(self.regs[b].wrapping_add(imm), word),
            Op::StoreB => store!(self.regs[b].wrapping_add(imm), byte),
            Op::StoreW => store!(self.regs[b].wrapping_add(imm), word),
            Op::LoadAbsB => load!(imm, byte),
            Op::LoadAbsW => load!(imm, word),
            Op::StoreAbsB => store!(imm, byte),
            Op::StoreAbsW => store!(imm, word),
            Op::Push => {
                data!(self.push(bus, self.regs[a]));
                w1
            }
            Op::Pop => {
                self.regs[a] = data!(self.pop(bus));
                w1
            }
            Op::Add => alu!(AluOp::Add, self.regs[b], w1),
            Op::Sub => alu!(AluOp::Sub, self.regs[b], w1),
            Op::And => alu!(AluOp::And, self.regs[b], w1),
            Op::Or => alu!(AluOp::Or, self.regs[b], w1),
            Op::Xor => alu!(AluOp::Xor, self.regs[b], w1),
            Op::Mul => alu!(AluOp::Mul, self.regs[b], w1),
            Op::Div => alu!(AluOp::Div, self.regs[b], w1),
            Op::Rem => alu!(AluOp::Rem, self.regs[b], w1),
            Op::AddImm => alu!(AluOp::Add, imm, w2),
            Op::SubImm => alu!(AluOp::Sub, imm, w2),
            Op::AndImm => alu!(AluOp::And, imm, w2),
            Op::OrImm => alu!(AluOp::Or, imm, w2),
            Op::XorImm => alu!(AluOp::Xor, imm, w2),
            Op::MulImm => alu!(AluOp::Mul, imm, w2),
            Op::DivImm => alu!(AluOp::Div, imm, w2),
            Op::RemImm => alu!(AluOp::Rem, imm, w2),
            Op::Neg => unary!(|x: u16| (x as i16).wrapping_neg() as u16),
            Op::Not => unary!(|x: u16| !x),
            Op::Shl => unary!(|x: u16| x.wrapping_shl(shift)),
            Op::Shr => unary!(|x: u16| x.wrapping_shr(shift)),
            Op::Sar => unary!(|x: u16| ((x as i16) >> shift.min(15)) as u16),
            Op::Cmp => {
                let (x, y) = (self.regs[a], self.regs[b]);
                self.set_flags_sub(x, y, x.wrapping_sub(y));
                w1
            }
            Op::CmpImm => {
                let x = self.regs[a];
                self.set_flags_sub(x, imm, x.wrapping_sub(imm));
                w2
            }
            Op::Jmp => return Flow::Next(imm),
            Op::Jeq => jcc!(Cond::Eq),
            Op::Jne => jcc!(Cond::Ne),
            Op::Jlo => jcc!(Cond::Lo),
            Op::Jhs => jcc!(Cond::Hs),
            Op::Jlt => jcc!(Cond::Lt),
            Op::Jge => jcc!(Cond::Ge),
            Op::Jmi => jcc!(Cond::Mi),
            Op::Jpl => jcc!(Cond::Pl),
            Op::Br => {
                let target = self.regs[a];
                if Addr::from(target) == HANDLER_RETURN {
                    return Flow::Stop(StepEvent::HandlerDone, w1);
                }
                return Flow::Next(target);
            }
            Op::Call => {
                mem!(self.push(bus, w2));
                return Flow::Next(imm);
            }
            Op::CallReg => {
                let target = self.regs[a];
                mem!(self.push(bus, w1));
                return Flow::Next(target);
            }
            Op::Ret => {
                let ra = mem!(self.pop(bus));
                if Addr::from(ra) == HANDLER_RETURN {
                    return Flow::Stop(StepEvent::HandlerDone, w1);
                }
                return Flow::Next(ra);
            }
            Op::Syscall => {
                self.stats.syscalls += 1;
                return Flow::Stop(StepEvent::Syscall { num: imm }, w1);
            }
            Op::Fault => {
                self.stats.faults += 1;
                let class = FaultClass::ALL
                    .get(usize::from(imm))
                    .copied()
                    .unwrap_or(FaultClass::IllegalInstruction);
                let info = FaultInfo {
                    class,
                    pc: Addr::from(pc),
                    addr: None,
                };
                return Flow::Stop(StepEvent::Fault(info), w1);
            }
            Op::Halt => return Flow::Stop(StepEvent::Halted, pc),
            Op::Nop => w1,
        };
        debug_assert_eq!(
            u32::from(next.wrapping_sub(pc)),
            slot.meta.size_bytes(),
            "{:?} at {pc:#06x}",
            slot.op
        );
        Flow::Next(next)
    }

    /// Executes an instruction with a `PC`, `SR` or out-of-range register
    /// operand ([`Op::Arch`]) as its plain op over the register file: the
    /// `PC` entry is set to `pc`, `SR` operands are pointed at
    /// [`SR_VIEW`] holding the packed status word, and a write to it is
    /// unpacked into the flags afterwards (after any flags the op itself
    /// set, as [`Cpu::set_reg`] would).  A byte above 15 keeps aliasing
    /// its low four bits, `PC` included.  `PC` writes are discarded, since
    /// the loop continues from the PC the op returns.
    #[cold]
    #[inline(never)]
    fn exec_arch(&mut self, bus: &mut Bus, slot: &Slot, pc: u16) -> Flow {
        let view = |r: u8| {
            if Reg(r) == Reg::SR {
                SR_VIEW as u8
            } else {
                r & REG_MASK as u8
            }
        };
        let plain = Slot {
            op: slot.kind,
            a: view(slot.a),
            b: view(slot.b),
            ..*slot
        };
        self.regs[Reg::PC.index()] = pc;
        self.regs[SR_VIEW] = self.status_word();
        let mut data = 0;
        let flow = self.exec(bus, &plain, pc, &mut data);
        self.stats.data_accesses += data;
        if usize::from(plain.a) == SR_VIEW && slot.kind.writes_a() {
            self.set_status_word(self.regs[SR_VIEW]);
        }
        flow
    }

    #[inline(always)]
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
    use crate::isa::Instr;

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
            code.insert(a, i);
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
        bus.write(crate::mpu::MPUSEGB1, 2, 0x600).unwrap();
        bus.write(crate::mpu::MPUSEGB2, 2, 0x800).unwrap();
        bus.write(crate::mpu::MPUSAM, 2, 0x0037).unwrap();
        bus.write(crate::mpu::MPUCTL0, 2, 0xA501).unwrap();
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

    /// What a fetch-stopped block leaves behind: the stop event, steps,
    /// retired instructions, faults, execute checks, cycles and timer
    /// ticks.
    type FetchStop = (Option<StepEvent>, u64, u64, u64, u64, u64, u64);

    /// Runs `transfer` (a jump or call) at 0x4500 in a store spanning
    /// 0x4500..0x4522 with a hole at 0x4504..0x4520, in one block.  The
    /// span sits inside FRAM, so the words around it pass the fetch check.
    fn transfer_outcome(transfer: Instr, cache: bool) -> FetchStop {
        let mut code = asm(0x4500, &[transfer]);
        code.insert(0x4520, Instr::Halt);
        let mut bus = Bus::msp430fr5969();
        bus.set_attr_cache_enabled(cache);
        bus.timer.start();
        let mut cpu = Cpu::new();
        cpu.set_pc(0x4500);
        cpu.set_sp(0x2400);
        let (ev, steps) = cpu.run_block(&mut bus, &code, 100);
        (
            ev,
            steps,
            cpu.stats.instructions,
            cpu.stats.faults,
            bus.stats.exec_checks,
            cpu.cycles,
            bus.timer.raw_cycles(),
        )
    }

    #[test]
    fn fetches_outside_the_span_fault_exactly_like_an_interior_hole() {
        let (lo, hi, hole) = (0x4500u16, 0x4522u16, 0x4510u16);
        for cache in [true, false] {
            for target in [lo - 2, hi, 0x0000, 0xFFFE, hole] {
                for transfer in [Instr::Jmp { target }, Instr::Call { target }] {
                    let cycles = transfer.base_cycles();
                    assert_eq!(
                        transfer_outcome(transfer, cache),
                        (
                            illegal_at(Addr::from(target), None),
                            2,
                            1,
                            1,
                            2,
                            cycles,
                            cycles
                        ),
                        "{transfer}, cache {cache}"
                    );
                }
            }
            // An odd PC faults as misaligned before any check is counted,
            // inside the span or out of it.
            for target in [lo - 1, hole + 1, hi + 1, 0xFFFF] {
                for transfer in [Instr::Jmp { target }, Instr::Call { target }] {
                    let cycles = transfer.base_cycles();
                    let pc = Addr::from(target);
                    assert_eq!(
                        transfer_outcome(transfer, cache),
                        (illegal_at(pc, Some(pc)), 2, 1, 1, 1, cycles, cycles),
                        "{transfer}, cache {cache}"
                    );
                }
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

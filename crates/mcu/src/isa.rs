//! The instruction set executed by the simulated MCU.
//!
//! The Amulet firmware runs on a TI MSP430FR5969.  This simulator does not
//! reproduce the MSP430's bit-level instruction encodings — nothing in the
//! paper's evaluation depends on them — but it keeps the properties that the
//! evaluation *does* depend on:
//!
//! * a 16-bit, byte-addressed, load/store-with-offset register machine with
//!   sixteen registers of which `PC`, `SP` and `SR` are architectural,
//! * MSP430-flavoured cycle costs (register-to-register operations are cheap,
//!   memory operands and immediates add cycles, calls/returns and pushes are
//!   several cycles),
//! * every instruction occupies a whole number of 2-byte words so that code
//!   sizes, bounds and the linker's address arithmetic are real.
//!
//! The compiler in `amulet-aft` targets this ISA directly.

use std::fmt;

/// A machine register.
///
/// `R0`–`R2` are the architectural program counter, stack pointer and status
/// register, mirroring the MSP430 convention; `R4`–`R15` are general purpose.
/// (`R3`, the MSP430's constant generator, is treated as an ordinary scratch
/// register here.)  Only the registers the compiler names have constants;
/// `Reg(n)` names any of the sixteen.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Program counter.
    pub(crate) const PC: Reg = Reg(0);
    /// Stack pointer.
    pub const SP: Reg = Reg(1);
    /// Status register (flags).
    pub(crate) const SR: Reg = Reg(2);
    /// Scratch register used by compiler-inserted check sequences.
    pub const R3: Reg = Reg(3);
    /// First general-purpose register.
    pub const R4: Reg = Reg(4);
    /// General-purpose registers.
    pub const R5: Reg = Reg(5);
    /// General-purpose registers.
    pub const R6: Reg = Reg(6);
    /// General-purpose registers.
    pub const R7: Reg = Reg(7);
    /// General-purpose registers.
    pub const R8: Reg = Reg(8);
    /// Frame pointer by convention in AFT-generated code.
    pub const FP: Reg = Reg(12);
    /// General-purpose registers.
    pub const R13: Reg = Reg(13);
    /// Return-value / first-argument register by convention.
    pub const R14: Reg = Reg(14);
    /// Second argument / secondary scratch register by convention.
    pub const R15: Reg = Reg(15);

    /// Number of registers.
    pub const COUNT: usize = 16;

    /// Register index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::PC => write!(f, "pc"),
            Reg::SP => write!(f, "sp"),
            Reg::SR => write!(f, "sr"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

/// Width of a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Word,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Word => 2,
        }
    }
}

/// Branch conditions, evaluated against the status-register flags that the
/// most recent `Cmp`/arithmetic instruction produced.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal (zero flag set).
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned lower (carry clear), MSP430 `JLO`.
    Lo,
    /// Unsigned higher or same (carry set), MSP430 `JHS`.
    Hs,
    /// Signed less than.
    Lt,
    /// Signed greater or equal.
    Ge,
    /// Negative flag set.
    Mi,
    /// Negative flag clear.
    Pl,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lo => "lo",
            Cond::Hs => "hs",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
        };
        f.write_str(s)
    }
}

/// Two-operand ALU operations (destination ← destination op source).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Multiplication (routed through the hardware multiplier peripheral on
    /// the real part; modelled as a slower ALU operation here).
    Mul,
    /// Signed division (software routine on the real part).
    Div,
    /// Signed remainder.
    Rem,
}

impl AluOp {
    /// Extra cycles beyond a plain register-to-register operation.
    pub(crate) fn extra_cycles(self) -> u64 {
        match self {
            AluOp::Mul => 7,
            AluOp::Div | AluOp::Rem => 15,
            _ => 0,
        }
    }
}

/// Single-operand operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical shift left by the encoded amount.
    Shl(u8),
    /// Logical shift right by the encoded amount.
    Shr(u8),
    /// Arithmetic shift right by the encoded amount.
    Sar(u8),
}

/// A decoded instruction.
///
/// Every variant's encoded size (in 16-bit words) is reported by
/// `Instr::size_words`; the linker uses it to lay code out at real
/// addresses, which is what makes the compiler-patched bounds meaningful.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `dst ← imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u16,
    },
    /// `dst ← src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst ← mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
        /// Access width.
        width: Width,
    },
    /// `mem[base + offset] ← src`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
        /// Access width.
        width: Width,
    },
    /// `dst ← mem[addr]` (absolute addressing).
    LoadAbs {
        /// Destination register.
        dst: Reg,
        /// Absolute address.
        addr: u16,
        /// Access width.
        width: Width,
    },
    /// `mem[addr] ← src` (absolute addressing).
    StoreAbs {
        /// Source register.
        src: Reg,
        /// Absolute address.
        addr: u16,
        /// Access width.
        width: Width,
    },
    /// Push a register onto the stack (`SP ← SP−2; mem[SP] ← src`).
    Push {
        /// Register to push.
        src: Reg,
    },
    /// Pop from the stack into a register.
    Pop {
        /// Destination register.
        dst: Reg,
    },
    /// `dst ← dst op src`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst ← dst op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Reg,
        /// Immediate right operand.
        imm: u16,
    },
    /// Single-operand operation on a register.
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Register operated on.
        reg: Reg,
    },
    /// Compare two registers (sets flags, discards the difference).
    Cmp {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Compare a register with an immediate.
    CmpImm {
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: u16,
    },
    /// Unconditional jump to an absolute address.
    Jmp {
        /// Target address.
        target: u16,
    },
    /// Conditional jump to an absolute address.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Target address.
        target: u16,
    },
    /// Indirect jump through a register.
    Br {
        /// Register holding the target address.
        reg: Reg,
    },
    /// Call an absolute address (pushes the return address).
    Call {
        /// Target address.
        target: u16,
    },
    /// Call through a register (pushes the return address).
    CallReg {
        /// Register holding the target address.
        reg: Reg,
    },
    /// Return (pops the return address into `PC`).
    Ret,
    /// Trap into the operating system with a service number.
    Syscall {
        /// System-call number (see `amulet-os::api`).
        num: u16,
    },
    /// Software fault: a compiler-inserted check failed.  The operand selects
    /// the fault class reported to the OS (encoded as a small integer).
    Fault {
        /// Fault code (`amulet_core::fault::FaultClass` discriminant index).
        code: u16,
    },
    /// Stop execution (used by standalone test programs and the idle loop).
    Halt,
    /// Do nothing for one cycle.
    Nop,
}

impl Instr {
    /// Encoded size of the instruction in 16-bit words (1 word for
    /// register-only forms, 2 when an immediate, offset or absolute address
    /// extension word is needed) — mirroring the MSP430's format-I/format-II
    /// encodings closely enough for realistic code sizes.
    pub(crate) fn size_words(&self) -> u32 {
        match self {
            Instr::Mov { .. }
            | Instr::Push { .. }
            | Instr::Pop { .. }
            | Instr::Alu { .. }
            | Instr::Unary { .. }
            | Instr::Cmp { .. }
            | Instr::Br { .. }
            | Instr::CallReg { .. }
            | Instr::Ret
            | Instr::Halt
            | Instr::Nop => 1,
            Instr::Syscall { .. } | Instr::Fault { .. } => 1,
            Instr::MovImm { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::LoadAbs { .. }
            | Instr::StoreAbs { .. }
            | Instr::AluImm { .. }
            | Instr::CmpImm { .. }
            | Instr::Jmp { .. }
            | Instr::Jcc { .. }
            | Instr::Call { .. } => 2,
        }
    }

    /// Encoded size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_words() * 2
    }

    /// Base cycle cost of the instruction (memory-system costs such as an
    /// FRAM wait state are added by the bus).
    pub fn base_cycles(&self) -> u64 {
        match self {
            Instr::Mov { .. } | Instr::Nop => 1,
            Instr::MovImm { .. } => 2,
            Instr::Alu { op, .. } => 1 + op.extra_cycles(),
            Instr::AluImm { op, .. } => 2 + op.extra_cycles(),
            Instr::Unary { .. } => 1,
            Instr::Cmp { .. } => 1,
            Instr::CmpImm { .. } => 2,
            Instr::Load { .. } | Instr::LoadAbs { .. } => 3,
            Instr::Store { .. } | Instr::StoreAbs { .. } => 4,
            Instr::Push { .. } => 3,
            Instr::Pop { .. } => 2,
            Instr::Jmp { .. } => 2,
            Instr::Jcc { .. } => 2,
            Instr::Br { .. } => 2,
            Instr::Call { .. } => 5,
            Instr::CallReg { .. } => 5,
            Instr::Ret => 4,
            Instr::Syscall { .. } => 2,
            Instr::Fault { .. } => 2,
            Instr::Halt => 1,
        }
    }

    /// Whether the instruction reads or writes data memory (used by the
    /// profiler to count "memory accesses" the way the ARP does).
    pub fn touches_data_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LoadAbs { .. }
                | Instr::StoreAbs { .. }
                | Instr::Push { .. }
                | Instr::Pop { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::MovImm { dst, imm } => write!(f, "mov   #{imm:#x}, {dst}"),
            Instr::Mov { dst, src } => write!(f, "mov   {src}, {dst}"),
            Instr::Load {
                dst,
                base,
                offset,
                width,
            } => {
                write!(f, "ld{}   {offset}({base}), {dst}", wsuffix(*width))
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                write!(f, "st{}   {src}, {offset}({base})", wsuffix(*width))
            }
            Instr::LoadAbs { dst, addr, width } => {
                write!(f, "ld{}   &{addr:#06x}, {dst}", wsuffix(*width))
            }
            Instr::StoreAbs { src, addr, width } => {
                write!(f, "st{}   {src}, &{addr:#06x}", wsuffix(*width))
            }
            Instr::Push { src } => write!(f, "push  {src}"),
            Instr::Pop { dst } => write!(f, "pop   {dst}"),
            Instr::Alu { op, dst, src } => {
                write!(f, "{}   {src}, {dst}", format!("{op:?}").to_lowercase())
            }
            Instr::AluImm { op, dst, imm } => {
                write!(f, "{}  #{imm:#x}, {dst}", format!("{op:?}").to_lowercase())
            }
            Instr::Unary { op, reg } => write!(f, "{op:?} {reg}"),
            Instr::Cmp { a, b } => write!(f, "cmp   {b}, {a}"),
            Instr::CmpImm { a, imm } => write!(f, "cmp   #{imm:#x}, {a}"),
            Instr::Jmp { target } => write!(f, "jmp   {target:#06x}"),
            Instr::Jcc { cond, target } => write!(f, "j{cond}   {target:#06x}"),
            Instr::Br { reg } => write!(f, "br    {reg}"),
            Instr::Call { target } => write!(f, "call  {target:#06x}"),
            Instr::CallReg { reg } => write!(f, "call  {reg}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Syscall { num } => write!(f, "sys   #{num}"),
            Instr::Fault { code } => write!(f, "fault #{code}"),
            Instr::Halt => write!(f, "halt"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

fn wsuffix(width: Width) -> &'static str {
    match width {
        Width::Byte => "b",
        Width::Word => "w",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names() {
        assert_eq!(Reg::PC.to_string(), "pc");
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::R4.to_string(), "r4");
    }

    #[test]
    fn sizes_are_one_or_two_words() {
        let one_word = [Instr::Ret, Instr::Nop, Instr::Push { src: Reg::R4 }];
        let two_words = [
            Instr::MovImm {
                dst: Reg::R4,
                imm: 7,
            },
            Instr::Call { target: 0x4400 },
            Instr::CmpImm {
                a: Reg::R4,
                imm: 0x5000,
            },
        ];
        for i in one_word {
            assert_eq!(i.size_words(), 1, "{i}");
        }
        for i in two_words {
            assert_eq!(i.size_words(), 2, "{i}");
        }
    }

    #[test]
    fn memory_instructions_cost_more_than_register_ones() {
        let mov = Instr::Mov {
            dst: Reg::R4,
            src: Reg::R5,
        };
        let load = Instr::Load {
            dst: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        };
        let store = Instr::Store {
            src: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        };
        assert!(load.base_cycles() > mov.base_cycles());
        assert!(store.base_cycles() > load.base_cycles());
    }

    #[test]
    fn check_sequence_costs_match_core_policy() {
        // A compiler-inserted lower-bound check is `cmp #imm, reg` (2 cycles)
        // + a not-taken conditional jump (2 cycles) plus the pointer
        // materialisation; the analytic constants in amulet-core assume 6
        // cycles for the lower check, so the emergent sequence must be in the
        // same ballpark.
        let cmp = Instr::CmpImm {
            a: Reg::R4,
            imm: 0x8000,
        };
        let jcc = Instr::Jcc {
            cond: Cond::Lo,
            target: 0x4400,
        };
        let total = cmp.base_cycles() + jcc.base_cycles();
        assert!(
            (4..=7).contains(&total),
            "check sequence costs {total} cycles"
        );
    }

    #[test]
    fn data_memory_classification() {
        assert!(Instr::Push { src: Reg::R4 }.touches_data_memory());
        assert!(Instr::LoadAbs {
            dst: Reg::R4,
            addr: 0x1C00,
            width: Width::Word
        }
        .touches_data_memory());
        assert!(!Instr::Jmp { target: 0 }.touches_data_memory());
        assert!(!Instr::Syscall { num: 1 }.touches_data_memory());
    }

    #[test]
    fn widths() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Word.bytes(), 2);
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::Load {
            dst: Reg::R4,
            base: Reg::FP,
            offset: -4,
            width: Width::Word,
        };
        assert_eq!(i.to_string(), "ldw   -4(r12), r4");
        assert_eq!(Instr::Fault { code: 3 }.to_string(), "fault #3");
    }
}

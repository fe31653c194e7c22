//! The dense decoded-instruction store.
//!
//! Instruction fetch is the single hottest operation in the simulator:
//! every simulated instruction performs one lookup.  The original
//! implementation kept decoded instructions in a `BTreeMap<Addr, Instr>`,
//! paying an O(log n) pointer-chasing search per fetch.  [`InstrStore`]
//! replaces it with a flat word-indexed table: the 64 KiB address space
//! holds at most 32 K instruction words (every [`Instr`] occupies a whole
//! number of 2-byte words, so instructions start only at even addresses),
//! and word `addr >> 1` indexes the instruction decoded at `addr`.  Fetch
//! is one subtraction and one bounds-checked index into a slot vector —
//! O(1), cache-friendly, no allocation.
//!
//! A slot does not hold the [`Instr`] itself but its *execute form*,
//! resolved once at insert (or earlier, into a placeable
//! [`ResolvedCode`] run) so the execute loop pays nothing per step for
//! it: an `Op` with the operation's shape folded in (each ALU operation,
//! branch condition, unary operation and access width is an op of its
//! own, so dispatch is one `match` with no nested one), the register
//! operands' numbers, one 16-bit immediate/offset/target field, and an
//! [`InstrMeta`] (encoded size, base cycle cost, whether the instruction
//! touches data memory).  An instruction naming `PC` or `SR` (or a
//! register byte above 15) as an operand dispatches as `Op::Arch`: only
//! that cold path materialises the program counter and packs the flags
//! into a status word, so no other op tests its operands for them.  The
//! slot is 8 bytes; the store decodes it back into the [`Instr`] for
//! [`InstrStore::get`], [`InstrStore::iter`], [`InstrStore::fetch`] and
//! the wire encoding, losslessly.
//!
//! The table covers only the store's occupied span: one contiguous slot
//! vector from the lowest to the highest instruction, plus the span's
//! first slot index.  An image for these MCUs holds a few KiB of code, so
//! a store owns a few thousand slots, not one per word of the 64 KiB
//! address space: a fleet keeping thousands of images live pays for the
//! code they hold, not 256 KiB each.  Holes inside the span (gaps between
//! applications' code regions) stay empty slots.  Iteration, encoding and
//! validation walk the same vector, and an address outside the span holds
//! no instruction, exactly like a hole.
//!
//! An empty store owns no memory.  [`FirmwareBuilder::build`] and the
//! decoder leave the vector's capacity equal to its span, so an image the
//! fleet keeps live (shared by `Arc` with every device that loads it, see
//! [`Device::load_firmware`](crate::device::Device::load_firmware))
//! carries no growth slack.
//!
//! [`FirmwareBuilder::build`]: crate::firmware::FirmwareBuilder::build

use crate::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use amulet_core::addr::Addr;
use std::fmt;

/// Size of the simulated address space in bytes.
const ADDR_SPACE_BYTES: usize = 0x1_0000;
/// Number of instruction slots: one per 2-byte word of address space.
pub(crate) const SLOT_COUNT: usize = ADDR_SPACE_BYTES / 2;

/// Per-instruction metadata, precomputed when the instruction is
/// inserted: the base cycle cost and, packed into one byte, the encoded
/// size and whether the instruction touches data memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstrMeta {
    cycles: u8,
    /// Size in bytes (bits 0–3) and the data-memory flag (bit 4).
    info: u8,
}

impl InstrMeta {
    /// The metadata of an empty slot.
    const EMPTY: InstrMeta = InstrMeta { cycles: 0, info: 0 };

    /// Computes the metadata for an instruction.
    fn of(instr: &Instr) -> InstrMeta {
        let size = instr.size_bytes() as u8; // 2 or 4
        let cycles = instr.base_cycles() as u8; // ≤ 17 today
        debug_assert!(
            size <= 0xF && instr.base_cycles() <= u64::from(u8::MAX),
            "instruction metadata does not fit its packed fields \
             (size {size} in 4 bits, cycles {cycles} in 8 bits)"
        );
        InstrMeta {
            cycles,
            info: size | (u8::from(instr.touches_data_memory()) << 4),
        }
    }

    /// Encoded size of the instruction in bytes.
    #[inline(always)]
    pub fn size_bytes(self) -> u32 {
        u32::from(self.info & 0xF)
    }

    /// Base cycle cost of the instruction.
    #[inline(always)]
    pub fn base_cycles(self) -> u64 {
        u64::from(self.cycles)
    }

    /// Whether the instruction reads or writes data memory.
    #[inline(always)]
    pub fn touches_data_memory(self) -> bool {
        self.info >> 4 != 0
    }
}

/// An instruction's operation with its shape resolved: what the execute
/// loop dispatches on.  Operands live in the [`Slot`] beside it: `a` is
/// the destination (or only, or left) register, `b` the source/base (or
/// right) register, `imm` the immediate, offset, absolute address, branch
/// target, shift amount, syscall number or fault code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Op {
    /// No instruction: the slot is a hole.
    Empty,
    /// An instruction with a `PC`, `SR` or out-of-range register operand;
    /// [`Slot::kind`] is its operation.
    Arch,
    MovImm,
    Mov,
    LoadB,
    LoadW,
    StoreB,
    StoreW,
    LoadAbsB,
    LoadAbsW,
    StoreAbsB,
    StoreAbsW,
    Push,
    Pop,
    Add,
    Sub,
    And,
    Or,
    Xor,
    Mul,
    Div,
    Rem,
    AddImm,
    SubImm,
    AndImm,
    OrImm,
    XorImm,
    MulImm,
    DivImm,
    RemImm,
    Neg,
    Not,
    Shl,
    Shr,
    Sar,
    Cmp,
    CmpImm,
    Jmp,
    Jeq,
    Jne,
    Jlo,
    Jhs,
    Jlt,
    Jge,
    Jmi,
    Jpl,
    Br,
    Call,
    CallReg,
    Ret,
    Syscall,
    Fault,
    Halt,
    Nop,
}

impl Op {
    /// Whether the operation writes register `a`.
    pub(crate) fn writes_a(self) -> bool {
        matches!(
            self,
            Op::MovImm
                | Op::Mov
                | Op::LoadB
                | Op::LoadW
                | Op::LoadAbsB
                | Op::LoadAbsW
                | Op::Pop
                | Op::Add
                | Op::Sub
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Mul
                | Op::Div
                | Op::Rem
                | Op::AddImm
                | Op::SubImm
                | Op::AndImm
                | Op::OrImm
                | Op::XorImm
                | Op::MulImm
                | Op::DivImm
                | Op::RemImm
                | Op::Neg
                | Op::Not
                | Op::Shl
                | Op::Shr
                | Op::Sar
        )
    }
}

/// The ALU operations in [`AluOp`] declaration order, with their
/// register and immediate ops.
const ALU_OPS: [(AluOp, Op, Op); 8] = [
    (AluOp::Add, Op::Add, Op::AddImm),
    (AluOp::Sub, Op::Sub, Op::SubImm),
    (AluOp::And, Op::And, Op::AndImm),
    (AluOp::Or, Op::Or, Op::OrImm),
    (AluOp::Xor, Op::Xor, Op::XorImm),
    (AluOp::Mul, Op::Mul, Op::MulImm),
    (AluOp::Div, Op::Div, Op::DivImm),
    (AluOp::Rem, Op::Rem, Op::RemImm),
];

/// The branch conditions in [`Cond`] declaration order, with their ops.
const JCC_OPS: [(Cond, Op); 8] = [
    (Cond::Eq, Op::Jeq),
    (Cond::Ne, Op::Jne),
    (Cond::Lo, Op::Jlo),
    (Cond::Hs, Op::Jhs),
    (Cond::Lt, Op::Jlt),
    (Cond::Ge, Op::Jge),
    (Cond::Mi, Op::Jmi),
    (Cond::Pl, Op::Jpl),
];

// Each table lists its ops in declaration order, and in its `AluOp` or
// `Cond` column's: `Slot::of` indexes a table by `AluOp`/`Cond`, and
// `Slot::instr` by an op's offset from the table's first op.
const _: () = {
    let mut i = 0;
    while i < ALU_OPS.len() {
        assert!(ALU_OPS[i].0 as usize == i && JCC_OPS[i].0 as usize == i);
        assert!(ALU_OPS[i].1 as usize == Op::Add as usize + i);
        assert!(ALU_OPS[i].2 as usize == Op::AddImm as usize + i);
        assert!(JCC_OPS[i].1 as usize == Op::Jeq as usize + i);
        i += 1;
    }
};

/// Whether a register operand can be read and written as a plain
/// register-file entry: everything but `PC` (whose value the execute loop
/// keeps out of the file), `SR` (the packed flags) and bytes above 15
/// (which alias the low sixteen, `PC` and all).
fn plain(r: Reg) -> bool {
    (1..Reg::COUNT as u8).contains(&r.0) && r != Reg::SR
}

/// One slot of the table: an instruction in its execute form (see the
/// module documentation).  Unused operand fields are zero, so equal
/// instructions give equal slots.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// What the execute loop dispatches on: [`Slot::kind`], or
    /// [`Op::Arch`] when an operand is not [`plain`].
    pub(crate) op: Op,
    /// The instruction's operation.
    pub(crate) kind: Op,
    /// Destination, only or left register operand.
    pub(crate) a: u8,
    /// Source, base or right register operand.
    pub(crate) b: u8,
    /// Immediate, offset, address, target, shift, number or code.
    pub(crate) imm: u16,
    /// Size, cycles and data-memory flag.
    pub(crate) meta: InstrMeta,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 8);

impl Slot {
    const EMPTY: Slot = Slot {
        op: Op::Empty,
        kind: Op::Empty,
        a: 0,
        b: 0,
        imm: 0,
        meta: InstrMeta::EMPTY,
    };

    /// Resolves an instruction into its execute form.
    fn of(instr: Instr) -> Slot {
        use Instr as I;
        let width = |w: Width, byte: Op, word: Op| if w == Width::Byte { byte } else { word };
        let (kind, a, b, imm): (Op, Option<Reg>, Option<Reg>, u16) = match instr {
            I::MovImm { dst, imm } => (Op::MovImm, Some(dst), None, imm),
            I::Mov { dst, src } => (Op::Mov, Some(dst), Some(src), 0),
            I::Load {
                dst,
                base,
                offset,
                width: w,
            } => (
                width(w, Op::LoadB, Op::LoadW),
                Some(dst),
                Some(base),
                offset as u16,
            ),
            I::Store {
                src,
                base,
                offset,
                width: w,
            } => (
                width(w, Op::StoreB, Op::StoreW),
                Some(src),
                Some(base),
                offset as u16,
            ),
            I::LoadAbs {
                dst,
                addr,
                width: w,
            } => (width(w, Op::LoadAbsB, Op::LoadAbsW), Some(dst), None, addr),
            I::StoreAbs {
                src,
                addr,
                width: w,
            } => (
                width(w, Op::StoreAbsB, Op::StoreAbsW),
                Some(src),
                None,
                addr,
            ),
            I::Push { src } => (Op::Push, Some(src), None, 0),
            I::Pop { dst } => (Op::Pop, Some(dst), None, 0),
            I::Alu { op, dst, src } => (ALU_OPS[op as usize].1, Some(dst), Some(src), 0),
            I::AluImm { op, dst, imm } => (ALU_OPS[op as usize].2, Some(dst), None, imm),
            I::Unary { op, reg } => {
                let (kind, n) = match op {
                    UnaryOp::Neg => (Op::Neg, 0),
                    UnaryOp::Not => (Op::Not, 0),
                    UnaryOp::Shl(n) => (Op::Shl, n),
                    UnaryOp::Shr(n) => (Op::Shr, n),
                    UnaryOp::Sar(n) => (Op::Sar, n),
                };
                (kind, Some(reg), None, u16::from(n))
            }
            I::Cmp { a, b } => (Op::Cmp, Some(a), Some(b), 0),
            I::CmpImm { a, imm } => (Op::CmpImm, Some(a), None, imm),
            I::Jmp { target } => (Op::Jmp, None, None, target),
            I::Jcc { cond, target } => (JCC_OPS[cond as usize].1, None, None, target),
            I::Br { reg } => (Op::Br, Some(reg), None, 0),
            I::Call { target } => (Op::Call, None, None, target),
            I::CallReg { reg } => (Op::CallReg, Some(reg), None, 0),
            I::Ret => (Op::Ret, None, None, 0),
            I::Syscall { num } => (Op::Syscall, None, None, num),
            I::Fault { code } => (Op::Fault, None, None, code),
            I::Halt => (Op::Halt, None, None, 0),
            I::Nop => (Op::Nop, None, None, 0),
        };
        let arch = a.is_some_and(|r| !plain(r)) || b.is_some_and(|r| !plain(r));
        Slot {
            op: if arch { Op::Arch } else { kind },
            kind,
            a: a.map_or(0, |r| r.0),
            b: b.map_or(0, |r| r.0),
            imm,
            meta: InstrMeta::of(&instr),
        }
    }

    /// Whether the slot holds no instruction.
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.kind == Op::Empty
    }

    /// The instruction the slot holds, decoded back from its execute
    /// form ([`Instr::Nop`] when [`Slot::is_empty`]).
    pub(crate) fn instr(&self) -> Instr {
        use Instr as I;
        let (a, b, imm) = (Reg(self.a), Reg(self.b), self.imm);
        // The ALU ops and branches are declared in table order (asserted
        // below the tables), so an op's offset from the first is its row.
        let row = |k: Op, first: Op| usize::from(k as u8 - first as u8);
        let width = |byte: Op| {
            if self.kind == byte {
                Width::Byte
            } else {
                Width::Word
            }
        };
        match self.kind {
            Op::Empty | Op::Arch | Op::Nop => I::Nop,
            Op::MovImm => I::MovImm { dst: a, imm },
            Op::Mov => I::Mov { dst: a, src: b },
            Op::LoadB | Op::LoadW => I::Load {
                dst: a,
                base: b,
                offset: imm as i16,
                width: width(Op::LoadB),
            },
            Op::StoreB | Op::StoreW => I::Store {
                src: a,
                base: b,
                offset: imm as i16,
                width: width(Op::StoreB),
            },
            Op::LoadAbsB | Op::LoadAbsW => I::LoadAbs {
                dst: a,
                addr: imm,
                width: width(Op::LoadAbsB),
            },
            Op::StoreAbsB | Op::StoreAbsW => I::StoreAbs {
                src: a,
                addr: imm,
                width: width(Op::StoreAbsB),
            },
            Op::Push => I::Push { src: a },
            Op::Pop => I::Pop { dst: a },
            k @ (Op::Add | Op::Sub | Op::And | Op::Or | Op::Xor | Op::Mul | Op::Div | Op::Rem) => {
                I::Alu {
                    op: ALU_OPS[row(k, Op::Add)].0,
                    dst: a,
                    src: b,
                }
            }
            k @ (Op::AddImm
            | Op::SubImm
            | Op::AndImm
            | Op::OrImm
            | Op::XorImm
            | Op::MulImm
            | Op::DivImm
            | Op::RemImm) => I::AluImm {
                op: ALU_OPS[row(k, Op::AddImm)].0,
                dst: a,
                imm,
            },
            Op::Neg => I::Unary {
                op: UnaryOp::Neg,
                reg: a,
            },
            Op::Not => I::Unary {
                op: UnaryOp::Not,
                reg: a,
            },
            Op::Shl => I::Unary {
                op: UnaryOp::Shl(imm as u8),
                reg: a,
            },
            Op::Shr => I::Unary {
                op: UnaryOp::Shr(imm as u8),
                reg: a,
            },
            Op::Sar => I::Unary {
                op: UnaryOp::Sar(imm as u8),
                reg: a,
            },
            Op::Cmp => I::Cmp { a, b },
            Op::CmpImm => I::CmpImm { a, imm },
            Op::Jmp => I::Jmp { target: imm },
            k @ (Op::Jeq | Op::Jne | Op::Jlo | Op::Jhs | Op::Jlt | Op::Jge | Op::Jmi | Op::Jpl) => {
                I::Jcc {
                    cond: JCC_OPS[row(k, Op::Jeq)].0,
                    target: imm,
                }
            }
            Op::Br => I::Br { reg: a },
            Op::Call => I::Call { target: imm },
            Op::CallReg => I::CallReg { reg: a },
            Op::Ret => I::Ret,
            Op::Syscall => I::Syscall { num: imm },
            Op::Fault => I::Fault { code: imm },
            Op::Halt => I::Halt,
        }
    }
}

/// A run of instructions resolved into execute slots once, to be placed
/// at any word-aligned address: a slot is a function of its instruction
/// alone, never of where it sits.  The AFT resolves each compiled
/// application once and links every image by copying its run (see
/// [`FirmwareBuilder::place`]); only the instructions a relocation patches
/// are resolved again.
///
/// [`FirmwareBuilder::place`]: crate::firmware::FirmwareBuilder::place
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ResolvedCode {
    /// One slot per 2-byte word from the first instruction to the last:
    /// each instruction's slot at its first word, and empty slots over
    /// the rest of its encoding (none after the last instruction, so the
    /// run's ends are occupied like a store's span).
    slots: Vec<Slot>,
    /// Number of instructions.
    count: usize,
    /// Encoded size in bytes.
    bytes: u32,
}

impl ResolvedCode {
    /// Resolves `instrs`, laid out back to back from offset 0.
    pub fn resolve(instrs: impl IntoIterator<Item = Instr>) -> Self {
        let mut code = ResolvedCode::default();
        for instr in instrs {
            let words = instr.size_bytes() as usize / 2;
            code.slots.push(Slot::of(instr));
            code.slots
                .extend(std::iter::repeat_n(Slot::EMPTY, words - 1));
            code.count += 1;
            code.bytes += instr.size_bytes();
        }
        while code.slots.last().is_some_and(Slot::is_empty) {
            code.slots.pop();
        }
        code
    }

    /// Whether the run holds no instruction.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size of the run in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.bytes
    }

    /// Number of slots the run spans in a store: from its first
    /// instruction's word to its last's.
    pub fn span_words(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for ResolvedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolvedCode")
            .field("count", &self.count)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

/// A dense, word-indexed store of decoded instructions.
///
/// Addresses are word-aligned: the ISA guarantees every instruction is a
/// whole number of 16-bit words, so only even addresses can hold an
/// instruction and word `addr >> 1` is a perfect index.  Odd addresses
/// never hold instructions ([`InstrStore::get`] returns `None` without
/// touching the table).
///
/// The slot vector covers exactly the occupied span, the words from the
/// lowest to the highest instruction.  A store has no removal, so the span
/// (and with it the vector) is a pure function of its contents and the
/// derived `Eq` stays content equality.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct InstrStore {
    /// `slots[i]` holds the instruction decoded at word `lo + i`, i.e. at
    /// address `(lo + i) << 1`; the vector spans `lo..lo + slots.len()`,
    /// from the lowest occupied word to one past the highest (empty, with
    /// no allocation, until the first insert).
    slots: Vec<Slot>,
    /// Word index of `slots[0]` (`0` when empty).
    lo: usize,
    /// Number of occupied slots.
    count: usize,
}

impl InstrStore {
    /// Creates an empty store.  No memory is allocated until the first
    /// [`InstrStore::insert`].
    pub fn new() -> Self {
        InstrStore {
            slots: Vec::new(),
            lo: 0,
            count: 0,
        }
    }

    /// Number of instructions in the store.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// One past the highest occupied word index (`0` when empty).
    fn hi(&self) -> usize {
        self.lo + self.slots.len()
    }

    /// Grows the span to cover words `first..end` (`first < end`); the
    /// words it adds stay empty.
    fn cover(&mut self, first: usize, end: usize) {
        if self.slots.is_empty() {
            self.lo = first;
        } else if first < self.lo {
            let below = self.lo - first;
            self.slots
                .splice(0..0, std::iter::repeat_n(Slot::EMPTY, below));
            self.lo = first;
        }
        if end > self.hi() {
            self.slots.resize(end - self.lo, Slot::EMPTY);
        }
    }

    /// Inserts an instruction at `addr`, returning the instruction the
    /// slot previously held (if any).  An address outside the span grows
    /// it at that end; the words between stay empty.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is odd (the ISA word-aligns every instruction)
    /// or outside the 64 KiB address space.
    pub fn insert(&mut self, addr: Addr, instr: Instr) -> Option<Instr> {
        assert!(
            addr.is_multiple_of(2) && (addr as usize) < ADDR_SPACE_BYTES,
            "instruction address {addr:#06x} is misaligned or out of range"
        );
        let index = (addr >> 1) as usize;
        self.cover(index, index + 1);
        let slot = &mut self.slots[index - self.lo];
        let prev = (!slot.is_empty()).then(|| slot.instr());
        *slot = Slot::of(instr);
        self.count += usize::from(prev.is_none());
        prev
    }

    /// Places a resolved run with its first instruction at `addr`: the
    /// same store as inserting each of its instructions at its address,
    /// made by copying the run's slots.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is odd or the run's last instruction would
    /// start outside the 64 KiB address space.
    pub(crate) fn place(&mut self, addr: Addr, code: &ResolvedCode) {
        let words = code.slots.len();
        assert!(
            addr.is_multiple_of(2) && (addr as usize) + 2 * words <= ADDR_SPACE_BYTES,
            "run of {words} words at {addr:#06x} is misaligned or out of range"
        );
        if words == 0 {
            return;
        }
        let first = (addr >> 1) as usize;
        self.cover(first, first + words);
        let at = first - self.lo;
        for (slot, new) in self.slots[at..at + words].iter_mut().zip(&code.slots) {
            if !new.is_empty() {
                self.count += usize::from(slot.is_empty());
                *slot = *new;
            }
        }
    }

    /// Reserves room for a span of `words` slots in all, so placing an
    /// image whose span is known up front never reallocates.
    pub(crate) fn reserve_span(&mut self, words: usize) {
        self.slots
            .reserve_exact(words.saturating_sub(self.slots.len()));
    }

    /// Releases the slot vector's growth slack, so the store owns exactly
    /// its span.  [`FirmwareBuilder::build`] and the decoder call it once
    /// the last instruction is in.
    ///
    /// [`FirmwareBuilder::build`]: crate::firmware::FirmwareBuilder::build
    pub(crate) fn shrink_to_span(&mut self) {
        self.slots.shrink_to_fit();
    }

    /// The slot vector's allocated capacity, in slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The span's first word index and its slots, resolved once per
    /// execute block (see [`crate::cpu::Cpu::run_block`]).
    #[inline(always)]
    pub(crate) fn span(&self) -> (usize, &[Slot]) {
        (self.lo, &self.slots)
    }

    /// The occupied slot at `addr`, if any — the one lookup behind
    /// [`InstrStore::fetch`] and [`InstrStore::get`].  O(1): odd
    /// addresses, addresses outside the span and holes inside it hold no
    /// instruction.
    #[inline(always)]
    fn slot(&self, addr: Addr) -> Option<&Slot> {
        if !addr.is_multiple_of(2) {
            return None;
        }
        let index = ((addr >> 1) as usize).wrapping_sub(self.lo);
        self.slots.get(index).filter(|slot| !slot.is_empty())
    }

    /// The instruction at `addr` together with its precomputed metadata.
    pub fn fetch(&self, addr: Addr) -> Option<(Instr, InstrMeta)> {
        self.slot(addr).map(|s| (s.instr(), s.meta))
    }

    /// The instruction decoded at `addr`, if any.
    pub fn get(&self, addr: Addr) -> Option<Instr> {
        self.slot(addr).map(Slot::instr)
    }

    /// Whether an instruction is decoded at `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.slot(addr).is_some()
    }

    /// Iterates `(address, instruction)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Instr)> + '_ {
        self.scan(self.lo, self.hi()).map(decode)
    }

    /// The occupied slots among word indices `start..end` (a window of
    /// the span), with their addresses, in address order.
    fn scan(&self, start: usize, end: usize) -> impl Iterator<Item = (Addr, &Slot)> {
        self.slots[start - self.lo..end - self.lo]
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.is_empty())
            .map(move |(i, slot)| (((start + i) as Addr) << 1, slot))
    }

    /// The occupied slots with addresses inside `range`, in address order.
    fn scan_range(&self, range: std::ops::Range<Addr>) -> impl Iterator<Item = (Addr, &Slot)> {
        let end = (range.end.div_ceil(2) as usize).clamp(self.lo, self.hi());
        let start = (range.start.div_ceil(2) as usize).clamp(self.lo, end);
        self.scan(start, end)
    }

    /// Iterates `(address, instruction)` pairs with addresses inside
    /// `range`, in address order — the [`BTreeMap::range`]-shaped helper
    /// the firmware validator and tests use.
    ///
    /// [`BTreeMap::range`]: std::collections::BTreeMap::range
    pub fn range(&self, range: std::ops::Range<Addr>) -> impl Iterator<Item = (Addr, Instr)> + '_ {
        self.scan_range(range).map(decode)
    }

    /// [`InstrStore::range`] as `(address, encoded size)` pairs, read
    /// from the slots' metadata without decoding the instructions: all the
    /// firmware validator needs.
    pub(crate) fn sizes(
        &self,
        range: std::ops::Range<Addr>,
    ) -> impl Iterator<Item = (Addr, u32)> + '_ {
        self.scan_range(range)
            .map(|(addr, slot)| (addr, slot.meta.size_bytes()))
    }

    /// The lowest-addressed instruction, if any.
    pub fn first(&self) -> Option<(Addr, Instr)> {
        self.iter().next()
    }

    /// The highest-addressed instruction, if any.
    pub fn last(&self) -> Option<(Addr, Instr)> {
        self.scan(self.hi().saturating_sub(1), self.hi())
            .map(decode)
            .next()
    }
}

/// An occupied slot's instruction, decoded, with its address.
fn decode((addr, slot): (Addr, &Slot)) -> (Addr, Instr) {
    (addr, slot.instr())
}

impl fmt::Debug for InstrStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrStore")
            .field("count", &self.count)
            .field("span", &self.first().map(|(a, _)| a))
            .finish_non_exhaustive()
    }
}

impl FromIterator<(Addr, Instr)> for InstrStore {
    fn from_iter<T: IntoIterator<Item = (Addr, Instr)>>(iter: T) -> Self {
        let mut store = InstrStore::new();
        for (addr, instr) in iter {
            store.insert(addr, instr);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_allocates_nothing_and_finds_nothing() {
        let s = InstrStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.get(0x4400).is_none());
        assert!(s.fetch(0x4400).is_none());
        assert!(s.first().is_none());
        assert!(s.last().is_none());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.range(0..0x1_0000).count(), 0);
    }

    #[test]
    fn insert_get_roundtrip_and_replacement() {
        let mut s = InstrStore::new();
        assert!(s.insert(0x4400, Instr::Nop).is_none());
        assert!(s.insert(0x4402, Instr::Ret).is_none());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0x4400), Some(Instr::Nop));
        assert_eq!(s.get(0x4402), Some(Instr::Ret));
        assert!(s.get(0x4404).is_none());
        // Replacing a slot returns the old instruction and keeps the count.
        assert_eq!(s.insert(0x4400, Instr::Halt), Some(Instr::Nop));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fetch_returns_precomputed_metadata() {
        let mut s = InstrStore::new();
        let load = Instr::Load {
            dst: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        };
        s.insert(0x4400, load);
        s.insert(0x4404, Instr::Ret);
        let (i, m) = s.fetch(0x4400).unwrap();
        assert_eq!(i, load);
        assert_eq!(m.size_bytes(), load.size_bytes());
        assert_eq!(m.base_cycles(), load.base_cycles());
        assert!(m.touches_data_memory());
        let (_, m) = s.fetch(0x4404).unwrap();
        assert_eq!(m.size_bytes(), 2);
        assert_eq!(m.base_cycles(), Instr::Ret.base_cycles());
        assert!(!m.touches_data_memory());
    }

    #[test]
    fn odd_and_out_of_range_addresses_hold_no_instructions() {
        let mut s = InstrStore::new();
        s.insert(0x4400, Instr::Nop);
        assert!(s.get(0x4401).is_none());
        assert!(!s.contains(0x4401));
        assert!(s.fetch(0x4401).is_none());
        assert!(s.get(0x1_4400).is_none(), "no aliasing above 64 KiB");
        assert!(s.fetch(0x1_4400).is_none());
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn inserting_at_an_odd_address_panics() {
        InstrStore::new().insert(0x4401, Instr::Nop);
    }

    #[test]
    fn iteration_is_in_address_order() {
        let mut s = InstrStore::new();
        s.insert(0x5000, Instr::Ret);
        s.insert(0x4400, Instr::Nop);
        s.insert(0x4800, Instr::Halt);
        let addrs: Vec<Addr> = s.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x4400, 0x4800, 0x5000]);
        assert_eq!(s.first().unwrap().0, 0x4400);
        assert_eq!(s.last().unwrap().0, 0x5000);
    }

    #[test]
    fn range_matches_btreemap_semantics() {
        let mut s = InstrStore::new();
        for addr in [0x4400u32, 0x4402, 0x4404, 0x4406] {
            s.insert(addr, Instr::Nop);
        }
        let addrs: Vec<Addr> = s.range(0x4402..0x4406).map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x4402, 0x4404]);
        // Odd bounds round inward to the next word.
        let addrs: Vec<Addr> = s.range(0x4401..0x4405).map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x4402, 0x4404]);
        assert_eq!(s.range(0x4408..0x5000).count(), 0);
        assert_eq!(s.range(0x4404..0x4404).count(), 0);
    }

    /// The word span `lo..hi` of a store's contents, from its first and
    /// last instruction.
    fn span_words(s: &InstrStore) -> usize {
        match (s.first(), s.last()) {
            (Some((first, _)), Some((last, _))) => (last as usize >> 1) + 1 - (first as usize >> 1),
            _ => 0,
        }
    }

    #[test]
    fn slot_vector_is_exactly_the_span_in_any_insert_order() {
        // SplitMix64-driven word indices: each round grows the span above
        // and below, replaces and fills holes, checking after every insert.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..64 {
            let mut s = InstrStore::new();
            let centre = (next() % SLOT_COUNT as u64) as Addr;
            for _ in 0..(round % 16) + 1 {
                // Mostly near the centre (replacements, holes, small
                // growth either way), sometimes anywhere in the space.
                let word = match next() % 4 {
                    0 => (next() % SLOT_COUNT as u64) as Addr,
                    _ => (centre + (next() % 64) as Addr).saturating_sub(32),
                }
                .min(SLOT_COUNT as Addr - 1);
                s.insert(word << 1, Instr::Nop);
                assert_eq!(s.slots.len(), s.hi() - s.lo);
                assert_eq!(s.slots.len(), span_words(&s));
                assert_eq!(s.lo, s.first().unwrap().0 as usize >> 1);
                assert_eq!(
                    s.slots.iter().filter(|slot| !slot.is_empty()).count(),
                    s.len()
                );
            }
        }
        // Growing below the span keeps the slots in place.
        let mut s = InstrStore::new();
        s.insert(0x4410, Instr::Ret);
        s.insert(0x4400, Instr::Nop);
        s.insert(0x0000, Instr::Halt);
        assert_eq!(s.slots.len(), 0x4410 / 2 + 1);
        assert_eq!(s.get(0x4410), Some(Instr::Ret));
        assert_eq!(s.get(0x4400), Some(Instr::Nop));
        assert_eq!(s.get(0x0000), Some(Instr::Halt));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn addresses_outside_the_span_hold_no_instructions() {
        let s = [(0x4400u32, Instr::Nop), (0x4408, Instr::Ret)]
            .into_iter()
            .collect::<InstrStore>();
        for addr in [0x0000, 0x43FE, 0x4402, 0x4406, 0x440A, 0xFFFE] {
            assert!(s.get(addr).is_none(), "{addr:#06x}");
            assert!(s.fetch(addr).is_none(), "{addr:#06x}");
        }
        assert_eq!(s.range(0..0x4400).count(), 0);
        assert_eq!(s.range(0x440A..0x1_0000).count(), 0);
        assert_eq!(s.range(0..2).count(), 0);
    }

    #[test]
    fn collects_from_an_iterator() {
        let s: InstrStore = [
            (0x4400u32, Instr::Nop),
            (
                0x4402,
                Instr::MovImm {
                    dst: Reg::R4,
                    imm: 1,
                },
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
    }

    /// Every instruction shape the ISA allows: each variant with every
    /// ALU operation, condition, unary operation and width, over register
    /// operands that include `PC`, `SP`, `SR` and bytes above 15, and
    /// immediates, offsets and shift amounts at their edges.
    fn every_instr_shape() -> Vec<Instr> {
        let regs = [
            Reg::PC,
            Reg::SP,
            Reg::SR,
            Reg::R3,
            Reg::R4,
            Reg::R15,
            Reg(16),
            Reg(18),
            Reg(u8::MAX),
        ];
        let imms = [0u16, 1, 0x7FFF, 0x8000, u16::MAX];
        let offsets = [i16::MIN, -1, 0, 1, i16::MAX];
        let shifts = [0u8, 1, 15, 16, u8::MAX];
        let widths = [Width::Byte, Width::Word];
        let mut out = vec![Instr::Ret, Instr::Halt, Instr::Nop];
        for &x in &regs {
            out.extend([
                Instr::Push { src: x },
                Instr::Pop { dst: x },
                Instr::Br { reg: x },
                Instr::CallReg { reg: x },
                Instr::Unary {
                    op: UnaryOp::Neg,
                    reg: x,
                },
                Instr::Unary {
                    op: UnaryOp::Not,
                    reg: x,
                },
            ]);
            for &n in &shifts {
                out.extend(
                    [UnaryOp::Shl(n), UnaryOp::Shr(n), UnaryOp::Sar(n)]
                        .map(|op| Instr::Unary { op, reg: x }),
                );
            }
            for &imm in &imms {
                out.extend([Instr::MovImm { dst: x, imm }, Instr::CmpImm { a: x, imm }]);
                for &width in &widths {
                    out.extend([
                        Instr::LoadAbs {
                            dst: x,
                            addr: imm,
                            width,
                        },
                        Instr::StoreAbs {
                            src: x,
                            addr: imm,
                            width,
                        },
                    ]);
                }
                for (op, ..) in ALU_OPS {
                    out.push(Instr::AluImm { op, dst: x, imm });
                }
            }
            for &y in &regs {
                out.extend([Instr::Mov { dst: x, src: y }, Instr::Cmp { a: x, b: y }]);
                for (op, ..) in ALU_OPS {
                    out.push(Instr::Alu { op, dst: x, src: y });
                }
                for &offset in &offsets {
                    for &width in &widths {
                        out.extend([
                            Instr::Load {
                                dst: x,
                                base: y,
                                offset,
                                width,
                            },
                            Instr::Store {
                                src: x,
                                base: y,
                                offset,
                                width,
                            },
                        ]);
                    }
                }
            }
        }
        for &imm in &imms {
            out.extend([
                Instr::Jmp { target: imm },
                Instr::Call { target: imm },
                Instr::Syscall { num: imm },
                Instr::Fault { code: imm },
            ]);
            for (cond, _) in JCC_OPS {
                out.push(Instr::Jcc { cond, target: imm });
            }
        }
        out
    }

    #[test]
    fn every_instruction_shape_round_trips_through_its_slot() {
        // The storm fleet keeps about 1.87 M slots live: a byte more per
        // slot is about 1.9 MB of its peak RSS.
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        let shapes = every_instr_shape();
        let mut store = InstrStore::new();
        let mut at = 0u32;
        for &instr in &shapes {
            let slot = Slot::of(instr);
            assert_eq!(slot.instr(), instr);
            assert!(!slot.is_empty(), "{instr}");
            // The dispatch op differs from the operation exactly when an
            // operand is `PC`, `SR` or above 15.
            let odd_operand = [Reg::PC, Reg::SR, Reg(16), Reg(18), Reg(u8::MAX)]
                .iter()
                .any(|r| operands(&instr).contains(r));
            assert_eq!(slot.op == Op::Arch, odd_operand, "{instr}");
            assert_ne!(slot.kind, Op::Arch, "{instr}");
            let meta = slot.meta;
            assert_eq!(meta.size_bytes(), instr.size_bytes(), "{instr}");
            assert_eq!(meta.base_cycles(), instr.base_cycles(), "{instr}");
            assert_eq!(
                meta.touches_data_memory(),
                instr.touches_data_memory(),
                "{instr}"
            );
            assert_eq!(store.insert(at, instr), None);
            assert_eq!(store.get(at), Some(instr), "{instr}");
            assert_eq!(store.fetch(at).map(|(i, _)| i), Some(instr), "{instr}");
            at += instr.size_bytes();
        }
        assert_eq!(store.len(), shapes.len());
        let mut expected = 0u32;
        for ((addr, got), want) in store.iter().zip(&shapes) {
            assert_eq!((addr, got), (expected, *want));
            expected += want.size_bytes();
        }
    }

    #[test]
    fn placing_a_resolved_run_equals_inserting_its_instructions() {
        let shapes = every_instr_shape();
        // Runs placed into an empty store, above the span, below it,
        // over part of it (so words of a 4-byte instruction meet
        // instructions of another run) and inside a hole, plus an empty
        // run.
        let runs = [
            (0x8000, &shapes[..40]),
            (0x9000, &shapes[40..41]),
            (0x7000, &shapes[100..160]),
            (0x8010, &shapes[200..230]),
            (0x8800, &shapes[300..310]),
            (0x8000, &shapes[..0]),
        ];
        let mut placed = InstrStore::new();
        let mut inserted = InstrStore::new();
        for (addr, run) in runs {
            let code = ResolvedCode::resolve(run.iter().copied());
            assert_eq!(code.is_empty(), run.is_empty());
            let bytes: u32 = run.iter().map(|i| i.size_bytes()).sum();
            assert_eq!(code.size_bytes(), bytes);
            placed.place(addr, &code);
            let mut at = addr;
            for &instr in run {
                inserted.insert(at, instr);
                at += instr.size_bytes();
            }
            assert!(placed == inserted, "run of {} at {addr:#06x}", run.len());
        }
        assert_eq!(
            placed.iter().collect::<Vec<_>>(),
            inserted.iter().collect::<Vec<_>>()
        );
    }

    /// The register operands an instruction names.
    fn operands(instr: &Instr) -> Vec<Reg> {
        match *instr {
            Instr::MovImm { dst, .. }
            | Instr::LoadAbs { dst, .. }
            | Instr::Pop { dst }
            | Instr::AluImm { dst, .. } => vec![dst],
            Instr::StoreAbs { src, .. } | Instr::Push { src } => vec![src],
            Instr::Mov { dst, src } | Instr::Alu { dst, src, .. } => vec![dst, src],
            Instr::Load { dst, base, .. } => vec![dst, base],
            Instr::Store { src, base, .. } => vec![src, base],
            Instr::Unary { reg, .. } | Instr::Br { reg } | Instr::CallReg { reg } => vec![reg],
            Instr::Cmp { a, b } => vec![a, b],
            Instr::CmpImm { a, .. } => vec![a],
            Instr::Jmp { .. }
            | Instr::Jcc { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Syscall { .. }
            | Instr::Fault { .. }
            | Instr::Halt
            | Instr::Nop => vec![],
        }
    }
}

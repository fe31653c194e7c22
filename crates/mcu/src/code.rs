//! The dense decoded-instruction store.
//!
//! Instruction fetch is the single hottest operation in the simulator:
//! every simulated instruction performs one lookup.  The original
//! implementation kept decoded instructions in a `BTreeMap<Addr, Instr>`,
//! paying an O(log n) pointer-chasing search per fetch.  [`InstrStore`]
//! replaces it with a flat word-indexed table: the 64 KiB address space
//! holds at most 32 K instruction words (every [`Instr`] occupies a whole
//! number of 2-byte words, so instructions start only at even addresses),
//! and slot `addr >> 1` holds the instruction decoded at `addr`.  Fetch is
//! a single masked index into a fixed-size table — O(1), cache-friendly,
//! no allocation, and no bounds check survives to the generated code.
//!
//! Each slot also carries an [`InstrMeta`]: the instruction's encoded
//! size, base cycle cost and whether it touches data memory, precomputed
//! at insert time so the execute loop reads them with the same load that
//! fetched the instruction instead of re-deriving them from three `match`
//! expressions per step.
//!
//! The table is allocated lazily (an empty store owns no memory) and
//! clones with one `memcpy`, which is what lets
//! [`Device::load_firmware`](crate::device::Device::load_firmware) install
//! a prebuilt image cheaply and the fleet simulator reuse decoded firmware
//! across thousands of devices.

use crate::isa::Instr;
use amulet_core::addr::Addr;
use std::fmt;

/// Size of the simulated address space in bytes.
const ADDR_SPACE_BYTES: usize = 0x1_0000;
/// Number of instruction slots: one per 2-byte word of address space.
pub(crate) const SLOT_COUNT: usize = ADDR_SPACE_BYTES / 2;

/// Packed per-instruction metadata, precomputed when the instruction is
/// inserted.  `0` marks an empty slot (impossible for a real instruction:
/// every instruction is at least one word, so the size field is non-zero).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstrMeta(u16);

impl InstrMeta {
    /// The empty-slot sentinel.
    const EMPTY: InstrMeta = InstrMeta(0);

    /// Computes the metadata for an instruction.
    fn of(instr: &Instr) -> InstrMeta {
        let size = instr.size_bytes() as u16; // 2 or 4
        let cycles = instr.base_cycles() as u16; // ≤ 17 today
        let touches = instr.touches_data_memory() as u16;
        debug_assert!(
            size <= 0xF && cycles <= 0x3F,
            "instruction metadata does not fit its packed fields \
             (size {size} in 4 bits, cycles {cycles} in 6 bits)"
        );
        InstrMeta(size | (cycles << 4) | (touches << 10))
    }

    /// Encoded size of the instruction in bytes.
    #[inline]
    pub fn size_bytes(self) -> u32 {
        (self.0 & 0xF) as u32
    }

    /// Base cycle cost of the instruction.
    #[inline]
    pub fn base_cycles(self) -> u64 {
        ((self.0 >> 4) & 0x3F) as u64
    }

    /// Whether the instruction reads or writes data memory.
    #[inline]
    pub fn touches_data_memory(self) -> bool {
        self.0 & (1 << 10) != 0
    }
}

/// One slot of the table: an instruction plus its precomputed metadata.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    meta: InstrMeta,
    instr: Instr,
}

impl Slot {
    const EMPTY: Slot = Slot {
        meta: InstrMeta::EMPTY,
        instr: Instr::Nop,
    };

    /// Whether the slot holds no instruction.
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.meta == InstrMeta::EMPTY
    }

    /// The decoded instruction (meaningless when [`Slot::is_empty`]).
    #[inline(always)]
    pub(crate) fn instr(&self) -> Instr {
        self.instr
    }

    /// The precomputed metadata (meaningless when [`Slot::is_empty`]).
    #[inline(always)]
    pub(crate) fn meta(&self) -> InstrMeta {
        self.meta
    }
}

/// A dense, word-indexed store of decoded instructions.
///
/// Addresses are word-aligned: the ISA guarantees every instruction is a
/// whole number of 16-bit words, so only even addresses can hold an
/// instruction and slot `addr >> 1` is a perfect index.  Odd addresses
/// never hold instructions ([`InstrStore::get`] returns `None` without
/// touching the table).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct InstrStore {
    /// `slots[addr >> 1]` holds the instruction decoded at `addr`.
    /// `None` (no allocation) until the first insert; the fixed array size
    /// lets the masked hot-path index compile without a bounds check.
    slots: Option<Box<[Slot; SLOT_COUNT]>>,
    /// Number of occupied slots.
    count: usize,
}

impl InstrStore {
    /// Creates an empty store.  No memory is allocated until the first
    /// [`InstrStore::insert`].
    pub fn new() -> Self {
        InstrStore {
            slots: None,
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

    /// Inserts an instruction at `addr`, returning the instruction the
    /// slot previously held (if any).
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
        let slots = self.slots.get_or_insert_with(|| {
            vec![Slot::EMPTY; SLOT_COUNT]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("slot table has the fixed size"))
        });
        let slot = &mut slots[(addr >> 1) as usize];
        let prev = (slot.meta != InstrMeta::EMPTY).then_some(slot.instr);
        *slot = Slot {
            meta: InstrMeta::of(&instr),
            instr,
        };
        if prev.is_none() {
            self.count += 1;
        }
        prev
    }

    /// The raw slot table, resolved once per execute block so the per-step
    /// fetch is a single masked index (see [`crate::cpu::Cpu::run_block`]).
    #[inline(always)]
    pub(crate) fn table(&self) -> Option<&[Slot; SLOT_COUNT]> {
        self.slots.as_deref()
    }

    /// The occupied slot at `addr`, if any — the one lookup behind
    /// [`InstrStore::fetch`] and [`InstrStore::get`].  O(1): one masked
    /// index, no bounds check; odd or out-of-range addresses hold no
    /// instruction.
    #[inline(always)]
    fn slot(&self, addr: Addr) -> Option<&Slot> {
        if !addr.is_multiple_of(2) || (addr as usize) >= ADDR_SPACE_BYTES {
            return None;
        }
        let slot = &self.slots.as_ref()?[((addr >> 1) as usize) & (SLOT_COUNT - 1)];
        (!slot.is_empty()).then_some(slot)
    }

    /// The instruction at `addr` together with its precomputed metadata.
    #[inline(always)]
    pub fn fetch(&self, addr: Addr) -> Option<(Instr, InstrMeta)> {
        self.slot(addr).map(|s| (s.instr, s.meta))
    }

    /// The instruction decoded at `addr`, if any.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<&Instr> {
        self.slot(addr).map(|s| &s.instr)
    }

    /// Whether an instruction is decoded at `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.get(addr).is_some()
    }

    /// Iterates `(address, instruction)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Instr)> {
        self.slots
            .iter()
            .flat_map(|slots| slots.iter().enumerate())
            .filter(|(_, slot)| slot.meta != InstrMeta::EMPTY)
            .map(|(i, slot)| ((i as Addr) << 1, &slot.instr))
    }

    /// Iterates `(address, instruction)` pairs with addresses inside
    /// `range`, in address order — the [`BTreeMap::range`]-shaped helper
    /// the firmware validator and tests use.
    ///
    /// [`BTreeMap::range`]: std::collections::BTreeMap::range
    pub fn range(&self, range: std::ops::Range<Addr>) -> impl Iterator<Item = (Addr, &Instr)> {
        let (start, end) = match &self.slots {
            Some(_) => {
                let start = ((range.start + 1) >> 1) as usize;
                let end = (range.end.div_ceil(2) as usize).min(SLOT_COUNT);
                (start.min(end), end)
            }
            None => (0, 0),
        };
        self.slots
            .iter()
            .flat_map(move |slots| slots[start..end].iter().enumerate())
            .filter(|(_, slot)| slot.meta != InstrMeta::EMPTY)
            .map(move |(i, slot)| (((start + i) as Addr) << 1, &slot.instr))
    }

    /// The lowest-addressed instruction, if any.
    pub fn first(&self) -> Option<(Addr, &Instr)> {
        self.iter().next()
    }

    /// The highest-addressed instruction, if any.
    pub fn last(&self) -> Option<(Addr, &Instr)> {
        let slots = self.slots.as_ref()?;
        let i = slots.iter().rposition(|s| s.meta != InstrMeta::EMPTY)?;
        Some(((i as Addr) << 1, &slots[i].instr))
    }
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
    use crate::isa::{Reg, Width};

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
        assert_eq!(s.get(0x4400), Some(&Instr::Nop));
        assert_eq!(s.get(0x4402), Some(&Instr::Ret));
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
}

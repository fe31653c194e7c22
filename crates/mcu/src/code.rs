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
//! Each slot also carries an [`InstrMeta`]: the instruction's encoded
//! size, base cycle cost and whether it touches data memory, precomputed
//! at insert time so the execute loop reads them with the same load that
//! fetched the instruction instead of re-deriving them from three `match`
//! expressions per step.
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
        if self.slots.is_empty() {
            self.lo = index;
            self.slots.push(Slot::EMPTY);
        } else if index < self.lo {
            let below = self.lo - index;
            self.slots
                .splice(0..0, std::iter::repeat_n(Slot::EMPTY, below));
            self.lo = index;
        } else if index >= self.hi() {
            self.slots.resize(index - self.lo + 1, Slot::EMPTY);
        }
        let slot = &mut self.slots[index - self.lo];
        let prev = (!slot.is_empty()).then_some(slot.instr);
        *slot = Slot {
            meta: InstrMeta::of(&instr),
            instr,
        };
        self.count += usize::from(prev.is_none());
        prev
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
        self.scan(self.lo, self.hi())
    }

    /// The occupied slots among word indices `start..end` (a window of
    /// the span), as `(address, instruction)` pairs in address order.
    fn scan(&self, start: usize, end: usize) -> impl Iterator<Item = (Addr, &Instr)> {
        self.slots[start - self.lo..end - self.lo]
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.is_empty())
            .map(move |(i, slot)| (((start + i) as Addr) << 1, &slot.instr))
    }

    /// Iterates `(address, instruction)` pairs with addresses inside
    /// `range`, in address order — the [`BTreeMap::range`]-shaped helper
    /// the firmware validator and tests use.
    ///
    /// [`BTreeMap::range`]: std::collections::BTreeMap::range
    pub fn range(&self, range: std::ops::Range<Addr>) -> impl Iterator<Item = (Addr, &Instr)> {
        let end = (range.end.div_ceil(2) as usize).clamp(self.lo, self.hi());
        let start = (range.start.div_ceil(2) as usize).clamp(self.lo, end);
        self.scan(start, end)
    }

    /// The lowest-addressed instruction, if any.
    pub fn first(&self) -> Option<(Addr, &Instr)> {
        self.iter().next()
    }

    /// The highest-addressed instruction, if any.
    pub fn last(&self) -> Option<(Addr, &Instr)> {
        self.scan(self.hi().saturating_sub(1), self.hi()).next()
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
        assert_eq!(s.get(0x4410), Some(&Instr::Ret));
        assert_eq!(s.get(0x4400), Some(&Instr::Nop));
        assert_eq!(s.get(0x0000), Some(&Instr::Halt));
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
}

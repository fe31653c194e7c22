//! Addresses and address ranges on the 16-bit MSP430-class address space.
//!
//! The MSP430FR5969 used by the Amulet has a 64 KiB, byte-addressed address
//! space (we ignore the 20-bit extended addressing, which the Amulet firmware
//! does not use).  Addresses are represented as [`Addr`] (`u32` holding values
//! `0..=0xFFFF`) so that end-exclusive ranges can express "one past the top of
//! memory" (`0x1_0000`) without overflow gymnastics.

use std::fmt;

/// A byte address in the MCU's 64 KiB address space.
///
/// Valid addresses are `0..=0xFFFF`; the value `0x1_0000` is used only as an
/// exclusive range end.
pub type Addr = u32;

/// One past the highest valid address (exclusive upper limit of the address
/// space).
pub const ADDRESS_SPACE_END: Addr = 0x1_0000;

/// A half-open `[start, end)` range of byte addresses.
///
/// Ranges are the vocabulary shared by the memory-map planner, the MPU plan,
/// the linker in `amulet-aft` and the bus model in `amulet-mcu`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AddrRange {
    /// Inclusive start address.
    pub start: Addr,
    /// Exclusive end address.
    pub end: Addr,
}

impl AddrRange {
    /// Creates a new range; panics if `start > end` or the range leaves the
    /// 64 KiB address space.
    ///
    /// # Panics
    ///
    /// Panics when `start > end` or `end > 0x1_0000`.
    pub fn new(start: Addr, end: Addr) -> Self {
        assert!(start <= end, "AddrRange start {start:#x} > end {end:#x}");
        assert!(
            end <= ADDRESS_SPACE_END,
            "AddrRange end {end:#x} exceeds the 64 KiB address space"
        );
        Self { start, end }
    }

    /// Creates a range from a start address and a length in bytes.
    pub fn from_len(start: Addr, len: u32) -> Self {
        Self::new(start, start + len)
    }

    /// An empty range at address zero.
    pub const fn empty() -> Self {
        Self { start: 0, end: 0 }
    }

    /// Number of bytes covered by the range.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains_range(&self, other: &AddrRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end <= self.end)
    }

    /// Whether the two ranges share at least one byte.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }
}

impl fmt::Debug for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#06x}, {:#06x})", self.start, self.end)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#06x}..{:#06x} ({} B)",
            self.start,
            self.end,
            self.len()
        )
    }
}

/// Rounds `value` up to the next multiple of `align` (power of two).
pub fn align_up(value: u32, align: u32) -> u32 {
    assert!(align.is_power_of_two(), "alignment must be a power of two");
    (value + align - 1) & !(align - 1)
}

/// Rounds `value` down to the previous multiple of `align` (power of two).
pub(crate) fn align_down(value: u32, align: u32) -> u32 {
    assert!(align.is_power_of_two(), "alignment must be a power of two");
    value & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = AddrRange::new(0x4400, 0x4800);
        assert_eq!(r.len(), 0x400);
        assert!(!r.is_empty());
        assert!(r.contains(0x4400));
        assert!(r.contains(0x47FF));
        assert!(!r.contains(0x4800));
        assert!(!r.contains(0x43FF));
    }

    #[test]
    fn from_len_matches_new() {
        assert_eq!(
            AddrRange::from_len(0x1C00, 0x800),
            AddrRange::new(0x1C00, 0x2400)
        );
    }

    #[test]
    fn empty_range_contains_nothing() {
        let r = AddrRange::empty();
        assert!(r.is_empty());
        assert!(!r.contains(0));
        assert!(!r.overlaps(&AddrRange::new(0, ADDRESS_SPACE_END)));
    }

    #[test]
    fn overlap_detection() {
        let a = AddrRange::new(0x1000, 0x2000);
        let b = AddrRange::new(0x1800, 0x2800);
        let c = AddrRange::new(0x2000, 0x3000);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching ranges do not overlap");
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn contains_range_rules() {
        let outer = AddrRange::new(0x4400, 0x6000);
        assert!(outer.contains_range(&AddrRange::new(0x4400, 0x6000)));
        assert!(outer.contains_range(&AddrRange::new(0x5000, 0x5002)));
        assert!(outer.contains_range(&AddrRange::empty()));
        assert!(!outer.contains_range(&AddrRange::new(0x43FE, 0x4402)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64 KiB address space")]
    fn rejects_out_of_space_range() {
        let _ = AddrRange::new(0xFFFF, 0x2_0000);
    }

    #[test]
    fn align_helpers() {
        assert_eq!(align_up(0x401, 0x400), 0x800);
        assert_eq!(align_up(0x400, 0x400), 0x400);
        assert_eq!(align_down(0x7FF, 0x400), 0x400);
        assert_eq!(align_down(0x800, 0x400), 0x800);
    }

    #[test]
    fn display_and_debug_are_hex() {
        let r = AddrRange::new(0x4400, 0x4800);
        assert_eq!(format!("{r:?}"), "[0x4400, 0x4800)");
        assert!(format!("{r}").contains("1024 B"));
    }
}

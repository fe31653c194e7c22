//! The abstract domain: unsigned 16-bit intervals.
//!
//! Every register holds an over-approximation `[lo, hi]` of the values it
//! can take at a program point.  The domain is deliberately the simplest
//! one that can discharge the compiler's bound checks: the checks compare
//! a pointer against a constant bound with an unsigned condition, so a
//! sound `[lo, hi]` on the pointer register decides the branch whenever
//! the interval lies entirely on one side of the bound.

use std::fmt;

/// An inclusive interval `[lo, hi]` over `u16`, with `TOP = [0, 0xFFFF]`
/// meaning "any value".  Empty intervals are never materialised — the
/// refinement helpers return `None` for infeasible branch edges instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Interval {
    /// Smallest possible value.
    pub lo: u16,
    /// Largest possible value.
    pub hi: u16,
}

impl Interval {
    /// The whole `u16` range: no information.
    pub(crate) const TOP: Interval = Interval {
        lo: 0,
        hi: u16::MAX,
    };

    /// The interval containing exactly `v`.
    pub(crate) fn singleton(v: u16) -> Self {
        Interval { lo: v, hi: v }
    }

    /// An interval from explicit bounds (callers must keep `lo <= hi`).
    pub(crate) fn new(lo: u16, hi: u16) -> Self {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// Whether this interval carries no information.
    pub(crate) fn is_top(&self) -> bool {
        *self == Self::TOP
    }

    /// Whether this interval pins a single value.
    pub(crate) fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }

    /// Least upper bound: the smallest interval containing both.
    pub(crate) fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Abstract addition of two intervals.  Any possible wrap-around
    /// makes the result `TOP` — modular intervals would be more precise
    /// but are not needed to discharge bound checks.
    pub(crate) fn add(&self, other: &Interval) -> Interval {
        let lo = u32::from(self.lo) + u32::from(other.lo);
        let hi = u32::from(self.hi) + u32::from(other.hi);
        if hi > u32::from(u16::MAX) {
            Interval::TOP
        } else {
            Interval::new(lo as u16, hi as u16)
        }
    }

    /// Abstract subtraction (`self - other`); `TOP` on possible wrap.
    pub(crate) fn sub(&self, other: &Interval) -> Interval {
        if self.lo < other.hi {
            Interval::TOP
        } else {
            Interval::new(self.lo - other.hi, self.hi - other.lo)
        }
    }

    /// Abstract addition of a signed byte offset (`Load`/`Store`
    /// addressing); `TOP` on possible wrap in either direction.
    pub(crate) fn add_signed(&self, offset: i32) -> Interval {
        let lo = i64::from(self.lo) + i64::from(offset);
        let hi = i64::from(self.hi) + i64::from(offset);
        if lo < 0 || hi > i64::from(u16::MAX) {
            Interval::TOP
        } else {
            Interval::new(lo as u16, hi as u16)
        }
    }

    /// Refines to the sub-interval `< bound` (the taken edge of an
    /// unsigned `Lo` branch).  `None` means the edge is infeasible.
    pub(crate) fn below(&self, bound: u16) -> Option<Interval> {
        if bound == 0 || self.lo >= bound {
            return None;
        }
        Some(Interval::new(self.lo, self.hi.min(bound - 1)))
    }

    /// Refines to the sub-interval `>= bound` (the taken edge of an
    /// unsigned `Hs` branch).  `None` means the edge is infeasible.
    pub(crate) fn at_least(&self, bound: u16) -> Option<Interval> {
        if self.hi < bound {
            return None;
        }
        Some(Interval::new(self.lo.max(bound), self.hi))
    }

    /// Refines to exactly `v` (the taken edge of `Eq`, the fall-through
    /// of `Ne`).  `None` means the edge is infeasible.
    pub(crate) fn exactly(&self, v: u16) -> Option<Interval> {
        (self.lo <= v && v <= self.hi).then(|| Interval::singleton(v))
    }

    /// Refines away the single value `v` (the fall-through of `Eq`, the
    /// taken edge of `Ne`).  Intervals cannot represent a hole, so only
    /// endpoint exclusions shrink the range — but the endpoint case is
    /// exactly the one boolean-guard diamonds produce (`flag == {0}`
    /// falling through a `jeq`), and excluding it kills the infeasible
    /// edge.  `None` means the edge is infeasible.
    pub(crate) fn excluding(&self, v: u16) -> Option<Interval> {
        if !self.contains(v) {
            Some(*self)
        } else if self.is_singleton() {
            None
        } else if v == self.lo {
            Some(Interval::new(self.lo + 1, self.hi))
        } else if v == self.hi {
            Some(Interval::new(self.lo, self.hi - 1))
        } else {
            Some(*self)
        }
    }

    /// Whether `v` is a possible value.
    pub(crate) fn contains(&self, v: u16) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "⊤")
        } else if self.is_singleton() {
            write!(f, "{{{:#06x}}}", self.lo)
        } else {
            write!(f, "[{:#06x}, {:#06x}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_the_hull() {
        let a = Interval::new(4, 10);
        let b = Interval::singleton(100);
        assert_eq!(a.join(&b), Interval::new(4, 100));
        assert_eq!(a.join(&Interval::TOP), Interval::TOP);
    }

    #[test]
    fn add_goes_top_on_wrap() {
        let near = Interval::new(0xFFF0, 0xFFFE);
        assert!(near.add(&Interval::singleton(0x20)).is_top());
        assert_eq!(
            Interval::new(4, 8).add(&Interval::singleton(2)),
            Interval::new(6, 10)
        );
    }

    #[test]
    fn signed_offsets_wrap_to_top() {
        assert!(Interval::singleton(1).add_signed(-4).is_top());
        assert_eq!(
            Interval::singleton(0x4400).add_signed(-4),
            Interval::singleton(0x43FC)
        );
    }

    #[test]
    fn refinement_discards_infeasible_edges() {
        let p = Interval::new(0x5000, 0x6000);
        // `p < 0x5000` can never hold…
        assert_eq!(p.below(0x5000), None);
        // …so the fall-through keeps the whole interval.
        assert_eq!(p.at_least(0x5000), Some(p));
        assert_eq!(p.below(0x5800), Some(Interval::new(0x5000, 0x57FF)));
        assert_eq!(Interval::TOP.exactly(7), Some(Interval::singleton(7)));
        assert_eq!(Interval::new(1, 3).exactly(9), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::TOP.to_string(), "⊤");
        assert_eq!(Interval::singleton(0x4400).to_string(), "{0x4400}");
        assert_eq!(Interval::new(0, 1).to_string(), "[0x0000, 0x0001]");
    }
}

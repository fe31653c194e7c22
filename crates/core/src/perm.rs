//! Access permissions used by the MPU plan and the memory bus.

use std::fmt;
use std::ops::{BitAnd, BitOr};

/// A read/write/execute permission set, as held by an MPU segment or required
/// by a memory access.
///
/// The `Display` form matches the paper's Figure 1 notation, e.g. `R W -`
/// prints as `RW-` and execute-only prints as `--X`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub execute: bool,
}

impl Perm {
    /// No access at all (`---`).
    pub const NONE: Perm = Perm {
        read: false,
        write: false,
        execute: false,
    };
    /// Read-only (`R--`).
    pub const R: Perm = Perm {
        read: true,
        write: false,
        execute: false,
    };
    /// Write-only (`-W-`).
    pub const W: Perm = Perm {
        read: false,
        write: true,
        execute: false,
    };
    /// Execute-only (`--X`), used for code segments in Figure 1.
    pub const X: Perm = Perm {
        read: false,
        write: false,
        execute: true,
    };
    /// Read-write (`RW-`), used for data/stack segments in Figure 1.
    pub const RW: Perm = Perm {
        read: true,
        write: true,
        execute: false,
    };
    /// Full access (`RWX`).
    pub const RWX: Perm = Perm {
        read: true,
        write: true,
        execute: true,
    };

    /// Returns true when every access allowed by `needed` is also allowed by
    /// `self`.
    pub fn allows(&self, needed: Perm) -> bool {
        (!needed.read || self.read)
            && (!needed.write || self.write)
            && (!needed.execute || self.execute)
    }

    /// Returns true when no access of any kind is permitted.
    pub(crate) fn is_none(&self) -> bool {
        !self.read && !self.write && !self.execute
    }

    /// Encodes the permission as the low three bits of an MPUSAM-style
    /// register nibble: bit0 = read, bit1 = write, bit2 = execute.
    pub fn to_bits(&self) -> u16 {
        (self.read as u16) | ((self.write as u16) << 1) | ((self.execute as u16) << 2)
    }

    /// Decodes the low three bits of an MPUSAM-style nibble.
    pub fn from_bits(bits: u16) -> Perm {
        Perm {
            read: bits & 0b001 != 0,
            write: bits & 0b010 != 0,
            execute: bits & 0b100 != 0,
        }
    }
}

impl BitOr for Perm {
    type Output = Perm;
    fn bitor(self, rhs: Perm) -> Perm {
        Perm {
            read: self.read || rhs.read,
            write: self.write || rhs.write,
            execute: self.execute || rhs.execute,
        }
    }
}

impl BitAnd for Perm {
    type Output = Perm;
    fn bitand(self, rhs: Perm) -> Perm {
        Perm {
            read: self.read && rhs.read,
            write: self.write && rhs.write,
            execute: self.execute && rhs.execute,
        }
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'R' } else { '-' },
            if self.write { 'W' } else { '-' },
            if self.execute { 'X' } else { '-' },
        )
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Perm({self})")
    }
}

/// The kind of a single memory access, as seen by the bus and the MPU.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data read (load).
    Read,
    /// A data write (store).
    Write,
    /// An instruction fetch.
    Execute,
}

impl AccessKind {
    /// The permission required to perform this access.
    pub fn required_perm(&self) -> Perm {
        match self {
            AccessKind::Read => Perm::R,
            AccessKind::Write => Perm::W,
            AccessKind::Execute => Perm::X,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Execute => write!(f, "execute"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_figure1_notation() {
        assert_eq!(Perm::X.to_string(), "--X");
        assert_eq!(Perm::RW.to_string(), "RW-");
        assert_eq!(Perm::NONE.to_string(), "---");
        assert_eq!(Perm::RWX.to_string(), "RWX");
    }

    #[test]
    fn allows_is_a_subset_check() {
        assert!(Perm::RWX.allows(Perm::RW));
        assert!(Perm::RW.allows(Perm::R));
        assert!(Perm::RW.allows(Perm::W));
        assert!(!Perm::RW.allows(Perm::X));
        assert!(!Perm::X.allows(Perm::R));
        assert!(Perm::NONE.allows(Perm::NONE));
        assert!(!Perm::NONE.allows(Perm::R));
    }

    #[test]
    fn bit_roundtrip() {
        for bits in 0..8u16 {
            assert_eq!(Perm::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn bitops_combine() {
        assert_eq!(Perm::R | Perm::W, Perm::RW);
        assert_eq!(Perm::RW & Perm::R, Perm::R);
        assert_eq!(Perm::X & Perm::RW, Perm::NONE);
    }

    #[test]
    fn access_kind_required_perms() {
        assert!(Perm::RW.allows(AccessKind::Write.required_perm()));
        assert!(!Perm::X.allows(AccessKind::Read.required_perm()));
        assert!(Perm::X.allows(AccessKind::Execute.required_perm()));
    }
}

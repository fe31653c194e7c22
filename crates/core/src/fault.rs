//! Classification of application faults.
//!
//! Both hardware (MPU violation) and software (compiler-inserted check)
//! protection mechanisms ultimately land in the OS FAULT handler; this module
//! provides the shared vocabulary for describing *why*.

use std::fmt;

/// Why an application was faulted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultClass {
    /// The MPU detected an access that violates the current segment
    /// permissions (the hardware half of the paper's MPU method).
    MpuViolation,
    /// A compiler-inserted lower-bound check on a data-pointer dereference
    /// failed (`address < D_i`).
    DataPointerLowerBound,
    /// A compiler-inserted upper-bound check on a data-pointer dereference
    /// failed (Software Only method).
    DataPointerUpperBound,
    /// A compiler-inserted lower-bound check on a function-pointer call
    /// failed (`address < C_i`).
    FunctionPointerLowerBound,
    /// A compiler-inserted upper-bound check on a function-pointer call
    /// failed (Software Only method).
    FunctionPointerUpperBound,
    /// A compiler-inserted array bounds check failed (Feature Limited
    /// method).
    ArrayBounds,
    /// The return-address check before a function return failed, indicating a
    /// smashed stack.
    ReturnAddress,
    /// The application's stack grew past its allocation.  Under the MPU
    /// method this manifests as an MPU violation when the stack crosses into
    /// the execute-only code segment; the OS records it separately when it
    /// can attribute the violation to the stack pointer.
    StackOverflow,
    /// The application attempted to call a system function outside the
    /// approved API surface.
    ApiViolation,
    /// The CPU fetched an instruction it cannot decode (e.g. after a wild
    /// jump under No Isolation).
    IllegalInstruction,
    /// The OS watchdog declared the handler runaway: it burned through its
    /// instruction step budget without returning.  Distinct from
    /// [`FaultClass::IllegalInstruction`] so fleet campaigns can tell a
    /// *hung* app (bounded by the watchdog) from one that crashed.
    WatchdogBudget,
}

impl FaultClass {
    /// Every fault class, for exhaustive reporting and property tests.
    pub const ALL: [FaultClass; 11] = [
        FaultClass::MpuViolation,
        FaultClass::DataPointerLowerBound,
        FaultClass::DataPointerUpperBound,
        FaultClass::FunctionPointerLowerBound,
        FaultClass::FunctionPointerUpperBound,
        FaultClass::ArrayBounds,
        FaultClass::ReturnAddress,
        FaultClass::StackOverflow,
        FaultClass::ApiViolation,
        FaultClass::IllegalInstruction,
        FaultClass::WatchdogBudget,
    ];

    /// Whether this fault was raised by hardware (the MPU) rather than a
    /// compiler-inserted software check.
    pub fn is_hardware(&self) -> bool {
        matches!(
            self,
            FaultClass::MpuViolation | FaultClass::IllegalInstruction
        )
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultClass::MpuViolation => "MPU segment violation",
            FaultClass::DataPointerLowerBound => "data pointer below app lower bound",
            FaultClass::DataPointerUpperBound => "data pointer above app upper bound",
            FaultClass::FunctionPointerLowerBound => "function pointer below app code bound",
            FaultClass::FunctionPointerUpperBound => "function pointer above app code bound",
            FaultClass::ArrayBounds => "array index out of bounds",
            FaultClass::ReturnAddress => "corrupted return address",
            FaultClass::StackOverflow => "application stack overflow",
            FaultClass::ApiViolation => "call outside approved system API",
            FaultClass::IllegalInstruction => "illegal instruction",
            FaultClass::WatchdogBudget => "watchdog step budget exhausted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_vs_software_classification() {
        assert!(FaultClass::MpuViolation.is_hardware());
        assert!(!FaultClass::DataPointerLowerBound.is_hardware());
        assert!(!FaultClass::ArrayBounds.is_hardware());
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in FaultClass::ALL {
            assert!(seen.insert(format!("{c:?}")));
        }
        assert_eq!(seen.len(), 11);
    }

    #[test]
    fn displays_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in FaultClass::ALL {
            assert!(seen.insert(c.to_string()), "duplicate display for {c:?}");
        }
    }
}

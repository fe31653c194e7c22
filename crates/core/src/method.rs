//! The four memory models compared by the paper.

use std::fmt;

/// One of the four memory-isolation methods evaluated in the paper.
///
/// The ordering used throughout the benches matches Table 1's column order:
/// `NoIsolation`, `FeatureLimited`, `Mpu`, `SoftwareOnly`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum IsolationMethod {
    /// Baseline: applications run with no isolation whatsoever.  Used only to
    /// measure the cost of the other methods against.
    NoIsolation,
    /// The native Amulet approach: the application language is restricted
    /// (no pointers, no recursion, no `goto`, no inline assembly) and the
    /// compiler inserts bounds checks around every array access.
    FeatureLimited,
    /// The paper's contribution: the MPU is configured per application so
    /// that accesses *above* the app's region fault in hardware, and the
    /// compiler inserts only the *lower*-bound check the MPU cannot express.
    /// The MPU must be reconfigured (and the stack pointer switched) on every
    /// context switch.
    Mpu,
    /// Full software isolation: pointers and recursion are allowed and the
    /// compiler inserts both a lower- and an upper-bound check before every
    /// pointer dereference; the MPU is left unused.
    SoftwareOnly,
}

impl IsolationMethod {
    /// All four methods in the paper's Table-1 column order.
    pub const ALL: [IsolationMethod; 4] = [
        IsolationMethod::NoIsolation,
        IsolationMethod::FeatureLimited,
        IsolationMethod::Mpu,
        IsolationMethod::SoftwareOnly,
    ];

    /// The three methods that actually provide isolation (everything but the
    /// baseline), in the order used by Figure 2 and Figure 3.
    pub const ISOLATING: [IsolationMethod; 3] = [
        IsolationMethod::FeatureLimited,
        IsolationMethod::Mpu,
        IsolationMethod::SoftwareOnly,
    ];

    /// Whether this method permits application code to use C pointers
    /// (including function pointers).
    pub fn allows_pointers(&self) -> bool {
        !matches!(self, IsolationMethod::FeatureLimited)
    }

    /// Whether the MPU hardware is used while apps run under this method.
    pub fn uses_mpu(&self) -> bool {
        matches!(self, IsolationMethod::Mpu)
    }

    /// Whether the compiler inserts any run-time checks for this method.
    pub fn inserts_checks(&self) -> bool {
        !matches!(self, IsolationMethod::NoIsolation)
    }

    /// Whether the method gives each application its own stack region
    /// (requiring the stack pointer to be switched on every OS↔app
    /// transition).  The original Amulet design shares a single stack.
    pub fn uses_per_app_stacks(&self) -> bool {
        matches!(self, IsolationMethod::Mpu | IsolationMethod::SoftwareOnly)
    }

    /// Short human-readable name as used in the paper's tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            IsolationMethod::NoIsolation => "No Isolation",
            IsolationMethod::FeatureLimited => "Feature Limited",
            IsolationMethod::Mpu => "MPU",
            IsolationMethod::SoftwareOnly => "Software Only",
        }
    }
}

impl fmt::Display for IsolationMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_column_order() {
        assert_eq!(
            IsolationMethod::ALL,
            [
                IsolationMethod::NoIsolation,
                IsolationMethod::FeatureLimited,
                IsolationMethod::Mpu,
                IsolationMethod::SoftwareOnly
            ]
        );
    }

    #[test]
    fn feature_limited_is_the_only_restricted_language() {
        for m in IsolationMethod::ALL {
            assert_eq!(m.allows_pointers(), m != IsolationMethod::FeatureLimited);
        }
    }

    #[test]
    fn only_mpu_method_uses_mpu() {
        assert!(IsolationMethod::Mpu.uses_mpu());
        assert!(!IsolationMethod::SoftwareOnly.uses_mpu());
        assert!(!IsolationMethod::FeatureLimited.uses_mpu());
        assert!(!IsolationMethod::NoIsolation.uses_mpu());
    }

    #[test]
    fn isolation_guarantee() {
        assert!(!IsolationMethod::NoIsolation.inserts_checks());
        for m in IsolationMethod::ISOLATING {
            assert!(m.inserts_checks());
        }
    }

    #[test]
    fn per_app_stacks_only_for_pointer_enabled_methods() {
        assert!(IsolationMethod::Mpu.uses_per_app_stacks());
        assert!(IsolationMethod::SoftwareOnly.uses_per_app_stacks());
        assert!(!IsolationMethod::FeatureLimited.uses_per_app_stacks());
        assert!(!IsolationMethod::NoIsolation.uses_per_app_stacks());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(IsolationMethod::Mpu.to_string(), "MPU");
        assert_eq!(IsolationMethod::SoftwareOnly.to_string(), "Software Only");
        assert_eq!(
            IsolationMethod::FeatureLimited.to_string(),
            "Feature Limited"
        );
        assert_eq!(IsolationMethod::NoIsolation.to_string(), "No Isolation");
    }
}

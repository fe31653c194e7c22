//! Error types shared by the planning code in this crate.

use std::fmt;

/// Result alias for fallible operations in `amulet-core`.
pub(crate) type CoreResult<T> = Result<T, CoreError>;

/// Errors produced by the memory-map planner and MPU-plan derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The OS image (code + data) does not fit in the low-FRAM region
    /// reserved for it.
    OsImageTooLarge {
        /// Bytes required by the OS image.
        required: u32,
        /// Bytes available in low FRAM.
        available: u32,
    },
    /// The combined application images do not fit in high FRAM.
    AppsDoNotFit {
        /// Bytes required by all application images together.
        required: u32,
        /// Bytes available in high FRAM.
        available: u32,
    },
    /// An individual application region is larger than the address space can
    /// express or is otherwise malformed.
    AppImageInvalid {
        /// Name of the offending application.
        app: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The OS stack does not fit in SRAM.
    OsStackTooLarge {
        /// Bytes requested for the OS stack.
        required: u32,
        /// Bytes of SRAM available.
        available: u32,
    },
    /// A boundary required by the plan cannot be expressed at the MPU's
    /// segment-boundary granularity.
    UnalignedMpuBoundary {
        /// The boundary address that would be required.
        addr: u32,
        /// The MPU's boundary granularity in bytes.
        granularity: u32,
    },
    /// A named application appears more than once in the build.
    DuplicateApp(String),
    /// The platform description itself is inconsistent (e.g. overlapping
    /// fixed regions).
    InvalidPlatform(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::OsImageTooLarge { required, available } => write!(
                f,
                "OS image needs {required} bytes but only {available} bytes of low FRAM are available"
            ),
            CoreError::AppsDoNotFit { required, available } => write!(
                f,
                "applications need {required} bytes but only {available} bytes of high FRAM are available"
            ),
            CoreError::AppImageInvalid { app, reason } => {
                write!(f, "application `{app}` has an invalid image: {reason}")
            }
            CoreError::OsStackTooLarge { required, available } => write!(
                f,
                "OS stack of {required} bytes does not fit in {available} bytes of SRAM"
            ),
            CoreError::UnalignedMpuBoundary { addr, granularity } => write!(
                f,
                "MPU boundary {addr:#06x} is not aligned to the {granularity}-byte segment granularity"
            ),
            CoreError::DuplicateApp(name) => write!(f, "application `{name}` listed twice"),
            CoreError::InvalidPlatform(reason) => write!(f, "invalid platform description: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_messages() {
        let e = CoreError::OsImageTooLarge {
            required: 40000,
            available: 30000,
        };
        assert!(e.to_string().contains("40000"));
        let e = CoreError::UnalignedMpuBoundary {
            addr: 0x4410,
            granularity: 1024,
        };
        assert!(e.to_string().contains("0x4410"));
        let e = CoreError::DuplicateApp("HR".into());
        assert!(e.to_string().contains("HR"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<CoreError>();
    }
}

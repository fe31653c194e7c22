//! Compilation errors.

use crate::parser::ParseError;
use crate::token::Loc;
use std::fmt;

/// Result alias for toolchain operations.
pub(crate) type AftResult<T> = Result<T, CompileError>;

/// An error raised by any phase of the Amulet Firmware Toolchain.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// Lexical or syntactic error.
    Parse {
        /// The application whose source failed to parse (empty for
        /// stand-alone compilations).
        app: String,
        /// The underlying parse error.
        error: ParseError,
    },
    /// An application uses a language feature the selected isolation method
    /// does not support (phase 1 of the AFT analysis).
    UnsupportedFeature {
        /// The application.
        app: String,
        /// A description of the feature, e.g. "inline assembly".
        feature: String,
        /// Where it was used.
        loc: Loc,
    },
    /// A type error.
    Type {
        /// The application.
        app: String,
        /// Explanation.
        message: String,
        /// Where it occurred.
        loc: Loc,
    },
    /// Reference to an unknown variable or function.
    Unknown {
        /// The application.
        app: String,
        /// The unknown name.
        name: String,
        /// Where it was referenced.
        loc: Loc,
    },
    /// A call to a system function outside the approved API.
    UnapprovedApiCall {
        /// The application.
        app: String,
        /// The offending function name.
        name: String,
        /// Where the call occurs.
        loc: Loc,
    },
    /// The linker could not place the build (delegates to the memory-map
    /// planner's error).
    Layout {
        /// The underlying planner error.
        error: amulet_core::error::CoreError,
    },
    /// The produced firmware image failed validation.
    Firmware {
        /// Explanation from the firmware validator.
        message: String,
    },
    /// An internal invariant was violated (a bug in the toolchain).
    Internal {
        /// Explanation.
        message: String,
    },
}

impl CompileError {
    /// Convenience constructor for type errors.
    pub(crate) fn type_error(app: &str, message: impl Into<String>, loc: Loc) -> Self {
        CompileError::Type {
            app: app.to_string(),
            message: message.into(),
            loc,
        }
    }

    /// Convenience constructor for unknown-name errors.
    pub(crate) fn unknown(app: &str, name: impl Into<String>, loc: Loc) -> Self {
        CompileError::Unknown {
            app: app.to_string(),
            name: name.into(),
            loc,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse { app, error } => write!(f, "[{app}] {error}"),
            CompileError::UnsupportedFeature { app, feature, loc } => {
                write!(
                    f,
                    "[{app}] unsupported language feature at {loc}: {feature}"
                )
            }
            CompileError::Type { app, message, loc } => {
                write!(f, "[{app}] type error at {loc}: {message}")
            }
            CompileError::Unknown { app, name, loc } => {
                write!(f, "[{app}] unknown identifier `{name}` at {loc}")
            }
            CompileError::UnapprovedApiCall { app, name, loc } => {
                write!(
                    f,
                    "[{app}] call to `{name}` at {loc} is outside the approved system API"
                )
            }
            CompileError::Layout { error } => write!(f, "layout failed: {error}"),
            CompileError::Firmware { message } => {
                write!(f, "firmware validation failed: {message}")
            }
            CompileError::Internal { message } => write!(f, "internal toolchain error: {message}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<amulet_core::error::CoreError> for CompileError {
    fn from(error: amulet_core::error::CoreError) -> Self {
        CompileError::Layout { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_app_and_location() {
        let e = CompileError::UnsupportedFeature {
            app: "HR".into(),
            feature: "inline assembly".into(),
            loc: Loc { line: 3, col: 7 },
        };
        let s = e.to_string();
        assert!(s.contains("HR"));
        assert!(s.contains("3:7"));
        assert!(s.contains("inline assembly"));
    }

    #[test]
    fn layout_errors_convert() {
        let core_err = amulet_core::error::CoreError::DuplicateApp("X".into());
        let e: CompileError = core_err.into();
        assert!(matches!(e, CompileError::Layout { .. }));
    }
}

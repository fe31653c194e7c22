//! The approved AmuletOS system-call API.
//!
//! At compile time the AFT "verifies that the app only calls approved API
//! functions" (§3).  This module is the toolchain's view of that API: the
//! approved function names, their system-call numbers, arities and whether
//! they take pointer arguments (pointer arguments must be validated by the
//! OS on entry).  `amulet-os` implements the corresponding services against
//! the same numbers.

use crate::types::Type;

/// One approved OS API function.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiFunction {
    /// C-visible name.
    pub name: &'static str,
    /// System-call number encoded in the generated `sys` instruction.
    pub num: u16,
    /// Parameter types (at most two; AmuletOS marshals them in registers).
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Rough cycle cost of the service body itself (excluding the context
    /// switch), used by the OS model.
    pub service_cycles: u64,
}

impl ApiFunction {
    /// Number of pointer parameters.
    pub fn pointer_arg_count(&self) -> u32 {
        self.params
            .iter()
            .filter(|t| matches!(t, Type::Ptr(_)))
            .count() as u32
    }
}

/// The approved API surface.
#[derive(Clone, Debug, Default)]
pub struct ApiSpec {
    functions: Vec<ApiFunction>,
}

/// System-call numbers (shared with `amulet-os`).
pub mod sysno {
    /// Yield back to the scheduler.
    pub const YIELD: u16 = 0;
    /// Read the wall-clock time in ticks.
    pub const GET_TIME: u16 = 1;
    /// Read a raw sensor channel.
    pub const READ_SENSOR: u16 = 2;
    /// Log a value to the system log.
    pub const LOG_VALUE: u16 = 3;
    /// Arm an application timer.
    pub const SET_TIMER: u16 = 4;
    /// Read the battery level (percent).
    pub const GET_BATTERY: u16 = 5;
    /// Read the current heart-rate estimate.
    pub const GET_HEART_RATE: u16 = 6;
    /// Read one accelerometer axis.
    pub const GET_ACCEL: u16 = 7;
    /// Read the skin temperature sensor.
    pub const GET_TEMPERATURE: u16 = 8;
    /// Draw a value on the display.
    pub const DISPLAY_VALUE: u16 = 9;
    /// Copy a buffer into the system log (pointer argument).
    pub const LOG_BUFFER: u16 = 10;
    /// Read ambient light (used by the Sun / Rest apps).
    pub const GET_LIGHT: u16 = 11;
    /// Subscribe to an event stream.
    pub const SUBSCRIBE: u16 = 12;
}

impl ApiSpec {
    /// The standard AmuletOS API used by the applications in this
    /// reproduction.
    pub fn amulet() -> Self {
        use sysno::*;
        let f = |name, num, params: Vec<Type>, ret, service_cycles| ApiFunction {
            name,
            num,
            params,
            ret,
            service_cycles,
        };
        ApiSpec {
            functions: vec![
                f("amulet_yield", YIELD, vec![], Type::Void, 8),
                f("amulet_get_time", GET_TIME, vec![], Type::Uint, 12),
                f(
                    "amulet_read_sensor",
                    READ_SENSOR,
                    vec![Type::Uint],
                    Type::Int,
                    20,
                ),
                f(
                    "amulet_log_value",
                    LOG_VALUE,
                    vec![Type::Int],
                    Type::Void,
                    16,
                ),
                f(
                    "amulet_set_timer",
                    SET_TIMER,
                    vec![Type::Uint],
                    Type::Void,
                    14,
                ),
                f("amulet_get_battery", GET_BATTERY, vec![], Type::Uint, 10),
                f(
                    "amulet_get_heart_rate",
                    GET_HEART_RATE,
                    vec![],
                    Type::Uint,
                    18,
                ),
                f(
                    "amulet_get_accel",
                    GET_ACCEL,
                    vec![Type::Int],
                    Type::Int,
                    18,
                ),
                f(
                    "amulet_get_temperature",
                    GET_TEMPERATURE,
                    vec![],
                    Type::Int,
                    16,
                ),
                f(
                    "amulet_display_value",
                    DISPLAY_VALUE,
                    vec![Type::Int],
                    Type::Void,
                    24,
                ),
                f(
                    "amulet_log_buffer",
                    LOG_BUFFER,
                    vec![Type::Ptr(Box::new(Type::Int)), Type::Uint],
                    Type::Void,
                    30,
                ),
                f("amulet_get_light", GET_LIGHT, vec![], Type::Uint, 14),
                f(
                    "amulet_subscribe",
                    SUBSCRIBE,
                    vec![Type::Uint],
                    Type::Void,
                    12,
                ),
            ],
        }
    }

    /// Looks up an API function by its C-visible name.
    pub(crate) fn by_name(&self, name: &str) -> Option<&ApiFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up an API function by system-call number.
    pub fn by_num(&self, num: u16) -> Option<&ApiFunction> {
        self.functions.iter().find(|f| f.num == num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_numbers_are_unique() {
        let api = ApiSpec::amulet();
        let mut nums: Vec<u16> = api.functions.iter().map(|f| f.num).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), api.functions.len());
    }

    #[test]
    fn lookup_by_name_and_number_agree() {
        let api = ApiSpec::amulet();
        for f in &api.functions {
            assert_eq!(api.by_name(f.name).unwrap().num, f.num);
            assert_eq!(api.by_num(f.num).unwrap().name, f.name);
        }
        assert!(api.by_name("not_an_api").is_none());
    }

    #[test]
    fn pointer_argument_classification() {
        let api = ApiSpec::amulet();
        assert_eq!(
            api.by_name("amulet_log_buffer")
                .unwrap()
                .pointer_arg_count(),
            1
        );
        assert_eq!(
            api.by_name("amulet_get_time").unwrap().pointer_arg_count(),
            0
        );
    }

    #[test]
    fn arities_fit_the_two_register_convention() {
        for f in ApiSpec::amulet().functions {
            assert!(f.params.len() <= 2, "{} has too many parameters", f.name);
        }
    }
}

//! Bad command lines fail up front with exit code 2.
//!
//! Every case here is refused while the arguments are parsed, before any
//! firmware is built or any device simulated, so the suite stays fast.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not start {bin}: {e}"))
        .status
        .code()
}

#[test]
fn fleet_sim_rejects_out_of_range_values() {
    for args in [
        &["--silent-permille", "70000"][..],
        &["--silent-permille", "1001"],
        &["--fault-permille", "1500"],
        &["--ota-permille", "1001"],
        &["--ota-corrupt-permille", "1001"],
        &["--ota-max-retries", "4294967296"],
        &["--seed", "18446744073709551616"],
        &["--devices", "-1"],
        &["--devices", "0"],
        &["0"],
    ] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_fleet_sim"), args),
            Some(2),
            "fleet_sim {args:?}"
        );
    }
}

#[test]
fn hotpath_rejects_unparsable_and_surplus_arguments() {
    for args in [
        &["1000", "8", "10", "1", "2", "150"][..],
        &["1000", "eight"],
        &["-5"],
    ] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_hotpath"), args),
            Some(2),
            "hotpath {args:?}"
        );
    }
}

/// A zero count of instructions, fleet devices, fleet workers or elision
/// rounds leaves nothing to measure, so `hotpath` would print a rate for
/// an empty population.  (Zero fleet events stays valid: devices boot.)
#[test]
fn hotpath_rejects_zero_counts() {
    for args in [
        &["0", "10", "10", "1", "1"][..],
        &["1000", "0", "10", "1", "1"],
        &["1000", "10", "10", "0", "1"],
        &["1000", "10", "10", "1", "0"],
        &["0"],
    ] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_hotpath"), args),
            Some(2),
            "hotpath {args:?}"
        );
    }
}

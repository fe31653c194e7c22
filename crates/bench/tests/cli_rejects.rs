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
        // Tens of thousands of worker threads exhaust the host.
        &["--workers", "40000"],
        &["1000", "40000"],
        // A store directory the process cannot create or write to would
        // otherwise cache nothing and still exit 0.
        &["8", "--summary", "--no-write", "--store", "/dev/null"],
        &["8", "--summary", "--no-write", "--store", "/proc/nope"],
        &["--scaling", "--store", "/dev/null", "--no-write"],
        // Check elision is gone: its flag is now an unknown flag.
        &["--elide-checks"],
    ] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_fleet_sim"), args),
            Some(2),
            "fleet_sim {args:?}"
        );
    }
}

/// An empty fleet would pass the verify gate on nothing, and CI reads
/// exit 0 as "zero proven escapes".
#[test]
fn firmware_lint_rejects_an_empty_fleet() {
    for args in [&["--devices", "0"][..], &["--devices", "-1"]] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_firmware_lint"), args),
            Some(2),
            "firmware_lint {args:?}"
        );
    }
}

/// The paper-figure binaries take one optional count (none for `fig2`
/// and `platform_compare`): an unparsable, out-of-range or zero count
/// (below 2 for `table1`) or a surplus argument would otherwise print a
/// figure measured from a count nobody asked for, or from zero runs.
#[test]
fn paper_figure_bins_reject_bad_counts_and_surplus_arguments() {
    let cases: [(&str, &[&str]); 14] = [
        (env!("CARGO_BIN_EXE_table1"), &["abc"]),
        (env!("CARGO_BIN_EXE_table1"), &["70000"]),
        (env!("CARGO_BIN_EXE_table1"), &["1"]),
        (env!("CARGO_BIN_EXE_table1"), &["0"]),
        (env!("CARGO_BIN_EXE_table1"), &["50", "50"]),
        (env!("CARGO_BIN_EXE_fig3"), &["0"]),
        (env!("CARGO_BIN_EXE_fig3"), &["-5"]),
        (env!("CARGO_BIN_EXE_ablation_stacks"), &["0"]),
        (env!("CARGO_BIN_EXE_ablation_stacks"), &["4294967296"]),
        (env!("CARGO_BIN_EXE_ablation_advanced_mpu"), &["70000"]),
        (env!("CARGO_BIN_EXE_ablation_advanced_mpu"), &["0"]),
        (env!("CARGO_BIN_EXE_ablation_advanced_mpu"), &["5", "x"]),
        (env!("CARGO_BIN_EXE_fig2"), &["x"]),
        (env!("CARGO_BIN_EXE_platform_compare"), &["x"]),
    ];
    for (bin, args) in cases {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}

//! Command-line parsing shared by the paper-figure binaries (`table1`,
//! `fig2`, `fig3`, `ablation_stacks`, `ablation_advanced_mpu`,
//! `platform_compare`).
//!
//! A figure is never printed from a count the caller did not ask for, or
//! from zero runs: an unparsable, out-of-range or too-small count and a
//! surplus argument all print the usage line and exit with code 2.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `msg` and `usage` to stderr and exits with code 2.
fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2);
}

/// The binary's only, optional argument: a count parsed at its own type
/// `T` (so a value that does not fit is refused, never wrapped), at
/// least `min`, and `default` when absent.
pub fn count_arg<T: FromStr + PartialOrd + Display>(usage: &str, default: T, min: T) -> T {
    let mut args = std::env::args().skip(1);
    let count = match args.next() {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            usage_error(usage, &format!("not a count, or out of range: {s:?}"))
        }),
    };
    if let Some(extra) = args.next() {
        usage_error(usage, &format!("unexpected argument {extra:?}"));
    }
    if count < min {
        usage_error(usage, &format!("the count must be at least {min}"));
    }
    count
}

/// Refuses any argument: for binaries that take none.
pub fn no_args(usage: &str) {
    if let Some(extra) = std::env::args().nth(1) {
        usage_error(usage, &format!("unexpected argument {extra:?}"));
    }
}

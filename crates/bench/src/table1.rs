//! Table 1: average cycle count for basic memory-isolation operations.
//!
//! The paper measures two operations with the Synthetic App: a guarded
//! application memory access, and an OS context switch (an API-call round
//! trip).  This module measures the same two operations on the simulator —
//! by differencing two run lengths of each Synthetic App handler, so that
//! handler-invocation overhead cancels — and also reports the analytic
//! per-operation costs derived from the check policy and switch plan, plus
//! the numbers printed in the paper for comparison.

use crate::boot_benchmark_on;
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use amulet_core::overhead::OverheadModel;
use amulet_os::os::DeliveryOutcome;
use std::fmt::Write as _;

/// Memory accesses performed per `mem_ops(1)` round (the Synthetic App's
/// inner loop does 64 iterations with one load and one store each; the ARP
/// counts the guarded accesses, i.e. 2 × 64 per round).
const ACCESSES_PER_ROUND: u64 = 128;
/// API-call round trips per `switch_ops(1)` round.
const SWITCHES_PER_ROUND: u64 = 1;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Isolation method.
    pub method: IsolationMethod,
    /// Measured cycles per application memory access.
    pub memory_access_cycles: f64,
    /// Measured cycles per context switch (API-call round trip).
    pub context_switch_cycles: f64,
    /// Analytic cycles per memory access (baseline + check policy).
    pub analytic_memory_access: u64,
    /// Analytic cycles per context switch (switch plan).
    pub analytic_context_switch: u64,
    /// The value printed in the paper's Table 1 (memory access).
    pub paper_memory_access: u64,
    /// The value printed in the paper's Table 1 (context switch).
    pub paper_context_switch: u64,
}

/// The paper's Table 1 values, in column order.
pub(crate) fn paper_values(method: IsolationMethod) -> (u64, u64) {
    match method {
        IsolationMethod::NoIsolation => (23, 90),
        IsolationMethod::FeatureLimited => (41, 90),
        IsolationMethod::Mpu => (29, 142),
        IsolationMethod::SoftwareOnly => (32, 98),
    }
}

/// Measures Table 1 on the simulated MSP430FR5969.
///
/// `rounds` controls how long each measured run is (the paper uses 200
/// iterations; the differencing below makes the result insensitive to the
/// exact value beyond a handful of rounds).  It must be at least 2: a
/// cost is the difference of a `rounds`-round and a 1-round run.
pub fn measure(rounds: u16) -> Vec<Table1Row> {
    assert!(
        rounds >= 2,
        "Table 1 differences a long run against a 1-round run"
    );
    let synthetic = amulet_apps::synthetic();
    let fr5969 = PlatformSpec::msp430fr5969();
    let mut rows = Vec::new();
    for method in IsolationMethod::ALL {
        let mut os = boot_benchmark_on(&fr5969, &synthetic, method);

        // Memory access cost: difference a long and a short run of the
        // memory-access handler so the per-invocation overhead cancels.
        let short = run(&mut os, "mem_ops", 1);
        let long = run(&mut os, "mem_ops", rounds);
        let mem_per_op = (long - short) as f64 / ((rounds as u64 - 1) * ACCESSES_PER_ROUND) as f64;

        // Context switch cost: same differencing on the API-call handler.
        let short = run(&mut os, "switch_ops", 1);
        let long = run(&mut os, "switch_ops", rounds);
        let switch_per_op =
            (long - short) as f64 / ((rounds as u64 - 1) * SWITCHES_PER_ROUND) as f64;

        let model = OverheadModel::for_platform(method, &fr5969);
        let (paper_mem, paper_switch) = paper_values(method);
        rows.push(Table1Row {
            method,
            memory_access_cycles: mem_per_op,
            context_switch_cycles: switch_per_op,
            analytic_memory_access: model.absolute_memory_access_cycles(),
            analytic_context_switch: model.absolute_context_switch_cycles(),
            paper_memory_access: paper_mem,
            paper_context_switch: paper_switch,
        });
    }
    rows
}

fn run(os: &mut amulet_os::os::AmuletOs, handler: &str, rounds: u16) -> u64 {
    let (outcome, cycles) = os.call_handler(0, handler, rounds);
    assert_eq!(outcome, DeliveryOutcome::Completed, "{handler}({rounds})");
    cycles
}

/// Renders the table (measured, analytic and paper values side by side).
pub fn render(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 1 — average cycle count for basic memory isolation operations"
    );
    let _ = writeln!(
        s,
        "{:<16} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "", "mem meas", "mem anal", "paper", "sw meas", "sw anal", "paper"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} | {:>9.1} {:>9} {:>7} | {:>9.1} {:>9} {:>7}",
            r.method.label(),
            r.memory_access_cycles,
            r.analytic_memory_access,
            r.paper_memory_access,
            r.context_switch_cycles,
            r.analytic_context_switch,
            r.paper_context_switch,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_values_match_the_paper_exactly() {
        for method in IsolationMethod::ALL {
            let model = OverheadModel::for_platform(method, &PlatformSpec::msp430fr5969());
            let (mem, switch) = paper_values(method);
            assert_eq!(model.absolute_memory_access_cycles(), mem, "{method}");
            assert_eq!(model.absolute_context_switch_cycles(), switch, "{method}");
        }
    }

    #[test]
    fn measured_table1_preserves_the_paper_orderings() {
        let rows = measure(8);
        let by_method = |m: IsolationMethod| rows.iter().find(|r| r.method == m).unwrap();
        let none = by_method(IsolationMethod::NoIsolation);
        let fl = by_method(IsolationMethod::FeatureLimited);
        let mpu = by_method(IsolationMethod::Mpu);
        let sw = by_method(IsolationMethod::SoftwareOnly);

        // Memory access: NoIsolation < MPU < SoftwareOnly < FeatureLimited.
        assert!(none.memory_access_cycles < mpu.memory_access_cycles);
        assert!(mpu.memory_access_cycles < sw.memory_access_cycles);
        assert!(sw.memory_access_cycles < fl.memory_access_cycles);

        // Context switch: {NoIsolation, FeatureLimited} < SoftwareOnly < MPU.
        assert!((none.context_switch_cycles - fl.context_switch_cycles).abs() < 1.0);
        assert!(fl.context_switch_cycles < sw.context_switch_cycles);
        assert!(sw.context_switch_cycles < mpu.context_switch_cycles);

        // The MPU method's switch premium over Software Only should be in
        // the same ballpark as the paper's 142 − 98 = 44 cycles.
        let premium = mpu.context_switch_cycles - sw.context_switch_cycles;
        assert!((20.0..=80.0).contains(&premium), "premium {premium}");
    }

    #[test]
    fn render_mentions_every_method() {
        let rows = measure(4);
        let text = render(&rows);
        for m in IsolationMethod::ALL {
            assert!(text.contains(m.label()));
        }
    }
}

//! The analytic overhead model behind Figure 2.
//!
//! The Amulet Resource Profiler counts, for every application, how many data
//! memory accesses and how many context switches (OS API calls and event
//! deliveries) occur per state-machine transition, combines those counts with
//! the developer-declared event rates, and extrapolates the *additional*
//! cycles each isolation method costs per week.  This module provides the
//! per-operation constants and the arithmetic; `amulet-arp` layers the
//! event-rate bookkeeping and reporting on top.

use crate::checks::CheckPolicy;
use crate::layout::PlatformSpec;
use crate::method::IsolationMethod;
use crate::switch::ContextSwitchPlan;
use std::fmt;

/// Baseline (No Isolation) cost of one application data-memory access,
/// including the address computation and loop overhead of the synthetic
/// benchmark — the 23-cycle figure from Table 1.
pub const BASELINE_MEMORY_ACCESS_CYCLES: u64 = 23;

/// Baseline (No Isolation) cost of one OS API-call round trip — the 90-cycle
/// figure from Table 1.
pub const BASELINE_CONTEXT_SWITCH_CYCLES: u64 = 90;

/// Counts of the two operations that incur memory-protection overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of application data-memory accesses (pointer dereferences or
    /// array accesses).
    pub memory_accesses: u64,
    /// Number of OS↔app context switches (API calls and event deliveries).
    pub context_switches: u64,
}

impl OpCounts {
    /// Convenience constructor.
    pub fn new(memory_accesses: u64, context_switches: u64) -> Self {
        OpCounts {
            memory_accesses,
            context_switches,
        }
    }

    /// Element-wise sum.
    pub fn saturating_add(self, other: OpCounts) -> OpCounts {
        OpCounts {
            memory_accesses: self.memory_accesses.saturating_add(other.memory_accesses),
            context_switches: self.context_switches.saturating_add(other.context_switches),
        }
    }

    /// Scales both counts by `factor` (e.g. events per week).
    pub fn scaled(self, factor: u64) -> OpCounts {
        OpCounts {
            memory_accesses: self.memory_accesses.saturating_mul(factor),
            context_switches: self.context_switches.saturating_mul(factor),
        }
    }
}

/// Where the overhead cycles of a method came from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Extra cycles attributable to compiler-inserted checks on memory
    /// accesses.
    pub memory_access_cycles: u64,
    /// Extra cycles attributable to heavier context switches (stack swaps,
    /// MPU reprogramming, pointer-argument validation).
    pub context_switch_cycles: u64,
}

impl OverheadBreakdown {
    /// Total overhead cycles.
    pub fn total(&self) -> u64 {
        self.memory_access_cycles + self.context_switch_cycles
    }
}

impl fmt::Display for OverheadBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} overhead cycles ({} memory-access + {} context-switch)",
            self.total(),
            self.memory_access_cycles,
            self.context_switch_cycles
        )
    }
}

/// Per-operation cost table for one isolation method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Isolation method the model describes.
    pub method: IsolationMethod,
    /// Extra cycles added to each data-memory access.
    pub per_memory_access: u64,
    /// Extra cycles added to each context switch (full round trip).
    pub per_context_switch: u64,
}

impl OverheadModel {
    /// Builds the model for a method on a platform from the check policy
    /// (derived from the platform's MPU capability model) and the switch
    /// plan (costed by its cost table), so the analytic numbers always agree
    /// with what the compiler inserts and what the OS executes.
    pub fn for_platform(method: IsolationMethod, platform: &PlatformSpec) -> Self {
        let per_memory_access =
            CheckPolicy::for_method_on(method, &platform.mpu).memory_access_overhead_cycles();
        let per_context_switch = ContextSwitchPlan::round_trip_cycles_for(platform, method)
            - ContextSwitchPlan::round_trip_cycles_for(platform, IsolationMethod::NoIsolation);
        OverheadModel {
            method,
            per_memory_access,
            per_context_switch,
        }
    }

    /// Absolute cost of one memory access under this method (baseline plus
    /// overhead) — the Table 1 "Memory Access" row.
    pub fn absolute_memory_access_cycles(&self) -> u64 {
        BASELINE_MEMORY_ACCESS_CYCLES + self.per_memory_access
    }

    /// Absolute cost of one context switch under this method (baseline plus
    /// overhead) — the Table 1 "Context Switch" row.
    pub fn absolute_context_switch_cycles(&self) -> u64 {
        BASELINE_CONTEXT_SWITCH_CYCLES + self.per_context_switch
    }

    /// Overhead cycles for the given operation counts.
    pub fn overhead(&self, counts: OpCounts) -> OverheadBreakdown {
        OverheadBreakdown {
            memory_access_cycles: counts
                .memory_accesses
                .saturating_mul(self.per_memory_access),
            context_switch_cycles: counts
                .context_switches
                .saturating_mul(self.per_context_switch),
        }
    }

    /// Total cycles (baseline work plus overhead) for the given counts; used
    /// to compute percentage slowdowns in Figure-3 style comparisons.
    pub fn total_cycles(&self, counts: OpCounts) -> u64 {
        counts
            .memory_accesses
            .saturating_mul(self.absolute_memory_access_cycles())
            .saturating_add(
                counts
                    .context_switches
                    .saturating_mul(self.absolute_context_switch_cycles()),
            )
    }

    /// Percentage slowdown relative to the No Isolation baseline for the same
    /// operation counts.  That baseline carries no overhead on any platform.
    pub fn slowdown_percent(&self, counts: OpCounts) -> f64 {
        let baseline = OverheadModel {
            method: IsolationMethod::NoIsolation,
            per_memory_access: 0,
            per_context_switch: 0,
        };
        let base = baseline.total_cycles(counts);
        if base == 0 {
            return 0.0;
        }
        let this = self.total_cycles(counts);
        (this as f64 - base as f64) / base as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_fr5969(method: IsolationMethod) -> OverheadModel {
        OverheadModel::for_platform(method, &PlatformSpec::msp430fr5969())
    }

    #[test]
    fn table1_absolute_costs_are_reproduced_by_the_model() {
        let rows: Vec<(IsolationMethod, u64, u64)> = IsolationMethod::ALL
            .into_iter()
            .map(on_fr5969)
            .map(|m| {
                (
                    m.method,
                    m.absolute_memory_access_cycles(),
                    m.absolute_context_switch_cycles(),
                )
            })
            .collect();
        // Paper Table 1:       mem, switch
        // No Isolation          23, 90
        // Feature Limited       41, 90
        // MPU                   29, 142
        // Software Only         32, 98
        assert_eq!(rows[0], (IsolationMethod::NoIsolation, 23, 90));
        assert_eq!(rows[1], (IsolationMethod::FeatureLimited, 41, 90));
        assert_eq!(rows[2], (IsolationMethod::Mpu, 29, 142));
        assert_eq!(rows[3], (IsolationMethod::SoftwareOnly, 32, 98));
    }

    #[test]
    fn overhead_scales_linearly_with_counts() {
        let model = on_fr5969(IsolationMethod::Mpu);
        let once = model.overhead(OpCounts::new(10, 3));
        let tenfold = model.overhead(OpCounts::new(100, 30));
        assert_eq!(tenfold.total(), once.total() * 10);
    }

    #[test]
    fn mpu_wins_for_memory_heavy_workloads_software_wins_for_switch_heavy() {
        // The paper's §4.2 observation: MPU is best for computationally heavy
        // (memory-access dominated) apps, Software Only is better for apps
        // that make frequent API calls.
        let mpu = on_fr5969(IsolationMethod::Mpu);
        let sw = on_fr5969(IsolationMethod::SoftwareOnly);

        let memory_heavy = OpCounts::new(100_000, 10);
        assert!(mpu.overhead(memory_heavy).total() < sw.overhead(memory_heavy).total());

        let switch_heavy = OpCounts::new(10, 100_000);
        assert!(sw.overhead(switch_heavy).total() < mpu.overhead(switch_heavy).total());
    }

    #[test]
    fn no_isolation_has_zero_overhead_and_zero_slowdown() {
        let model = on_fr5969(IsolationMethod::NoIsolation);
        let counts = OpCounts::new(1_000_000, 1_000);
        assert_eq!(model.overhead(counts).total(), 0);
        assert_eq!(model.slowdown_percent(counts), 0.0);
    }

    #[test]
    fn slowdown_is_positive_for_isolating_methods() {
        let counts = OpCounts::new(50_000, 500);
        for m in IsolationMethod::ISOLATING {
            let s = on_fr5969(m).slowdown_percent(counts);
            assert!(s > 0.0, "{m} slowdown {s}");
            assert!(s < 100.0, "{m} slowdown {s} implausibly large");
        }
    }

    #[test]
    fn zero_counts_give_zero_slowdown() {
        for m in IsolationMethod::ALL {
            assert_eq!(on_fr5969(m).slowdown_percent(OpCounts::default()), 0.0);
        }
    }

    #[test]
    fn op_counts_arithmetic() {
        let a = OpCounts::new(10, 2);
        let b = OpCounts::new(5, 1);
        assert_eq!(a.saturating_add(b), OpCounts::new(15, 3));
        assert_eq!(a.scaled(3), OpCounts::new(30, 6));
        assert_eq!(
            OpCounts::new(u64::MAX, 1).scaled(2).memory_accesses,
            u64::MAX
        );
    }

    #[test]
    fn breakdown_display_mentions_both_components() {
        let model = on_fr5969(IsolationMethod::Mpu);
        let s = model.overhead(OpCounts::new(7, 3)).to_string();
        assert!(s.contains("memory-access"));
        assert!(s.contains("context-switch"));
    }
}

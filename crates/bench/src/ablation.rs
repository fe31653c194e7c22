//! Ablation studies for design decisions called out in the paper.
//!
//! * **Stacks** (§3): the paper gives each app its own stack region instead
//!   of sharing one stack and `bzero`-ing it on every app change.  The
//!   ablation measures what that zeroing would cost.
//! * **Advanced MPU** (§5): with an MPU that supports four or more regions
//!   and full coverage, no compiler-inserted checks would be needed at all.
//!   The ablation splits the MPU method's measured slowdown into the part
//!   caused by the remaining lower-bound checks (which an advanced MPU
//!   removes) and the part caused by MPU reconfiguration at context switches
//!   (which remains).

use amulet_aft::aft::{Aft, AppSource};
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use amulet_core::overhead::OverheadModel;
use amulet_os::os::{AmuletOs, DeliveryOutcome, OsOptions};
use std::fmt::Write as _;

/// Result of the shared-stack-zeroing ablation.
#[derive(Clone, Debug)]
pub struct StackAblationRow {
    /// Configuration label.
    pub config: String,
    /// Average cycles per delivered event.
    pub cycles_per_event: f64,
}

/// Measures the per-event cost of three stack arrangements while two apps
/// alternate: per-app stacks (the paper's design, MPU method), a shared
/// stack with no scrubbing (unsafe), and a shared stack zeroed on every app
/// change (the safe alternative the paper rejects).
pub fn stack_ablation(events: u32) -> Vec<StackAblationRow> {
    let app_src = |name: &str| {
        AppSource::new(
            name,
            r#"
            int counter = 0;
            void main(void) { }
            int on_tick(int d) {
                int scratch[8];
                for (int i = 0; i < 8; i++) { scratch[i] = counter + i; }
                counter += scratch[7] - scratch[0];
                return counter;
            }
            "#,
            &["main", "on_tick"],
        )
    };
    let build = |method: IsolationMethod| {
        Aft::new(method)
            .add_app(app_src("Alpha"))
            .add_app(app_src("Beta"))
            .build()
            .unwrap()
            .firmware
    };
    let run = |mut os: AmuletOs, label: &str| -> StackAblationRow {
        os.boot();
        let before = os.total_cycles();
        for i in 0..events {
            let (outcome, _) = os.call_handler((i % 2) as usize, "on_tick", 1);
            assert_eq!(outcome, DeliveryOutcome::Completed, "{label}");
        }
        StackAblationRow {
            config: label.to_string(),
            cycles_per_event: (os.total_cycles() - before) as f64 / events.max(1) as f64,
        }
    };

    vec![
        run(
            AmuletOs::new(build(IsolationMethod::Mpu)),
            "per-app stacks (MPU method)",
        ),
        run(
            AmuletOs::new(build(IsolationMethod::FeatureLimited)),
            "shared stack, no scrubbing (unsafe)",
        ),
        run(
            AmuletOs::with_options(
                build(IsolationMethod::FeatureLimited),
                OsOptions {
                    zero_shared_stack: true,
                    ..OsOptions::default()
                },
            ),
            "shared stack, bzero on every app change",
        ),
    ]
}

/// Renders the stack ablation.
pub fn render_stack_ablation(rows: &[StackAblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation A — per-app stacks vs shared stack (cycles per delivered event)"
    );
    for r in rows {
        let _ = writeln!(s, "{:<44} {:>10.1}", r.config, r.cycles_per_event);
    }
    s
}

/// Result of the advanced-MPU ablation for one workload.
#[derive(Clone, Debug)]
pub struct AdvancedMpuRow {
    /// Workload name.
    pub workload: String,
    /// Measured slowdown of the real MPU method (checks + reconfiguration).
    pub mpu_slowdown_percent: f64,
    /// Projected slowdown with an advanced MPU: the lower-bound checks are
    /// removed, only the context-switch reconfiguration cost remains.
    pub advanced_mpu_slowdown_percent: f64,
    /// Share of the MPU method's overhead attributable to the remaining
    /// compiler-inserted checks (what an advanced MPU would eliminate).
    pub check_share_percent: f64,
}

/// Computes the advanced-MPU ablation from the Figure 3 measurements.
pub fn advanced_mpu_ablation(iterations: u16) -> Vec<AdvancedMpuRow> {
    let rows = crate::fig3::measure(iterations);
    // The switch-reconfiguration share of the overhead: switches per run ×
    // the per-switch premium.  These workloads make no API calls, so the
    // only switches are the per-iteration event deliveries; estimate their
    // share from the FR5969's analytic switch plan.
    let switch_premium =
        OverheadModel::for_platform(IsolationMethod::Mpu, &PlatformSpec::msp430fr5969())
            .per_context_switch;
    let mut out = Vec::new();
    let workload_names: Vec<String> = {
        let mut names: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
        names.dedup();
        names
    };
    for name in workload_names {
        let get = |m: IsolationMethod| {
            rows.iter()
                .find(|r| r.workload == name && r.method == m)
                .unwrap()
        };
        let base = get(IsolationMethod::NoIsolation).cycles as f64;
        let mpu = get(IsolationMethod::Mpu).cycles as f64;
        let overhead = (mpu - base).max(0.0);
        let switch_cycles = (iterations as u64 * switch_premium) as f64;
        let check_cycles = (overhead - switch_cycles).max(0.0);
        let mpu_slowdown = overhead / base * 100.0;
        let advanced_slowdown = switch_cycles.min(overhead) / base * 100.0;
        out.push(AdvancedMpuRow {
            workload: name,
            mpu_slowdown_percent: mpu_slowdown,
            advanced_mpu_slowdown_percent: advanced_slowdown,
            check_share_percent: if overhead > 0.0 {
                check_cycles / overhead * 100.0
            } else {
                0.0
            },
        });
    }
    out
}

/// Renders the advanced-MPU ablation.
pub fn render_advanced_mpu(rows: &[AdvancedMpuRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation B — how much of the MPU method's slowdown an advanced MPU would remove"
    );
    let _ = writeln!(
        s,
        "{:<18} {:>14} {:>18} {:>14}",
        "workload", "MPU slowdown%", "advanced-MPU %", "checks' share%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<18} {:>14.1} {:>18.1} {:>14.1}",
            r.workload,
            r.mpu_slowdown_percent,
            r.advanced_mpu_slowdown_percent,
            r.check_share_percent
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroing_a_shared_stack_is_the_most_expensive_arrangement() {
        let rows = stack_ablation(20);
        assert_eq!(rows.len(), 3);
        let per_app = rows[0].cycles_per_event;
        let shared = rows[1].cycles_per_event;
        let zeroed = rows[2].cycles_per_event;
        // Scrubbing the shared stack dwarfs both alternatives; per-app stacks
        // cost more than an unscrubbed shared stack only through the MPU
        // method's switch premium.
        assert!(zeroed > per_app, "zeroed {zeroed} > per-app {per_app}");
        assert!(zeroed > shared * 2.0, "zeroed {zeroed} >> shared {shared}");
    }

    #[test]
    fn advanced_mpu_removes_most_check_overhead_for_compute_workloads() {
        let rows = advanced_mpu_ablation(5);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.advanced_mpu_slowdown_percent <= r.mpu_slowdown_percent + 1e-9,
                "{r:?}"
            );
            assert!((0.0..=100.0).contains(&r.check_share_percent), "{r:?}");
        }
        // Quicksort has no API calls, so nearly all of its MPU overhead is
        // the compiler's lower-bound checks.
        let quick = rows.iter().find(|r| r.workload == "Quicksort").unwrap();
        assert!(quick.check_share_percent > 60.0, "{quick:?}");
    }

    #[test]
    fn renders_are_non_empty() {
        assert!(render_stack_ablation(&stack_ablation(4)).contains("bzero"));
        assert!(render_advanced_mpu(&advanced_mpu_ablation(2)).contains("Quicksort"));
    }
}

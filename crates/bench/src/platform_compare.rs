//! Platform comparison: the same isolation policies evaluated on every
//! built-in platform profile, emitted as JSON.
//!
//! For each platform the comparison reports, per isolation method:
//!
//! * the analytic per-operation costs (absolute memory-access and
//!   context-switch cycles — the platform's own "Table 1");
//! * the measured per-delivery switch cycles of a live counter app on the
//!   simulated device, proving the simulator agrees with the analytic plan
//!   on every platform, not just the FR5969;
//! * the weekly overhead and battery impact of the nine-app catalogue under
//!   that platform's check policy and switch costs;
//!
//! plus platform-level facts: the MPU model, and how efficiently the
//! Figure-1 planner packs the nine-app catalogue given the platform's MPU
//! alignment (finer region alignment wastes less padding).

use crate::json::Json;
use amulet_aft::aft::Aft;
use amulet_arp::arp::Arp;
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use amulet_core::overhead::OverheadModel;
use amulet_core::platform::builtin_platforms;
use amulet_os::os::{AmuletOs, DeliveryOutcome};

/// Per-method figures on one platform.
#[derive(Clone, Debug)]
pub struct MethodComparison {
    /// Isolation method.
    pub method: IsolationMethod,
    /// Analytic absolute cycles per guarded memory access.
    pub memory_access_cycles: u64,
    /// Analytic absolute cycles per context-switch round trip.
    pub context_switch_cycles: u64,
    /// Measured switch cycles per delivered event of the live counter app.
    pub measured_switch_cycles_per_event: u64,
    /// Worst-case weekly battery impact across the nine-app catalogue, in
    /// percent.
    pub max_battery_impact_percent: f64,
}

/// One platform's comparison row.
#[derive(Clone, Debug)]
pub struct PlatformComparison {
    /// Platform name.
    pub platform: String,
    /// Human-readable MPU model description.
    pub mpu_model: String,
    /// Human-readable region base/size rule (region platforms only;
    /// `"segment boundaries"` on segmented parts).
    pub size_rule: String,
    /// Whether the MPU bounds apps from below (no software lower-bound
    /// checks needed).
    pub hardware_bounds_below: bool,
    /// Whether the MPU's jurisdiction covers peripheral space (no software
    /// function-pointer checks needed either).
    pub hardware_checks_peripherals: bool,
    /// Bytes of FRAM the nine-app catalogue occupies once planned,
    /// including alignment padding.
    pub catalog_footprint_bytes: u32,
    /// Bytes of that footprint that are pure alignment padding.
    pub catalog_padding_bytes: u32,
    /// The planner's own per-app waste accounting summed over the
    /// catalogue ([`amulet_core::layout::MemoryMap::total_padding_bytes`])
    /// — on NAPOT platforms this is dominated by power-of-two size
    /// rounding.
    pub catalog_planner_padding_bytes: u32,
    /// Per-method figures.
    pub methods: Vec<MethodComparison>,
}

/// Measures the per-event switch cycles of a single pointer-free counter
/// app on a live simulated device for the given platform and method.
fn measure_switch_cycles(platform: &PlatformSpec, method: IsolationMethod) -> u64 {
    let counter = r#"
        int n = 0;
        void main(void) { }
        int tick(int d) { n += d; return n; }
    "#;
    let out = Aft::for_platform(method, platform)
        .add_app(amulet_aft::aft::AppSource::new(
            "Counter",
            counter,
            &["main", "tick"],
        ))
        .build()
        .unwrap_or_else(|e| panic!("{}: {method}: {e}", platform.name));
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    let before = os.stats[0].switch_cycles;
    let events = 8u64;
    for _ in 0..events {
        let (outcome, _) = os.call_handler(0, "tick", 1);
        assert_eq!(outcome, DeliveryOutcome::Completed);
    }
    (os.stats[0].switch_cycles - before) / events
}

/// Builds the nine-app catalogue for the platform (under the MPU method)
/// and reports how the planner packed it: (footprint, padding,
/// planner-accounted padding) in bytes.  Padding is footprint minus the
/// bytes the apps actually need — coarser MPU alignment (and, in the
/// extreme, NAPOT power-of-two rounding) wastes more of it; the third
/// figure is the planner's own per-app waste accounting.
fn catalog_packing(platform: &PlatformSpec) -> (u32, u32, u32) {
    let mut aft = Aft::for_platform(IsolationMethod::Mpu, platform);
    for app in amulet_apps::catalog() {
        aft = aft.add_app(app.app_source());
    }
    let out = aft
        .build()
        .unwrap_or_else(|e| panic!("{}: catalogue build failed: {e}", platform.name));
    let footprint = out.firmware.memory_map.apps_end() - out.firmware.memory_map.apps_base();
    let used: u32 = out
        .report
        .apps
        .iter()
        .map(|a| a.code_bytes + a.data_bytes + a.stack_bytes)
        .sum();
    (
        footprint,
        footprint.saturating_sub(used),
        out.firmware.memory_map.total_padding_bytes(),
    )
}

/// Runs the full comparison across every built-in platform.
pub fn compare() -> Vec<PlatformComparison> {
    let profiles: Vec<_> = amulet_apps::catalog()
        .into_iter()
        .map(|a| a.profile)
        .collect();
    builtin_platforms()
        .into_iter()
        .map(|platform| {
            let arp = Arp::for_platform(&platform);
            let (footprint, padding, planner_padding) = catalog_packing(&platform);
            let methods = IsolationMethod::ALL
                .iter()
                .map(|&method| {
                    let model = OverheadModel::for_platform(method, &platform);
                    let max_impact = profiles
                        .iter()
                        .map(|p| arp.estimate_on(&platform, p, method).battery_impact_percent)
                        .fold(0.0, f64::max);
                    MethodComparison {
                        method,
                        memory_access_cycles: model.absolute_memory_access_cycles(),
                        context_switch_cycles: model.absolute_context_switch_cycles(),
                        measured_switch_cycles_per_event: measure_switch_cycles(&platform, method),
                        max_battery_impact_percent: max_impact,
                    }
                })
                .collect();
            PlatformComparison {
                platform: platform.name.clone(),
                mpu_model: platform.mpu.to_string(),
                size_rule: platform
                    .mpu
                    .constraints()
                    .map(|c| c.size_rule.to_string())
                    .unwrap_or_else(|| "segment boundaries".to_string()),
                hardware_bounds_below: platform.mpu.bounds_app_below(),
                hardware_checks_peripherals: platform.mpu.covers_peripherals(),
                catalog_footprint_bytes: footprint,
                catalog_padding_bytes: padding,
                catalog_planner_padding_bytes: planner_padding,
                methods,
            }
        })
        .collect()
}

/// Renders the comparison as JSON via the crate's shared `json` writer
/// (the build environment has no serialization dependency).
pub fn render_json(rows: &[PlatformComparison]) -> String {
    let platforms: Vec<Json> = rows
        .iter()
        .map(|row| {
            let methods: Vec<Json> = row
                .methods
                .iter()
                .map(|m| {
                    Json::obj()
                        .field("method", m.method.label())
                        .field("memory_access_cycles", m.memory_access_cycles)
                        .field("context_switch_cycles", m.context_switch_cycles)
                        .field(
                            "measured_switch_cycles_per_event",
                            m.measured_switch_cycles_per_event,
                        )
                        .field("max_battery_impact_percent", m.max_battery_impact_percent)
                })
                .collect();
            Json::obj()
                .field("name", row.platform.as_str())
                .field("mpu_model", row.mpu_model.as_str())
                .field("size_rule", row.size_rule.as_str())
                .field("hardware_bounds_below", row.hardware_bounds_below)
                .field(
                    "hardware_checks_peripherals",
                    row.hardware_checks_peripherals,
                )
                .field("catalog_footprint_bytes", row.catalog_footprint_bytes)
                .field("catalog_padding_bytes", row.catalog_padding_bytes)
                .field(
                    "catalog_planner_padding_bytes",
                    row.catalog_planner_padding_bytes,
                )
                .field("methods", methods)
        })
        .collect();
    Json::obj().field("platforms", platforms).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_core::switch::ContextSwitchPlan;

    #[test]
    fn compares_every_builtin_platform_and_method() {
        let rows = compare();
        assert_eq!(rows.len(), builtin_platforms().len());
        for row in &rows {
            assert_eq!(row.methods.len(), 4);
            assert!(row.catalog_footprint_bytes > 0);
        }
    }

    #[test]
    fn fr5969_rows_reproduce_table1() {
        let rows = compare();
        let fr5969 = rows.iter().find(|r| r.platform == "msp430fr5969").unwrap();
        let get = |m: IsolationMethod| fr5969.methods.iter().find(|x| x.method == m).unwrap();
        assert_eq!(get(IsolationMethod::NoIsolation).memory_access_cycles, 23);
        assert_eq!(get(IsolationMethod::Mpu).memory_access_cycles, 29);
        assert_eq!(get(IsolationMethod::Mpu).context_switch_cycles, 142);
        assert_eq!(get(IsolationMethod::SoftwareOnly).context_switch_cycles, 98);
    }

    #[test]
    fn region_platform_trades_switch_cost_for_zero_access_overhead() {
        let rows = compare();
        let fr5994 = rows.iter().find(|r| r.platform == "msp430fr5994").unwrap();
        let fr5969 = rows.iter().find(|r| r.platform == "msp430fr5969").unwrap();
        let mpu94 = fr5994
            .methods
            .iter()
            .find(|m| m.method == IsolationMethod::Mpu)
            .unwrap();
        let mpu69 = fr5969
            .methods
            .iter()
            .find(|m| m.method == IsolationMethod::Mpu)
            .unwrap();
        // Full-coverage region hardware removes the per-access check…
        assert_eq!(
            mpu94.memory_access_cycles, 23,
            "no compiler-inserted access checks"
        );
        assert!(mpu69.memory_access_cycles > mpu94.memory_access_cycles);
        // …but reprogramming regions costs more per switch.
        assert!(mpu94.context_switch_cycles > mpu69.context_switch_cycles);
        // Finer region alignment packs the catalogue with less padding.
        assert!(fr5994.catalog_padding_bytes < fr5969.catalog_padding_bytes);
    }

    #[test]
    fn measured_switch_cycles_track_the_analytic_plan() {
        for row in compare() {
            let platform = builtin_platforms()
                .into_iter()
                .find(|p| p.name == row.platform)
                .unwrap();
            for m in &row.methods {
                let analytic = ContextSwitchPlan::round_trip_cycles_for(&platform, m.method);
                let measured = m.measured_switch_cycles_per_event;
                assert!(
                    measured >= analytic,
                    "{} {}: measured {measured} < analytic {analytic}",
                    row.platform,
                    m.method
                );
                // The measured figure includes only the fixed per-delivery
                // machinery on top of the plan; it must stay in the same
                // ballpark.
                assert!(
                    measured <= analytic + 60,
                    "{} {}: measured {measured} far above analytic {analytic}",
                    row.platform,
                    m.method
                );
            }
        }
    }

    #[test]
    fn json_is_syntactically_plausible_and_complete() {
        let text = render_json(&compare());
        for platform in [
            "\"msp430fr5969\"",
            "\"msp430fr5969-advanced-mpu\"",
            "\"msp430fr5994\"",
            "\"riscv-pmp\"",
            "\"cortex-m33\"",
        ] {
            assert!(text.contains(platform), "missing {platform}");
        }
        assert!(text.contains("\"Software Only\""));
        assert!(text.contains("\"size_rule\""));
        assert!(text.contains("\"catalog_planner_padding_bytes\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn riscv_pmp_regions_are_napot_valid_and_waste_is_reported() {
        // The acceptance shape for the NAPOT backend: every planned region
        // of the nine-app catalogue is a size-aligned power of two, and
        // the rounding waste shows up in the comparison row.
        let platform = amulet_core::layout::PlatformSpec::riscv_pmp();
        let mut aft = Aft::for_platform(IsolationMethod::Mpu, &platform);
        for app in amulet_apps::catalog() {
            aft = aft.add_app(app.app_source());
        }
        let out = aft.build().unwrap();
        for i in 0..out.firmware.memory_map.apps.len() {
            let plan =
                amulet_core::mpu_plan::MpuPlan::for_app_on(&out.firmware.memory_map, i).unwrap();
            for seg in &plan.segments {
                let len = seg.range.len();
                assert!(len.is_power_of_two(), "{:?} not a power of two", seg.range);
                assert!(len >= 0x40, "{:?} under the NAPOT minimum", seg.range);
                assert_eq!(seg.range.start % len, 0, "{:?} not size-aligned", seg.range);
            }
        }
        let rows = compare();
        let pmp = rows.iter().find(|r| r.platform == "riscv-pmp").unwrap();
        let fr5994 = rows.iter().find(|r| r.platform == "msp430fr5994").unwrap();
        assert!(pmp.size_rule.contains("NAPOT"));
        assert!(
            pmp.catalog_planner_padding_bytes > 0,
            "NAPOT rounding waste is accounted"
        );
        // Power-of-two rounding wastes more than 256-byte alignment does.
        assert!(pmp.catalog_padding_bytes > fr5994.catalog_padding_bytes);
    }

    #[test]
    fn peripheral_jurisdiction_platforms_drop_all_pointer_checks() {
        let rows = compare();
        for name in ["cortex-m33", "riscv-pmp"] {
            let row = rows.iter().find(|r| r.platform == name).unwrap();
            assert!(row.hardware_checks_peripherals, "{name}");
            let mpu = row
                .methods
                .iter()
                .find(|m| m.method == IsolationMethod::Mpu)
                .unwrap();
            assert_eq!(
                mpu.memory_access_cycles, 23,
                "{name}: no compiler-inserted access checks"
            );
        }
        // The FR5994 profile's jurisdiction stops at peripherals.
        let fr5994 = rows.iter().find(|r| r.platform == "msp430fr5994").unwrap();
        assert!(!fr5994.hardware_checks_peripherals);
    }
}

//! Overhead extrapolation and ARP-view reporting (the machinery behind
//! Figure 2).

use crate::profile::AppProfile;
use amulet_core::energy::{BatteryModel, EnergyModel};
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use amulet_core::overhead::{OverheadBreakdown, OverheadModel};
use std::fmt;

/// The extrapolated isolation overhead of one application under one method.
#[derive(Clone, Debug, PartialEq)]
pub struct OverheadEstimate {
    /// Application name.
    pub app: String,
    /// Isolation method.
    pub method: IsolationMethod,
    /// Where the overhead cycles come from.
    pub breakdown: OverheadBreakdown,
    /// Total overhead cycles per week.
    pub cycles_per_week: u64,
    /// The same, in billions (the Figure 2 left axis).
    pub billions_of_cycles_per_week: f64,
    /// Extra energy per week in joules.
    pub joules_per_week: f64,
    /// Battery-lifetime impact in percent (the Figure 2 right axis).
    pub battery_impact_percent: f64,
}

/// The Amulet Resource Profiler: combines profiles, the per-operation
/// overhead model, and the energy/battery model.
#[derive(Clone, Debug)]
pub struct Arp {
    /// Energy model used for the cycles → joules conversion.
    pub energy: EnergyModel,
    /// Battery model used for the impact percentage.
    pub battery: BatteryModel,
}

impl Arp {
    /// Creates a profiler whose energy model matches the given platform
    /// (the battery is a property of the wearable, not the MCU, so the
    /// Amulet battery model is kept).
    pub fn for_platform(platform: &PlatformSpec) -> Self {
        Arp {
            energy: EnergyModel::for_platform(platform),
            battery: BatteryModel::amulet(),
        }
    }

    /// Estimates the weekly isolation overhead of one app under one method
    /// **on a specific platform**: the per-operation costs come from the
    /// platform's check policy and switch-cost model.
    pub fn estimate_on(
        &self,
        platform: &PlatformSpec,
        profile: &AppProfile,
        method: IsolationMethod,
    ) -> OverheadEstimate {
        let model = OverheadModel::for_platform(method, platform);
        let counts = profile.weekly_counts();
        let breakdown = model.overhead(counts);
        let cycles = breakdown.total();
        let joules = self.energy.cycles_to_joules(cycles);
        OverheadEstimate {
            app: profile.name.clone(),
            method,
            breakdown,
            cycles_per_week: cycles,
            billions_of_cycles_per_week: cycles as f64 / 1e9,
            joules_per_week: joules,
            battery_impact_percent: self.battery.impact_percent(joules),
        }
    }

    /// Estimates every app under every isolating method on a platform (the
    /// full Figure 2 data set).
    pub fn figure2(
        &self,
        platform: &PlatformSpec,
        profiles: &[AppProfile],
    ) -> Vec<OverheadEstimate> {
        let mut rows = Vec::new();
        for p in profiles {
            for method in IsolationMethod::ISOLATING {
                rows.push(self.estimate_on(platform, p, method));
            }
        }
        rows
    }

    /// Renders the Figure 2 data as an ARP-view style text table.
    pub fn render_figure2(&self, platform: &PlatformSpec, profiles: &[AppProfile]) -> ArpView {
        ArpView {
            rows: self.figure2(platform, profiles),
        }
    }
}

/// A renderable ARP-view report.
#[derive(Clone, Debug, PartialEq)]
pub struct ArpView {
    /// One row per (app, method).
    pub rows: Vec<OverheadEstimate>,
}

impl ArpView {
    /// The largest battery impact in the report (the paper's headline claim
    /// is that this stays below 0.5 %).
    pub fn max_battery_impact_percent(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.battery_impact_percent)
            .fold(0.0, f64::max)
    }

    /// Rows for a single app.
    pub fn for_app(&self, app: &str) -> Vec<&OverheadEstimate> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }
}

impl fmt::Display for ArpView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:<16} {:>14} {:>12} {:>10}",
            "application", "memory model", "Gcycles/week", "J/week", "battery %"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:<16} {:>14.3} {:>12.3} {:>10.4}",
                r.app,
                r.method.label(),
                r.billions_of_cycles_per_week,
                r.joules_per_week,
                r.battery_impact_percent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::HandlerProfile;

    fn fr5969() -> PlatformSpec {
        PlatformSpec::msp430fr5969()
    }

    fn arp() -> Arp {
        Arp::for_platform(&fr5969())
    }

    fn pedometer_like() -> AppProfile {
        // 20 Hz accelerometer batches, ~40 guarded accesses per batch, one
        // API call per batch.
        AppProfile::new(
            "Pedometer",
            vec![HandlerProfile::new("on_accel", 40, 1, 20.0 * 3600.0)],
        )
    }

    fn chatty_logger() -> AppProfile {
        // Few accesses, many API calls: the kind of app the paper says the
        // MPU method does *not* help.
        AppProfile::new("HRLog", vec![HandlerProfile::new("on_hr", 6, 8, 3600.0)])
    }

    #[test]
    fn no_isolation_has_zero_overhead() {
        let arp = arp();
        let e = arp.estimate_on(&fr5969(), &pedometer_like(), IsolationMethod::NoIsolation);
        assert_eq!(e.cycles_per_week, 0);
        assert_eq!(e.battery_impact_percent, 0.0);
    }

    #[test]
    fn figure2_has_one_row_per_app_and_method() {
        let arp = arp();
        let rows = arp.figure2(&fr5969(), &[pedometer_like(), chatty_logger()]);
        assert_eq!(rows.len(), 2 * IsolationMethod::ISOLATING.len());
    }

    #[test]
    fn battery_impact_stays_below_half_a_percent() {
        // The paper's headline claim, for profiles at realistic rates.
        let arp = arp();
        let view = arp.render_figure2(&fr5969(), &[pedometer_like(), chatty_logger()]);
        assert!(
            view.max_battery_impact_percent() < 0.5,
            "{}",
            view.max_battery_impact_percent()
        );
        assert!(view.max_battery_impact_percent() > 0.0);
    }

    #[test]
    fn compute_heavy_apps_prefer_mpu_os_heavy_apps_prefer_software_only() {
        let arp = arp();
        let ped = pedometer_like();
        let mpu = arp
            .estimate_on(&fr5969(), &ped, IsolationMethod::Mpu)
            .cycles_per_week;
        let sw = arp
            .estimate_on(&fr5969(), &ped, IsolationMethod::SoftwareOnly)
            .cycles_per_week;
        assert!(mpu < sw, "memory-heavy: MPU {mpu} < SW {sw}");

        let log = chatty_logger();
        let mpu = arp
            .estimate_on(&fr5969(), &log, IsolationMethod::Mpu)
            .cycles_per_week;
        let sw = arp
            .estimate_on(&fr5969(), &log, IsolationMethod::SoftwareOnly)
            .cycles_per_week;
        assert!(sw < mpu, "switch-heavy: SW {sw} < MPU {mpu}");
    }

    #[test]
    fn feature_limited_pays_for_every_array_access() {
        let arp = arp();
        let ped = pedometer_like();
        let fl = arp.estimate_on(&fr5969(), &ped, IsolationMethod::FeatureLimited);
        let mpu = arp.estimate_on(&fr5969(), &ped, IsolationMethod::Mpu);
        assert!(fl.breakdown.memory_access_cycles > mpu.breakdown.memory_access_cycles);
        // Feature Limited shares the stack and skips MPU reconfiguration, so
        // its switch overhead is zero.
        assert_eq!(fl.breakdown.context_switch_cycles, 0);
    }

    #[test]
    fn report_renders_every_app_and_method() {
        let arp = arp();
        let view = arp.render_figure2(&fr5969(), &[pedometer_like(), chatty_logger()]);
        let text = view.to_string();
        assert!(text.contains("Pedometer"));
        assert!(text.contains("HRLog"));
        assert!(text.contains("MPU"));
        assert!(text.contains("Software Only"));
        assert_eq!(view.for_app("Pedometer").len(), 3);
    }
}

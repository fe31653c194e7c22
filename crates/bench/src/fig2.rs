//! Figure 2: isolation overhead (billions of cycles per week) and battery
//! lifetime impact for the nine Amulet applications.

use amulet_arp::arp::{Arp, ArpView};
use amulet_core::layout::PlatformSpec;
use amulet_core::method::IsolationMethod;
use std::fmt::Write as _;

/// One (application, method) point of Figure 2.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Application name.
    pub app: String,
    /// Isolation method.
    pub method: IsolationMethod,
    /// Overhead in billions of cycles per week (left axis of Figure 2).
    pub billions_of_cycles_per_week: f64,
    /// Battery-lifetime impact in percent (right axis of Figure 2).
    pub battery_impact_percent: f64,
}

/// Computes the Figure 2 data set on the MSP430FR5969 from the application
/// catalogue's ARP profiles.
pub fn compute() -> Vec<Fig2Row> {
    let fr5969 = PlatformSpec::msp430fr5969();
    let profiles: Vec<_> = amulet_apps::catalog()
        .into_iter()
        .map(|a| a.profile)
        .collect();
    Arp::for_platform(&fr5969)
        .figure2(&fr5969, &profiles)
        .into_iter()
        .map(|e| Fig2Row {
            app: e.app,
            method: e.method,
            billions_of_cycles_per_week: e.billions_of_cycles_per_week,
            battery_impact_percent: e.battery_impact_percent,
        })
        .collect()
}

/// The underlying ARP-view (for the richer report, including joules).
pub fn arp_view() -> ArpView {
    let fr5969 = PlatformSpec::msp430fr5969();
    let profiles: Vec<_> = amulet_apps::catalog()
        .into_iter()
        .map(|a| a.profile)
        .collect();
    Arp::for_platform(&fr5969).render_figure2(&fr5969, &profiles)
}

/// Renders Figure 2 as a text table grouped by application.
pub fn render(rows: &[Fig2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 2 — isolation overhead (Gcycles/week) and battery-lifetime impact (%)"
    );
    let _ = writeln!(
        s,
        "{:<16} {:<16} {:>14} {:>12}",
        "application", "memory model", "Gcycles/week", "battery %"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} {:<16} {:>14.3} {:>12.4}",
            r.app,
            r.method.label(),
            r.billions_of_cycles_per_week,
            r.battery_impact_percent
        );
    }
    let max = rows
        .iter()
        .map(|r| r.battery_impact_percent)
        .fold(0.0, f64::max);
    let _ = writeln!(
        s,
        "maximum battery impact across all applications and methods: {max:.4}% (paper: < 0.5%)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_nine_apps_and_three_methods() {
        let rows = compute();
        assert_eq!(rows.len(), 9 * 3);
        let apps: std::collections::BTreeSet<_> = rows.iter().map(|r| r.app.clone()).collect();
        assert_eq!(apps.len(), 9);
    }

    #[test]
    fn every_app_stays_below_half_a_percent_battery_impact() {
        // The paper's headline claim for Figure 2.
        for row in compute() {
            assert!(
                row.battery_impact_percent < 0.5,
                "{} under {} costs {}%",
                row.app,
                row.method,
                row.battery_impact_percent
            );
            assert!(row.battery_impact_percent >= 0.0);
        }
    }

    #[test]
    fn overheads_are_in_the_figures_magnitude_range() {
        // Figure 2's left axis tops out around 3 billion cycles/week; the
        // busiest app should land within an order of magnitude of that, and
        // no app should exceed it wildly.
        let rows = compute();
        let max = rows
            .iter()
            .map(|r| r.billions_of_cycles_per_week)
            .fold(0.0, f64::max);
        assert!(
            max > 0.3,
            "busiest app produces a visible overhead ({max} Gcycles)"
        );
        assert!(
            max < 5.0,
            "no app exceeds the figure's scale ({max} Gcycles)"
        );
    }

    #[test]
    fn hrlog_is_cheaper_under_software_only_but_pedometer_is_cheaper_under_mpu() {
        // §4.2's observation about OS-intensive vs computation-intensive
        // apps, visible in Figure 2.
        let rows = compute();
        let get = |app: &str, m: IsolationMethod| {
            rows.iter()
                .find(|r| r.app == app && r.method == m)
                .unwrap()
                .billions_of_cycles_per_week
        };
        assert!(get("HRLog", IsolationMethod::SoftwareOnly) < get("HRLog", IsolationMethod::Mpu));
        assert!(
            get("Pedometer", IsolationMethod::Mpu)
                < get("Pedometer", IsolationMethod::SoftwareOnly)
        );
        assert!(
            get("FallDetection", IsolationMethod::Mpu)
                < get("FallDetection", IsolationMethod::FeatureLimited)
        );
    }

    #[test]
    fn render_includes_the_headline_line() {
        let text = render(&compute());
        assert!(text.contains("maximum battery impact"));
        assert!(text.contains("Pedometer"));
    }
}

//! Reproduce the Figure-2 style analysis for a custom application: profile
//! it with the Amulet Resource Profiler and estimate what each isolation
//! method would cost in weekly cycles and battery lifetime.
//!
//! Run with `cargo run --example profile_battery_impact`.

use amulet_iso::arp::arp::Arp;
use amulet_iso::arp::profile::{AppProfile, HandlerProfile};
use amulet_iso::core::layout::PlatformSpec;
use amulet_iso::core::method::IsolationMethod;

fn main() {
    // A hypothetical sleep-tracking app: accelerometer batches at 2 Hz with a
    // 64-sample analysis window, plus a minute-level summary that makes a few
    // API calls.
    let profile = AppProfile::new(
        "SleepTracker",
        vec![
            HandlerProfile::new("on_accel_batch", 70, 1, 2.0 * 3600.0),
            HandlerProfile::new("on_minute", 120, 4, 60.0),
        ],
    );

    let fr5969 = PlatformSpec::msp430fr5969();
    let arp = Arp::for_platform(&fr5969);
    println!(
        "{:<16} {:>16} {:>12} {:>12}",
        "memory model", "Gcycles/week", "J/week", "battery %"
    );
    for method in IsolationMethod::ISOLATING {
        let est = arp.estimate_on(&fr5969, &profile, method);
        println!(
            "{:<16} {:>16.3} {:>12.3} {:>12.4}",
            method.label(),
            est.billions_of_cycles_per_week,
            est.joules_per_week,
            est.battery_impact_percent
        );
    }

    // Which method should this developer pick?  The ARP ratio tells you:
    // memory-access-heavy apps benefit from the MPU method, API-heavy apps
    // are better off with Software Only.
    println!();
    println!(
        "memory-accesses per context switch: {:.1}",
        profile.access_to_switch_ratio()
    );
    let mpu = arp
        .estimate_on(&fr5969, &profile, IsolationMethod::Mpu)
        .cycles_per_week;
    let sw = arp
        .estimate_on(&fr5969, &profile, IsolationMethod::SoftwareOnly)
        .cycles_per_week;
    if mpu < sw {
        println!("=> the hybrid MPU method is the cheaper choice for this app");
    } else {
        println!("=> the software-only method is the cheaper choice for this app");
    }
}

//! Property tests for the memory-map planner and MPU plans: for *any*
//! buildable set of applications, regions never overlap, every MPU boundary
//! is expressible, and the Figure-1 permission structure holds.

use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec, PlatformSpec};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuPlan;
use amulet_core::overhead::{OpCounts, OverheadModel};
use amulet_core::perm::Perm;
use amulet_core::platform::builtin_platforms;
use proptest::prelude::*;

fn app_spec_strategy(i: usize) -> impl Strategy<Value = AppImageSpec> {
    (0x20u32..0x1800, 0u32..0x400, 0x20u32..0x200).prop_map(move |(code, data, stack)| {
        AppImageSpec::new(format!("App{i}"), code, data, stack)
    })
}

fn apps_strategy() -> impl Strategy<Value = Vec<AppImageSpec>> {
    (1usize..=4).prop_flat_map(|n| (0..n).map(app_spec_strategy).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whenever the planner succeeds, the resulting map is internally
    /// consistent: validated, non-overlapping, properly ordered, and every
    /// app's bounds are MPU-expressible.
    #[test]
    fn planned_maps_are_consistent(apps in apps_strategy()) {
        let planner = MemoryMapPlanner::msp430fr5969();
        let Ok(map) = planner.plan(&OsImageSpec::default(), &apps) else {
            // Oversized builds may be rejected; that is not a property
            // violation.
            return Ok(());
        };
        prop_assert!(map.validate().is_ok());
        let g = map.platform.mpu_boundary_granularity();
        let mut prev_end = map.os_data.end;
        for app in &map.apps {
            prop_assert!(app.code.start >= prev_end);
            prop_assert!(app.code.end <= app.stack.start);
            prop_assert_eq!(app.stack.end, app.data.start);
            prop_assert_eq!(app.data_lower_bound() % g, 0);
            prop_assert_eq!(app.upper_bound() % g, 0);
            prop_assert!(app.footprint().len() >= app.code.len());
            prev_end = app.upper_bound();
        }
    }

    /// The Figure-1 MPU plan always grants an app read-write access to its
    /// own data/stack, denies any access to apps above it, and never lets it
    /// write below its data region.
    #[test]
    fn mpu_plans_enforce_figure1(apps in apps_strategy()) {
        let planner = MemoryMapPlanner::msp430fr5969();
        let Ok(map) = planner.plan(&OsImageSpec::default(), &apps) else { return Ok(()) };
        for (i, app) in map.apps.iter().enumerate() {
            let plan = MpuPlan::for_app_on(&map, i).unwrap();
            // Own data/stack: read-write.
            prop_assert_eq!(plan.permission_at(app.data_lower_bound()), Some(Perm::RW));
            prop_assert_eq!(plan.permission_at(app.upper_bound() - 1), Some(Perm::RW));
            // Own code: execute-only (no writes).
            let code_perm = plan.permission_at(app.code.start).unwrap();
            prop_assert!(code_perm.allows(Perm::X) && !code_perm.allows(Perm::W));
            // Everything below the app's data is never writable.
            prop_assert!(!plan.permission_at(map.os_code.start).unwrap().allows(Perm::W));
            // Every higher app is completely blocked.
            for other in map.apps.iter().skip(i + 1) {
                prop_assert!(plan.blocks(other.code.start));
                prop_assert!(plan.blocks(other.data.start));
            }
            // Register encoding round-trips the boundaries.
            let regs = plan.register_values();
            prop_assert_eq!((regs.mpusegb1 as u32) << 4, plan.boundary1);
            prop_assert_eq!((regs.mpusegb2 as u32) << 4, plan.boundary2);
        }
    }

    /// Cross-platform planning: for **every built-in platform profile**,
    /// whenever the planner succeeds the map passes `MemoryMap::validate`,
    /// app footprints never overlap each other (or the OS image), every
    /// bound sits on that platform's MPU alignment, and the platform's own
    /// MPU-plan shape can be built for every app.
    #[test]
    fn every_builtin_platform_plans_valid_maps(apps in apps_strategy()) {
        for platform in builtin_platforms() {
            let g = platform.mpu_boundary_granularity();
            let planner = MemoryMapPlanner::new(platform.clone()).unwrap();
            let Ok(map) = planner.plan(&OsImageSpec::default(), &apps) else {
                // Oversized builds may be rejected; not a property violation.
                continue;
            };
            prop_assert!(map.validate().is_ok(), "{}: validate failed", platform.name);
            let mut prev_end = map.os_data.end;
            for (i, app) in map.apps.iter().enumerate() {
                let fp = app.footprint();
                prop_assert!(fp.start >= prev_end, "{}: app {i} overlaps below", platform.name);
                prop_assert!(platform.fram.contains_range(&fp), "{}: app {i} outside FRAM", platform.name);
                prop_assert_eq!(app.data_lower_bound() % g, 0);
                prop_assert_eq!(app.upper_bound() % g, 0);
                for other in map.apps.iter().skip(i + 1) {
                    prop_assert!(!fp.overlaps(&other.footprint()), "{}: footprints overlap", platform.name);
                }
                let plan = MpuPlan::for_app_on(&map, i).unwrap();
                prop_assert_eq!(plan.boundary1, app.data_lower_bound());
                prop_assert_eq!(plan.boundary2, app.upper_bound());
                prop_assert!(
                    plan.segments.len() <= platform.mpu.main_segments() + 1,
                    "{}: plan needs more slots than the hardware has",
                    platform.name
                );
                prev_end = fp.end;
            }
            // The OS-running plan is buildable on this platform's MPU too.
            prop_assert!(MpuPlan::for_os_on(&map).is_ok(), "{}: OS plan failed", platform.name);
        }
    }

    /// Constraint invariants of the planner, across **all five built-in
    /// profiles**: every planned hardware region satisfies its backend's
    /// base/size rule (including NAPOT's power-of-two-and-size-aligned
    /// rule), app regions never overlap another app or the OS image, and
    /// the alignment/rounding waste is both *reported*
    /// (`AppPlacement::padding_bytes` accounts for every byte the app
    /// consumed beyond its request) and *bounded* (each NAPOT region is at
    /// most twice the bytes it covers, down to the minimum region size —
    /// power-of-two rounding can never waste more than half a region
    /// above that floor).
    #[test]
    fn planner_satisfies_every_backends_region_constraints(apps in apps_strategy()) {
        for platform in builtin_platforms() {
            let planner = MemoryMapPlanner::new(platform.clone()).unwrap();
            let Ok(map) = planner.plan(&OsImageSpec::default(), &apps) else {
                continue; // oversized builds may be rejected
            };
            prop_assert!(map.validate().is_ok(), "{}: validate failed", platform.name);
            // The planner starts placing at the first aligned address
            // above the OS image; waste is accounted from there.
            let mut prev_end = amulet_core::addr::align_up(
                map.os_data.end,
                platform.mpu_boundary_granularity(),
            );
            let mut reported_padding = 0u32;
            for (i, (app, spec)) in map.apps.iter().zip(&apps).enumerate() {
                let fp = app.footprint();
                prop_assert!(fp.start >= prev_end, "{}: app {i} overlaps below", platform.name);
                for other in map.apps.iter().skip(i + 1) {
                    prop_assert!(!fp.overlaps(&other.footprint()), "{}: app footprints overlap", platform.name);
                }
                // Waste accounting: consumed bytes (from the previous end,
                // so leading NAPOT gaps count) = requested bytes + padding.
                let requested = spec.code_size
                    + amulet_core::addr::align_up(spec.stack_size, 2)
                    + amulet_core::addr::align_up(spec.data_size.max(2), 2);
                prop_assert_eq!(
                    app.upper_bound() - prev_end,
                    requested + app.padding_bytes,
                    "{}: app {i} padding accounting broken", platform.name
                );
                reported_padding += app.padding_bytes;
                if let Some(c) = platform.mpu.constraints() {
                    let code_used = spec.code_size;
                    let data_used = amulet_core::addr::align_up(spec.stack_size, 2)
                        + amulet_core::addr::align_up(spec.data_size.max(2), 2);
                    for (range, used) in [(app.code, code_used), (app.data_stack(), data_used)] {
                        prop_assert!(
                            c.size_rule.is_valid_region(&range),
                            "{}: app {i} region {range:?} violates {}",
                            platform.name, c.size_rule
                        );
                        // Bounded waste: a solved region is at most one
                        // rounding step above what it covers.
                        prop_assert!(
                            range.len() <= c.size_rule.region_span(used),
                            "{}: app {i} region {range:?} larger than the minimal span for {used} bytes",
                            platform.name
                        );
                    }
                }
                prev_end = app.upper_bound();
            }
            prop_assert_eq!(
                map.total_padding_bytes(), reported_padding,
                "{}: map-level padding disagrees with per-app accounting", platform.name
            );
        }
    }

    /// The analytic overhead model is monotone: more operations never cost
    /// fewer overhead cycles, for any method.
    #[test]
    fn overhead_model_is_monotone(
        mem_a in 0u64..1_000_000,
        mem_b in 0u64..1_000_000,
        sw_a in 0u64..100_000,
        sw_b in 0u64..100_000,
    ) {
        for method in IsolationMethod::ALL {
            let model = OverheadModel::for_platform(method, &PlatformSpec::msp430fr5969());
            let small = OpCounts::new(mem_a.min(mem_b), sw_a.min(sw_b));
            let large = OpCounts::new(mem_a.max(mem_b), sw_a.max(sw_b));
            prop_assert!(model.overhead(small).total() <= model.overhead(large).total());
            prop_assert!(model.slowdown_percent(large) >= 0.0);
        }
    }
}

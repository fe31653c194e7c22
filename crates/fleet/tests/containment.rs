//! Pinned containment cells and the end-to-end fault storm.
//!
//! The unit matrix pins the empirically-settled verdicts that make the
//! five `RegionConstraints` profiles measurably differ: the cortex-m33
//! and riscv-pmp profiles police *everything* an app can reach, while the
//! msp430fr5994's MPU has no jurisdiction over the peripheral window or
//! the interrupt vectors — the escape paths the storm report documents.

mod support;

use amulet_aft::aft::Aft;
use amulet_apps::adversarial::FaultKind;
use amulet_core::method::IsolationMethod;
use amulet_core::platform::builtin_platforms;
use amulet_fleet::faults::{attack_payload, classify};
use amulet_fleet::{simulate_summary_in, FirmwareStore, FleetScenario, FleetSummary, Verdict};
use amulet_os::os::{AmuletOs, OsOptions};
use amulet_os::policy::RestartPolicy;

fn run_summary(scenario: &FleetScenario, workers: usize) -> FleetSummary {
    simulate_summary_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
}

/// Boots one device carrying a normal neighbour plus `kind`'s adversarial
/// app and delivers the controlled probe, exactly as the fleet runner
/// does (same restart policy, same pinned step budget, same computed
/// target address).
fn probe(platform_name: &str, method: IsolationMethod, kind: FaultKind) -> Verdict {
    let platform = builtin_platforms()
        .into_iter()
        .find(|p| p.name == platform_name)
        .unwrap_or_else(|| panic!("unknown platform {platform_name}"));
    let adapted = kind.adapted_for(method);
    let adv = adapted.app();
    let normal = amulet_apps::catalog();
    let built = Aft::for_platform(method, &platform)
        .add_app(normal[0].app_source())
        .add_app(adv.app_source())
        .build()
        .unwrap_or_else(|e| panic!("{platform_name}/{method}/{}: {e}", kind.label()));
    let mut os = AmuletOs::with_options(
        built.firmware,
        OsOptions {
            restart_policy: RestartPolicy::Kill,
            step_budget: 20_000,
            ..OsOptions::default()
        },
    );
    os.boot();
    let idx = os.app_index(adv.name).expect("adversarial app installed");
    let payload = attack_payload(adapted, os.firmware());
    let (outcome, _) = os.call_handler(idx, "attack", payload);
    classify(outcome)
}

#[test]
fn full_jurisdiction_profiles_contain_every_wild_probe_in_hardware() {
    for platform in ["cortex-m33", "riscv-pmp"] {
        for kind in [
            FaultKind::WildWriteOsRam,
            FaultKind::WildWritePeripheral,
            FaultKind::WildWriteBootRom,
            FaultKind::WildWriteNeighbor,
            FaultKind::WildWriteVector,
            FaultKind::WildCallPeripheral,
            FaultKind::StackSmash,
            FaultKind::ArrayOob,
        ] {
            assert_eq!(
                probe(platform, IsolationMethod::Mpu, kind),
                Verdict::CaughtByMpu,
                "{platform}: {}",
                kind.label()
            );
        }
        assert_eq!(
            probe(platform, IsolationMethod::Mpu, FaultKind::RunawayLoop),
            Verdict::Hung,
            "{platform}: only the watchdog stops a loop that touches nothing"
        );
    }
}

#[test]
fn fr5994_peripheral_window_and_vectors_are_the_documented_escapes() {
    let m = IsolationMethod::Mpu;
    // The FR5994's MPU segments cover FRAM+SRAM only: a wild write into
    // the memory-mapped peripheral window, or into the (peripheral-space)
    // interrupt vector table, lands unopposed.
    assert_eq!(
        probe("msp430fr5994", m, FaultKind::WildWritePeripheral),
        Verdict::Escaped
    );
    assert_eq!(
        probe("msp430fr5994", m, FaultKind::WildWriteVector),
        Verdict::Escaped
    );
    // A write into the boot ROM is refused by the ROM's own write
    // protection — contained, but not by the isolation method.
    assert_eq!(
        probe("msp430fr5994", m, FaultKind::WildWriteBootRom),
        Verdict::Crashed
    );
    // Inside its jurisdiction the MPU does catch the attacks.
    for kind in [
        FaultKind::WildWriteOsRam,
        FaultKind::WildWriteNeighbor,
        FaultKind::StackSmash,
        FaultKind::ArrayOob,
    ] {
        assert_eq!(
            probe("msp430fr5994", m, kind),
            Verdict::CaughtByMpu,
            "{}",
            kind.label()
        );
    }
    // A wild *call* into peripheral space trips the compiled-in function
    // pointer bound before any fetch is attempted.
    assert_eq!(
        probe("msp430fr5994", m, FaultKind::WildCallPeripheral),
        Verdict::CaughtBySoftware
    );
    // The FR5969 shares the vector-table hole.
    assert_eq!(
        probe("msp430fr5969", m, FaultKind::WildWriteVector),
        Verdict::Escaped
    );
}

#[test]
fn feature_limited_containment_is_entirely_software() {
    for kind in [FaultKind::WildWriteOsRam, FaultKind::StackSmash] {
        assert_eq!(
            probe("msp430fr5969", IsolationMethod::FeatureLimited, kind),
            Verdict::CaughtBySoftware,
            "{} adapts to the array-bounds check",
            kind.label()
        );
    }
    assert_eq!(
        probe(
            "msp430fr5969",
            IsolationMethod::FeatureLimited,
            FaultKind::RunawayLoop
        ),
        Verdict::Hung
    );
}

#[test]
fn no_isolation_lets_wild_writes_escape() {
    assert_eq!(
        probe(
            "msp430fr5969",
            IsolationMethod::NoIsolation,
            FaultKind::WildWriteOsRam
        ),
        Verdict::Escaped
    );
    assert_eq!(
        probe(
            "msp430fr5969",
            IsolationMethod::SoftwareOnly,
            FaultKind::WildWriteOsRam
        ),
        Verdict::CaughtBySoftware
    );
}

#[test]
fn storm_report_contains_faults_and_never_bricks_a_device() {
    let scenario = FleetScenario::storm(1000);
    let a = run_summary(&scenario, 1);
    let b = run_summary(&scenario, 8);
    assert_eq!(a.aggregate, b.aggregate, "worker count changes nothing");

    let agg = &a.aggregate;
    assert!(!agg.containment.is_empty(), "the storm armed devices");
    let probed: u64 = agg.containment.iter().map(|r| r.devices).sum();
    assert!(
        (250..=550).contains(&probed),
        "~40% of 1000 devices probed, got {probed}"
    );
    for row in &agg.containment {
        assert_eq!(
            row.caught_by_mpu + row.caught_by_software + row.escaped + row.hung + row.crashed,
            row.devices,
            "verdicts partition the cell {row:?}"
        );
        // The acceptance bar: full-jurisdiction MPU profiles contain
        // every wild probe in hardware, with zero escapes.
        if ["cortex-m33", "riscv-pmp"].contains(&row.platform.as_str())
            && row.method == "MPU"
            && row.fault.starts_with("wild-")
        {
            assert_eq!(
                (row.caught_by_mpu, row.escaped),
                (row.devices, 0),
                "full jurisdiction must contain {row:?}"
            );
        }
        // No-isolation wild writes all land.
        if row.method == "No Isolation" && row.fault.starts_with("wild-write-") {
            assert!(
                row.escaped + row.crashed == row.devices,
                "nothing polices {row:?}"
            );
        }
    }
    // The documented FR5994 escape path shows up as a measured cell.
    let hole = agg
        .containment
        .iter()
        .find(|r| {
            r.platform == "msp430fr5994" && r.method == "MPU" && r.fault == "wild-write-peripheral"
        })
        .expect("a 1000-device storm draws the FR5994 peripheral hole");
    assert_eq!(hole.escaped, hole.devices, "{hole:?}");

    let w = &agg.ota_wave;
    assert!(w.devices > 0, "the wave swept devices");
    assert_eq!(
        w.installed + w.rolled_back,
        w.devices,
        "two terminal states"
    );
    assert_eq!(w.bricked, 0, "no device ever bricks");
    assert!(w.corrupt_attempts > 0, "20% corruption must bite");
    assert!(
        w.retried_devices > 0 && w.backoff_ms > 0,
        "retries back off"
    );
    assert!(w.attempts >= w.devices);
}

#[test]
fn check_elision_changes_no_storm_outcome() {
    // The static verifier's check elision is sound exactly when it is
    // invisible to every dynamic outcome: the containment matrix, the
    // OTA wave, the energy and cycle aggregates of a fault storm must
    // all be bit-identical with the elided images — elided fleets just
    // retire fewer instructions.  This is the fleet-level half of the
    // static/dynamic cross-validation (the per-app half lives in
    // amulet-verify's certification tests).
    let base = FleetScenario::storm(120);
    let elided = FleetScenario {
        elide_checks: true,
        ..base.clone()
    };
    let a = run_summary(&base, 4);
    let b = run_summary(&elided, 4);
    assert_eq!(a.aggregate, b.aggregate, "elision must be outcome-neutral");
    assert!(
        !a.aggregate.containment.is_empty(),
        "the comparison covered armed probes"
    );
}

#[test]
fn static_verifier_cross_validates_the_dynamic_matrix() {
    // Soundness criterion from the matrix above: an app whose probe
    // dynamically escaped (or was caught) may never verify with its
    // attacking access proven safe.  The probes are payload-controlled,
    // so every one of them must stay (at best) unknown — summed over a
    // whole storm's worth of adversarial images, the undecided count is
    // strictly positive while benign catalogue code still certifies.
    let summary = amulet_fleet::verify_fleet(&FleetScenario::storm(120), 4);
    assert!(summary.images > 0, "the storm deploys firmware");
    assert!(summary.apps > summary.images, "multi-app images verified");
    assert!(
        summary.unknown > 0,
        "payload-controlled probes must stay undecided"
    );
    assert!(
        summary.proven_safe > summary.unknown,
        "benign catalogue accesses still certify ({} safe vs {} unknown)",
        summary.proven_safe,
        summary.unknown
    );
    assert!(
        summary.elidable_sites > 0 && summary.elidable_sites < summary.elidable_candidates,
        "some checks elide, attack-guarding ones survive ({}/{})",
        summary.elidable_sites,
        summary.elidable_candidates
    );
    assert!(
        summary.passes_gate(),
        "no storm image contains a *proven* escape: {:?}",
        summary.gate_failures
    );
}

#[test]
fn storm_devices_match_the_oracle() {
    // The fleet runner and the one-device-at-a-time oracle must
    // agree on every armed device, probes and OTA outcomes included.
    let scenario = FleetScenario::storm(80);
    let fleet = amulet_fleet::simulate_in(&scenario, 4, &FirmwareStore::for_scenario(&scenario));
    let expected = support::oracle(&scenario);
    assert_eq!(fleet.devices, expected.devices);
    assert_eq!(fleet.aggregate, expected.aggregate);
    assert!(fleet.devices.iter().any(|d| d.fault.is_some()));
    assert!(fleet.devices.iter().any(|d| d.ota.is_some()));
}

//! The soundness condition of the fleet's boot checkpoint.
//!
//! The fleet simulator boots each device and delivers its fault probe
//! once, saves the runtime with `AmuletOs::save`, runs the per-event
//! leg, restores, switches to the batched policy and runs the batched
//! leg.  That is exact only if reset, boot and the probe leave the same
//! state under every delivery policy.  This test holds them to it: for
//! every platform profile, isolation method and catalogue mix, clean and
//! with the adversarial app of every fault kind probed at every target
//! space, under the default restart policy and the fault storm's
//! watchdog, the state after reset + boot (+ probe) under
//! `DeliveryPolicy::PerEvent` must equal the state under `Batched` with
//! a batch size of 1, 2 and 8: all 64 KiB of memory, and everything a
//! checkpoint saves (CPU, bus counters, timer, the MPU and the OS
//! run state).

use amulet_aft::aft::{Aft, UnitMemo};
use amulet_apps::{catalog, CatalogApp, FaultKind};
use amulet_core::addr::AddrRange;
use amulet_core::method::IsolationMethod;
use amulet_core::platform::builtin_platforms;
use amulet_mcu::firmware::Firmware;
use amulet_os::events::DeliveryPolicy;
use amulet_os::os::{AmuletOs, OsCheckpoint, OsOptions};
use amulet_os::policy::RestartPolicy;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The delivery policies whose post-boot states must agree.
fn policies() -> [DeliveryPolicy; 4] {
    let batched = |max_batch| DeliveryPolicy::Batched {
        max_batch,
        max_latency_events: 16,
    };
    [DeliveryPolicy::PerEvent, batched(1), batched(2), batched(8)]
}

/// The restart policies the fleet runs probes under: the default kill,
/// and the fault storm's watchdog.  Both with the storm's step budget, so
/// a runaway probe ends in the watchdog quickly.
fn restart_options() -> [OsOptions; 2] {
    let options = OsOptions {
        step_budget: 20_000,
        ..OsOptions::default()
    };
    [
        options,
        OsOptions {
            restart_policy: RestartPolicy::RestartWithBackoff {
                base_backoff: 2,
                max_strikes: 3,
                jitter_seed: 0x57_0421 ^ 0xBAC0_FF5E,
            },
            ..options
        },
    ]
}

/// The distinct probes of an image built with `method`: each adversarial
/// app once (kinds that share an app differ only in the payload).  The
/// wild writer and caller are aimed at the kind's default payload and at
/// one address in every target space the fault injector uses (OS stack,
/// peripherals, boot ROM, the first app's data, the vector table); the
/// other attacks take their default payload.
fn probes(
    method: IsolationMethod,
    fw_of: impl Fn(FaultKind) -> Arc<Firmware>,
) -> Vec<(FaultKind, Arc<Firmware>, u16)> {
    let mut seen = BTreeSet::new();
    let mut probes = Vec::new();
    for kind in FaultKind::ALL.map(|k| k.adapted_for(method)) {
        if !seen.insert(kind.app().name) {
            continue;
        }
        let fw = fw_of(kind);
        let p = &fw.memory_map.platform;
        let targets = [
            fw.memory_map.os_stack.start as u16,
            (p.peripherals.start + 0x20) as u16,
            (p.bootstrap_loader.start + 4) as u16,
            fw.apps[0].placement.data.start as u16,
            (p.interrupt_vectors.start + 2) as u16,
        ];
        let wild = matches!(
            kind,
            FaultKind::WildWriteOsRam | FaultKind::WildCallPeripheral
        );
        let payloads =
            std::iter::once(kind.default_payload()).chain(targets.into_iter().filter(|_| wild));
        for payload in payloads {
            probes.push((kind, Arc::clone(&fw), payload));
        }
    }
    probes
}

/// Memory and everything a checkpoint carries, after reset + boot (+ the
/// probe) under `policy`.
fn boot_state(os: &mut AmuletOs, policy: DeliveryPolicy, probe: Option<u16>) -> (Vec<u8>, String) {
    os.reset();
    os.set_delivery_policy(policy);
    os.boot();
    if let Some(payload) = probe {
        os.call_handler(os.app_count() - 1, "attack", payload);
    }
    let mut checkpoint = OsCheckpoint::default();
    os.save(&mut checkpoint);
    (
        os.device.bus.dump_bytes(AddrRange::new(0, 0x1_0000)),
        format!("{checkpoint:?}"),
    )
}

/// Checks every policy against per-event delivery on one image.
fn check(fw: &Arc<Firmware>, options: OsOptions, probe: Option<u16>, what: &str) {
    let mut os = AmuletOs::with_options_shared(Arc::clone(fw), options);
    let [per_event, batched @ ..] = policies();
    let reference = boot_state(&mut os, per_event, probe);
    for policy in batched {
        let state = boot_state(&mut os, policy, probe);
        if state.0 != reference.0 {
            let at = state.0.iter().zip(&reference.0).position(|(a, b)| a != b);
            panic!("{what} under {policy:?}: memory differs at {at:?}");
        }
        assert_eq!(state.1, reference.1, "{what} under {policy:?}");
    }
}

#[test]
fn boot_and_probe_do_not_depend_on_the_delivery_policy() {
    let memo = UnitMemo::default();
    let apps = catalog();
    let mixes: Vec<&[CatalogApp]> = apps.chunks(3).collect();
    let mut probed = 0;
    for platform in builtin_platforms() {
        for method in IsolationMethod::ALL {
            for mix in &mixes {
                let build = |extra: Option<CatalogApp>| {
                    let mut aft = Aft::for_platform(method, &platform);
                    for app in mix.iter().chain(&extra) {
                        aft = aft.add_app(app.app_source());
                    }
                    Arc::new(aft.build_with(&memo).expect("the mix builds").firmware)
                };
                let names: Vec<&str> = mix.iter().map(|a| a.name).collect();
                let what = format!("{} {method} {names:?}", platform.name);
                check(&build(None), restart_options()[0], None, &what);
                for (kind, fw, payload) in probes(method, |kind| build(Some(kind.app()))) {
                    for options in restart_options() {
                        let what = format!("{what} {kind:?} @ {payload:#06x}");
                        check(&fw, options, Some(payload), &what);
                        probed += 1;
                    }
                }
            }
        }
    }
    assert!(probed > 500, "{probed} probes");
}

//! Cross-platform integration tests for the PlatformSpec/MpuModel abstraction
//! layer: the FR5969 profile must reproduce the paper's Table 1 cycle
//! numbers, and the same applications must build, run and stay isolated on
//! the region-MPU platform profile.

use amulet_iso::aft::aft::{Aft, AppSource};
use amulet_iso::core::layout::PlatformSpec;
use amulet_iso::core::method::IsolationMethod;
use amulet_iso::core::mpu_plan::MpuConfig;
use amulet_iso::core::overhead::OverheadModel;
use amulet_iso::core::platform::{builtin_platforms, MpuModel};
use amulet_iso::core::switch::ContextSwitchPlan;
use amulet_iso::os::os::{AmuletOs, DeliveryOutcome};

/// Both MPU models instantiate, and the FR5969 (segmented) profile's
/// `OverheadModel` and `ContextSwitchPlan` produce the paper's Table 1
/// cycle numbers exactly.
#[test]
fn fr5969_numbers_survive_the_platform_refactor() {
    let fr5969 = PlatformSpec::msp430fr5969();
    let fr5994 = PlatformSpec::msp430fr5994();
    assert!(matches!(
        fr5969.mpu,
        MpuModel::Segmented {
            main_segments: 3,
            ..
        }
    ));
    assert!(matches!(&fr5994.mpu, MpuModel::Region(c) if c.regions == 8));

    // The paper's Table 1 — (method, absolute mem access, absolute switch).
    let table1 = [
        (IsolationMethod::NoIsolation, 23, 90),
        (IsolationMethod::FeatureLimited, 41, 90),
        (IsolationMethod::Mpu, 29, 142),
        (IsolationMethod::SoftwareOnly, 32, 98),
    ];
    for (method, mem, switch) in table1 {
        let model = OverheadModel::for_platform(method, &fr5969);
        assert_eq!(model.absolute_memory_access_cycles(), mem, "{method}");
        assert_eq!(model.absolute_context_switch_cycles(), switch, "{method}");
        // The switch plan's own sum is the absolute Table 1 figure.
        assert_eq!(
            ContextSwitchPlan::round_trip_cycles_for(&fr5969, method),
            switch,
            "{method}: round trip drifted"
        );
    }

    // The region platform instantiates the *other* MPU model and makes the
    // paper's trade-off differently: hardware bounds both sides (no
    // per-access overhead under the MPU method) at a higher switch cost.
    let mpu_94 = OverheadModel::for_platform(IsolationMethod::Mpu, &fr5994);
    assert_eq!(
        mpu_94.per_memory_access, 0,
        "region MPU needs no per-access checks"
    );
    assert!(
        mpu_94.per_context_switch
            > OverheadModel::for_platform(IsolationMethod::Mpu, &fr5969).per_context_switch,
        "region reprogramming costs more per switch"
    );
}

/// The same AmuletC application computes identical results on every
/// built-in platform under every method that can compile it, and the
/// firmware carries the register shape its platform's MPU expects.
#[test]
fn apps_run_identically_on_every_builtin_platform() {
    let src = r#"
        int fib[16];
        void main(void) { }
        int compute(int n) {
            fib[0] = 0;
            fib[1] = 1;
            for (int i = 2; i < 16; i++) { fib[i] = fib[i - 1] + fib[i - 2]; }
            if (n >= 16) { n = 15; }
            return fib[n];
        }
    "#;
    for platform in builtin_platforms() {
        for method in IsolationMethod::ALL {
            let out = Aft::for_platform(method, &platform)
                .add_app(AppSource::new("Fib", src, &["main", "compute"]))
                .build()
                .unwrap_or_else(|e| panic!("{}: {method}: {e}", platform.name));
            match &out.firmware.apps[0].mpu_config {
                MpuConfig::Segmented(_) if !platform.mpu.is_region_based() => {}
                MpuConfig::Pmp(p) if platform.mpu.is_napot() => {
                    assert!(p.user_mode, "{}: app config enforces", platform.name)
                }
                MpuConfig::Region(_)
                    if platform.mpu.is_region_based() && !platform.mpu.is_napot() => {}
                config => panic!(
                    "{}: firmware carries the wrong register shape: {config:?}",
                    platform.name
                ),
            }
            let mut os = AmuletOs::new(out.firmware);
            os.boot();
            let (outcome, _) = os.call_handler(0, "compute", 10);
            assert_eq!(
                outcome,
                DeliveryOutcome::Completed,
                "{}: {method}",
                platform.name
            );
            assert_eq!(
                os.device.cpu.reg(amulet_iso::mcu::isa::Reg::R14),
                55,
                "{}: {method}: fib(10)",
                platform.name
            );
        }
    }
}

/// The isolation guarantee holds on the region platform with *hardware*
/// catching what the FR5969 needs compiler-inserted checks for: wild
/// pointers below the app, above the app, and into the OS stack in SRAM
/// all fault as MPU violations (the compiler inserts no data-pointer
/// checks there), and under No Isolation the same writes land silently.
#[test]
fn region_mpu_hardware_replaces_the_software_lower_bound_check() {
    let wild = r#"
        void main(void) { }
        int poke(int where) {
            int *p;
            p = where;
            *p = 99;
            return 1;
        }
    "#;
    let fr5994 = PlatformSpec::msp430fr5994();
    let build = || {
        Aft::for_platform(IsolationMethod::Mpu, &fr5994)
            .add_app(AppSource::new("Wild", wild, &["main", "poke"]))
            .build()
            .unwrap()
    };
    let out = build();
    // Keys follow codegen's `note_check` strings; guard against key drift
    // by asserting the FR5969 build of the same app *does* carry the check.
    let fr5969_build = Aft::new(IsolationMethod::Mpu)
        .add_app(AppSource::new("Wild", wild, &["main", "poke"]))
        .build()
        .unwrap();
    let lower_checks = |report: &amulet_iso::aft::aft::BuildReport| {
        *report.apps[0]
            .inserted_checks
            .get("data pointer lower bound")
            .unwrap_or(&0)
    };
    assert!(
        lower_checks(&fr5969_build.report) > 0,
        "FR5969 build must carry data-pointer lower-bound checks (key drift?)"
    );
    assert_eq!(
        lower_checks(&out.report),
        0,
        "region platform compiles without data-pointer lower-bound checks"
    );
    let os_stack = out.memory_map.os_stack.end - 2;
    let os_data = out.memory_map.os_data.start;
    let above = out.memory_map.platform.fram.end - 0x80;

    for target in [os_data, os_stack, above] {
        let mut os = AmuletOs::new(build().firmware);
        os.boot();
        let (outcome, _) = os.call_handler(0, "poke", target as u16);
        assert!(
            matches!(
                outcome,
                DeliveryOutcome::Faulted(amulet_iso::core::fault::FaultClass::MpuViolation)
            ),
            "poke({target:#06x}) must fault in hardware, got {outcome:?}"
        );
    }

    // Baseline: the same write under No Isolation silently corrupts memory.
    let out = Aft::for_platform(IsolationMethod::NoIsolation, &fr5994)
        .add_app(AppSource::new("Wild", wild, &["main", "poke"]))
        .build()
        .unwrap();
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    let (outcome, _) = os.call_handler(0, "poke", os_data as u16);
    assert_eq!(outcome, DeliveryOutcome::Completed);
}

/// An application cannot sabotage the region MPU itself: its register
/// block is privileged-only (Cortex-M PPB style), so the classic attack —
/// store 0 to the control register to disable checking, then scribble
/// over OS memory — faults at the first store, and OS data is untouched.
#[test]
fn region_mpu_registers_are_privileged_only() {
    // 0x05B0 is RMPU_CTL; a store of 0 would disable region checking.
    let saboteur = r#"
        void main(void) { }
        int sabotage(int target) {
            int *p;
            p = 0x05B0;
            *p = 0;
            p = target;
            *p = 99;
            return 1;
        }
    "#;
    let out = Aft::for_platform(IsolationMethod::Mpu, &PlatformSpec::msp430fr5994())
        .add_app(AppSource::new("Saboteur", saboteur, &["main", "sabotage"]))
        .build()
        .unwrap();
    let os_data = out.memory_map.os_data.start;
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    let before = os.device.bus.read_raw(os_data, 2);
    let (outcome, _) = os.call_handler(0, "sabotage", os_data as u16);
    assert!(
        matches!(outcome, DeliveryOutcome::Faulted(_)),
        "store to RMPU_CTL must fault, got {outcome:?}"
    );
    assert_eq!(
        os.device.bus.read_raw(os_data, 2),
        before,
        "OS data must be untouched after the attempted sabotage"
    );
    // The MPU is still enabled and still blocking.
    assert!(os.device.bus.mpu().enforcing());
}

/// DESIGN §6 regression ("unpoliced region-MPU peripheral space"): on
/// profiles whose MPU jurisdiction covers peripheral space (`cortex-m33`,
/// `riscv-pmp`), a wild application write aimed at a peripheral register —
/// including the timer block and generic peripheral backing memory —
/// faults as an MPU violation in hardware, with no compiler-inserted check
/// involved.  The FR5994 profile keeps the historical behaviour: its
/// jurisdiction stops at peripherals, so the same store reaches the
/// (harmless) generic peripheral space.
#[test]
fn peripheral_jurisdiction_faults_wild_peripheral_writes() {
    let wild = r#"
        void main(void) { }
        int poke(int where) {
            int *p;
            p = where;
            *p = 99;
            return 1;
        }
    "#;
    for platform in [PlatformSpec::cortex_m33(), PlatformSpec::riscv_pmp()] {
        let out = Aft::for_platform(IsolationMethod::Mpu, &platform)
            .add_app(AppSource::new("Wild", wild, &["main", "poke"]))
            .build()
            .unwrap();
        // No data-pointer software checks were inserted — hardware alone
        // polices these stores.
        assert_eq!(
            *out.report.apps[0]
                .inserted_checks
                .get("data pointer lower bound")
                .unwrap_or(&0),
            0,
            "{}",
            platform.name
        );
        // 0x0200: generic peripheral backing memory; 0x0340: timer block
        // territory; plus OS data, the OS stack in SRAM, and memory above
        // the app — every one must fault in hardware.
        let os_data = out.memory_map.os_data.start;
        let os_stack = out.memory_map.os_stack.end - 2;
        let above = out.memory_map.platform.fram.end - 0x80;
        for target in [0x0200u32, 0x0340, os_data, os_stack, above] {
            let mut os = AmuletOs::new(out.firmware.clone());
            os.boot();
            let (outcome, _) = os.call_handler(0, "poke", target as u16);
            assert!(
                matches!(
                    outcome,
                    DeliveryOutcome::Faulted(amulet_iso::core::fault::FaultClass::MpuViolation)
                ),
                "{}: poke({target:#06x}) must fault in hardware, got {outcome:?}",
                platform.name
            );
        }
    }
    // Contrast: the FR5994 profile's MPU stops at peripheral space, so the
    // same peripheral store completes (the documented §6 limitation there).
    let out = Aft::for_platform(IsolationMethod::Mpu, &PlatformSpec::msp430fr5994())
        .add_app(AppSource::new("Wild", wild, &["main", "poke"]))
        .build()
        .unwrap();
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    let (outcome, _) = os.call_handler(0, "poke", 0x0200);
    assert_eq!(outcome, DeliveryOutcome::Completed);
}

/// An application cannot sabotage the PMP: its register block is
/// privileged (CSR-style), so storing 0 to `PMPMODE` — which would drop
/// the device back to machine mode and disable enforcement — faults at
/// the store, before the follow-up scribble over OS memory.
#[test]
fn pmp_registers_are_privileged_only() {
    // 0x05C0 is PMP_MODE; a store of 0 would disable user-mode checking.
    let saboteur = r#"
        void main(void) { }
        int sabotage(int target) {
            int *p;
            p = 0x05C0;
            *p = 0;
            p = target;
            *p = 99;
            return 1;
        }
    "#;
    let out = Aft::for_platform(IsolationMethod::Mpu, &PlatformSpec::riscv_pmp())
        .add_app(AppSource::new("Saboteur", saboteur, &["main", "sabotage"]))
        .build()
        .unwrap();
    let os_data = out.memory_map.os_data.start;
    let mut os = AmuletOs::new(out.firmware);
    os.boot();
    let before = os.device.bus.read_raw(os_data, 2);
    let (outcome, _) = os.call_handler(0, "sabotage", os_data as u16);
    assert!(
        matches!(outcome, DeliveryOutcome::Faulted(_)),
        "store to PMP_MODE must fault, got {outcome:?}"
    );
    assert_eq!(os.device.bus.read_raw(os_data, 2), before);
    // The fault handler restored the machine-mode (OS) configuration.
    assert!(!os.device.bus.mpu().enforcing());
}

/// Peripheral-jurisdiction backends drop the function-pointer software
/// check too (`CheckPolicy::for_method_on`): a corrupted code pointer
/// cannot escape into unpoliced peripheral space there.  The FR5994
/// profile — whose jurisdiction stops at peripherals — keeps it.
#[test]
fn peripheral_jurisdiction_drops_function_pointer_checks() {
    let indirect = r#"
        int twice(int x) { return x + x; }
        void main(void) {
            fnptr f;
            f = &twice;
            f(3);
        }
    "#;
    let fp_lower_checks = |platform: &PlatformSpec| {
        let out = Aft::for_platform(IsolationMethod::Mpu, platform)
            .add_app(AppSource::new("Indirect", indirect, &["main"]))
            .build()
            .unwrap();
        *out.report.apps[0]
            .inserted_checks
            .get("function pointer lower bound")
            .unwrap_or(&0)
    };
    assert!(
        fp_lower_checks(&PlatformSpec::msp430fr5994()) > 0,
        "FR5994 keeps it"
    );
    assert_eq!(fp_lower_checks(&PlatformSpec::cortex_m33()), 0);
    assert_eq!(fp_lower_checks(&PlatformSpec::riscv_pmp()), 0);

    // An indirect call through a *valid* pointer still works on the
    // checkless builds.
    for platform in [PlatformSpec::cortex_m33(), PlatformSpec::riscv_pmp()] {
        let out = Aft::for_platform(IsolationMethod::Mpu, &platform)
            .add_app(AppSource::new("Indirect", indirect, &["main"]))
            .build()
            .unwrap();
        let mut os = AmuletOs::new(out.firmware);
        os.boot();
        assert_eq!(os.faults.records.len(), 0, "{}", platform.name);
    }
}

/// What makes dropping the function-pointer check *sound*: on the
/// full-jurisdiction profiles a corrupted code pointer aimed at the boot
/// ROM (or anywhere else outside the app's execute-only region) faults in
/// hardware at the fetch — there is no unpoliced memory left to escape
/// into.  On the FR5994 profile the same fetch would be architecturally
/// permitted, which is exactly why that profile keeps the software check.
#[test]
fn corrupted_function_pointer_into_boot_rom_faults_in_hardware() {
    let corrupt = r#"
        void main(void) { }
        int jump(int target) {
            fnptr f;
            f = target;
            f(1);
            return 0;
        }
    "#;
    for platform in [PlatformSpec::cortex_m33(), PlatformSpec::riscv_pmp()] {
        let out = Aft::for_platform(IsolationMethod::Mpu, &platform)
            .add_app(AppSource::new("Corrupt", corrupt, &["main", "jump"]))
            .build()
            .unwrap();
        let mut os = AmuletOs::new(out.firmware);
        os.boot();
        // 0x1200 is inside the boot ROM — outside every app region, and
        // (on these profiles) inside the MPU's jurisdiction.
        let (outcome, _) = os.call_handler(0, "jump", 0x1200);
        assert!(
            matches!(
                outcome,
                DeliveryOutcome::Faulted(amulet_iso::core::fault::FaultClass::MpuViolation)
            ),
            "{}: indirect call into the boot ROM must fault in hardware, got {outcome:?}",
            platform.name
        );
    }
}

/// Energy models derive from each platform's own electrical parameters —
/// no name-keyed fallback.
#[test]
fn energy_models_follow_the_platform_spec() {
    use amulet_iso::core::energy::EnergyModel;
    let e69 = EnergyModel::for_platform(&PlatformSpec::msp430fr5969());
    let e94 = EnergyModel::for_platform(&PlatformSpec::msp430fr5994());
    // The FR5969 datasheet: 16 MHz, ≈100 µA/MHz active, ≈0.7 µA in LPM3,
    // from a 3 V supply.
    assert_eq!(
        e69,
        EnergyModel {
            frequency_hz: 16_000_000.0,
            active_current_a: 1.6e-3,
            lpm_current_a: 0.7e-6,
            supply_voltage_v: 3.0,
        }
    );
    assert!(
        e94.active_current_a > e69.active_current_a,
        "FR5994 draws more current"
    );
    assert_eq!(e69.frequency_hz, e94.frequency_hz);
}

/// Cross-app isolation on the region platform: one app cannot read another
/// app's data, in either direction — the region MPU covers both sides of
/// the attacker.
#[test]
fn region_platform_isolates_apps_in_both_directions() {
    let victim = r#"
        int secret = 4242;
        void main(void) { }
        int get(int x) { return secret; }
    "#;
    let attacker = r#"
        void main(void) { }
        int steal(int addr) { int *p; p = addr; return *p; }
    "#;
    let build = |attacker_first: bool| {
        let mut aft = Aft::for_platform(IsolationMethod::Mpu, &PlatformSpec::msp430fr5994());
        if attacker_first {
            aft = aft
                .add_app(AppSource::new("Attacker", attacker, &["main", "steal"]))
                .add_app(AppSource::new("Victim", victim, &["main", "get"]));
        } else {
            aft = aft
                .add_app(AppSource::new("Victim", victim, &["main", "get"]))
                .add_app(AppSource::new("Attacker", attacker, &["main", "steal"]));
        }
        aft.build().unwrap()
    };
    for attacker_first in [true, false] {
        let out = build(attacker_first);
        let victim_idx = out
            .firmware
            .apps
            .iter()
            .position(|a| a.name == "Victim")
            .unwrap();
        let attacker_idx = 1 - victim_idx;
        let secret_addr = out.firmware.apps[victim_idx].placement.data.start as u16;
        let mut os = AmuletOs::new(out.firmware);
        os.boot();
        let (outcome, _) = os.call_handler(attacker_idx, "steal", secret_addr);
        assert!(
            matches!(outcome, DeliveryOutcome::Faulted(_)),
            "attacker {} victim: steal must fault, got {outcome:?}",
            if attacker_first { "below" } else { "above" }
        );
    }
}

//! Phases 3 and 4 of the AFT: section assignment, final memory layout,
//! bound patching and firmware emission.
//!
//! Phase 3 marks each application's code and data for placement in high FRAM
//! (per the Figure-1 memory map); phase 4 measures the final code size of
//! each app, runs the memory-map planner, patches every placeholder the code
//! generator left behind (function addresses, global addresses, jump targets
//! and — crucially — the per-app bounds `C_i`, `D_i`, `T_i` used by the
//! compiler-inserted checks), and emits the firmware image together with the
//! per-app MPU register values the OS installs at context switches.

use crate::codegen::{AppCode, FunctionCode, Reloc, RelocKind};
use crate::error::{AftResult, CompileError};
use amulet_core::addr::Addr;
use amulet_core::checks::CheckSite;
use amulet_core::layout::{
    AppImageSpec, AppPlacement, MemoryMap, MemoryMapPlanner, OsImageSpec, PlatformSpec,
};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuPlan;
use amulet_mcu::firmware::{AppBinary, Firmware, FirmwareBuilder, OsBinary};
use amulet_mcu::isa::Instr;
use std::collections::BTreeMap;

/// Default stack reservation for applications whose maximum stack depth the
/// AFT cannot bound (recursive apps), in bytes.
pub(crate) const DEFAULT_RECURSIVE_STACK_BYTES: u32 = 768;

/// Safety margin added to every computed stack bound, covering the OS call
/// veneer (handler arguments plus the sentinel return address) and interrupt
/// headroom.
pub(crate) const STACK_MARGIN_BYTES: u32 = 32;

/// One application entering the link phase.
#[derive(Clone, Debug)]
pub struct AppUnit {
    /// The compiled application.
    pub code: AppCode,
    /// Names of the functions the OS may invoke as event handlers.
    pub handlers: Vec<String>,
    /// Developer-provided stack-size override in bytes (required in practice
    /// for recursive applications, where the AFT cannot bound the stack).
    pub stack_override: Option<u32>,
}

/// Per-application link results, for the build report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppLinkInfo {
    /// Application name.
    pub name: String,
    /// Final code size in bytes.
    pub code_bytes: u32,
    /// Final data size in bytes (globals plus array descriptors).
    pub data_bytes: u32,
    /// Reserved stack bytes.
    pub stack_bytes: u32,
    /// Where the app landed.
    pub placement: AppPlacement,
    /// Total compiler-inserted checks by kind.
    pub inserted_checks: BTreeMap<String, u32>,
    /// Every inserted check sequence at its final absolute address, in
    /// ascending address order — the static verifier's redundancy input.
    pub check_sites: Vec<CheckSite>,
}

/// Output of the link phase.
#[derive(Clone, Debug)]
pub struct LinkOutput {
    /// The final firmware image.
    pub firmware: Firmware,
    /// The memory map it was linked against.
    pub memory_map: MemoryMap,
    /// Per-application link information.
    pub apps: Vec<AppLinkInfo>,
}

/// What the link phase reads of one application: an [`AppUnit`] by
/// reference, so [`crate::aft::Aft::build_with`] can link memoised code
/// without copying it.
pub(crate) struct LinkUnit<'a> {
    pub(crate) code: &'a AppCode,
    pub(crate) handlers: &'a [String],
    pub(crate) stack_override: Option<u32>,
}

/// Links compiled applications into a firmware image for the given method.
pub fn link(
    method: IsolationMethod,
    platform: &PlatformSpec,
    os_spec: &OsImageSpec,
    apps: &[AppUnit],
) -> AftResult<LinkOutput> {
    let units: Vec<LinkUnit<'_>> = apps
        .iter()
        .map(|u| LinkUnit {
            code: &u.code,
            handlers: &u.handlers,
            stack_override: u.stack_override,
        })
        .collect();
    link_units(method, platform, os_spec, &units)
}

/// [`link`] over borrowed units.
pub(crate) fn link_units(
    method: IsolationMethod,
    platform: &PlatformSpec,
    os_spec: &OsImageSpec,
    apps: &[LinkUnit<'_>],
) -> AftResult<LinkOutput> {
    // Phase 3/4a: measure each app and plan the memory map.
    let mut image_specs = Vec::with_capacity(apps.len());
    for unit in apps {
        let stack = unit.stack_override.unwrap_or_else(|| {
            unit.code
                .analysis
                .max_stack_bytes
                .map(|b| b + STACK_MARGIN_BYTES)
                .unwrap_or(DEFAULT_RECURSIVE_STACK_BYTES)
        });
        image_specs.push(AppImageSpec::new(
            unit.code.name.clone(),
            unit.code.code_bytes().max(2),
            unit.code.data_bytes.max(2),
            stack.max(STACK_MARGIN_BYTES),
        ));
    }
    let planner = MemoryMapPlanner::new(platform.clone())?;
    let memory_map = planner.plan(os_spec, &image_specs)?;

    // Phase 4b: assign function addresses.
    //
    // `func_addrs[app_name][func_name]` is the absolute entry address.
    let mut func_addrs: BTreeMap<String, BTreeMap<String, Addr>> = BTreeMap::new();
    for (unit, placement) in apps.iter().zip(&memory_map.apps) {
        let mut cursor = placement.code.start;
        let mut table = BTreeMap::new();
        for f in &unit.code.functions {
            table.insert(f.name.clone(), cursor);
            cursor += f.size_bytes();
        }
        func_addrs.insert(unit.code.name.clone(), table);
    }

    // Phase 4c: patch relocations and emit.
    let os_binary = OsBinary {
        mpu_config: MpuPlan::for_os_on(&memory_map)?.config(&platform.mpu),
        initial_sp: memory_map.os_initial_stack_pointer(),
    };
    let mut builder = FirmwareBuilder::new(method, memory_map.clone(), os_binary);
    let mut infos = Vec::new();

    for (unit, placement) in apps.iter().zip(&memory_map.apps) {
        let app_name = &unit.code.name;
        let table = &func_addrs[app_name];
        let mut inserted_checks: BTreeMap<String, u32> = BTreeMap::new();
        let mut check_sites: Vec<CheckSite> = Vec::new();

        for f in &unit.code.functions {
            let base = table[&f.name];
            let patched = patch_function(f, base, placement, table, app_name)?;
            builder.emit(base, &patched);
            builder.define_symbol(format!("{app_name}::{}", f.name), base);
            for (k, v) in &f.inserted_checks {
                *inserted_checks.entry(k.clone()).or_insert(0) += v;
            }
            for site in &f.check_sites {
                check_sites.push(CheckSite {
                    kind: site.kind,
                    addr: base + byte_offset(&f.instrs, site.index),
                    len: site.len,
                });
            }
        }

        // Initial data image (globals + array descriptors) at the start of
        // the app's data region.
        if !unit.code.data_image.is_empty() {
            builder.add_data(placement.data.start, unit.code.data_image.clone());
        }

        // Handlers must exist.
        let mut handlers = BTreeMap::new();
        for h in unit.handlers {
            let Some(&addr) = table.get(h) else {
                return Err(CompileError::Internal {
                    message: format!("app `{app_name}` declares unknown handler `{h}`"),
                });
            };
            handlers.insert(h.clone(), addr);
        }

        let initial_sp = if method.uses_per_app_stacks() {
            placement.initial_stack_pointer()
        } else {
            memory_map.os_initial_stack_pointer()
        };

        builder.add_app(AppBinary {
            name: app_name.clone(),
            index: placement.index,
            placement: placement.clone(),
            handlers,
            mpu_config: MpuPlan::for_app_on(&memory_map, placement.index)?.config(&platform.mpu),
            initial_sp,
            max_stack_estimate: unit.code.analysis.max_stack_bytes,
        });

        infos.push(AppLinkInfo {
            name: app_name.clone(),
            code_bytes: unit.code.code_bytes(),
            data_bytes: unit.code.data_bytes,
            stack_bytes: placement.stack.len(),
            placement: placement.clone(),
            inserted_checks,
            check_sites,
        });
    }

    let firmware = builder.build().map_err(|e| CompileError::Firmware {
        message: e.to_string(),
    })?;
    Ok(LinkOutput {
        firmware,
        memory_map,
        apps: infos,
    })
}

/// Applies every relocation of one function, producing the final instruction
/// sequence to place at `base`.
fn patch_function(
    f: &FunctionCode,
    base: Addr,
    placement: &AppPlacement,
    func_table: &BTreeMap<String, Addr>,
    app_name: &str,
) -> AftResult<Vec<Instr>> {
    let mut instrs = f.instrs.clone();
    for Reloc { index, kind } in &f.relocs {
        let value: Addr =
            match kind {
                RelocKind::FuncAddr(name) => {
                    *func_table.get(name).ok_or_else(|| CompileError::Internal {
                        message: format!("[{app_name}] reference to unknown function `{name}`"),
                    })?
                }
                RelocKind::GlobalAddr { add, .. } => placement.data.start + add,
                RelocKind::Label(l) => {
                    let target_index = f.labels.get(*l).copied().flatten().ok_or_else(|| {
                        CompileError::Internal {
                            message: format!("[{app_name}::{}] unbound label {l}", f.name),
                        }
                    })?;
                    base + byte_offset(&f.instrs, target_index)
                }
                RelocKind::BoundDataLower => placement.data_lower_bound(),
                RelocKind::BoundDataUpper => placement.upper_bound(),
                RelocKind::BoundCodeLower => placement.code_lower_bound(),
                RelocKind::BoundCodeUpper => placement.data_lower_bound(),
            };
        patch_instr(&mut instrs[*index], value as u16).map_err(|msg| CompileError::Internal {
            message: format!("[{app_name}::{}] {msg}", f.name),
        })?;
    }
    Ok(instrs)
}

fn byte_offset(instrs: &[Instr], index: usize) -> u32 {
    instrs[..index].iter().map(|i| i.size_bytes()).sum()
}

/// Writes a resolved value into the placeholder field of an instruction.
fn patch_instr(instr: &mut Instr, value: u16) -> Result<(), String> {
    match instr {
        Instr::MovImm { imm, .. } | Instr::AluImm { imm, .. } | Instr::CmpImm { imm, .. } => {
            *imm = value
        }
        Instr::LoadAbs { addr, .. } | Instr::StoreAbs { addr, .. } => *addr = value,
        Instr::Call { target } | Instr::Jmp { target } | Instr::Jcc { target, .. } => {
            *target = value
        }
        other => return Err(format!("cannot relocate instruction `{other}`")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiSpec;
    use crate::codegen::generate;
    use crate::parser::parse;
    use crate::sema::analyze;

    fn unit(name: &str, src: &str, handlers: &[&str], method: IsolationMethod) -> AppUnit {
        let program = parse(src).unwrap();
        let api = ApiSpec::amulet();
        let analysis = analyze(name, &program, &api, method).unwrap();
        let policy = amulet_core::checks::CheckPolicy::for_method_on(
            method,
            &PlatformSpec::msp430fr5969().mpu,
        );
        let code = generate(name, &program, &analysis, &api, method, policy).unwrap();
        AppUnit {
            code,
            handlers: handlers.iter().map(|s| s.to_string()).collect(),
            stack_override: None,
        }
    }

    const APP_A: &str = r#"
        int counter = 5;
        int bump(int by) { counter = counter + by; return counter; }
        void main(void) { bump(2); amulet_log_value(counter); }
    "#;

    const APP_B: &str = r#"
        int table[4] = {10, 20, 30, 40};
        void main(void) {
            int sum = 0;
            for (int i = 0; i < 4; i++) { sum += table[i]; }
            amulet_log_value(sum);
        }
    "#;

    fn link_two(method: IsolationMethod) -> LinkOutput {
        let apps = vec![
            unit("AppA", APP_A, &["main"], method),
            unit("AppB", APP_B, &["main"], method),
        ];
        link(
            method,
            &PlatformSpec::msp430fr5969(),
            &OsImageSpec::default(),
            &apps,
        )
        .unwrap()
    }

    #[test]
    fn links_two_apps_into_a_valid_image() {
        for method in IsolationMethod::ALL {
            let out = link_two(method);
            assert!(out.firmware.validate().is_ok());
            assert_eq!(out.firmware.apps.len(), 2);
            assert_eq!(out.memory_map.apps.len(), 2);
            // Every handler resolves to a symbol inside its app's code
            // region.
            for app in &out.firmware.apps {
                for &addr in app.handlers.values() {
                    assert!(app.placement.code.contains(addr));
                }
            }
        }
    }

    #[test]
    fn bounds_are_patched_to_the_apps_own_placement() {
        let out = link_two(IsolationMethod::SoftwareOnly);
        let fw = &out.firmware;
        for app in &fw.apps {
            // Find check instructions inside this app's code region and make
            // sure the immediates equal the app's bounds.
            let lower = app.placement.data_lower_bound() as u16;
            let upper = app.placement.upper_bound() as u16;
            let mut saw_lower = false;
            let mut saw_upper = false;
            for (_, instr) in fw
                .code
                .range(app.placement.code.start..app.placement.code.end)
            {
                if let Instr::CmpImm { imm, .. } = instr {
                    if imm == lower {
                        saw_lower = true;
                    }
                    if imm == upper {
                        saw_upper = true;
                    }
                }
            }
            // AppA dereferences no pointers, so only AppB-style array checks
            // appear under SoftwareOnly when arrays are indexed; at minimum
            // the return-address checks reference the code bounds, so assert
            // on the app with pointer-free code loosely.
            if app.name == "AppB" {
                assert!(saw_lower || saw_upper, "AppB has patched bound immediates");
            }
        }
    }

    #[test]
    fn check_sites_land_on_compare_instructions_with_patched_bounds() {
        let out = link_two(IsolationMethod::SoftwareOnly);
        for (info, app) in out.apps.iter().zip(&out.firmware.apps) {
            assert_eq!(
                info.check_sites.len() as u32,
                info.inserted_checks.values().sum::<u32>(),
                "{}: one site per counted check",
                info.name
            );
            let mut prev = 0;
            for site in &info.check_sites {
                assert!(site.addr >= prev, "sites in ascending address order");
                prev = site.addr;
                assert!(app.placement.code.contains(site.addr));
                // An elidable site's first instruction is the CmpImm whose
                // immediate the linker patched to the app's own bound.
                if site.kind.is_elidable() {
                    let (_, instr) = out
                        .firmware
                        .code
                        .range(site.addr..site.addr + 2)
                        .next()
                        .expect("site address holds an instruction");
                    let Instr::CmpImm { imm, .. } = instr else {
                        panic!("{}: elidable site starts with {instr}", info.name);
                    };
                    let expected = match site.kind {
                        amulet_core::checks::CheckKind::DataPointerLower => {
                            app.placement.data_lower_bound()
                        }
                        amulet_core::checks::CheckKind::DataPointerUpper => {
                            app.placement.upper_bound()
                        }
                        amulet_core::checks::CheckKind::FunctionPointerLower => {
                            app.placement.code_lower_bound()
                        }
                        amulet_core::checks::CheckKind::FunctionPointerUpper => {
                            app.placement.data_lower_bound()
                        }
                        _ => unreachable!(),
                    };
                    assert_eq!(u32::from(imm), expected, "{}: {}", info.name, site);
                }
            }
        }
    }

    #[test]
    fn per_app_stacks_only_under_pointer_methods() {
        let mpu = link_two(IsolationMethod::Mpu);
        for app in &mpu.firmware.apps {
            assert_eq!(app.initial_sp, app.placement.initial_stack_pointer());
        }
        let fl = link_two(IsolationMethod::FeatureLimited);
        for app in &fl.firmware.apps {
            assert_eq!(app.initial_sp, fl.memory_map.os_initial_stack_pointer());
        }
    }

    #[test]
    fn data_initialisers_are_emitted_at_the_data_region() {
        let out = link_two(IsolationMethod::Mpu);
        let app_b = out.firmware.app("AppB").unwrap();
        let seg = out
            .firmware
            .data
            .iter()
            .find(|s| s.addr == app_b.placement.data.start)
            .expect("AppB data segment present");
        assert_eq!(&seg.bytes[0..8], &[10, 0, 20, 0, 30, 0, 40, 0]);
        assert_eq!(&seg.bytes[8..10], &[4, 0], "array length descriptor");
    }

    #[test]
    fn unknown_handler_is_reported() {
        let mut apps = vec![unit("AppA", APP_A, &["main"], IsolationMethod::Mpu)];
        apps[0].handlers.push("does_not_exist".into());
        let err = link(
            IsolationMethod::Mpu,
            &PlatformSpec::msp430fr5969(),
            &OsImageSpec::default(),
            &apps,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Internal { .. }));
    }

    #[test]
    fn recursive_apps_get_the_default_stack_unless_overridden() {
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
            void main(void) { amulet_log_value(fib(8)); }
        "#;
        let apps = vec![unit("Rec", src, &["main"], IsolationMethod::Mpu)];
        let out = link(
            IsolationMethod::Mpu,
            &PlatformSpec::msp430fr5969(),
            &OsImageSpec::default(),
            &apps,
        )
        .unwrap();
        assert!(out.apps[0].stack_bytes >= DEFAULT_RECURSIVE_STACK_BYTES);

        let mut apps = vec![unit("Rec", src, &["main"], IsolationMethod::Mpu)];
        apps[0].stack_override = Some(1024);
        let out = link(
            IsolationMethod::Mpu,
            &PlatformSpec::msp430fr5969(),
            &OsImageSpec::default(),
            &apps,
        )
        .unwrap();
        assert!(out.apps[0].stack_bytes >= 1024);
    }

    #[test]
    fn mpu_register_values_bracket_each_app() {
        let out = link_two(IsolationMethod::Mpu);
        for app in &out.firmware.apps {
            let amulet_core::mpu_plan::MpuConfig::Segmented(regs) = &app.mpu_config else {
                panic!("FR5969 firmware must carry segmented register values");
            };
            assert_eq!(
                (regs.mpusegb1 as u32) << 4,
                app.placement.data_lower_bound()
            );
            assert_eq!((regs.mpusegb2 as u32) << 4, app.placement.upper_bound());
        }
    }
}

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
//!
//! Everything that depends on one application alone is done once, when its
//! compiled code becomes a `LinkableApp`: the functions are resolved back
//! to back into one [`ResolvedCode`] run, every relocation's target becomes
//! an offset into the app's code or data region (or one of its bounds), and
//! the symbol names, merged check counts and check-site offsets are made.
//! Linking an image then plans the memory map, copies each app's run to its
//! code region and re-resolves only the instructions a relocation patches.

use crate::codegen::{AppCode, RelocKind};
use crate::error::{AftResult, CompileError};
use amulet_core::addr::Addr;
use amulet_core::checks::CheckSite;
use amulet_core::layout::{
    AppImageSpec, AppPlacement, MemoryMapPlanner, OsImageSpec, PlatformSpec,
};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuPlan;
use amulet_mcu::code::ResolvedCode;
use amulet_mcu::firmware::{AppBinary, Firmware, FirmwareBuilder, OsBinary, SymbolTable};
use amulet_mcu::isa::Instr;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// Per-application link information.
    pub apps: Vec<AppLinkInfo>,
}

/// One application's compiled code, made ready to link into any image
/// (see the module docs).  [`crate::aft::UnitMemo`] keeps one per
/// compiled unit.
#[derive(Debug)]
pub(crate) struct LinkableApp {
    /// Application name.
    pub(crate) name: Arc<str>,
    /// Every function's instructions, back to back from offset 0.
    code: ResolvedCode,
    /// The functions in source order.
    functions: Vec<LinkedFunction>,
    /// The instructions to patch once the app is placed.
    patches: Vec<Patch>,
    /// Byte size of the app's global data area.
    pub(crate) data_bytes: u32,
    /// Initial contents of the data area.
    data_image: Vec<u8>,
    /// The AFT's maximum-stack estimate, if the app is not recursive.
    pub(crate) max_stack_bytes: Option<u32>,
    /// The analysis counts the build report carries.
    pub(crate) facts: UnitFacts,
    /// Compiler-inserted checks by kind, summed over the functions.
    inserted_checks: BTreeMap<String, u32>,
    /// Every inserted check sequence, at its offset from the app's code
    /// start, in ascending order.
    check_sites: Vec<CheckSite>,
}

/// What the build report reads of a unit's phase-1 analysis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UnitFacts {
    pub(crate) total_pointer_derefs: u32,
    pub(crate) total_array_accesses: u32,
    pub(crate) total_api_calls: u32,
    pub(crate) uses_pointers: bool,
    pub(crate) uses_recursion: bool,
}

/// One function of a [`LinkableApp`].
#[derive(Debug)]
struct LinkedFunction {
    /// Entry offset from the app's code start.
    offset: u32,
    /// Function name: its handler-table key.
    name: Arc<str>,
    /// `app::function`: its symbol-table key.
    symbol: Arc<str>,
}

/// A relocated instruction of a [`LinkableApp`].
#[derive(Debug)]
struct Patch {
    /// The instruction's offset from the app's code start.
    offset: u32,
    /// The instruction with its placeholder operand.
    instr: Instr,
    /// What the placeholder becomes.
    target: Target,
}

/// A relocation target, relative to the app's placement.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// An offset from the app's code start (a function or a label).
    Code(u32),
    /// An offset from the app's data start (a global).
    Data(u32),
    /// The data/stack lower bound `D_i` (also the code upper bound).
    DataLower,
    /// The upper bound `T_i`.
    DataUpper,
    /// The code lower bound `C_i`.
    CodeLower,
}

impl Target {
    /// The absolute value the target takes in `placement`.
    fn value(self, placement: &AppPlacement) -> Addr {
        match self {
            Target::Code(offset) => placement.code.start + offset,
            Target::Data(offset) => placement.data.start + offset,
            Target::DataLower => placement.data_lower_bound(),
            Target::DataUpper => placement.upper_bound(),
            Target::CodeLower => placement.code_lower_bound(),
        }
    }
}

impl LinkableApp {
    /// Resolves `code` once for every image it will be linked into,
    /// resolving each relocation's target and checking that its
    /// instruction can take the value.
    pub(crate) fn prepare(code: &AppCode) -> AftResult<LinkableApp> {
        let app_name = &code.name;
        let name: Arc<str> = Arc::from(app_name.as_str());
        let mut functions = Vec::with_capacity(code.functions.len());
        let mut entry = 0;
        for f in &code.functions {
            functions.push(LinkedFunction {
                offset: entry,
                name: Arc::from(f.name.as_str()),
                symbol: Arc::from(format!("{app_name}::{}", f.name)),
            });
            entry += f.instrs.iter().map(Instr::size_bytes).sum::<u32>();
        }
        let mut patches = Vec::new();
        let mut inserted_checks: BTreeMap<String, u32> = BTreeMap::new();
        let mut check_sites = Vec::new();
        // Each instruction's offset from the app's code start, and the
        // function's end after the last.
        let mut offsets = Vec::new();
        for (f, linked) in code.functions.iter().zip(&functions) {
            offsets.clear();
            let mut at = linked.offset;
            for i in &f.instrs {
                offsets.push(at);
                at += i.size_bytes();
            }
            offsets.push(at);
            for reloc in &f.relocs {
                let target = match &reloc.kind {
                    RelocKind::FuncAddr(callee) => Target::Code(
                        functions
                            .iter()
                            .find(|f| *f.name == **callee)
                            .ok_or_else(|| CompileError::Internal {
                                message: format!(
                                    "[{app_name}] reference to unknown function `{callee}`"
                                ),
                            })?
                            .offset,
                    ),
                    RelocKind::GlobalAddr { add, .. } => Target::Data(*add),
                    RelocKind::Label(l) => Target::Code(
                        *f.labels
                            .get(*l)
                            .copied()
                            .flatten()
                            .and_then(|index| offsets.get(index))
                            .ok_or_else(|| CompileError::Internal {
                                message: format!("[{app_name}::{}] unbound label {l}", f.name),
                            })?,
                    ),
                    RelocKind::BoundDataLower | RelocKind::BoundCodeUpper => Target::DataLower,
                    RelocKind::BoundDataUpper => Target::DataUpper,
                    RelocKind::BoundCodeLower => Target::CodeLower,
                };
                // Refuse an instruction with no field to patch here, once,
                // rather than in every image.
                let instr = f.instrs[reloc.index];
                let mut probe = instr;
                patch_instr(&mut probe, 0).map_err(|msg| CompileError::Internal {
                    message: format!("[{app_name}::{}] {msg}", f.name),
                })?;
                patches.push(Patch {
                    offset: offsets[reloc.index],
                    instr,
                    target,
                });
            }
            for (kind, n) in &f.inserted_checks {
                *inserted_checks.entry(kind.clone()).or_insert(0) += n;
            }
            check_sites.extend(f.check_sites.iter().map(|site| CheckSite {
                kind: site.kind,
                addr: offsets[site.index],
                len: site.len,
            }));
        }

        Ok(LinkableApp {
            name,
            code: ResolvedCode::resolve(
                code.functions.iter().flat_map(|f| f.instrs.iter().copied()),
            ),
            functions,
            patches,
            data_bytes: code.data_bytes,
            data_image: code.data_image.clone(),
            max_stack_bytes: code.analysis.max_stack_bytes,
            facts: UnitFacts {
                total_pointer_derefs: code.analysis.total_pointer_derefs,
                total_array_accesses: code.analysis.total_array_accesses,
                total_api_calls: code.analysis.total_api_calls,
                uses_pointers: code.analysis.uses_pointers,
                uses_recursion: code.analysis.uses_recursion,
            },
            inserted_checks,
            check_sites,
        })
    }

    /// Final code size in bytes.
    pub(crate) fn code_bytes(&self) -> u32 {
        self.code.size_bytes()
    }

    /// The app's link report once it is placed at `placement`.
    pub(crate) fn link_info(&self, placement: &AppPlacement) -> AppLinkInfo {
        let base = placement.code.start;
        AppLinkInfo {
            name: self.name.to_string(),
            code_bytes: self.code_bytes(),
            data_bytes: self.data_bytes,
            stack_bytes: placement.stack.len(),
            placement: placement.clone(),
            inserted_checks: self.inserted_checks.clone(),
            check_sites: self
                .check_sites
                .iter()
                .map(|site| CheckSite {
                    addr: base + site.addr,
                    ..*site
                })
                .collect(),
        }
    }

    /// The handler table for `handlers`, each name mapped to its
    /// function's entry in `placement`.
    fn handler_table(&self, handlers: &[&str], placement: &AppPlacement) -> AftResult<SymbolTable> {
        let mut table = SymbolTable::new();
        for &h in handlers {
            let f = self
                .functions
                .iter()
                .find(|f| &*f.name == h)
                .ok_or_else(|| CompileError::Internal {
                    message: format!("app `{}` declares unknown handler `{h}`", self.name),
                })?;
            table.insert(Arc::clone(&f.name), placement.code.start + f.offset);
        }
        Ok(table)
    }
}

/// One application of an image being linked: its prepared code, the
/// handlers the OS may call and its stack override.
pub(crate) struct LinkApp<'a> {
    pub(crate) unit: Arc<LinkableApp>,
    pub(crate) handlers: &'a [&'a str],
    pub(crate) stack_override: Option<u32>,
}

/// Links compiled applications into a firmware image for the given method.
pub fn link(
    method: IsolationMethod,
    platform: &PlatformSpec,
    os_spec: &OsImageSpec,
    apps: &[AppUnit],
) -> AftResult<LinkOutput> {
    let handlers: Vec<Vec<&str>> = apps
        .iter()
        .map(|app| app.handlers.iter().map(String::as_str).collect())
        .collect();
    let linked = apps
        .iter()
        .zip(&handlers)
        .map(|(app, handlers)| {
            Ok(LinkApp {
                unit: Arc::new(LinkableApp::prepare(&app.code)?),
                handlers,
                stack_override: app.stack_override,
            })
        })
        .collect::<AftResult<Vec<_>>>()?;
    let firmware = link_image(method, platform, os_spec, &linked)?;
    let apps = linked
        .iter()
        .zip(&firmware.memory_map.apps)
        .map(|(app, placement)| app.unit.link_info(placement))
        .collect();
    Ok(LinkOutput { firmware, apps })
}

/// Phases 3 and 4 for one image: plans the memory map, places each app's
/// resolved code at its code region, patches its relocated instructions
/// and fills the image's tables.
pub(crate) fn link_image(
    method: IsolationMethod,
    platform: &PlatformSpec,
    os_spec: &OsImageSpec,
    apps: &[LinkApp<'_>],
) -> AftResult<Firmware> {
    // Phase 3/4a: measure each app and plan the memory map.
    let image_specs: Vec<AppImageSpec> = apps
        .iter()
        .map(|app| {
            let stack = app.stack_override.unwrap_or_else(|| {
                app.unit
                    .max_stack_bytes
                    .map(|b| b + STACK_MARGIN_BYTES)
                    .unwrap_or(DEFAULT_RECURSIVE_STACK_BYTES)
            });
            AppImageSpec::new(
                Arc::clone(&app.unit.name),
                app.unit.code_bytes().max(2),
                app.unit.data_bytes.max(2),
                stack.max(STACK_MARGIN_BYTES),
            )
        })
        .collect();
    let memory_map = MemoryMapPlanner::new(platform.clone())?.plan(os_spec, &image_specs)?;

    // Phase 4b: place, patch and emit.
    let os_binary = OsBinary {
        mpu_config: MpuPlan::for_os_on(&memory_map)?.config(&platform.mpu),
        initial_sp: memory_map.os_initial_stack_pointer(),
    };
    // The image's code spans from its lowest placed instruction to its
    // highest.
    let (lo, hi) = apps
        .iter()
        .zip(&memory_map.apps)
        .filter(|(app, _)| !app.unit.code.is_empty())
        .fold((usize::MAX, 0), |(lo, hi), (app, placement)| {
            let first = (placement.code.start >> 1) as usize;
            (lo.min(first), hi.max(first + app.unit.code.span_words()))
        });
    let mut builder = FirmwareBuilder::new(method, memory_map, os_binary);
    builder.reserve_code(hi.saturating_sub(lo));

    for (index, app) in apps.iter().enumerate() {
        let unit = &*app.unit;
        let map = builder.memory_map();
        let placement = map.apps[index].clone();
        let mpu_config = MpuPlan::for_app_on(map, index)?.config(&platform.mpu);
        let initial_sp = if method.uses_per_app_stacks() {
            placement.initial_stack_pointer()
        } else {
            map.os_initial_stack_pointer()
        };
        let base = placement.code.start;

        builder.place(base, &unit.code);
        for patch in &unit.patches {
            let mut instr = patch.instr;
            patch_instr(&mut instr, patch.target.value(&placement) as u16)
                .expect("`LinkableApp::prepare` refused every instruction with no field to patch");
            builder.patch(base + patch.offset, instr);
        }
        for f in &unit.functions {
            builder.define_symbol(Arc::clone(&f.symbol), base + f.offset);
        }

        // Initial data image (globals + array descriptors) at the start of
        // the app's data region.
        if !unit.data_image.is_empty() {
            builder.add_data(placement.data.start, unit.data_image.clone());
        }

        // Handlers must exist.
        let handlers = unit.handler_table(app.handlers, &placement)?;
        builder.add_app(AppBinary {
            name: placement.name.clone(),
            index: placement.index,
            handlers,
            mpu_config,
            initial_sp,
            max_stack_estimate: unit.max_stack_bytes,
            placement,
        });
    }

    builder.build().map_err(|e| CompileError::Firmware {
        message: e.to_string(),
    })
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
            assert_eq!(out.firmware.memory_map.apps.len(), 2);
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
            if &*app.name == "AppB" {
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
            assert_eq!(
                app.initial_sp,
                fl.firmware.memory_map.os_initial_stack_pointer()
            );
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

//! Link identity: the AFT links an image by copying each compiled unit's
//! code, resolved into execute slots once, and resolving again only the
//! instructions a relocation patches.  This oracle links the same apps
//! the plain way — each function's instructions copied, every relocation
//! patched into the copy, and each instruction inserted into an
//! [`InstrStore`] on its own — and demands the same [`Firmware`] and the
//! same v1 wire bytes, for every catalogue app under every method on
//! every built-in platform and for seeded mixes of one to three apps.

use amulet_aft::aft::{build_image, Aft, UnitMemo};
use amulet_aft::codegen::{generate, AppCode, RelocKind};
use amulet_aft::parser::parse;
use amulet_aft::sema::analyze;
use amulet_aft::ApiSpec;
use amulet_apps::{adversarial_catalog, catalog, CatalogApp};
use amulet_core::checks::CheckPolicy;
use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec, PlatformSpec};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuPlan;
use amulet_core::platform::builtin_platforms;
use amulet_mcu::code::InstrStore;
use amulet_mcu::firmware::{AppBinary, DataSegment, Firmware, OsBinary, SymbolTable};
use amulet_mcu::isa::Instr;
use amulet_mcu::serial::encode_firmware;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Phases 1–2 of `app`, or `None` when `method` rejects it.
fn compile(app: &CatalogApp, method: IsolationMethod, platform: &PlatformSpec) -> Option<AppCode> {
    let api = ApiSpec::amulet();
    let program = parse(app.source).ok()?;
    let analysis = analyze(app.name, &program, &api, method).ok()?;
    if method == IsolationMethod::FeatureLimited && analysis.uses_recursion {
        return None;
    }
    let policy = CheckPolicy::for_method_on(method, &platform.mpu);
    generate(app.name, &program, &analysis, &api, method, policy).ok()
}

/// Encoded size of `instrs` in bytes.
fn size(instrs: &[Instr]) -> u32 {
    instrs.iter().map(Instr::size_bytes).sum()
}

/// The reference link of `apps` (each compiled for `method`): the image
/// built field by field, one [`InstrStore::insert`] per instruction.
fn reference_link(
    method: IsolationMethod,
    platform: &PlatformSpec,
    apps: &[(&CatalogApp, AppCode)],
) -> Firmware {
    let specs: Vec<AppImageSpec> = apps
        .iter()
        .map(|(app, code)| {
            let code_bytes: u32 = code.functions.iter().map(|f| size(&f.instrs)).sum();
            let stack = code.analysis.max_stack_bytes.map_or(768, |b| b + 32);
            AppImageSpec::new(
                app.name,
                code_bytes.max(2),
                code.data_bytes.max(2),
                stack.max(32),
            )
        })
        .collect();
    let map = MemoryMapPlanner::new(platform.clone())
        .unwrap()
        .plan(&OsImageSpec::default(), &specs)
        .unwrap();

    let mut store = InstrStore::new();
    let mut symbols = SymbolTable::new();
    let mut data = Vec::new();
    let mut binaries = Vec::new();
    for ((app, code), placement) in apps.iter().zip(&map.apps) {
        let mut entries = BTreeMap::new();
        let mut at = placement.code.start;
        for f in &code.functions {
            entries.insert(f.name.as_str(), at);
            at += size(&f.instrs);
        }
        for f in &code.functions {
            let base = entries[f.name.as_str()];
            let mut instrs = f.instrs.clone();
            for reloc in &f.relocs {
                let value = match &reloc.kind {
                    RelocKind::FuncAddr(name) => entries[name.as_str()],
                    RelocKind::GlobalAddr { add, .. } => placement.data.start + add,
                    RelocKind::Label(l) => base + size(&f.instrs[..f.labels[*l].unwrap()]),
                    RelocKind::BoundDataLower | RelocKind::BoundCodeUpper => {
                        placement.data_lower_bound()
                    }
                    RelocKind::BoundDataUpper => placement.upper_bound(),
                    RelocKind::BoundCodeLower => placement.code_lower_bound(),
                } as u16;
                match &mut instrs[reloc.index] {
                    Instr::MovImm { imm, .. }
                    | Instr::AluImm { imm, .. }
                    | Instr::CmpImm { imm, .. } => *imm = value,
                    Instr::LoadAbs { addr, .. } | Instr::StoreAbs { addr, .. } => *addr = value,
                    Instr::Call { target } | Instr::Jmp { target } | Instr::Jcc { target, .. } => {
                        *target = value
                    }
                    other => panic!("{}: cannot relocate `{other}`", app.name),
                }
            }
            let mut at = base;
            for instr in instrs {
                store.insert(at, instr);
                at += instr.size_bytes();
            }
            symbols.insert(format!("{}::{}", app.name, f.name).into(), base);
        }
        if !code.data_image.is_empty() {
            data.push(DataSegment {
                addr: placement.data.start,
                bytes: code.data_image.clone(),
            });
        }
        binaries.push(AppBinary {
            name: placement.name.clone(),
            index: placement.index,
            placement: placement.clone(),
            handlers: app
                .handlers
                .iter()
                .map(|h| (Arc::from(*h), entries[h]))
                .collect(),
            mpu_config: MpuPlan::for_app_on(&map, placement.index)
                .unwrap()
                .config(&platform.mpu),
            initial_sp: if method.uses_per_app_stacks() {
                placement.initial_stack_pointer()
            } else {
                map.os_initial_stack_pointer()
            },
            max_stack_estimate: code.analysis.max_stack_bytes,
        });
    }
    Firmware {
        method,
        os: OsBinary {
            mpu_config: MpuPlan::for_os_on(&map).unwrap().config(&platform.mpu),
            initial_sp: map.os_initial_stack_pointer(),
        },
        memory_map: map,
        code: Arc::new(store),
        data,
        symbols,
        apps: binaries,
    }
}

/// Links `apps` for `method` on `platform` through [`Aft::build`] and
/// through [`build_image`] over the shared `memo`, and checks both
/// against the reference.  Returns whether the method accepted the apps.
fn assert_link_identity(
    method: IsolationMethod,
    platform: &PlatformSpec,
    apps: &[&CatalogApp],
    memo: &UnitMemo,
) -> bool {
    let what = || {
        let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
        format!("{} / {method} / {}", platform.name, names.join("+"))
    };
    let mut aft = Aft::for_platform(method, platform);
    for app in apps {
        aft = aft.add_app(app.app_source());
    }
    let built = aft.build();
    let image = build_image(method, platform, apps.iter().map(|a| a.app_ref()), memo);
    let compiled: Option<Vec<(&CatalogApp, AppCode)>> = apps
        .iter()
        .map(|&app| Some((app, compile(app, method, platform)?)))
        .collect();
    let Some(compiled) = compiled else {
        assert!(
            built.is_err() && image.is_err(),
            "{}: only the AFT built it",
            what()
        );
        return false;
    };
    let reference = reference_link(method, platform, &compiled);
    let bytes = encode_firmware("link-identity", &reference);
    for (path, firmware) in [
        ("Aft::build", built.map(|out| out.firmware)),
        ("build_image", image),
    ] {
        let firmware = firmware.unwrap_or_else(|e| panic!("{}: {path} failed: {e}", what()));
        assert!(firmware == reference, "{}: {path} image differs", what());
        assert_eq!(
            encode_firmware("link-identity", &firmware),
            bytes,
            "{}: {path} wire bytes differ",
            what()
        );
    }
    true
}

/// Every app the fleet installs: the catalogue, then the adversarial apps.
fn every_app() -> Vec<CatalogApp> {
    catalog().into_iter().chain(adversarial_catalog()).collect()
}

#[test]
fn every_app_links_like_the_reference_under_every_method_on_every_platform() {
    let memo = UnitMemo::default();
    let mut linked = 0;
    for app in &every_app() {
        for platform in builtin_platforms() {
            for method in IsolationMethod::ALL {
                linked += usize::from(assert_link_identity(method, &platform, &[app], &memo));
            }
        }
    }
    // Feature Limited rejects the pointer apps; everything else links.
    assert!(
        linked >= 9 * 5 * 3,
        "only {linked} single-app images linked"
    );
}

#[test]
fn seeded_mixes_link_like_the_reference() {
    let apps = every_app();
    let platforms = builtin_platforms();
    let memo = UnitMemo::default();
    // SplitMix64 over a fixed seed.
    let mut state = 0x11_4C1Du64;
    let mut next = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut linked = 0;
    for _ in 0..300 {
        let platform = &platforms[next(platforms.len())];
        let method = IsolationMethod::ALL[next(IsolationMethod::ALL.len())];
        // One to three distinct apps, in drawn order.
        let mut mix: Vec<&CatalogApp> = Vec::new();
        for _ in 0..1 + next(3) {
            let app = &apps[next(apps.len())];
            if mix.iter().all(|a| a.name != app.name) {
                mix.push(app);
            }
        }
        linked += usize::from(assert_link_identity(method, platform, &mix, &memo));
    }
    assert!(linked > 150, "only {linked} of 300 mixes linked");
}

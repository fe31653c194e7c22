//! The Amulet Firmware Toolchain driver.
//!
//! [`Aft`] ties the four analysis/transformation phases together, exactly as
//! §3 of the paper describes them:
//!
//! 1. **Analysis** — reject unsupported language features, enumerate memory
//!    accesses and OS API calls per app, build the call graph and estimate
//!    the maximum stack depth ([`crate::sema`]).
//! 2. **Instrumentation** — generate code with the isolation checks required
//!    by the selected method, using placeholder bound values
//!    ([`crate::codegen`]).
//! 3. **Sections** — mark each app's code and data for placement in high
//!    FRAM and prepare the per-app stack arrangement ([`crate::link`]).
//! 4. **Layout & patch** — compute the final memory map, patch the bound
//!    placeholders with each app's real `C_i`/`D_i`/`T_i`, and produce the
//!    firmware image plus the MPU register values the OS will install at
//!    every context switch ([`crate::link`]).
//!
//! Phases 1–2 (`compile`) depend only on one app, the API, the method
//! and the check policy; phases 3–4 are the only per-image work.
//! [`Aft::build_with`] takes a [`UnitMemo`] so a caller that builds many
//! images from few distinct apps compiles each app once, and resolves its
//! code into execute slots once (see [`crate::link`]).  [`build_image`]
//! builds the image alone from borrowed [`AppRef`]s, for a caller that
//! needs no build report.

use crate::api::ApiSpec;
use crate::codegen::{generate, AppCode};
use crate::error::{AftResult, CompileError};
use crate::link::{link_image, LinkApp, LinkableApp};
use crate::parser::parse;
use crate::sema::analyze;
use amulet_core::checks::CheckPolicy;
use amulet_core::layout::{OsImageSpec, PlatformSpec};
use amulet_core::method::IsolationMethod;
use amulet_mcu::firmware::Firmware;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One application's source code, as submitted to the toolchain.
#[derive(Clone, Debug)]
pub struct AppSource {
    /// Application name (also the firmware symbol prefix).
    pub name: String,
    /// AmuletC source text.
    pub source: String,
    /// Names of functions the OS may call as event handlers.
    pub handlers: Vec<String>,
    /// Optional developer-provided stack size in bytes (needed for
    /// recursive applications).
    pub stack_override: Option<u32>,
}

impl AppSource {
    /// Creates an application from a name, source text, and handler list.
    pub fn new(name: impl Into<String>, source: impl Into<String>, handlers: &[&str]) -> Self {
        AppSource {
            name: name.into(),
            source: source.into(),
            handlers: handlers.iter().map(|s| s.to_string()).collect(),
            stack_override: None,
        }
    }

    /// Sets a developer-provided stack size.
    pub fn with_stack(mut self, bytes: u32) -> Self {
        self.stack_override = Some(bytes);
        self
    }
}

/// One application borrowed for a build: what an [`AppSource`] holds, by
/// reference, so a caller that keeps its apps' text builds images from it
/// without copying it (see [`build_image`]).
#[derive(Clone, Copy, Debug)]
pub struct AppRef<'a> {
    /// Application name (also the firmware symbol prefix).
    pub name: &'a str,
    /// AmuletC source text.
    pub source: &'a str,
    /// Names of functions the OS may call as event handlers.
    pub handlers: &'a [&'a str],
    /// Optional developer-provided stack size in bytes.
    pub stack_override: Option<u32>,
}

/// Per-application build report entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppReport {
    /// Application name.
    pub name: String,
    /// Final code size in bytes.
    pub code_bytes: u32,
    /// Final data size in bytes.
    pub data_bytes: u32,
    /// Reserved stack in bytes.
    pub stack_bytes: u32,
    /// Static count of pointer dereferences in the source.
    pub pointer_derefs: u32,
    /// Static count of array accesses in the source.
    pub array_accesses: u32,
    /// Static count of OS API call sites.
    pub api_calls: u32,
    /// Whether the app uses pointers.
    pub uses_pointers: bool,
    /// Whether the app is recursive.
    pub uses_recursion: bool,
    /// The AFT's maximum-stack estimate, if computable.
    pub max_stack_estimate: Option<u32>,
    /// Compiler-inserted checks by kind.
    pub inserted_checks: BTreeMap<String, u32>,
    /// Every inserted check sequence at its final absolute address (the
    /// static verifier's redundancy input).
    pub check_sites: Vec<amulet_core::checks::CheckSite>,
}

/// The whole build's report (ARP-view consumes this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildReport {
    /// The isolation method the firmware was built for.
    pub method: IsolationMethod,
    /// One entry per application.
    pub apps: Vec<AppReport>,
}

impl fmt::Display for BuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AFT build report ({} method)", self.method)?;
        writeln!(
            f,
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "app", "code B", "data B", "stack B", "ptr-drf", "arr-acc", "api"
        )?;
        for a in &self.apps {
            writeln!(
                f,
                "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                a.name,
                a.code_bytes,
                a.data_bytes,
                a.stack_bytes,
                a.pointer_derefs,
                a.array_accesses,
                a.api_calls
            )?;
        }
        Ok(())
    }
}

/// Output of a successful build.
#[derive(Clone, Debug)]
pub struct BuildOutput {
    /// The firmware image to load onto the device.
    pub firmware: Firmware,
    /// The build report.
    pub report: BuildReport,
}

/// The toolchain driver.
#[derive(Clone, Debug)]
pub struct Aft {
    method: IsolationMethod,
    platform: PlatformSpec,
    apps: Vec<AppSource>,
}

impl Aft {
    /// Creates a toolchain targeting the MSP430FR5969: a call into
    /// [`Aft::for_platform`].
    pub fn new(method: IsolationMethod) -> Self {
        Self::for_platform(method, &PlatformSpec::msp430fr5969())
    }

    /// Creates a toolchain targeting any platform with the default OS
    /// image size.
    /// The inserted-check policy follows the platform's MPU model: hardware
    /// that can bound apps from below needs no data-pointer lower-bound
    /// checks.
    pub fn for_platform(method: IsolationMethod, platform: &PlatformSpec) -> Self {
        Aft {
            method,
            platform: platform.clone(),
            apps: Vec::new(),
        }
    }

    /// Adds an application to the build.
    pub fn add_app(mut self, app: AppSource) -> Self {
        self.apps.push(app);
        self
    }

    /// Runs all four phases and produces the firmware image.  Equivalent
    /// to [`Aft::build_with`] over a fresh [`UnitMemo`].
    pub fn build(&self) -> AftResult<BuildOutput> {
        self.build_with(&UnitMemo::default())
    }

    /// Runs all four phases, taking each app's phases 1–2 from `memo`
    /// (compiling and recording it on a miss).  Only phases 3–4 run per
    /// image, so a store that builds many images from few distinct apps
    /// compiles each app once.
    pub fn build_with(&self, memo: &UnitMemo) -> AftResult<BuildOutput> {
        let handlers: Vec<Vec<&str>> = self
            .apps
            .iter()
            .map(|app| app.handlers.iter().map(String::as_str).collect())
            .collect();
        let apps = self
            .apps
            .iter()
            .zip(&handlers)
            .map(|(app, handlers)| AppRef {
                name: &app.name,
                source: &app.source,
                handlers,
                stack_override: app.stack_override,
            });
        let (firmware, linked) = link_through(self.method, &self.platform, apps, memo)?;
        let reports = linked
            .iter()
            .zip(&firmware.memory_map.apps)
            .map(|(LinkApp { unit, .. }, placement)| {
                let info = unit.link_info(placement);
                let facts = &unit.facts;
                AppReport {
                    name: info.name,
                    code_bytes: info.code_bytes,
                    data_bytes: info.data_bytes,
                    stack_bytes: info.stack_bytes,
                    pointer_derefs: facts.total_pointer_derefs,
                    array_accesses: facts.total_array_accesses,
                    api_calls: facts.total_api_calls,
                    uses_pointers: facts.uses_pointers,
                    uses_recursion: facts.uses_recursion,
                    max_stack_estimate: unit.max_stack_bytes,
                    inserted_checks: info.inserted_checks,
                    check_sites: info.check_sites,
                }
            })
            .collect();

        Ok(BuildOutput {
            firmware,
            report: BuildReport {
                method: self.method,
                apps: reports,
            },
        })
    }
}

/// Builds the firmware image of `apps` for `method` on `platform`, taking
/// each app's phases 1–2 from `memo` like [`Aft::build_with`]: the same
/// image, without the build report.  The apps are borrowed, so a caller
/// that builds many images from a few apps' text copies none of it;
/// `memo` is looked up by borrowing too.
pub fn build_image<'a>(
    method: IsolationMethod,
    platform: &PlatformSpec,
    apps: impl IntoIterator<Item = AppRef<'a>>,
    memo: &UnitMemo,
) -> AftResult<Firmware> {
    link_through(method, platform, apps, memo).map(|(firmware, _)| firmware)
}

/// Phases 1–4 of one image: each app's compiled unit from `memo`, then
/// sections, layout, patching and emission.  Returns the image and the
/// apps as linked, in order.
fn link_through<'a>(
    method: IsolationMethod,
    platform: &PlatformSpec,
    apps: impl IntoIterator<Item = AppRef<'a>>,
    memo: &UnitMemo,
) -> AftResult<(Firmware, Vec<LinkApp<'a>>)> {
    let policy = CheckPolicy::for_method_on(method, &platform.mpu);
    let linked = apps
        .into_iter()
        .map(|app| {
            Ok(LinkApp {
                unit: memo.get_or_compile(app.name, app.source, method, policy)?,
                handlers: app.handlers,
                stack_override: app.stack_override,
            })
        })
        .collect::<AftResult<Vec<_>>>()?;
    let firmware = link_image(method, platform, &OsImageSpec::default(), &linked)?;
    Ok((firmware, linked))
}

/// Phases 1 and 2 for one application: parse, analyse, reject what the
/// method cannot isolate, and generate instrumented code with placeholder
/// bounds.  The result depends only on the app's name and source, `api`,
/// `method` and `policy` — never on the platform layout or the other
/// apps, which only [`link`](crate::link::link) sees.
pub(crate) fn compile(
    name: &str,
    source: &str,
    api: &ApiSpec,
    method: IsolationMethod,
    policy: CheckPolicy,
) -> AftResult<AppCode> {
    // Phase 1: parse + analyse.
    let program = parse(source).map_err(|error| CompileError::Parse {
        app: name.to_string(),
        error,
    })?;
    let analysis = analyze(name, &program, api, method)?;

    // The Feature Limited front end additionally rejects recursion:
    // without pointers the only stack hazard is unbounded call depth,
    // and the AFT cannot size the (shared) stack for it.
    if method == IsolationMethod::FeatureLimited && analysis.uses_recursion {
        return Err(CompileError::UnsupportedFeature {
            app: name.to_string(),
            feature: "recursion".into(),
            loc: crate::token::Loc { line: 0, col: 0 },
        });
    }

    // Phase 2: instrumented code generation, with the check policy the
    // method requires on the target's MPU.
    generate(name, &program, &analysis, api, method, policy)
}

/// A memo of compiled units (phases 1–2, ready to link), shared by every
/// build that passes it to [`Aft::build_with`] or [`build_image`].
///
/// Entries are keyed by content — app name, source text, method and
/// [`CheckPolicy`] — so two apps with equal text share one entry however
/// they were made.  A lookup borrows its key: it hashes the name alone
/// and compares the method, policy and source text of that name's
/// entries, so it copies nothing and hashes no source text.  The memo is
/// valid for [`ApiSpec::amulet`] only, the one API an [`Aft`] compiles
/// against, and compiles with it.
/// Each key has one slot with its own lock, and compilation runs under
/// the slot's lock only: a thread that asks for a unit another thread is
/// compiling waits for that compile instead of starting a second one, and
/// units with different keys compile in parallel.  Errors are never
/// recorded, so a failing app fails again on every build (a waiter on a
/// failed compile compiles again itself).
///
/// A memo lives as long as its owner (one per fleet firmware store); it is
/// never global and never persisted.
#[derive(Default)]
pub struct UnitMemo {
    /// Each app name's units, one per distinct (source, method, policy).
    units: Mutex<HashMap<String, Vec<Arc<UnitSlot>>>>,
    compiles: AtomicU64,
    /// The API every unit compiles against, made on the first compile.
    api: OnceLock<ApiSpec>,
}

/// One key's compiled unit: the rest of its key beside the name, and the
/// unit — `None` until a compile succeeds, and locked for the length of a
/// compile.
struct UnitSlot {
    source: String,
    method: IsolationMethod,
    policy: CheckPolicy,
    unit: Mutex<Option<Arc<LinkableApp>>>,
}

impl UnitMemo {
    /// Number of compilations run through this memo: one per distinct
    /// unit that compiled, plus one per failed attempt.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Number of distinct units recorded (compiled successfully).
    pub fn len(&self) -> usize {
        self.units
            .lock()
            .expect("unit memo poisoned")
            .values()
            .flatten()
            .filter(|slot| slot.unit.lock().expect("unit memo poisoned").is_some())
            .count()
    }

    /// Whether no unit is recorded (public beside [`UnitMemo::len`], as
    /// clippy's `len_without_is_empty` asks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unit of app `name` with text `source` for `method` and
    /// `policy`, compiled and prepared for linking on a miss.
    fn get_or_compile(
        &self,
        name: &str,
        source: &str,
        method: IsolationMethod,
        policy: CheckPolicy,
    ) -> AftResult<Arc<LinkableApp>> {
        // The map lock is held only to find or insert the slot; the slot
        // lock is taken after it is released, so a compile never blocks
        // lookups of other keys.
        let slot = {
            let mut units = self.units.lock().expect("unit memo poisoned");
            if !units.contains_key(name) {
                units.insert(name.to_string(), Vec::new());
            }
            let slots = units.get_mut(name).expect("the name's entry was just made");
            let same = |slot: &&Arc<UnitSlot>| {
                slot.method == method && slot.policy == policy && slot.source == source
            };
            match slots.iter().find(same) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(UnitSlot {
                        source: source.to_string(),
                        method,
                        policy,
                        unit: Mutex::new(None),
                    });
                    slots.push(Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut unit = slot.unit.lock().expect("unit memo poisoned");
        if let Some(linkable) = &*unit {
            return Ok(Arc::clone(linkable));
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let api = self.api.get_or_init(ApiSpec::amulet);
        let code = compile(name, source, api, method, policy)?;
        let linkable = Arc::new(LinkableApp::prepare(&code)?);
        *unit = Some(Arc::clone(&linkable));
        Ok(linkable)
    }
}

impl fmt::Debug for UnitMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnitMemo")
            .field("units", &self.len())
            .field("compiles", &self.compiles())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEDOMETER_LIKE: &str = r#"
        int steps = 0;
        int window[8];
        int threshold = 120;

        int detect(int *samples, int n) {
            int count = 0;
            for (int i = 0; i < n; i++) {
                if (samples[i] > threshold) { count++; }
            }
            return count;
        }

        void on_accel(void) {
            for (int i = 0; i < 8; i++) {
                window[i] = amulet_get_accel(0);
            }
            steps += detect(&window[0], 8);
        }

        void main(void) {
            amulet_subscribe(1);
        }
    "#;

    #[test]
    fn builds_firmware_for_every_pointer_capable_method() {
        for method in [
            IsolationMethod::NoIsolation,
            IsolationMethod::Mpu,
            IsolationMethod::SoftwareOnly,
        ] {
            let out = Aft::new(method)
                .add_app(AppSource::new(
                    "Pedometer",
                    PEDOMETER_LIKE,
                    &["main", "on_accel"],
                ))
                .build()
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(out.firmware.method, method);
            assert_eq!(out.firmware.apps.len(), 1);
            assert!(out.firmware.instruction_count() > 20);
            assert_eq!(out.report.apps[0].api_calls, 2);
        }
    }

    #[test]
    fn feature_limited_rejects_the_pointer_version_but_accepts_an_array_port() {
        let err = Aft::new(IsolationMethod::FeatureLimited)
            .add_app(AppSource::new("Pedometer", PEDOMETER_LIKE, &["main"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedFeature { .. }));

        let ported = r#"
            int steps = 0;
            int window[8];
            void on_accel(void) {
                int count = 0;
                for (int i = 0; i < 8; i++) {
                    window[i] = amulet_get_accel(0);
                    if (window[i] > 120) { count++; }
                }
                steps += count;
            }
            void main(void) { amulet_subscribe(1); }
        "#;
        let out = Aft::new(IsolationMethod::FeatureLimited)
            .add_app(AppSource::new("Pedometer", ported, &["main", "on_accel"]))
            .build()
            .unwrap();
        assert!(out.report.apps[0]
            .inserted_checks
            .contains_key("array bounds"));
    }

    #[test]
    fn feature_limited_rejects_recursion() {
        let src =
            "int f(int n) { if (n < 1) return 0; return f(n - 1); } void main(void) { f(3); }";
        let err = Aft::new(IsolationMethod::FeatureLimited)
            .add_app(AppSource::new("Rec", src, &["main"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedFeature { .. }));
        // The MPU method accepts it (with the default recursive stack).
        assert!(Aft::new(IsolationMethod::Mpu)
            .add_app(AppSource::new("Rec", src, &["main"]))
            .build()
            .is_ok());
    }

    #[test]
    fn unit_memo_keys_units_by_content() {
        let memo = UnitMemo::default();
        let app = || AppSource::new("Pedometer", PEDOMETER_LIKE, &["main", "on_accel"]);
        let fresh = Aft::new(IsolationMethod::Mpu)
            .add_app(app())
            .build()
            .unwrap();
        for _ in 0..2 {
            let out = Aft::new(IsolationMethod::Mpu)
                .add_app(app())
                .build_with(&memo)
                .unwrap();
            assert_eq!(out.firmware, fresh.firmware);
            assert_eq!(out.report, fresh.report);
        }
        assert_eq!(
            (memo.compiles(), memo.len()),
            (1, 1),
            "the second build hits"
        );

        // A different method, or an edited source under the same name, is
        // a different unit.
        Aft::new(IsolationMethod::SoftwareOnly)
            .add_app(app())
            .build_with(&memo)
            .unwrap();
        let edited = PEDOMETER_LIKE.replace("120", "121");
        Aft::new(IsolationMethod::Mpu)
            .add_app(AppSource::new("Pedometer", edited, &["main", "on_accel"]))
            .build_with(&memo)
            .unwrap();
        assert_eq!((memo.compiles(), memo.len()), (3, 3));
    }

    #[test]
    fn unit_memo_never_records_a_failed_compile() {
        let memo = UnitMemo::default();
        let recursive =
            "int f(int n) { if (n < 1) return 0; return f(n - 1); } void main(void) { f(3); }";
        let cases = [
            Aft::new(IsolationMethod::Mpu).add_app(AppSource::new(
                "Broken",
                "int main( {",
                &["main"],
            )),
            Aft::new(IsolationMethod::FeatureLimited).add_app(AppSource::new(
                "Rec",
                recursive,
                &["main"],
            )),
        ];
        for aft in &cases {
            let first = aft.build_with(&memo).unwrap_err();
            let second = aft.build_with(&memo).unwrap_err();
            assert_eq!(first, second);
            assert_eq!(first, aft.build().unwrap_err());
        }
        assert!(matches!(
            cases[0].build_with(&memo),
            Err(CompileError::Parse { .. })
        ));
        assert!(matches!(
            cases[1].build_with(&memo),
            Err(CompileError::UnsupportedFeature { .. })
        ));
        assert!(memo.is_empty(), "no failure is recorded");
        assert_eq!(memo.compiles(), 6, "every attempt compiles again");
    }

    /// Builds `aft` on `THREADS` threads at once through one shared memo,
    /// the threads released together by a barrier.
    fn build_racing(aft: &Aft, memo: &UnitMemo) -> Vec<AftResult<BuildOutput>> {
        const THREADS: usize = 4;
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        aft.build_with(memo)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn racing_builds_compile_each_unit_once() {
        let memo = UnitMemo::default();
        let aft = Aft::new(IsolationMethod::Mpu).add_app(AppSource::new(
            "Pedometer",
            PEDOMETER_LIKE,
            &["main", "on_accel"],
        ));
        let fresh = aft.build().unwrap();
        for out in build_racing(&aft, &memo) {
            assert_eq!(out.unwrap().firmware, fresh.firmware);
        }
        assert_eq!((memo.compiles(), memo.len()), (1, 1), "one compile per key");

        // A failing unit is never recorded, so every racer compiles it
        // again and gets the error.
        let memo = UnitMemo::default();
        let broken = Aft::new(IsolationMethod::Mpu).add_app(AppSource::new(
            "Broken",
            "int main( {",
            &["main"],
        ));
        let expected = broken.build().unwrap_err();
        for out in build_racing(&broken, &memo) {
            assert_eq!(out.unwrap_err(), expected);
        }
        assert!(memo.is_empty(), "no failure is recorded");
        assert_eq!(memo.compiles(), 4, "every attempt compiles");
    }

    #[test]
    fn multi_app_builds_isolate_each_app_in_its_own_region() {
        let other = r#"
            int ticks = 0;
            void tick(void) { ticks++; amulet_display_value(ticks); }
            void main(void) { amulet_set_timer(1000); }
        "#;
        let out = Aft::new(IsolationMethod::Mpu)
            .add_app(AppSource::new(
                "Pedometer",
                PEDOMETER_LIKE,
                &["main", "on_accel"],
            ))
            .add_app(AppSource::new("Clock", other, &["main", "tick"]))
            .build()
            .unwrap();
        assert_eq!(out.firmware.apps.len(), 2);
        let a = &out.firmware.apps[0].placement;
        let b = &out.firmware.apps[1].placement;
        assert!(!a.footprint().overlaps(&b.footprint()));
        assert!(a.upper_bound() <= b.code_lower_bound());
    }

    #[test]
    fn parse_errors_name_the_app() {
        let err = Aft::new(IsolationMethod::Mpu)
            .add_app(AppSource::new("Broken", "int main( {", &["main"]))
            .build()
            .unwrap_err();
        match err {
            CompileError::Parse { app, .. } => assert_eq!(app, "Broken"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn report_renders_a_table() {
        let out = Aft::new(IsolationMethod::SoftwareOnly)
            .add_app(AppSource::new(
                "Pedometer",
                PEDOMETER_LIKE,
                &["main", "on_accel"],
            ))
            .build()
            .unwrap();
        let text = out.report.to_string();
        assert!(text.contains("Pedometer"));
        assert!(text.contains("Software Only"));
    }
}

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

use crate::api::ApiSpec;
use crate::codegen::generate;
use crate::error::{AftResult, CompileError};
use crate::link::{link, AppUnit, LinkOutput};
use crate::parser::parse;
use crate::sema::analyze;
use amulet_core::checks::CheckPolicy;
use amulet_core::layout::{MemoryMap, OsImageSpec, PlatformSpec};
use amulet_core::method::IsolationMethod;
use amulet_core::platform::Platform;
use amulet_mcu::firmware::Firmware;
use std::collections::BTreeMap;
use std::fmt;

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
    /// The final memory map.
    pub memory_map: MemoryMap,
    /// The build report.
    pub report: BuildReport,
}

/// The toolchain driver.
#[derive(Clone, Debug)]
pub struct Aft {
    method: IsolationMethod,
    platform: PlatformSpec,
    os_spec: OsImageSpec,
    api: ApiSpec,
    apps: Vec<AppSource>,
}

impl Aft {
    /// Creates a toolchain targeting the MSP430FR5969 with the default OS
    /// image size.
    pub fn new(method: IsolationMethod) -> Self {
        Self::for_platform(method, &amulet_core::platform::Msp430Fr5969)
    }

    /// Creates a toolchain targeting any [`Platform`] (a profile type such
    /// as [`amulet_core::platform::Msp430Fr5994`], or a `PlatformSpec`).
    /// The inserted-check policy follows the platform's MPU model: hardware
    /// that can bound apps from below needs no data-pointer lower-bound
    /// checks.
    pub fn for_platform(method: IsolationMethod, platform: &impl Platform) -> Self {
        Aft {
            method,
            platform: platform.spec(),
            os_spec: OsImageSpec::default(),
            api: ApiSpec::amulet(),
            apps: Vec::new(),
        }
    }

    /// Overrides the target platform (used by the advanced-MPU ablation).
    pub fn with_platform(mut self, platform: PlatformSpec) -> Self {
        self.platform = platform;
        self
    }

    /// Overrides the OS image sizes.
    pub fn with_os_spec(mut self, os_spec: OsImageSpec) -> Self {
        self.os_spec = os_spec;
        self
    }

    /// Adds an application to the build.
    pub fn add_app(mut self, app: AppSource) -> Self {
        self.apps.push(app);
        self
    }

    /// The isolation method this toolchain instance targets.
    pub fn method(&self) -> IsolationMethod {
        self.method
    }

    /// The platform this toolchain instance targets.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// Runs all four phases and produces the firmware image.
    pub fn build(&self) -> AftResult<BuildOutput> {
        let mut units = Vec::with_capacity(self.apps.len());
        let mut reports = Vec::with_capacity(self.apps.len());

        for app in &self.apps {
            // Phase 1: parse + analyse.
            let program = parse(&app.source).map_err(|error| CompileError::Parse {
                app: app.name.clone(),
                error,
            })?;
            let analysis = analyze(&app.name, &program, &self.api, self.method)?;

            // The Feature Limited front end additionally rejects recursion:
            // without pointers the only stack hazard is unbounded call depth,
            // and the AFT cannot size the (shared) stack for it.
            if self.method == IsolationMethod::FeatureLimited && analysis.uses_recursion {
                return Err(CompileError::UnsupportedFeature {
                    app: app.name.clone(),
                    feature: "recursion".into(),
                    loc: crate::token::Loc { line: 0, col: 0 },
                });
            }

            // Phase 2: instrumented code generation, with the check policy
            // the method requires on this platform's MPU.
            let policy = CheckPolicy::for_method_on(self.method, &self.platform.mpu);
            let code = generate(
                &app.name,
                &program,
                &analysis,
                &self.api,
                self.method,
                policy,
            )?;

            units.push(AppUnit {
                code,
                handlers: app.handlers.clone(),
                stack_override: app.stack_override,
            });
        }

        // Phases 3 + 4: sections, layout, patching, emission.
        let LinkOutput {
            firmware,
            memory_map,
            apps: link_infos,
        } = link(self.method, &self.platform, &self.os_spec, &units)?;

        for (unit, info) in units.iter().zip(&link_infos) {
            let a = &unit.code.analysis;
            reports.push(AppReport {
                name: info.name.clone(),
                code_bytes: info.code_bytes,
                data_bytes: info.data_bytes,
                stack_bytes: info.stack_bytes,
                pointer_derefs: a.total_pointer_derefs,
                array_accesses: a.total_array_accesses,
                api_calls: a.total_api_calls,
                uses_pointers: a.uses_pointers,
                uses_recursion: a.uses_recursion,
                max_stack_estimate: a.max_stack_bytes,
                inserted_checks: info.inserted_checks.clone(),
                check_sites: info.check_sites.clone(),
            });
        }

        Ok(BuildOutput {
            firmware,
            memory_map,
            report: BuildReport {
                method: self.method,
                apps: reports,
            },
        })
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

//! The Figure-1 memory map and the planner that produces it.
//!
//! The planner takes the sizes of the OS image and of every application image
//! (code, data, estimated maximum stack) and places them into the
//! MSP430FR5969 address space exactly as Figure 1 of the paper describes:
//!
//! * the OS stack lives in SRAM,
//! * OS code and data live in low FRAM,
//! * applications live in high FRAM, grouped per app, with each app's code at
//!   lower addresses than its data/stack segment,
//! * each app's stack sits *below* its data inside the data/stack segment and
//!   grows downward, so an overflow crosses into the execute-only code
//!   segment and faults.
//!
//! The per-app boundaries `C_i` (start of the app's code), `D_i` (start of
//! the app's data/stack) and `T_i` (end of the app's data/stack) are exactly
//! the constants the AFT patches into the compiler-inserted checks, and
//! `D_i`/`T_i` are the two movable MPU segment boundaries programmed while
//! app *i* runs.

use crate::addr::{align_up, Addr, AddrRange};
use crate::error::{CoreError, CoreResult};
use crate::platform::{CycleCostTable, EnergyParams, MpuModel, SizeRule};
use std::fmt;
use std::sync::Arc;

/// Description of a target device: its fixed memory regions, its MPU
/// capability model, and its cycle-cost table.  The one way to name a
/// platform: the built-in profiles are its constructors
/// ([`PlatformSpec::msp430fr5969`] and its siblings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlatformSpec {
    /// Stable platform name (used in reports and the comparison bench).
    pub name: String,
    /// Memory-mapped peripheral registers (not protectable by the MPU).
    pub peripherals: AddrRange,
    /// Bootstrap loader ROM.
    pub bootstrap_loader: AddrRange,
    /// Information memory (MPU segment 0; pinned, unused by the paper).
    pub info_mem: AddrRange,
    /// SRAM (holds the OS stack; not protectable by the MPU).
    pub sram: AddrRange,
    /// Main FRAM (OS + applications).
    pub fram: AddrRange,
    /// Interrupt vector table.
    pub interrupt_vectors: AddrRange,
    /// The MPU capability model of the device.
    pub mpu: MpuModel,
    /// Per-platform cycle costs for the analytic models.
    pub costs: CycleCostTable,
    /// Electrical parameters for the energy/battery models.
    pub energy: EnergyParams,
}

impl PlatformSpec {
    /// The TI MSP430FR5969 memory map used by the Amulet.
    ///
    /// Region boundaries follow the device datasheet: 2 KiB SRAM at
    /// `0x1C00`, 48 KiB of main FRAM starting at `0x4400`, interrupt vectors
    /// at the top of the address space, and 512 B of InfoMem at `0x1800`.
    pub fn msp430fr5969() -> Self {
        PlatformSpec {
            name: "msp430fr5969".into(),
            peripherals: AddrRange::new(0x0000, 0x1000),
            bootstrap_loader: AddrRange::new(0x1000, 0x1800),
            info_mem: AddrRange::new(0x1800, 0x1A00),
            sram: AddrRange::new(0x1C00, 0x2400),
            fram: AddrRange::new(0x4400, 0xFF80),
            interrupt_vectors: AddrRange::new(0xFF80, 0x1_0000),
            mpu: MpuModel::Segmented {
                main_segments: 3,
                boundary_granularity: 0x400,
            },
            costs: CycleCostTable::default(),
            energy: EnergyParams::default(),
        }
    }

    /// A hypothetical "advanced MPU" variant of the FR5969 used by the
    /// ablation study: same memory map, but the MPU supports enough segments
    /// to bound an app from below as well, removing the need for
    /// compiler-inserted lower-bound checks.
    pub fn msp430fr5969_advanced_mpu() -> Self {
        PlatformSpec {
            name: "msp430fr5969-advanced-mpu".into(),
            mpu: MpuModel::Segmented {
                main_segments: 4,
                boundary_granularity: 0x400,
            },
            ..Self::msp430fr5969()
        }
    }

    /// An MSP430FR5994-class device: the larger sibling of the FR5969
    /// (4 KiB of SRAM; the simulator models the lower 64 KiB window of its
    /// address space since the modelled CPU core is 16-bit), fitted with a
    /// Tock/Cortex-M-style region MPU: eight base/limit regions at 256-byte
    /// alignment with deny-by-default coverage of FRAM, InfoMem and SRAM.
    pub fn msp430fr5994() -> Self {
        PlatformSpec {
            name: "msp430fr5994".into(),
            peripherals: AddrRange::new(0x0000, 0x1000),
            bootstrap_loader: AddrRange::new(0x1000, 0x1800),
            info_mem: AddrRange::new(0x1800, 0x1A00),
            sram: AddrRange::new(0x1C00, 0x2C00),
            fram: AddrRange::new(0x4400, 0xFF80),
            interrupt_vectors: AddrRange::new(0xFF80, 0x1_0000),
            mpu: MpuModel::tock_region(8, 0x100),
            costs: CycleCostTable::default(),
            // The larger part draws slightly more current in both modes
            // (≈118 µA/MHz active, ≈0.9 µA in LPM3 per its datasheet).
            energy: EnergyParams {
                active_current_ua: 1900,
                lpm_current_na: 900,
                ..EnergyParams::default()
            },
        }
    }

    /// An MMU-less RISC-V microcontroller class (FE310-like, clocked at the
    /// same 16 MHz so cycle figures stay comparable): the FR5969 memory
    /// geometry re-expressed over flash/SRAM, protected by an 8-entry PMP
    /// whose NAPOT entries must be power-of-two sized and size-aligned
    /// (minimum 64 B).  User mode is policed over the whole address space
    /// — peripherals included — and machine mode bypasses the PMP, so the
    /// OS-running configuration is a single privilege-mode toggle.
    pub fn riscv_pmp() -> Self {
        PlatformSpec {
            name: "riscv-pmp".into(),
            peripherals: AddrRange::new(0x0000, 0x1000),
            bootstrap_loader: AddrRange::new(0x1000, 0x1800),
            info_mem: AddrRange::new(0x1800, 0x1A00),
            sram: AddrRange::new(0x1C00, 0x2C00),
            fram: AddrRange::new(0x4400, 0xFF80),
            interrupt_vectors: AddrRange::new(0xFF80, 0x1_0000),
            mpu: MpuModel::riscv_pmp_napot(8, 0x40),
            costs: CycleCostTable::default(),
            // RV32 microcontroller-class draw: ≈80 µA/MHz active, ≈0.5 µA
            // in deep sleep with the RTC running.
            energy: EnergyParams {
                active_current_ua: 1300,
                lpm_current_na: 500,
                ..EnergyParams::default()
            },
        }
    }

    /// A Cortex-M33-class (ARMv8-M) device: 16 MPU regions at 32-byte
    /// alignment whose deny-by-default jurisdiction **includes peripheral
    /// space**, so the OS configuration carries a fifth (peripheral)
    /// region and the compiler drops the function-pointer checks too.
    /// Same 16 MHz clock and memory geometry as the FR5994 profile for
    /// comparability; modelled in the lower 64 KiB window.
    pub fn cortex_m33() -> Self {
        PlatformSpec {
            name: "cortex-m33".into(),
            peripherals: AddrRange::new(0x0000, 0x1000),
            bootstrap_loader: AddrRange::new(0x1000, 0x1800),
            info_mem: AddrRange::new(0x1800, 0x1A00),
            sram: AddrRange::new(0x1C00, 0x3400),
            fram: AddrRange::new(0x4400, 0xFF80),
            interrupt_vectors: AddrRange::new(0xFF80, 0x1_0000),
            mpu: MpuModel::cortex_m33_region(16),
            costs: CycleCostTable::default(),
            // M33-class draw at 16 MHz: ≈110 µA/MHz active, ≈1.1 µA stop
            // mode with RTC.
            energy: EnergyParams {
                active_current_ua: 1750,
                lpm_current_na: 1100,
                ..EnergyParams::default()
            },
        }
    }

    /// Every mapped range of the platform that a full-platform-jurisdiction
    /// MPU polices: FRAM, InfoMem, SRAM, peripheral space, the boot ROM
    /// and the vector table.  The single source of the "nowhere unpoliced
    /// to escape to" soundness argument — the simulator's backends and the
    /// tests that certify it both consume this list.
    pub fn full_jurisdiction_ranges(&self) -> [AddrRange; 6] {
        [
            self.fram,
            self.info_mem,
            self.sram,
            self.peripherals,
            self.bootstrap_loader,
            self.interrupt_vectors,
        ]
    }

    /// Granularity at which app bounds must be placed so the MPU can
    /// bracket the app (segment-boundary granularity or region alignment).
    pub fn mpu_boundary_granularity(&self) -> u32 {
        self.mpu.boundary_granularity()
    }

    /// Number of MPU protection slots (segments or regions) the device
    /// offers.
    pub fn mpu_main_segments(&self) -> usize {
        self.mpu.main_segments()
    }

    /// Validates that the fixed regions are non-overlapping and ordered and
    /// that the MPU model is coherent.
    pub(crate) fn validate(&self) -> CoreResult<()> {
        let regions = [
            ("peripherals", self.peripherals),
            ("bootstrap_loader", self.bootstrap_loader),
            ("info_mem", self.info_mem),
            ("sram", self.sram),
            ("fram", self.fram),
            ("interrupt_vectors", self.interrupt_vectors),
        ];
        for (i, (name_a, a)) in regions.iter().enumerate() {
            for (name_b, b) in regions.iter().skip(i + 1) {
                if a.overlaps(b) {
                    return Err(CoreError::InvalidPlatform(format!(
                        "region `{name_a}` {a:?} overlaps `{name_b}` {b:?}"
                    )));
                }
            }
        }
        if !self.mpu_boundary_granularity().is_power_of_two() {
            return Err(CoreError::InvalidPlatform(format!(
                "MPU boundary granularity {} is not a power of two",
                self.mpu_boundary_granularity()
            )));
        }
        match &self.mpu {
            MpuModel::Segmented { main_segments, .. } if *main_segments < 3 => {
                return Err(CoreError::InvalidPlatform(format!(
                    "at least 3 main MPU segments are required, got {main_segments}"
                )));
            }
            // An app plan needs a code and a data region; a non-bypass OS
            // plan needs its full region set resident at once.
            MpuModel::Region(c)
                if (c.regions as u32)
                    < c.os_plan_regions().max(crate::platform::APP_PLAN_REGIONS) =>
            {
                return Err(CoreError::InvalidPlatform(format!(
                    "at least {} MPU regions are required, got {}",
                    c.os_plan_regions().max(crate::platform::APP_PLAN_REGIONS),
                    c.regions
                )));
            }
            _ => {}
        }
        Ok(())
    }
}

/// Sizes of the OS image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OsImageSpec {
    /// Bytes of OS code.
    pub code_size: u32,
    /// Bytes of OS global data.
    pub data_size: u32,
    /// Bytes reserved in SRAM for the OS stack.
    pub stack_size: u32,
}

impl Default for OsImageSpec {
    fn default() -> Self {
        OsImageSpec {
            code_size: 0x3000,
            data_size: 0x800,
            stack_size: 0x400,
        }
    }
}

/// Sizes of a single application image, as measured by the AFT in its final
/// analysis phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppImageSpec {
    /// Application name (must be unique within a build).
    pub name: Arc<str>,
    /// Bytes of application code.
    pub code_size: u32,
    /// Bytes of application global data.
    pub data_size: u32,
    /// Bytes reserved for the application stack (the AFT's maximum-stack-
    /// depth estimate, or a developer-provided bound when recursion makes
    /// the estimate impossible).
    pub stack_size: u32,
}

impl AppImageSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<Arc<str>>, code_size: u32, data_size: u32, stack_size: u32) -> Self {
        AppImageSpec {
            name: name.into(),
            code_size,
            data_size,
            stack_size,
        }
    }

    /// Total bytes the app will occupy before alignment padding.
    pub(crate) fn total_size(&self) -> u32 {
        self.code_size + self.data_size + self.stack_size
    }
}

/// Where one application landed in FRAM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppPlacement {
    /// Application name.
    pub name: Arc<str>,
    /// Index of the app in the build (0 = lowest addresses).
    pub index: usize,
    /// The app's code region `[C_i, D_i)` (execute-only while the app runs).
    pub code: AddrRange,
    /// The app's stack region (bottom part of the data/stack segment; grows
    /// downward toward the code region).
    pub stack: AddrRange,
    /// Bytes consumed for this app (from the previous app's end up to
    /// `T_i`, so a leading gap forced by base alignment counts too) that
    /// back none of the requested code, stack or data — pure
    /// alignment/size-rounding waste the platform's region constraints
    /// forced (coarse boundary granularity on segmented parts,
    /// power-of-two size rounding on NAPOT parts).  The planner measures
    /// this so every report can account for the memory cost of a
    /// backend's size rule, not just its cycle cost.
    pub padding_bytes: u32,
    /// The app's global-data region (top part of the data/stack segment).
    pub data: AddrRange,
}

impl AppPlacement {
    /// `C_i`: the lowest address belonging to this app; function pointers
    /// below this value are rejected.
    pub fn code_lower_bound(&self) -> Addr {
        self.code.start
    }

    /// `D_i`: the start of the app's data/stack segment; data pointers below
    /// this value are rejected by the compiler-inserted lower-bound check.
    pub fn data_lower_bound(&self) -> Addr {
        self.stack.start
    }

    /// `T_i`: one past the app's highest address; data pointers at or above
    /// this value are rejected by the Software Only upper-bound check (and by
    /// the MPU under the MPU method).
    pub fn upper_bound(&self) -> Addr {
        self.data.end
    }

    /// The combined data/stack segment `[D_i, T_i)` (MPU segment 2 while the
    /// app runs).
    pub fn data_stack(&self) -> AddrRange {
        AddrRange::new(self.data_lower_bound(), self.upper_bound())
    }

    /// The whole footprint of the app, `[C_i, T_i)`.
    pub fn footprint(&self) -> AddrRange {
        AddrRange::new(self.code_lower_bound(), self.upper_bound())
    }

    /// Initial stack pointer for this app: the top of the stack region
    /// (stacks grow downward, and the top of the stack sits just below the
    /// app's data, as §3 of the paper specifies).
    pub fn initial_stack_pointer(&self) -> Addr {
        self.stack.end
    }
}

/// The complete memory map produced by the planner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryMap {
    /// Platform the map was planned for.
    pub platform: PlatformSpec,
    /// OS code region in low FRAM.
    pub os_code: AddrRange,
    /// OS data region in low FRAM, directly above the OS code.
    pub os_data: AddrRange,
    /// OS stack in SRAM.
    pub os_stack: AddrRange,
    /// Application placements, ordered by increasing address.
    pub apps: Vec<AppPlacement>,
}

impl MemoryMap {
    /// The start of the application area in high FRAM (everything below this
    /// belongs to the OS).
    pub fn apps_base(&self) -> Addr {
        self.apps
            .first()
            .map(|a| a.code.start)
            .unwrap_or(self.os_data.end)
    }

    /// The end of the application area (one past the last app's top bound).
    pub fn apps_end(&self) -> Addr {
        self.apps
            .last()
            .map(|a| a.upper_bound())
            .unwrap_or(self.os_data.end)
    }

    /// Initial OS stack pointer (top of the SRAM stack region).
    pub fn os_initial_stack_pointer(&self) -> Addr {
        self.os_stack.end
    }

    /// Total alignment/size-rounding waste across every app placement, in
    /// bytes (the sum of [`AppPlacement::padding_bytes`]).  Reports use
    /// this to compare how efficiently different region constraints pack
    /// the same build — NAPOT's power-of-two rounding is the extreme case.
    pub fn total_padding_bytes(&self) -> u32 {
        self.apps.iter().map(|a| a.padding_bytes).sum()
    }

    /// Consistency check: regions must not overlap, must stay inside their
    /// parent regions, and every app's bounds must be expressible under
    /// the platform's MPU constraints — boundary granularity on segmented
    /// parts, the full base/size rule (including NAPOT power-of-two
    /// sizing) on region parts.
    pub fn validate(&self) -> CoreResult<()> {
        let g = self.platform.mpu_boundary_granularity();
        if !self.platform.fram.contains_range(&self.os_code)
            || !self.platform.fram.contains_range(&self.os_data)
        {
            return Err(CoreError::OsImageTooLarge {
                required: self.os_code.len() + self.os_data.len(),
                available: self.platform.fram.len(),
            });
        }
        if !self.platform.sram.contains_range(&self.os_stack) {
            return Err(CoreError::OsStackTooLarge {
                required: self.os_stack.len(),
                available: self.platform.sram.len(),
            });
        }
        let mut prev_end = self.os_data.end;
        for app in &self.apps {
            let fp = app.footprint();
            if fp.start < prev_end {
                return Err(CoreError::AppImageInvalid {
                    app: app.name.to_string(),
                    reason: format!("footprint {fp:?} overlaps the region below it"),
                });
            }
            if !self.platform.fram.contains_range(&fp) {
                return Err(CoreError::AppsDoNotFit {
                    required: self.apps_end() - self.apps_base(),
                    available: self.platform.fram.end - self.apps_base(),
                });
            }
            if app.data_lower_bound() % g != 0 {
                return Err(CoreError::UnalignedMpuBoundary {
                    addr: app.data_lower_bound(),
                    granularity: g,
                });
            }
            if app.upper_bound() % g != 0 && app.upper_bound() != self.platform.fram.end {
                return Err(CoreError::UnalignedMpuBoundary {
                    addr: app.upper_bound(),
                    granularity: g,
                });
            }
            if let Some(c) = self.platform.mpu.constraints() {
                // Region hardware brackets the app with two regions (code
                // and data/stack); both must satisfy the backend's full
                // base/size rule, not just the minimum alignment.
                for (what, range) in [("code", app.code), ("data/stack", app.data_stack())] {
                    if !c.size_rule.is_valid_region(&range) {
                        return Err(CoreError::AppImageInvalid {
                            app: app.name.to_string(),
                            reason: format!(
                                "{what} region {range:?} violates the region size rule ({})",
                                c.size_rule
                            ),
                        });
                    }
                }
            }
            if app.stack.end != app.data.start {
                return Err(CoreError::AppImageInvalid {
                    app: app.name.to_string(),
                    reason: "stack must sit directly below the app's data".into(),
                });
            }
            prev_end = fp.end;
        }
        Ok(())
    }
}

impl fmt::Display for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Memory map (Figure 1 layout)")?;
        writeln!(f, "  OS stack (SRAM):   {}", self.os_stack)?;
        writeln!(f, "  OS code (FRAM):    {}", self.os_code)?;
        writeln!(f, "  OS data (FRAM):    {}", self.os_data)?;
        for app in &self.apps {
            writeln!(
                f,
                "  app {:<14} code {}  stack {}  data {}",
                app.name, app.code, app.stack, app.data
            )?;
        }
        Ok(())
    }
}

/// Plans Figure-1 memory maps.
#[derive(Clone, Debug)]
pub struct MemoryMapPlanner {
    platform: PlatformSpec,
}

impl MemoryMapPlanner {
    /// Creates a planner for the given platform.
    pub fn new(platform: PlatformSpec) -> CoreResult<Self> {
        platform.validate()?;
        Ok(MemoryMapPlanner { platform })
    }

    /// Creates a planner for the default MSP430FR5969 platform.
    pub fn msp430fr5969() -> Self {
        Self::new(PlatformSpec::msp430fr5969()).expect("builtin platform spec is valid")
    }

    /// Produces a memory map placing the OS and the given applications.
    ///
    /// Applications are placed in the order given, from low to high FRAM
    /// addresses, with each app's bounds solved against the platform's MPU
    /// constraints:
    ///
    /// * on segmented and aligned-region hardware, `D_i` and `T_i` land on
    ///   the boundary granularity / region alignment (the Figure-1 rule);
    /// * on NAPOT hardware, the code region `[C_i, D_i)` and the
    ///   data/stack region `[D_i, T_i)` are each rounded up to a
    ///   power-of-two span and placed size-aligned, and the rounding waste
    ///   is recorded in [`AppPlacement::padding_bytes`].
    pub fn plan(&self, os: &OsImageSpec, apps: &[AppImageSpec]) -> CoreResult<MemoryMap> {
        let g = self.platform.mpu_boundary_granularity();

        // Reject duplicate app names up front: bounds are keyed by name in
        // the AFT's final patch phase.  A build holds a handful of apps,
        // so each is compared with the ones before it.
        for (index, app) in apps.iter().enumerate() {
            if apps[..index].iter().any(|a| a.name == app.name) {
                return Err(CoreError::DuplicateApp(app.name.to_string()));
            }
            if app.code_size == 0 {
                return Err(CoreError::AppImageInvalid {
                    app: app.name.to_string(),
                    reason: "code size must be non-zero".into(),
                });
            }
            if app.stack_size == 0 {
                return Err(CoreError::AppImageInvalid {
                    app: app.name.to_string(),
                    reason: "stack size must be non-zero".into(),
                });
            }
        }

        // OS stack at the top of SRAM.
        if os.stack_size > self.platform.sram.len() {
            return Err(CoreError::OsStackTooLarge {
                required: os.stack_size,
                available: self.platform.sram.len(),
            });
        }
        let os_stack = AddrRange::new(
            self.platform.sram.end - os.stack_size,
            self.platform.sram.end,
        );

        // OS code then OS data at the bottom of FRAM (word aligned).
        let os_code_start = self.platform.fram.start;
        let os_code = AddrRange::from_len(os_code_start, align_up(os.code_size.max(2), 2));
        let os_data = AddrRange::from_len(os_code.end, align_up(os.data_size.max(2), 2));
        if os_data.end > self.platform.fram.end {
            return Err(CoreError::OsImageTooLarge {
                required: os.code_size + os.data_size,
                available: self.platform.fram.len(),
            });
        }

        // Applications, grouped per app, in high FRAM.  The NAPOT solver
        // (see `place_napot`) only kicks in for NAPOT constraints; every
        // other backend reduces to the AnyAligned rule, whose placement is
        // byte-identical to the original Figure-1 arithmetic.
        let napot = match self.platform.mpu.constraints().map(|c| c.size_rule) {
            Some(rule @ SizeRule::NapotPow2 { .. }) => Some(rule),
            _ => None,
        };
        let mut placements = Vec::with_capacity(apps.len());
        let mut cursor = align_up(os_data.end, g);
        for (index, app) in apps.iter().enumerate() {
            // Compute every bound in plain integers first so an oversized
            // build is reported as `AppsDoNotFit` instead of panicking while
            // constructing an out-of-space range.
            let does_not_fit = || {
                let required: u32 = apps.iter().map(|a| a.total_size()).sum();
                CoreError::AppsDoNotFit {
                    required,
                    available: self.platform.fram.end - align_up(os_data.end, g),
                }
            };
            let stack_bytes = align_up(app.stack_size, 2);
            let data_bytes = align_up(app.data_size.max(2), 2);
            let (code_start, data_lower, upper) = match napot {
                Some(rule) => {
                    Self::place_napot(rule, cursor, app.code_size, stack_bytes, data_bytes)
                        .ok_or_else(does_not_fit)?
                }
                None => {
                    let code_start = cursor;
                    let code_end_unaligned = code_start
                        .checked_add(app.code_size)
                        .ok_or_else(does_not_fit)?;
                    // D_i must land on an MPU boundary.
                    let data_lower = align_up(code_end_unaligned, g);
                    let data_end = data_lower
                        .checked_add(stack_bytes)
                        .and_then(|s| s.checked_add(data_bytes))
                        .ok_or_else(does_not_fit)?;
                    // T_i must land on an MPU boundary too.
                    (code_start, data_lower, align_up(data_end, g))
                }
            };
            if upper > self.platform.fram.end {
                return Err(does_not_fit());
            }
            let stack_end = data_lower + stack_bytes;
            let stack = AddrRange::new(data_lower, stack_end);
            // Pad the data region up to the solved upper bound so the whole
            // segment is owned by the app (the linker places nothing there).
            let data = AddrRange::new(stack_end, upper);
            // Waste is measured from the previous app's end, so a leading
            // gap forced by NAPOT base alignment is charged to the app
            // that needed it.
            let consumed = upper - cursor;
            placements.push(AppPlacement {
                name: app.name.clone(),
                index,
                code: AddrRange::new(code_start, data_lower),
                stack,
                data,
                padding_bytes: consumed - app.code_size - stack_bytes - data_bytes,
            });
            cursor = upper;
        }

        let map = MemoryMap {
            platform: self.platform.clone(),
            os_code,
            os_data,
            os_stack,
            apps: placements,
        };
        map.validate()?;
        Ok(map)
    }

    /// Solves one app's bounds under a NAPOT size rule, returning
    /// `(C_i, D_i, T_i)` — or `None` on arithmetic overflow (the caller
    /// reports it as an oversized build).
    ///
    /// Both hardware regions are rounded up to power-of-two spans
    /// (`code_span` covers the code, `data_span` covers stack + data) and
    /// must each be aligned to their own size.  Because the two spans are
    /// powers of two, aligning the shared boundary `D_i` to the *larger*
    /// span aligns it to both: `C_i = D_i − code_span` is then
    /// automatically `code_span`-aligned, and `T_i = D_i + data_span` is
    /// `data_span`-aligned.  The solver therefore places
    /// `D_i = align_up(cursor + code_span, max(code_span, data_span))`,
    /// which is the lowest boundary with `C_i ≥ cursor`.
    fn place_napot(
        rule: SizeRule,
        cursor: Addr,
        code_size: u32,
        stack_bytes: u32,
        data_bytes: u32,
    ) -> Option<(Addr, Addr, Addr)> {
        let code_span = rule.region_span(code_size);
        let data_span = rule.region_span(stack_bytes.checked_add(data_bytes)?);
        let align = code_span.max(data_span);
        let data_lower = cursor.checked_add(code_span)?.checked_add(align - 1)? / align * align;
        let upper = data_lower.checked_add(data_span)?;
        Some((data_lower - code_span, data_lower, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_apps() -> Vec<AppImageSpec> {
        vec![
            AppImageSpec::new("HeartRate", 0x900, 0x200, 0x100),
            AppImageSpec::new("Pedometer", 0x1200, 0x400, 0x180),
            AppImageSpec::new("Clock", 0x600, 0x100, 0x80),
        ]
    }

    #[test]
    fn plans_the_figure1_layout() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let map = planner
            .plan(&OsImageSpec::default(), &three_apps())
            .unwrap();
        assert!(map.validate().is_ok());

        // OS stack in SRAM, OS image in low FRAM.
        assert!(map.platform.sram.contains_range(&map.os_stack));
        assert!(map.platform.fram.contains_range(&map.os_code));
        assert_eq!(map.os_data.start, map.os_code.end);

        // Apps above the OS, in order, code below data/stack.
        let mut prev_end = map.os_data.end;
        for app in &map.apps {
            assert!(app.code.start >= prev_end);
            assert!(app.code.end <= app.stack.start);
            assert_eq!(app.stack.end, app.data.start);
            prev_end = app.upper_bound();
        }
    }

    #[test]
    fn bounds_are_mpu_aligned() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let map = planner
            .plan(&OsImageSpec::default(), &three_apps())
            .unwrap();
        let g = map.platform.mpu_boundary_granularity();
        for app in &map.apps {
            assert_eq!(app.data_lower_bound() % g, 0, "{} D_i unaligned", app.name);
            assert_eq!(app.upper_bound() % g, 0, "{} T_i unaligned", app.name);
        }
    }

    #[test]
    fn stack_sits_below_data_and_grows_toward_code() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let map = planner
            .plan(&OsImageSpec::default(), &three_apps())
            .unwrap();
        for app in &map.apps {
            assert!(app.stack.start < app.data.start);
            assert_eq!(app.initial_stack_pointer(), app.stack.end);
            // Growing down from the initial SP eventually reaches the code
            // segment boundary D_i == stack.start.
            assert_eq!(app.stack.start, app.data_lower_bound());
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let apps = vec![
            AppImageSpec::new("HR", 0x400, 0x100, 0x80),
            AppImageSpec::new("HR", 0x400, 0x100, 0x80),
        ];
        assert_eq!(
            planner.plan(&OsImageSpec::default(), &apps),
            Err(CoreError::DuplicateApp("HR".into()))
        );
    }

    #[test]
    fn oversized_build_is_rejected() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let apps = vec![
            AppImageSpec::new("Big1", 0x8000, 0x2000, 0x400),
            AppImageSpec::new("Big2", 0x8000, 0x2000, 0x400),
            AppImageSpec::new("Big3", 0x8000, 0x2000, 0x400),
        ];
        match planner.plan(&OsImageSpec::default(), &apps) {
            Err(CoreError::AppsDoNotFit { .. }) => {}
            other => panic!("expected AppsDoNotFit, got {other:?}"),
        }
    }

    #[test]
    fn oversized_os_stack_is_rejected() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let os = OsImageSpec {
            stack_size: 0x10000,
            ..OsImageSpec::default()
        };
        match planner.plan(&os, &three_apps()) {
            Err(CoreError::OsStackTooLarge { .. }) => {}
            other => panic!("expected OsStackTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn zero_sized_code_or_stack_rejected() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let apps = vec![AppImageSpec::new("Empty", 0, 0x10, 0x40)];
        assert!(matches!(
            planner.plan(&OsImageSpec::default(), &apps),
            Err(CoreError::AppImageInvalid { .. })
        ));
        let apps = vec![AppImageSpec::new("NoStack", 0x40, 0x10, 0)];
        assert!(matches!(
            planner.plan(&OsImageSpec::default(), &apps),
            Err(CoreError::AppImageInvalid { .. })
        ));
    }

    #[test]
    fn empty_app_list_is_fine() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let map = planner.plan(&OsImageSpec::default(), &[]).unwrap();
        assert!(map.apps.is_empty());
        assert_eq!(map.apps_base(), map.os_data.end);
        assert_eq!(map.apps_end(), map.os_data.end);
    }

    #[test]
    fn display_renders_every_app() {
        let planner = MemoryMapPlanner::msp430fr5969();
        let map = planner
            .plan(&OsImageSpec::default(), &three_apps())
            .unwrap();
        let s = map.to_string();
        for app in ["HeartRate", "Pedometer", "Clock"] {
            assert!(s.contains(app));
        }
    }

    #[test]
    fn platform_validation_catches_overlaps() {
        let mut p = PlatformSpec::msp430fr5969();
        p.sram = AddrRange::new(0x1800, 0x2400); // overlaps info_mem
        assert!(matches!(p.validate(), Err(CoreError::InvalidPlatform(_))));
    }

    #[test]
    fn advanced_mpu_platform_has_four_segments() {
        let p = PlatformSpec::msp430fr5969_advanced_mpu();
        assert_eq!(p.mpu_main_segments(), 4);
        assert!(p.validate().is_ok());
    }
}

//! The platform abstraction layer: MPU capability models, per-backend
//! region-planning constraints and per-platform cycle-cost tables.  A
//! platform is named by one value, a [`crate::layout::PlatformSpec`]
//! (built by its constructors or listed by [`builtin_platforms`]), which
//! the planner, the MPU plans, the context-switch plans and the overhead
//! model all take.
//!
//! The paper evaluates one device — the MSP430FR5969, whose MPU divides
//! main memory into three **segments** separated by two movable boundaries —
//! but its isolation methods are general.  Other MCU families expose
//! **region-based** protection instead: Tock/Cortex-M-style base/limit
//! regions, ARMv8-M MPUs whose jurisdiction also covers peripheral space,
//! and RISC-V PMPs whose NAPOT entries must be power-of-two sized and
//! size-aligned.  [`MpuModel`] captures the segmented shape directly and
//! every region-based shape through a [`RegionConstraints`] descriptor, so
//! the policy layers above can ask *what the hardware can express* — and at
//! what configuration cost — instead of assuming any one device.
//!
//! The same app builds an [`crate::mpu_plan::MpuPlan`] in whichever
//! register shape the platform's MPU speaks:
//!
//! ```
//! use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec, PlatformSpec};
//! use amulet_core::mpu_plan::{MpuConfig, MpuPlan};
//!
//! for spec in [
//!     PlatformSpec::msp430fr5969(),
//!     PlatformSpec::msp430fr5994(),
//!     PlatformSpec::riscv_pmp(),
//!     PlatformSpec::cortex_m33(),
//! ] {
//!     let map = MemoryMapPlanner::new(spec.clone())
//!         .unwrap()
//!         .plan(
//!             &OsImageSpec::default(),
//!             &[AppImageSpec::new("App", 0x400, 0x100, 0x80)],
//!         )
//!         .unwrap();
//!     let config = MpuPlan::for_app_on(&map, 0).unwrap().config(&spec.mpu);
//!     match (&spec.mpu, &config) {
//!         (m, MpuConfig::Segmented(_)) if !m.is_region_based() => {}
//!         (m, MpuConfig::Pmp(_)) if m.is_napot() => {}
//!         (m, MpuConfig::Region(_)) if m.is_region_based() && !m.is_napot() => {}
//!         other => panic!("plan shape must follow the MPU model: {other:?}"),
//!     }
//! }
//! ```

use std::fmt;

/// Region slots a region-based MPU configuration spends on the running
/// application: its code region (execute-only) and its data/stack region
/// (read-write).  This is a property of the Figure-1 app shape, not of any
/// particular backend.
pub(crate) const APP_PLAN_REGIONS: u32 = 2;

/// Region slots the OS-running configuration spends on a region-based MPU
/// *before* any peripheral region: OS code, OS data, SRAM (the OS stack)
/// and the whole application area.
pub(crate) const OS_PLAN_BASE_REGIONS: u32 = 4;

/// The rule a planned region's size — and through it, its base address —
/// must satisfy on a region-based MPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeRule {
    /// Cortex-M/Tock-style: region bases and limits must fall on
    /// `align`-byte marks; any multiple-of-`align` size is expressible.
    AnyAligned {
        /// Required alignment of region bases and limits, in bytes.
        align: u32,
    },
    /// RISC-V PMP NAPOT-style: a region's size must be a power of two no
    /// smaller than `min` bytes, and its base must be aligned to its own
    /// size (naturally aligned power-of-two).
    NapotPow2 {
        /// Smallest expressible region size, in bytes (a power of two).
        min: u32,
    },
}

impl SizeRule {
    /// The *minimum* alignment every region boundary is guaranteed to
    /// satisfy under this rule (NAPOT boundaries are aligned at least to
    /// the minimum region size; individual regions are aligned to their
    /// own, larger, size).
    pub(crate) fn min_align(&self) -> u32 {
        match self {
            SizeRule::AnyAligned { align } => *align,
            SizeRule::NapotPow2 { min } => *min,
        }
    }

    /// The smallest expressible region span that covers `needed` bytes.
    pub fn region_span(&self, needed: u32) -> u32 {
        match self {
            SizeRule::AnyAligned { align } => crate::addr::align_up(needed.max(1), *align),
            SizeRule::NapotPow2 { min } => needed.max(*min).next_power_of_two(),
        }
    }

    /// Whether `range` is a valid region under this rule.
    pub fn is_valid_region(&self, range: &crate::addr::AddrRange) -> bool {
        let len = range.len();
        match self {
            SizeRule::AnyAligned { align } => {
                len > 0 && range.start.is_multiple_of(*align) && range.end.is_multiple_of(*align)
            }
            SizeRule::NapotPow2 { min } => {
                len.is_power_of_two() && len >= *min && range.start.is_multiple_of(len)
            }
        }
    }
}

impl fmt::Display for SizeRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeRule::AnyAligned { align } => write!(f, "{align}-byte alignment"),
            SizeRule::NapotPow2 { min } => {
                write!(f, "NAPOT (power-of-two size ≥ {min} B, size-aligned)")
            }
        }
    }
}

/// Everything the layout planner and the cost models need to know about a
/// region-based MPU: how many regions exist, what shapes they can take,
/// what memory they police, and what programming one costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionConstraints {
    /// Number of region slots the hardware provides.
    pub regions: usize,
    /// The base/size rule every planned region must satisfy.
    pub size_rule: SizeRule,
    /// Whether the MPU's deny-by-default jurisdiction extends over the
    /// **full platform space** — memory-mapped peripherals, the boot ROM
    /// and the vector table (ARMv8-M style; RISC-V PMP polices everything
    /// user mode touches).  When true, the planner can drop the software
    /// function-pointer checks too: a corrupted code pointer has nowhere
    /// unpoliced to escape to.
    pub covers_peripherals: bool,
    /// Register writes needed to program one region (3 for an
    /// RNR/RBAR/RLAR select-base-limit interface, 1 for a PMP `pmpaddr`
    /// entry whose packed config word is counted in `control_writes`).
    pub writes_per_region: u32,
    /// Trailing writes per reconfiguration (control/enable words, packed
    /// PMP config words, privilege-mode toggles).
    pub control_writes: u32,
    /// Whether privileged (OS/machine-mode) execution bypasses the MPU
    /// entirely, RISC-V PMP style: the OS-running "configuration" is then
    /// just the privilege-mode toggle, not a set of OS regions.
    pub privileged_bypass: bool,
}

impl RegionConstraints {
    /// Region slots an OS-running configuration programs (0 when
    /// privileged execution bypasses the MPU; the four base regions plus a
    /// peripheral region when the jurisdiction covers peripheral space).
    pub(crate) fn os_plan_regions(&self) -> u32 {
        if self.privileged_bypass {
            0
        } else {
            OS_PLAN_BASE_REGIONS + u32::from(self.covers_peripherals)
        }
    }

    /// Register writes to install a configuration of `regions` regions.
    pub(crate) fn config_writes(&self, regions: u32) -> u32 {
        regions * self.writes_per_region + self.control_writes
    }

    /// Register writes to install the running-app configuration.
    pub(crate) fn config_writes_for_app(&self) -> u32 {
        self.config_writes(APP_PLAN_REGIONS)
    }

    /// Register writes to install the OS-running configuration (a single
    /// privilege-mode write on privileged-bypass hardware).
    pub(crate) fn config_writes_for_os(&self) -> u32 {
        if self.privileged_bypass {
            1
        } else {
            self.config_writes(self.os_plan_regions())
        }
    }
}

/// The MPU capability model of a platform: what protection shapes the
/// hardware can express, and at what configuration cost.
///
/// ```
/// use amulet_core::layout::PlatformSpec;
/// use amulet_core::platform::MpuModel;
///
/// let fr5969 = MpuModel::Segmented { main_segments: 3, boundary_granularity: 0x400 };
/// let region = PlatformSpec::msp430fr5994().mpu;
/// let pmp = MpuModel::riscv_pmp_napot(8, 0x40);
/// // Three segments cannot bound the running app from below — which is
/// // exactly why the paper's MPU method keeps a software lower-bound
/// // check; region hardware bounds both sides.
/// assert!(!fr5969.bounds_app_below());
/// assert!(region.bounds_app_below());
/// // NAPOT hardware additionally forces power-of-two, size-aligned regions.
/// assert_eq!(pmp.constraints().unwrap().size_rule.region_span(0x180), 0x200);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpuModel {
    /// FR5969-style segmented MPU: `main_segments` segments over main
    /// memory, separated by movable boundaries that must fall on
    /// `boundary_granularity`-byte marks.  Memory outside main FRAM and
    /// InfoMem is not policed at all, and configuration sits behind a
    /// password-protected register protocol.
    Segmented {
        /// Number of main-memory segments with movable boundaries (3 on the
        /// FR5969; 4 in the "advanced MPU" ablation).
        main_segments: usize,
        /// Granularity of the movable boundaries, in bytes.
        boundary_granularity: u32,
    },
    /// A region-based MPU, described by its planning constraints: a fixed
    /// number of independent regions with per-region R/W/X permissions and
    /// **deny-by-default** semantics inside the backend's jurisdiction.
    Region(RegionConstraints),
}

impl MpuModel {
    /// A Tock/Cortex-M-style region MPU: `regions` base/limit slots at
    /// `alignment`-byte granularity, policing FRAM, InfoMem and SRAM (but
    /// not peripheral space), programmed through a select/base/limit
    /// register file.
    pub(crate) fn tock_region(regions: usize, alignment: u32) -> Self {
        MpuModel::Region(RegionConstraints {
            regions,
            size_rule: SizeRule::AnyAligned { align: alignment },
            covers_peripherals: false,
            writes_per_region: 3,
            control_writes: 1,
            privileged_bypass: false,
        })
    }

    /// An ARMv8-M (Cortex-M33-class) MPU: `regions` slots at 32-byte
    /// alignment whose jurisdiction **includes peripheral space**, so the
    /// planner adds a peripheral region to the OS configuration and drops
    /// the software function-pointer checks.
    pub(crate) fn cortex_m33_region(regions: usize) -> Self {
        MpuModel::Region(RegionConstraints {
            regions,
            size_rule: SizeRule::AnyAligned { align: 0x20 },
            covers_peripherals: true,
            writes_per_region: 3,
            control_writes: 1,
            privileged_bypass: false,
        })
    }

    /// A RISC-V PMP with `entries` NAPOT entries of minimum size `min`:
    /// regions are power-of-two sized and size-aligned, user-mode
    /// execution is policed over the whole address space (peripherals
    /// included), and machine mode bypasses the PMP — so the OS-running
    /// configuration is a single privilege-mode toggle.  Each entry is one
    /// `pmpaddr` CSR write; the two packed `pmpcfg` words (the driver
    /// rewrites the full set, disabling stale entries) and the mode
    /// toggle are the three trailing control writes.
    pub fn riscv_pmp_napot(entries: usize, min: u32) -> Self {
        MpuModel::Region(RegionConstraints {
            regions: entries,
            size_rule: SizeRule::NapotPow2 { min },
            covers_peripherals: true,
            writes_per_region: 1,
            control_writes: 3,
            privileged_bypass: true,
        })
    }

    /// The region-planning constraints, when this is a region-based MPU.
    pub fn constraints(&self) -> Option<&RegionConstraints> {
        match self {
            MpuModel::Segmented { .. } => None,
            MpuModel::Region(c) => Some(c),
        }
    }

    /// The *minimum* alignment that app bounds (`D_i`, `T_i`) are
    /// guaranteed to satisfy: boundary granularity for segmented MPUs, the
    /// size rule's minimum alignment for region MPUs.  NAPOT backends
    /// impose stricter per-region rules on top — the planner solves those
    /// through [`MpuModel::constraints`], and this floor is what generic
    /// validity checks may rely on.
    pub(crate) fn boundary_granularity(&self) -> u32 {
        match self {
            MpuModel::Segmented {
                boundary_granularity,
                ..
            } => *boundary_granularity,
            MpuModel::Region(c) => c.size_rule.min_align(),
        }
    }

    /// How many distinct protection slots the hardware offers (segments or
    /// regions).
    pub fn main_segments(&self) -> usize {
        match self {
            MpuModel::Segmented { main_segments, .. } => *main_segments,
            MpuModel::Region(c) => c.regions,
        }
    }

    /// Whether this is a region-based (full-coverage, deny-by-default) MPU.
    pub fn is_region_based(&self) -> bool {
        matches!(self, MpuModel::Region(_))
    }

    /// Whether this is a NAPOT (RISC-V-PMP-style) region MPU — the shape
    /// the simulator's `PmpMpu` bus backend models.
    pub fn is_napot(&self) -> bool {
        matches!(
            self,
            MpuModel::Region(RegionConstraints {
                size_rule: SizeRule::NapotPow2 { .. },
                ..
            })
        )
    }

    /// Whether the MPU's jurisdiction covers memory-mapped peripheral
    /// space (deny-by-default there too).
    pub fn covers_peripherals(&self) -> bool {
        self.constraints().is_some_and(|c| c.covers_peripherals)
    }

    /// Whether the hardware can bound the running app from **below** as
    /// well as above.  The FR5969's three segments cannot (the segment
    /// below the app's data must stay executable for the app's own code),
    /// which is why the paper's MPU method still inserts lower-bound
    /// checks in software; four segments or a region MPU can.
    pub fn bounds_app_below(&self) -> bool {
        match self {
            MpuModel::Segmented { main_segments, .. } => *main_segments >= 4,
            MpuModel::Region(_) => true,
        }
    }

    /// Peripheral-register writes the OS performs to install the
    /// configuration for a *running application*, derived from the
    /// backend's [`RegionConstraints`] on region hardware.
    pub fn config_writes_for_app(&self) -> u32 {
        match self {
            // SEGB1, SEGB2, SAM, CTL0 — the FR5969 sequence from the paper.
            MpuModel::Segmented { .. } => 4,
            MpuModel::Region(c) => c.config_writes_for_app(),
        }
    }

    /// Peripheral-register writes the OS performs to install its *own*
    /// configuration when an app traps into it.
    pub(crate) fn config_writes_for_os(&self) -> u32 {
        match self {
            MpuModel::Segmented { .. } => 4,
            MpuModel::Region(c) => c.config_writes_for_os(),
        }
    }

    /// Extra cycles of protocol overhead per reconfiguration (the segmented
    /// part's password dance; region MPUs have none).
    pub(crate) fn unlock_overhead_cycles(&self) -> u64 {
        match self {
            MpuModel::Segmented { .. } => 2,
            MpuModel::Region(_) => 0,
        }
    }
}

impl fmt::Display for MpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpuModel::Segmented {
                main_segments,
                boundary_granularity,
            } => write!(
                f,
                "segmented MPU ({main_segments} segments, {boundary_granularity}-byte boundaries)"
            ),
            MpuModel::Region(c) => {
                write!(f, "region MPU ({} regions, {}", c.regions, c.size_rule)?;
                if c.covers_peripherals {
                    write!(f, ", peripheral jurisdiction")?;
                }
                if c.privileged_bypass {
                    write!(f, ", privileged bypass")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Electrical parameters of a platform, kept in integer units so
/// `PlatformSpec` stays `Eq`; [`crate::energy::EnergyModel::for_platform`]
/// derives its floating-point model from these.  The defaults are the
/// MSP430FR5969's datasheet figures (16 MHz, ≈100 µA/MHz, 3 V; LPM3 with
/// the RTC running draws ≈0.7 µA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnergyParams {
    /// CPU clock frequency in Hz.
    pub frequency_hz: u64,
    /// Active-mode supply current in microamperes at that frequency.
    pub active_current_ua: u32,
    /// Low-power-mode (sleep) supply current in **nanoamperes** — the draw
    /// between events, when the CPU is stopped and only the RTC/wakeup
    /// logic runs.  Nanoamperes because LPM3-class currents are fractions
    /// of a microampere.
    pub lpm_current_na: u32,
    /// Supply voltage in millivolts.
    pub supply_millivolts: u32,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            frequency_hz: 16_000_000,
            active_current_ua: 1600,
            lpm_current_na: 700,
            supply_millivolts: 3000,
        }
    }
}

/// Per-platform cycle costs used by the analytic models.  The defaults are
/// the MSP430-flavoured constants that reproduce the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleCostTable {
    /// Cycles per peripheral-register write (MPU reconfiguration traffic).
    pub reg_write_cycles: u64,
    /// Baseline cycles of one application data-memory access under No
    /// Isolation (Table 1's 23-cycle figure).
    pub memory_access_baseline: u64,
    /// Baseline cycles of one OS API-call round trip under No Isolation
    /// (Table 1's 90-cycle figure).
    pub context_switch_baseline: u64,
}

impl Default for CycleCostTable {
    fn default() -> Self {
        CycleCostTable {
            reg_write_cycles: 5,
            memory_access_baseline: 23,
            context_switch_baseline: 90,
        }
    }
}

impl CycleCostTable {
    /// Cycles to install `mpu`'s configuration for a running app.
    pub(crate) fn mpu_config_cycles_for_app(&self, mpu: &MpuModel) -> u64 {
        mpu.config_writes_for_app() as u64 * self.reg_write_cycles + mpu.unlock_overhead_cycles()
    }

    /// Cycles to install `mpu`'s configuration for the OS itself.
    pub(crate) fn mpu_config_cycles_for_os(&self, mpu: &MpuModel) -> u64 {
        mpu.config_writes_for_os() as u64 * self.reg_write_cycles + mpu.unlock_overhead_cycles()
    }
}

/// Every built-in platform profile, for cross-platform test sweeps and the
/// platform-comparison bench.
pub fn builtin_platforms() -> Vec<crate::layout::PlatformSpec> {
    vec![
        crate::layout::PlatformSpec::msp430fr5969(),
        crate::layout::PlatformSpec::msp430fr5969_advanced_mpu(),
        crate::layout::PlatformSpec::msp430fr5994(),
        crate::layout::PlatformSpec::riscv_pmp(),
        crate::layout::PlatformSpec::cortex_m33(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrRange;

    #[test]
    fn segmented_model_matches_fr5969_costs() {
        let mpu = MpuModel::Segmented {
            main_segments: 3,
            boundary_granularity: 0x400,
        };
        let costs = CycleCostTable::default();
        // 4 writes × 5 cycles + 2 unlock cycles = the 22-cycle ConfigureMpu
        // step that reproduces Table 1's 142-cycle MPU context switch.
        assert_eq!(costs.mpu_config_cycles_for_app(&mpu), 22);
        assert_eq!(costs.mpu_config_cycles_for_os(&mpu), 22);
        assert!(!mpu.bounds_app_below());
        assert!(!mpu.is_region_based());
        assert!(mpu.constraints().is_none());
    }

    #[test]
    fn tock_region_model_costs_derive_from_its_constraints() {
        let mpu = MpuModel::tock_region(8, 0x100);
        let costs = CycleCostTable::default();
        // 2 app regions × 3 writes + control = 7 writes, no password dance.
        assert_eq!(mpu.config_writes_for_app(), 7);
        assert_eq!(costs.mpu_config_cycles_for_app(&mpu), 35);
        // 4 OS regions (code, data, SRAM, app area) × 3 writes + control.
        assert_eq!(mpu.config_writes_for_os(), 13);
        assert_eq!(costs.mpu_config_cycles_for_os(&mpu), 65);
        assert!(mpu.bounds_app_below());
        assert!(mpu.is_region_based());
        assert!(!mpu.is_napot());
        assert!(!mpu.covers_peripherals());
        assert_eq!(mpu.boundary_granularity(), 0x100);
    }

    #[test]
    fn cortex_m33_model_adds_a_peripheral_os_region() {
        let mpu = MpuModel::cortex_m33_region(16);
        assert!(mpu.covers_peripherals());
        assert_eq!(mpu.boundary_granularity(), 0x20);
        // App config unchanged in shape (2 regions); the OS config carries
        // a fifth (peripheral) region: 5 × 3 + 1 = 16 writes.
        assert_eq!(mpu.config_writes_for_app(), 7);
        assert_eq!(mpu.config_writes_for_os(), 16);
        assert_eq!(mpu.constraints().unwrap().os_plan_regions(), 5);
    }

    #[test]
    fn riscv_pmp_model_is_napot_with_machine_mode_bypass() {
        let mpu = MpuModel::riscv_pmp_napot(8, 0x40);
        assert!(mpu.is_napot());
        assert!(mpu.covers_peripherals());
        assert_eq!(mpu.boundary_granularity(), 0x40);
        // App config: 2 pmpaddr writes + both packed pmpcfg words + mode
        // = 5 writes; entering machine mode is a single privilege toggle.
        assert_eq!(mpu.config_writes_for_app(), 5);
        assert_eq!(mpu.config_writes_for_os(), 1);
        let costs = CycleCostTable::default();
        assert_eq!(costs.mpu_config_cycles_for_app(&mpu), 25);
        assert_eq!(costs.mpu_config_cycles_for_os(&mpu), 5);
    }

    #[test]
    fn size_rules_span_and_validate() {
        let aligned = SizeRule::AnyAligned { align: 0x100 };
        assert_eq!(aligned.region_span(0x180), 0x200);
        assert!(aligned.is_valid_region(&AddrRange::new(0x4400, 0x4500)));
        assert!(!aligned.is_valid_region(&AddrRange::new(0x4410, 0x4500)));

        let napot = SizeRule::NapotPow2 { min: 0x40 };
        assert_eq!(napot.region_span(0x180), 0x200);
        assert_eq!(napot.region_span(1), 0x40);
        assert_eq!(napot.region_span(0x200), 0x200);
        // Power-of-two size, base aligned to the size.
        assert!(napot.is_valid_region(&AddrRange::new(0x4400, 0x4800)));
        assert!(!napot.is_valid_region(&AddrRange::new(0x4400, 0x4700)));
        assert!(!napot.is_valid_region(&AddrRange::new(0x4600, 0x4A00)));
        assert!(!napot.is_valid_region(&AddrRange::new(0x4400, 0x4420)));
    }

    #[test]
    fn advanced_segmented_mpu_bounds_below() {
        let mpu = MpuModel::Segmented {
            main_segments: 4,
            boundary_granularity: 0x400,
        };
        assert!(mpu.bounds_app_below());
    }

    #[test]
    fn builtin_profiles_are_valid_and_distinct() {
        let platforms = builtin_platforms();
        assert_eq!(platforms.len(), 5, "five built-in profiles");
        let mut names: Vec<_> = platforms.iter().map(|p| p.name.clone()).collect();
        for p in &platforms {
            p.validate().unwrap();
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), platforms.len(), "platform names are unique");
    }

    #[test]
    fn builtin_profiles_carry_their_mpu_models() {
        use crate::layout::PlatformSpec;
        assert!(PlatformSpec::msp430fr5994().mpu.is_region_based());
        assert!(!PlatformSpec::msp430fr5969().mpu.is_region_based());
        assert_eq!(
            PlatformSpec::msp430fr5969_advanced_mpu()
                .mpu
                .main_segments(),
            4
        );
        assert!(PlatformSpec::riscv_pmp().mpu.is_napot());
        let m33 = PlatformSpec::cortex_m33().mpu;
        assert!(m33.covers_peripherals());
        assert_eq!(m33.main_segments(), 16);
    }

    #[test]
    fn display_names_the_shape() {
        let seg = MpuModel::Segmented {
            main_segments: 3,
            boundary_granularity: 0x400,
        };
        assert!(seg.to_string().contains("segmented"));
        assert!(MpuModel::tock_region(8, 0x100)
            .to_string()
            .contains("region"));
        assert!(MpuModel::riscv_pmp_napot(8, 0x40)
            .to_string()
            .contains("NAPOT"));
        assert!(MpuModel::cortex_m33_region(16)
            .to_string()
            .contains("peripheral jurisdiction"));
    }
}

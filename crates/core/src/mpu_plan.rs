//! MPU configurations for "app *i* running" and "OS running".
//!
//! The MSP430FR5969 MPU divides main FRAM into three segments using two
//! movable boundaries (plus a fourth segment pinned to InfoMem), and each
//! segment carries read/write/execute bits.  While application *i* runs the
//! paper programs it as (Figure 1):
//!
//! | segment | contents                                   | access |
//! |---------|--------------------------------------------|--------|
//! | 0       | InfoMem (unused)                           | `---`  |
//! | 1       | OS, lower-memory apps, app *i*'s code      | `--X`  |
//! | 2       | app *i*'s data and stack                   | `RW-`  |
//! | 3       | higher-memory apps                         | `---`  |
//!
//! and while the OS runs:
//!
//! | segment | contents                       | access |
//! |---------|--------------------------------|--------|
//! | 0       | InfoMem (unused)               | `---`  |
//! | 1       | OS code                        | `--X`  |
//! | 2       | OS data (and vectors)          | `RW-`  |
//! | 3       | applications                   | `RW-`  |
//!
//! [`MpuPlan`] captures those configurations abstractly;
//! [`MpuRegisterValues`] encodes them into the MSP430-style memory-mapped
//! registers that the OS's MPU driver writes on every context switch.

use crate::addr::{align_down, Addr, AddrRange};
use crate::error::{CoreError, CoreResult};
use crate::layout::MemoryMap;
use crate::perm::Perm;
use std::fmt;

/// What a planned MPU segment is protecting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegmentRole {
    /// The pinned InfoMem segment (segment 0), unused by the paper's design.
    InfoMem,
    /// Everything below the running app's data: OS image, lower apps, and the
    /// running app's own code (execute-only).
    BelowAppData,
    /// The running app's data/stack segment (read-write).
    AppDataStack,
    /// Apps above the running app (no access).
    AboveApp,
    /// OS code while the OS runs (execute-only).
    OsCode,
    /// OS data while the OS runs (read-write).
    OsData,
    /// The whole application area while the OS runs (read-write so the OS can
    /// deliver events and copy buffers).
    AppsRegion,
    /// The running app's code segment in the "advanced MPU" ablation, where a
    /// fourth segment lets hardware bound the app from below as well.
    AppCode,
    /// Memory below the running app in the "advanced MPU" ablation
    /// (no access).
    BelowAppBlocked,
    /// SRAM (the OS stack) while the OS runs — only region MPUs police
    /// SRAM, which is what makes their no-software-lower-check policy
    /// sound.
    OsSram,
    /// The memory-mapped peripheral space while the OS runs — present only
    /// on backends whose jurisdiction covers peripherals (the OS must keep
    /// its own access to the register files it drives).
    OsPeripherals,
}

/// Whose execution a plan is for.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MpuContext {
    /// The OS (scheduler, services, drivers) is running.
    OsRunning,
    /// The named application (at the given build index) is running.
    AppRunning {
        /// Application name.
        name: String,
        /// Application index in the build.
        index: usize,
    },
}

/// One planned MPU segment: an address range, its permissions, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpuSegmentPlan {
    /// Hardware segment index (0 = InfoMem).
    pub index: usize,
    /// Address range covered by the segment.
    pub range: AddrRange,
    /// Permissions granted to code running while this plan is active.
    pub perm: Perm,
    /// What the segment is protecting.
    pub role: SegmentRole,
}

/// A full MPU configuration: every segment plus the two movable boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpuPlan {
    /// Whose execution this configuration is for.
    pub context: MpuContext,
    /// All segments, ordered by hardware index.
    pub segments: Vec<MpuSegmentPlan>,
    /// First movable boundary (between main segments 1 and 2).
    pub boundary1: Addr,
    /// Second movable boundary (between main segments 2 and 3).
    pub boundary2: Addr,
}

/// Values for the MSP430-style memory-mapped MPU registers.
///
/// Encodings follow the FR5969 conventions: boundary registers hold the
/// address divided by 16, `MPUSAM` packs R/W/X bits per segment in nibbles,
/// and `MPUCTL0` carries the enable bit and must be written together with the
/// `0xA5xx` password.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MpuRegisterValues {
    /// `MPUCTL0`: password (high byte `0xA5`) | enable (bit 0) | lock (bit 1).
    pub mpuctl0: u16,
    /// `MPUSEGB1`: first boundary address >> 4.
    pub mpusegb1: u16,
    /// `MPUSEGB2`: second boundary address >> 4.
    pub mpusegb2: u16,
    /// `MPUSAM`: access bits, segment 1 in bits 0..3, segment 2 in bits
    /// 4..7, segment 3 in bits 8..11, InfoMem in bits 12..15.
    pub mpusam: u16,
}

impl MpuRegisterValues {
    /// Number of peripheral-register writes the OS performs to install this
    /// configuration during a context switch (boundaries, access bits, then
    /// control/enable).  This count is what makes the MPU method's context
    /// switch more expensive in Table 1.
    pub const WRITE_COUNT: u32 = 4;
}

/// One region of a region-based (Tock/Cortex-M-style) MPU configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionDesc {
    /// Address range the region covers.
    pub range: AddrRange,
    /// Permissions the region grants.
    pub perm: Perm,
}

/// Values for a region-based MPU's register file: the regions to program
/// (each costing a select + base + limit/attribute write) plus the control
/// word.  Regions not listed are disabled, and — unlike the segmented part —
/// accesses within the MPU's jurisdiction that no region grants are denied.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RegionRegisterValues {
    /// Regions to program, in slot order starting at slot 0.
    pub regions: Vec<RegionDesc>,
}

impl RegionRegisterValues {
    /// Register writes per region of the RNR/RBAR/RLAR interface both
    /// aligned-region backends share: select the slot, write its base,
    /// write its limit/attribute word.
    pub const WRITES_PER_REGION: u32 = 3;

    /// Number of peripheral-register writes needed to install this
    /// configuration (select/base/limit per region, then the control word).
    pub fn write_count(&self) -> u32 {
        self.regions.len() as u32 * Self::WRITES_PER_REGION + 1
    }
}

/// Values for a RISC-V-PMP-style register file: NAPOT entries (each one
/// `pmpaddr` CSR write; their R/W/X+enable nibbles pack four to a `pmpcfg`
/// word, and a switch rewrites the register file's **both** `pmpcfg`
/// words so stale entries from a wider previous configuration are always
/// disabled) plus the privilege-mode toggle.  `user_mode == false` is the
/// machine-mode configuration the OS runs under — the PMP does not
/// constrain machine mode, so installing it is the mode toggle alone.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PmpRegisterValues {
    /// NAPOT entries to program, in entry order starting at entry 0.  Every
    /// range must be NAPOT-valid (power-of-two length, length-aligned
    /// base) for the `pmpaddr` encoding to round-trip.
    pub entries: Vec<RegionDesc>,
    /// Whether the configuration enforces (user mode) or bypasses (machine
    /// mode) the PMP.
    pub user_mode: bool,
}

impl PmpRegisterValues {
    /// `pmpcfg` words the modelled PMP register file packs its eight
    /// entry configs into; a user-mode install rewrites all of them.
    pub const CFG_WORDS: u32 = 2;

    /// Number of register writes needed to install this configuration:
    /// one `pmpaddr` per entry, both packed `pmpcfg` words, and the
    /// privilege-mode toggle — or the mode toggle alone for the
    /// machine-mode configuration.
    pub fn write_count(&self) -> u32 {
        if !self.user_mode {
            return 1;
        }
        self.entries.len() as u32 + Self::CFG_WORDS + 1
    }
}

/// A full MPU configuration for any hardware shape — what the firmware
/// image carries per app (and for the OS) and what the OS's switch code
/// installs through the bus on every transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpuConfig {
    /// FR5969-style segmented register values.
    Segmented(MpuRegisterValues),
    /// Aligned-region (RNR/RBAR/RLAR) register values.
    Region(RegionRegisterValues),
    /// RISC-V-PMP-style NAPOT register values.
    Pmp(PmpRegisterValues),
}

impl MpuConfig {
    /// Number of peripheral-register writes installing this configuration
    /// costs.
    pub fn write_count(&self) -> u32 {
        match self {
            MpuConfig::Segmented(_) => MpuRegisterValues::WRITE_COUNT,
            MpuConfig::Region(r) => r.write_count(),
            MpuConfig::Pmp(p) => p.write_count(),
        }
    }
}

impl MpuPlan {
    /// The segmented arm of [`MpuPlan::for_app_on`]: the Figure-1
    /// configuration for application `app_index` of the given memory map.
    fn for_app(map: &MemoryMap, app_index: usize) -> CoreResult<Self> {
        let app = map
            .apps
            .get(app_index)
            .ok_or_else(|| CoreError::AppImageInvalid {
                app: format!("#{app_index}"),
                reason: "no such application in the memory map".into(),
            })?;
        let fram = map.platform.fram;
        let g = map.platform.mpu_boundary_granularity();
        let b1 = app.data_lower_bound();
        let b2 = app.upper_bound();
        for b in [b1, b2] {
            if b % g != 0 && b != fram.end {
                return Err(CoreError::UnalignedMpuBoundary {
                    addr: b,
                    granularity: g,
                });
            }
        }
        let segments = vec![
            MpuSegmentPlan {
                index: 0,
                range: map.platform.info_mem,
                perm: Perm::NONE,
                role: SegmentRole::InfoMem,
            },
            MpuSegmentPlan {
                index: 1,
                range: AddrRange::new(fram.start, b1),
                perm: Perm::X,
                role: SegmentRole::BelowAppData,
            },
            MpuSegmentPlan {
                index: 2,
                range: AddrRange::new(b1, b2),
                perm: Perm::RW,
                role: SegmentRole::AppDataStack,
            },
            MpuSegmentPlan {
                index: 3,
                range: AddrRange::new(b2, fram.end),
                perm: Perm::NONE,
                role: SegmentRole::AboveApp,
            },
        ];
        Ok(MpuPlan {
            context: MpuContext::AppRunning {
                name: app.name.clone(),
                index: app_index,
            },
            segments,
            boundary1: b1,
            boundary2: b2,
        })
    }

    /// The segmented arm of [`MpuPlan::for_os_on`]: the configuration used
    /// while the OS itself runs.
    ///
    /// The boundary between OS code and OS data is rounded *down* to the MPU
    /// granularity so that every byte of OS data is writable; the tail of the
    /// OS code region that falls into the read-write segment is harmless
    /// because the OS is trusted.
    fn for_os(map: &MemoryMap) -> CoreResult<Self> {
        let fram = map.platform.fram;
        let g = map.platform.mpu_boundary_granularity();
        let b1 = align_down(map.os_code.end, g).max(fram.start);
        let b2 = map.apps_base();
        if !b2.is_multiple_of(g) && b2 != fram.end {
            return Err(CoreError::UnalignedMpuBoundary {
                addr: b2,
                granularity: g,
            });
        }
        let segments = vec![
            MpuSegmentPlan {
                index: 0,
                range: map.platform.info_mem,
                perm: Perm::NONE,
                role: SegmentRole::InfoMem,
            },
            MpuSegmentPlan {
                index: 1,
                range: AddrRange::new(fram.start, b1),
                perm: Perm::X,
                role: SegmentRole::OsCode,
            },
            MpuSegmentPlan {
                index: 2,
                range: AddrRange::new(b1, b2),
                perm: Perm::RW,
                role: SegmentRole::OsData,
            },
            MpuSegmentPlan {
                index: 3,
                range: AddrRange::new(b2, fram.end),
                perm: Perm::RW,
                role: SegmentRole::AppsRegion,
            },
        ];
        Ok(MpuPlan {
            context: MpuContext::OsRunning,
            segments,
            boundary1: b1,
            boundary2: b2,
        })
    }

    /// Builds the "advanced MPU" ablation configuration for an app: four
    /// segments that also block the region below the app's code, removing the
    /// need for any compiler-inserted lower-bound checks (§5 of the paper).
    pub fn for_app_advanced(map: &MemoryMap, app_index: usize) -> CoreResult<Self> {
        if map.platform.mpu_main_segments() < 4 {
            return Err(CoreError::TooManySegments {
                required: 4,
                available: map.platform.mpu_main_segments(),
            });
        }
        let app = map
            .apps
            .get(app_index)
            .ok_or_else(|| CoreError::AppImageInvalid {
                app: format!("#{app_index}"),
                reason: "no such application in the memory map".into(),
            })?;
        let fram = map.platform.fram;
        let segments = vec![
            MpuSegmentPlan {
                index: 0,
                range: map.platform.info_mem,
                perm: Perm::NONE,
                role: SegmentRole::InfoMem,
            },
            MpuSegmentPlan {
                index: 1,
                range: AddrRange::new(fram.start, app.code_lower_bound()),
                perm: Perm::NONE,
                role: SegmentRole::BelowAppBlocked,
            },
            MpuSegmentPlan {
                index: 2,
                range: app.code,
                perm: Perm::X,
                role: SegmentRole::AppCode,
            },
            MpuSegmentPlan {
                index: 3,
                range: app.data_stack(),
                perm: Perm::RW,
                role: SegmentRole::AppDataStack,
            },
            MpuSegmentPlan {
                index: 4,
                range: AddrRange::new(app.upper_bound(), fram.end),
                perm: Perm::NONE,
                role: SegmentRole::AboveApp,
            },
        ];
        Ok(MpuPlan {
            context: MpuContext::AppRunning {
                name: app.name.clone(),
                index: app_index,
            },
            segments,
            boundary1: app.data_lower_bound(),
            boundary2: app.upper_bound(),
        })
    }

    /// Builds the MPU configuration for application `app_index` in whatever
    /// shape the map's platform supports: the Figure-1 segmented plan on
    /// segmented hardware, or a two-region plan (code execute-only,
    /// data/stack read-write, everything else denied by the hardware's full
    /// coverage) on region hardware — NAPOT backends included, since the
    /// planner already solved both regions to power-of-two, size-aligned
    /// spans.
    pub fn for_app_on(map: &MemoryMap, app_index: usize) -> CoreResult<Self> {
        if map.platform.mpu.is_region_based() {
            Self::for_app_region(map, app_index)
        } else {
            Self::for_app(map, app_index)
        }
    }

    /// Builds the OS-running configuration in whatever shape the map's
    /// platform supports: segmented register values, an OS region set
    /// (plus a peripheral region when the backend polices peripheral
    /// space), or — on privileged-bypass (PMP) hardware — the machine-mode
    /// configuration, which programs no regions at all.
    pub fn for_os_on(map: &MemoryMap) -> CoreResult<Self> {
        match map.platform.mpu.constraints() {
            Some(c) if c.privileged_bypass => Ok(Self::for_os_machine_mode()),
            Some(_) => Self::for_os_region(map),
            None => Self::for_os(map),
        }
    }

    /// The OS-running plan on privileged-bypass (RISC-V PMP) hardware:
    /// machine mode is not constrained by the PMP, so the plan carries no
    /// segments — installing it is a single privilege-mode toggle, and
    /// every OS access is outside the (inactive) user-mode jurisdiction.
    pub fn for_os_machine_mode() -> Self {
        MpuPlan {
            context: MpuContext::OsRunning,
            segments: Vec::new(),
            boundary1: 0,
            boundary2: 0,
        }
    }

    /// Builds the region-MPU configuration for a running app: its code
    /// region execute-only and its data/stack region read-write.  The
    /// region hardware denies everything else inside its jurisdiction, so —
    /// unlike the segmented Figure-1 plan — the app is bounded from *below*
    /// as well, and no compiler-inserted data-pointer check is needed.
    pub fn for_app_region(map: &MemoryMap, app_index: usize) -> CoreResult<Self> {
        let app = map
            .apps
            .get(app_index)
            .ok_or_else(|| CoreError::AppImageInvalid {
                app: format!("#{app_index}"),
                reason: "no such application in the memory map".into(),
            })?;
        let g = map.platform.mpu_boundary_granularity();
        let fram = map.platform.fram;
        for b in [app.data_lower_bound(), app.upper_bound()] {
            if b % g != 0 && b != fram.end {
                return Err(CoreError::UnalignedMpuBoundary {
                    addr: b,
                    granularity: g,
                });
            }
        }
        if let Some(c) = map.platform.mpu.constraints() {
            // The backend's full base/size rule (NAPOT hardware rejects
            // anything that is not a size-aligned power of two).
            for range in [app.code, app.data_stack()] {
                if !c.size_rule.is_valid_region(&range) {
                    return Err(CoreError::UnalignedMpuBoundary {
                        addr: range.start,
                        granularity: c.size_rule.min_align(),
                    });
                }
            }
        }
        let segments = vec![
            MpuSegmentPlan {
                index: 0,
                range: app.code,
                perm: Perm::X,
                role: SegmentRole::AppCode,
            },
            MpuSegmentPlan {
                index: 1,
                range: app.data_stack(),
                perm: Perm::RW,
                role: SegmentRole::AppDataStack,
            },
        ];
        Ok(MpuPlan {
            context: MpuContext::AppRunning {
                name: app.name.clone(),
                index: app_index,
            },
            segments,
            boundary1: app.data_lower_bound(),
            boundary2: app.upper_bound(),
        })
    }

    /// Builds the region-MPU configuration used while the OS runs: OS code
    /// execute-only, OS data read-write, SRAM (the OS stack) read-write,
    /// and the whole application area read-write so the OS can deliver
    /// events and copy buffers.  Applications get no SRAM region, so a
    /// wild app pointer aimed at the OS stack faults in hardware — the
    /// protection the FR5969 needs a compiler-inserted check for.
    ///
    /// When the backend's jurisdiction covers peripheral space, a fifth
    /// region grants the OS read-write access to it (the OS drives the
    /// timer and MPU register files through the bus); applications get no
    /// such region, so a wild peripheral access faults in hardware.
    pub fn for_os_region(map: &MemoryMap) -> CoreResult<Self> {
        let fram = map.platform.fram;
        let g = map.platform.mpu_boundary_granularity();
        let b1 = align_down(map.os_code.end, g).max(fram.start);
        let b2 = map.apps_base();
        if !b2.is_multiple_of(g) && b2 != fram.end {
            return Err(CoreError::UnalignedMpuBoundary {
                addr: b2,
                granularity: g,
            });
        }
        let mut segments = vec![
            MpuSegmentPlan {
                index: 0,
                range: AddrRange::new(fram.start, b1),
                perm: Perm::X,
                role: SegmentRole::OsCode,
            },
            MpuSegmentPlan {
                index: 1,
                range: AddrRange::new(b1, b2),
                perm: Perm::RW,
                role: SegmentRole::OsData,
            },
            MpuSegmentPlan {
                index: 2,
                range: map.platform.sram,
                perm: Perm::RW,
                role: SegmentRole::OsSram,
            },
            MpuSegmentPlan {
                index: 3,
                range: AddrRange::new(b2, fram.end),
                perm: Perm::RW,
                role: SegmentRole::AppsRegion,
            },
        ];
        if map.platform.mpu.covers_peripherals() {
            segments.push(MpuSegmentPlan {
                index: 4,
                range: map.platform.peripherals,
                perm: Perm::RW,
                role: SegmentRole::OsPeripherals,
            });
        }
        Ok(MpuPlan {
            context: MpuContext::OsRunning,
            segments,
            boundary1: b1,
            boundary2: b2,
        })
    }

    /// Encodes the plan as a region-MPU register configuration (one region
    /// per planned segment, skipping no-access segments: the hardware's
    /// deny-by-default covers them for free).
    pub fn region_register_values(&self) -> RegionRegisterValues {
        RegionRegisterValues {
            regions: self
                .segments
                .iter()
                .filter(|s| !s.perm.is_none())
                .map(|s| RegionDesc {
                    range: s.range,
                    perm: s.perm,
                })
                .collect(),
        }
    }

    /// Encodes the plan in the register shape `mpu` expects: segmented
    /// register values, RNR/RBAR/RLAR region values, or PMP NAPOT entries
    /// (whose user-mode flag follows the plan's context — the OS-running
    /// plan is machine mode on PMP hardware).
    pub fn config(&self, mpu: &crate::platform::MpuModel) -> MpuConfig {
        if mpu.is_napot() {
            MpuConfig::Pmp(PmpRegisterValues {
                entries: self.region_register_values().regions,
                user_mode: matches!(self.context, MpuContext::AppRunning { .. }),
            })
        } else if mpu.is_region_based() {
            MpuConfig::Region(self.region_register_values())
        } else {
            MpuConfig::Segmented(self.register_values())
        }
    }

    /// The permission this plan grants at `addr`, or `None` if the address is
    /// outside every planned segment (the MPU does not police such addresses
    /// — e.g. SRAM and peripheral registers — which is exactly the hardware
    /// shortcoming the paper works around).
    pub fn permission_at(&self, addr: Addr) -> Option<Perm> {
        self.segments
            .iter()
            .find(|s| s.range.contains(addr))
            .map(|s| s.perm)
    }

    /// Encodes the plan into MSP430-style register values (only meaningful
    /// for 3-main-segment plans; the advanced ablation plan is applied
    /// through the simulator's extended interface instead).
    pub fn register_values(&self) -> MpuRegisterValues {
        let seg_perm = |idx: usize| -> u16 {
            self.segments
                .iter()
                .find(|s| s.index == idx)
                .map(|s| s.perm.to_bits())
                .unwrap_or(0)
        };
        MpuRegisterValues {
            mpuctl0: 0xA500 | 0x0001,
            mpusegb1: (self.boundary1 >> 4) as u16,
            mpusegb2: (self.boundary2 >> 4) as u16,
            mpusam: seg_perm(1) | (seg_perm(2) << 4) | (seg_perm(3) << 8) | (seg_perm(0) << 12),
        }
    }

    /// True when the plan denies every kind of access to `addr`.
    pub fn blocks(&self, addr: Addr) -> bool {
        matches!(self.permission_at(addr), Some(p) if p.is_none())
    }
}

impl fmt::Display for MpuPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.context {
            MpuContext::OsRunning => writeln!(f, "MPU plan (OS running)")?,
            MpuContext::AppRunning { name, index } => {
                writeln!(f, "MPU plan (app {name} / #{index} running)")?
            }
        }
        for seg in &self.segments {
            writeln!(
                f,
                "  MPU{} {:<18} ({}) {:?}",
                seg.index,
                format!("{}", seg.range),
                seg.perm,
                seg.role
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};

    fn map() -> MemoryMap {
        MemoryMapPlanner::msp430fr5969()
            .plan(
                &OsImageSpec::default(),
                &[
                    AppImageSpec::new("App1", 0x800, 0x200, 0x100),
                    AppImageSpec::new("App2", 0xA00, 0x300, 0x100),
                    AppImageSpec::new("App3", 0x600, 0x100, 0x80),
                ],
            )
            .unwrap()
    }

    #[test]
    fn app_plan_matches_figure1() {
        let map = map();
        let plan = MpuPlan::for_app_on(&map, 1).unwrap();
        let app = &map.apps[1];

        // Segment 1 covers everything below the app's data and is X-only.
        assert_eq!(plan.segments[1].perm, Perm::X);
        assert!(plan.segments[1].range.contains(map.os_code.start));
        assert!(plan.segments[1].range.contains(map.apps[0].data.start));
        assert!(plan.segments[1].range.contains(app.code.start));

        // Segment 2 is exactly the app's data/stack and is RW.
        assert_eq!(plan.segments[2].range, app.data_stack());
        assert_eq!(plan.segments[2].perm, Perm::RW);

        // Segment 3 blocks the higher app entirely.
        assert_eq!(plan.segments[3].perm, Perm::NONE);
        assert!(plan.segments[3].range.contains(map.apps[2].code.start));
        assert!(plan.segments[3].range.contains(map.apps[2].data.end - 1));
    }

    #[test]
    fn app_cannot_touch_higher_app_but_mpu_ignores_lower_memory_writes() {
        let map = map();
        let plan = MpuPlan::for_app_on(&map, 0).unwrap();
        // Above the app: fully blocked.
        assert!(plan.blocks(map.apps[1].data.start));
        // Below the app's data (OS data): execute-only, so a *write* is
        // denied by the MPU...
        let os_data_addr = map.os_data.start;
        assert!(!plan.permission_at(os_data_addr).unwrap().allows(Perm::W));
        // ...but the compiler's lower-bound check is still required because
        // execute-only does not stop instruction fetches, and SRAM /
        // peripherals are not covered at all.
        assert_eq!(plan.permission_at(map.os_stack.start), None);
        assert_eq!(plan.permission_at(0x0200), None);
    }

    #[test]
    fn os_plan_lets_the_os_reach_app_memory() {
        let map = map();
        let plan = MpuPlan::for_os_on(&map).unwrap();
        assert_eq!(plan.segments[3].perm, Perm::RW);
        assert!(plan
            .permission_at(map.apps[2].data.start)
            .unwrap()
            .allows(Perm::RW));
        // OS data writable.
        assert!(plan
            .permission_at(map.os_data.end - 1)
            .unwrap()
            .allows(Perm::W));
    }

    #[test]
    fn boundaries_are_the_apps_d_and_t() {
        let map = map();
        for (i, app) in map.apps.iter().enumerate() {
            let plan = MpuPlan::for_app_on(&map, i).unwrap();
            assert_eq!(plan.boundary1, app.data_lower_bound());
            assert_eq!(plan.boundary2, app.upper_bound());
        }
    }

    #[test]
    fn register_encoding_roundtrips_boundaries() {
        let map = map();
        let plan = MpuPlan::for_app_on(&map, 2).unwrap();
        let regs = plan.register_values();
        assert_eq!((regs.mpusegb1 as u32) << 4, plan.boundary1);
        assert_eq!((regs.mpusegb2 as u32) << 4, plan.boundary2);
        assert_eq!(regs.mpuctl0 & 0xFF00, 0xA500, "password byte present");
        assert_eq!(regs.mpuctl0 & 0x0001, 1, "enable bit set");
        // Segment 2 nibble should decode to RW.
        assert_eq!(Perm::from_bits((regs.mpusam >> 4) & 0x7), Perm::RW);
        // Segment 1 nibble should decode to X.
        assert_eq!(Perm::from_bits(regs.mpusam & 0x7), Perm::X);
        // Segment 3 nibble should decode to no access.
        assert_eq!(Perm::from_bits((regs.mpusam >> 8) & 0x7), Perm::NONE);
    }

    #[test]
    fn unknown_app_index_is_an_error() {
        let map = map();
        assert!(MpuPlan::for_app_on(&map, 99).is_err());
    }

    #[test]
    fn advanced_plan_requires_advanced_platform() {
        let map = map();
        assert!(matches!(
            MpuPlan::for_app_advanced(&map, 0),
            Err(CoreError::TooManySegments { .. })
        ));

        let adv_map =
            MemoryMapPlanner::new(crate::layout::PlatformSpec::msp430fr5969_advanced_mpu())
                .unwrap()
                .plan(
                    &OsImageSpec::default(),
                    &[AppImageSpec::new("App1", 0x800, 0x200, 0x100)],
                )
                .unwrap();
        let plan = MpuPlan::for_app_advanced(&adv_map, 0).unwrap();
        // The region below the app is now fully blocked in hardware.
        assert!(plan.blocks(adv_map.os_data.start));
        assert_eq!(
            plan.permission_at(adv_map.apps[0].code.start),
            Some(Perm::X)
        );
    }

    #[test]
    fn region_plans_match_the_analytic_write_counts() {
        // The cost model derives per-switch write counts from each
        // backend's `RegionConstraints`; the encoded plans are the other
        // source of those numbers.  Tie them together — across every
        // region-based built-in profile — so they cannot drift.
        use crate::platform::APP_PLAN_REGIONS;
        for platform in crate::platform::builtin_platforms() {
            if !platform.mpu.is_region_based() {
                continue;
            }
            let c = *platform.mpu.constraints().unwrap();
            let map = MemoryMapPlanner::new(platform.clone())
                .unwrap()
                .plan(
                    &OsImageSpec::default(),
                    &[AppImageSpec::new("App1", 0x800, 0x200, 0x100)],
                )
                .unwrap();
            let app = MpuPlan::for_app_on(&map, 0).unwrap();
            let os = MpuPlan::for_os_on(&map).unwrap();
            assert_eq!(
                app.region_register_values().regions.len() as u32,
                APP_PLAN_REGIONS,
                "{}",
                platform.name
            );
            assert_eq!(
                os.region_register_values().regions.len() as u32,
                c.os_plan_regions(),
                "{}",
                platform.name
            );
            // And the encoded per-config write counts agree with the cost
            // model's constraint-derived figures.
            assert_eq!(
                app.config(&platform.mpu).write_count(),
                platform.mpu.config_writes_for_app(),
                "{}",
                platform.name
            );
            assert_eq!(
                os.config(&platform.mpu).write_count(),
                platform.mpu.config_writes_for_os(),
                "{}",
                platform.name
            );
        }
    }

    #[test]
    fn pmp_plans_are_napot_valid_and_machine_mode_for_the_os() {
        let map = MemoryMapPlanner::new(crate::layout::PlatformSpec::riscv_pmp())
            .unwrap()
            .plan(
                &OsImageSpec::default(),
                &[
                    AppImageSpec::new("A", 0x123, 0x45, 0x67),
                    AppImageSpec::new("B", 0x800, 0x200, 0x100),
                ],
            )
            .unwrap();
        for i in 0..map.apps.len() {
            let plan = MpuPlan::for_app_on(&map, i).unwrap();
            let MpuConfig::Pmp(pmp) = plan.config(&map.platform.mpu) else {
                panic!("PMP platform must encode PMP register values");
            };
            assert!(pmp.user_mode);
            assert_eq!(pmp.entries.len(), 2);
            for e in &pmp.entries {
                let len = e.range.len();
                assert!(len.is_power_of_two(), "{:?} not power-of-two", e.range);
                assert_eq!(e.range.start % len, 0, "{:?} not size-aligned", e.range);
            }
        }
        let os = MpuPlan::for_os_on(&map).unwrap();
        assert!(os.segments.is_empty(), "machine mode programs no regions");
        let MpuConfig::Pmp(pmp) = os.config(&map.platform.mpu) else {
            panic!("PMP platform must encode PMP register values");
        };
        assert!(!pmp.user_mode);
        assert_eq!(pmp.write_count(), 1, "machine mode is one toggle write");
    }

    #[test]
    fn display_lists_all_segments() {
        let map = map();
        let s = MpuPlan::for_app_on(&map, 0).unwrap().to_string();
        assert!(s.contains("MPU0"));
        assert!(s.contains("MPU3"));
        assert!(s.contains("App1"));
    }
}

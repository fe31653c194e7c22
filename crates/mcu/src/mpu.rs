//! The FR5969-style Memory Protection Unit.
//!
//! The hardware modelled here has exactly the shortcomings the paper lists:
//!
//! 1. it supports too few distinct regions to sandbox each application — only
//!    three main-memory segments defined by two movable boundaries, plus a
//!    segment pinned to InfoMem;
//! 2. it leaves certain memory unprotected — SRAM, the peripheral registers,
//!    the bootstrap loader and the interrupt vectors are simply outside its
//!    jurisdiction;
//! 3. its configuration lives behind an arcane password/lock protocol in
//!    memory-mapped registers.
//!
//! The registers follow the MSP430FR5969 layout: `MPUCTL0` (password +
//! enable + lock), `MPUCTL1` (violation flags), `MPUSEGB2`/`MPUSEGB1`
//! (segment boundaries, address ÷ 16) and `MPUSAM` (per-segment R/W/X bits).

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::mpu_plan::MpuRegisterValues;
use amulet_core::perm::{AccessKind, Perm};

/// Base address of the MPU register block.
pub const MPU_BASE: Addr = 0x05A0;
/// `MPUCTL0`: password, enable, segment-1/2/3 lock.
pub const MPUCTL0: Addr = 0x05A0;
/// `MPUCTL1`: violation flags (segment 1/2/3 and InfoMem).
pub const MPUCTL1: Addr = 0x05A2;
/// `MPUSEGB2`: boundary between segments 2 and 3, as address ÷ 16.
pub const MPUSEGB2: Addr = 0x05A4;
/// `MPUSEGB1`: boundary between segments 1 and 2, as address ÷ 16.
pub const MPUSEGB1: Addr = 0x05A6;
/// `MPUSAM`: segment access rights.
pub const MPUSAM: Addr = 0x05A8;
/// One past the last MPU register address.
pub const MPU_END: Addr = 0x05AA;

/// Password that must be present in the high byte of any `MPUCTL0` write.
pub const MPU_PASSWORD: u16 = 0xA5;

/// Which MPU segment an address falls into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpuSegment {
    /// The pinned InfoMem segment ("segment 0" in the paper's description).
    Info,
    /// Main memory below boundary 1.
    Seg1,
    /// Main memory between boundary 1 and boundary 2.
    Seg2,
    /// Main memory at or above boundary 2.
    Seg3,
}

/// Outcome of consulting an MPU backend about an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpuDecision {
    /// The address is outside the MPU's jurisdiction (SRAM, peripherals,
    /// bootstrap loader, vectors): the MPU neither allows nor denies it.
    NotCovered,
    /// The access is permitted by the current segment configuration.
    Allowed(MpuSegment),
    /// The access violates the current segment configuration.
    Violation(MpuSegment),
    /// Region backend: the access is permitted by the region in this slot.
    AllowedRegion(usize),
    /// Region backend: the access is denied — either the matching region
    /// (`Some(slot)`) withholds the permission, or no region covers the
    /// address at all (`None`; region MPUs deny by default inside their
    /// jurisdiction).
    ViolationRegion(Option<usize>),
}

impl MpuDecision {
    /// True unless the decision is a violation.
    pub fn permits(&self) -> bool {
        !matches!(
            self,
            MpuDecision::Violation(_) | MpuDecision::ViolationRegion(_)
        )
    }
}

/// Error writing an MPU register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpuRegisterError {
    /// An `MPUCTL0` write without the `0xA5` password; on real hardware this
    /// causes a power-up-clear reset.
    BadPassword,
    /// A configuration write while the lock bit is set.
    Locked,
    /// An unprivileged (application) store to a privileged-only register
    /// block — the region MPU's registers live in protected peripheral
    /// space, like the Cortex-M PPB, and only the OS may program them.
    Privileged,
}

/// The MPU register file and access-checking logic.
#[derive(Clone, Debug)]
pub struct Mpu {
    /// Whether segment checking is enabled (`MPUENA`).
    pub enabled: bool,
    /// Whether the configuration is locked until the next reset (`MPULOCK`).
    pub locked: bool,
    /// Boundary between segments 1 and 2 (byte address).
    pub boundary1: Addr,
    /// Boundary between segments 2 and 3 (byte address).
    pub boundary2: Addr,
    /// Per-segment permissions, indexed by [`MpuSegment`].
    pub seg_info: Perm,
    /// Segment 1 permissions.
    pub seg1: Perm,
    /// Segment 2 permissions.
    pub seg2: Perm,
    /// Segment 3 permissions.
    pub seg3: Perm,
    /// Latched violation flags (`MPUSEGxIFG` in `MPUCTL1`).
    pub violation_flags: u16,
    /// The main-memory range the MPU covers.
    main_range: AddrRange,
    /// The InfoMem range (pinned segment).
    info_range: AddrRange,
    /// Count of configuration writes, for the evaluation's context-switch
    /// accounting.
    pub config_writes: u64,
    /// Count of violations detected (exact regardless of the attribute
    /// cache: denied accesses always reach the backend).
    pub violations: u64,
}

impl Mpu {
    /// Creates a disabled MPU covering the given main-FRAM and InfoMem
    /// ranges.
    pub fn new(main_range: AddrRange, info_range: AddrRange) -> Self {
        Mpu {
            enabled: false,
            locked: false,
            boundary1: main_range.start,
            boundary2: main_range.start,
            seg_info: Perm::RWX,
            seg1: Perm::RWX,
            seg2: Perm::RWX,
            seg3: Perm::RWX,
            violation_flags: 0,
            main_range,
            info_range,
            config_writes: 0,
            violations: 0,
        }
    }

    /// Creates the MPU for the MSP430FR5969 memory map.
    pub fn msp430fr5969() -> Self {
        let spec = amulet_core::layout::PlatformSpec::msp430fr5969();
        Mpu::new(spec.fram, spec.info_mem)
    }

    /// Which segment `addr` belongs to, or `None` when the MPU does not cover
    /// it.
    pub fn segment_of(&self, addr: Addr) -> Option<MpuSegment> {
        if self.info_range.contains(addr) {
            Some(MpuSegment::Info)
        } else if self.main_range.contains(addr) {
            if addr < self.boundary1 {
                Some(MpuSegment::Seg1)
            } else if addr < self.boundary2 {
                Some(MpuSegment::Seg2)
            } else {
                Some(MpuSegment::Seg3)
            }
        } else {
            None
        }
    }

    /// Permissions currently granted to the given segment.
    pub fn segment_perm(&self, seg: MpuSegment) -> Perm {
        match seg {
            MpuSegment::Info => self.seg_info,
            MpuSegment::Seg1 => self.seg1,
            MpuSegment::Seg2 => self.seg2,
            MpuSegment::Seg3 => self.seg3,
        }
    }

    /// Checks an access of `kind` at `addr`, latching a violation flag when
    /// it is denied.
    pub fn check(&mut self, addr: Addr, kind: AccessKind) -> MpuDecision {
        if !self.enabled {
            return MpuDecision::NotCovered;
        }
        let Some(seg) = self.segment_of(addr) else {
            return MpuDecision::NotCovered;
        };
        let perm = self.segment_perm(seg);
        if perm.allows(kind.required_perm()) {
            MpuDecision::Allowed(seg)
        } else {
            self.violations += 1;
            self.violation_flags |= match seg {
                MpuSegment::Seg1 => 1 << 0,
                MpuSegment::Seg2 => 1 << 1,
                MpuSegment::Seg3 => 1 << 2,
                MpuSegment::Info => 1 << 3,
            };
            MpuDecision::Violation(seg)
        }
    }

    /// Non-mutating variant of [`Mpu::check`] for diagnostics and tests.
    pub fn would_allow(&self, addr: Addr, kind: AccessKind) -> bool {
        if !self.enabled {
            return true;
        }
        match self.segment_of(addr) {
            None => true,
            Some(seg) => self.segment_perm(seg).allows(kind.required_perm()),
        }
    }

    /// Applies a full register-value set (as produced by
    /// [`amulet_core::mpu_plan::MpuPlan::register_values`]) in the order a
    /// context-switch routine writes them: boundaries, access bits, control
    /// word.
    pub fn apply_registers(&mut self, regs: MpuRegisterValues) -> Result<(), MpuRegisterError> {
        self.write_register(MPUSEGB1, regs.mpusegb1)?;
        self.write_register(MPUSEGB2, regs.mpusegb2)?;
        self.write_register(MPUSAM, regs.mpusam)?;
        self.write_register(MPUCTL0, regs.mpuctl0)?;
        Ok(())
    }

    /// True when `addr` addresses one of the MPU's memory-mapped registers.
    pub fn owns_register(addr: Addr) -> bool {
        (MPU_BASE..MPU_END).contains(&addr)
    }

    /// Reads a memory-mapped MPU register.
    pub fn read_register(&self, addr: Addr) -> u16 {
        match addr & !1 {
            MPUCTL0 => {
                let mut v = 0x9600; // reads return 0x96 in the password byte
                if self.enabled {
                    v |= 0x0001;
                }
                if self.locked {
                    v |= 0x0002;
                }
                v
            }
            MPUCTL1 => self.violation_flags,
            MPUSEGB2 => (self.boundary2 >> 4) as u16,
            MPUSEGB1 => (self.boundary1 >> 4) as u16,
            MPUSAM => {
                self.seg1.to_bits()
                    | (self.seg2.to_bits() << 4)
                    | (self.seg3.to_bits() << 8)
                    | (self.seg_info.to_bits() << 12)
            }
            _ => 0,
        }
    }

    /// Writes a memory-mapped MPU register, enforcing the password and lock
    /// protocol.
    pub fn write_register(&mut self, addr: Addr, value: u16) -> Result<(), MpuRegisterError> {
        if self.locked {
            return Err(MpuRegisterError::Locked);
        }
        match addr & !1 {
            MPUCTL0 => {
                if value >> 8 != MPU_PASSWORD {
                    return Err(MpuRegisterError::BadPassword);
                }
                self.enabled = value & 0x0001 != 0;
                self.locked = value & 0x0002 != 0;
            }
            MPUCTL1 => {
                // Writing clears the violation flags (write-1-to-clear on the
                // real part; we clear unconditionally for simplicity).
                self.violation_flags = 0;
            }
            MPUSEGB2 => {
                self.boundary2 = (value as Addr) << 4;
            }
            MPUSEGB1 => {
                self.boundary1 = (value as Addr) << 4;
            }
            MPUSAM => {
                self.seg1 = Perm::from_bits(value & 0x7);
                self.seg2 = Perm::from_bits((value >> 4) & 0x7);
                self.seg3 = Perm::from_bits((value >> 8) & 0x7);
                self.seg_info = Perm::from_bits((value >> 12) & 0x7);
            }
            _ => {}
        }
        self.config_writes += 1;
        Ok(())
    }
}

/// Base address of the region-MPU register block (present on region-MPU
/// platforms such as the FR5994-class profile).
pub const RMPU_BASE: Addr = 0x05B0;
/// `RMPUCTL`: bit 0 enables region checking.
pub const RMPU_CTL: Addr = 0x05B0;
/// `RMPURNR`: selects which region slot `RMPURBAR`/`RMPURLAR` address.
pub const RMPU_RNR: Addr = 0x05B2;
/// `RMPURBAR`: selected region's base address ÷ 16.
pub const RMPU_RBAR: Addr = 0x05B4;
/// `RMPURLAR`: selected region's limit ÷ 16 in bits 0..12, permissions in
/// bits 12..15, enable in bit 15.
pub const RMPU_RLAR: Addr = 0x05B6;
/// One past the last region-MPU register address.
pub const RMPU_END: Addr = 0x05B8;

/// One slot of the region MPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionSlot {
    /// Address range the slot covers.
    pub range: AddrRange,
    /// Permissions the slot grants.
    pub perm: Perm,
    /// Whether the slot participates in checking.
    pub enabled: bool,
}

impl Default for RegionSlot {
    fn default() -> Self {
        RegionSlot {
            range: AddrRange::empty(),
            perm: Perm::NONE,
            enabled: false,
        }
    }
}

/// A Tock/Cortex-M-style region MPU: a fixed number of base/limit region
/// slots with per-slot R/W/X permissions.
///
/// Unlike the FR5969's segmented part, this backend **denies by default**:
/// inside its jurisdiction an access no enabled region grants is a
/// violation.  The base jurisdiction is main FRAM, InfoMem and SRAM,
/// like its classic Cortex-M inspirations — peripheral space, the
/// bootstrap loader and the vectors stay unpoliced there, the reason the
/// software keeps its function-pointer checks on the FR5994 profile.
/// ARMv8-M-class profiles extend the jurisdiction over those ranges too
/// ([`RegionMpu::with_extended_jurisdiction`]), which is what lets their
/// check policy drop the function-pointer check.  There is no password protocol, but the
/// register block itself is **privileged-only** (like the Cortex-M PPB):
/// application stores through the bus fault, and only the OS's trusted
/// switch path ([`crate::bus::Bus::install_mpu_config`]) programs it
/// (select a slot with `RMPURNR`, then write `RMPURBAR`/`RMPURLAR`).
#[derive(Clone, Debug)]
pub struct RegionMpu {
    /// Whether region checking is enabled.
    pub enabled: bool,
    /// The region slots.
    pub slots: Vec<RegionSlot>,
    /// The slot index selected by `RMPURNR`.
    pub selected: usize,
    /// The main-memory range the MPU polices.
    main_range: AddrRange,
    /// The InfoMem range (also policed).
    info_range: AddrRange,
    /// The SRAM range (also policed, unlike the segmented part).
    sram_range: AddrRange,
    /// Extra ranges the profile's jurisdiction extends over — peripheral
    /// space, the boot ROM and the vector table on ARMv8-M-style profiles
    /// that police the full platform space.  Empty reproduces the classic
    /// Cortex-M shape whose MPU stops at SRAM.
    extended_ranges: Vec<AddrRange>,
    /// Count of configuration writes (context-switch accounting).
    pub config_writes: u64,
    /// Count of violations detected (exact regardless of the attribute
    /// cache: denied accesses always reach the backend).
    pub violations: u64,
}

impl RegionMpu {
    /// Creates a disabled region MPU with `slots` empty regions, policing
    /// the given main-FRAM, InfoMem and SRAM ranges.
    pub fn new(
        slots: usize,
        main_range: AddrRange,
        info_range: AddrRange,
        sram_range: AddrRange,
    ) -> Self {
        RegionMpu {
            enabled: false,
            slots: vec![RegionSlot::default(); slots],
            selected: 0,
            main_range,
            info_range,
            sram_range,
            extended_ranges: Vec::new(),
            config_writes: 0,
            violations: 0,
        }
    }

    /// Returns the MPU to the state [`RegionMpu::new`] built it in —
    /// disabled, every slot empty, counters cleared — keeping the slot
    /// count and jurisdiction, and allocating nothing.
    pub(crate) fn power_on(&mut self) {
        self.enabled = false;
        self.slots.fill(RegionSlot::default());
        self.selected = 0;
        self.config_writes = 0;
        self.violations = 0;
    }

    /// Makes this MPU a copy of `saved`, reusing its buffers (a bus
    /// checkpoint restore allocates nothing).
    pub(crate) fn copy_state_from(&mut self, saved: &RegionMpu) {
        let RegionMpu {
            enabled,
            slots,
            selected,
            main_range,
            info_range,
            sram_range,
            extended_ranges,
            config_writes,
            violations,
        } = saved;
        self.enabled = *enabled;
        self.slots.clone_from(slots);
        self.selected = *selected;
        self.main_range = *main_range;
        self.info_range = *info_range;
        self.sram_range = *sram_range;
        self.extended_ranges.clone_from(extended_ranges);
        self.config_writes = *config_writes;
        self.violations = *violations;
    }

    /// Extends the MPU's deny-by-default jurisdiction over the given
    /// additional ranges — peripheral space, boot ROM, vector table — for
    /// profiles that police the **full platform space** (the
    /// Cortex-M33-class profile; closes the "unpoliced region-MPU
    /// peripheral space" gap, and leaves a checkless corrupted code
    /// pointer nowhere to escape to).
    pub fn with_extended_jurisdiction(mut self, ranges: &[AddrRange]) -> Self {
        self.extended_ranges = ranges.to_vec();
        self
    }

    /// The address ranges this backend polices (deny-by-default inside
    /// them when enabled).  The attribute-cache painter consults this
    /// instead of hardcoding any particular jurisdiction.
    pub fn jurisdiction(&self) -> impl Iterator<Item = AddrRange> + '_ {
        [self.main_range, self.info_range, self.sram_range]
            .into_iter()
            .chain(self.extended_ranges.iter().copied())
    }

    /// Whether the jurisdiction extends beyond FRAM/InfoMem/SRAM, over
    /// the platform's peripheral/boot-ROM/vector space.
    pub fn covers_full_platform(&self) -> bool {
        !self.extended_ranges.is_empty()
    }

    /// Whether `addr` falls inside the MPU's jurisdiction.
    pub fn covers(&self, addr: Addr) -> bool {
        self.jurisdiction().any(|r| r.contains(addr))
    }

    /// The enabled slot covering `addr`, if any.
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.enabled && s.range.contains(addr))
    }

    /// Checks an access of `kind` at `addr`.
    pub fn check(&mut self, addr: Addr, kind: AccessKind) -> MpuDecision {
        if !self.enabled || !self.covers(addr) {
            return MpuDecision::NotCovered;
        }
        match self.slot_of(addr) {
            Some(slot) if self.slots[slot].perm.allows(kind.required_perm()) => {
                MpuDecision::AllowedRegion(slot)
            }
            matched => {
                self.violations += 1;
                MpuDecision::ViolationRegion(matched)
            }
        }
    }

    /// Non-mutating variant of [`RegionMpu::check`].
    pub fn would_allow(&self, addr: Addr, kind: AccessKind) -> bool {
        if !self.enabled || !self.covers(addr) {
            return true;
        }
        self.slot_of(addr)
            .map(|slot| self.slots[slot].perm.allows(kind.required_perm()))
            .unwrap_or(false)
    }

    /// True when `addr` addresses one of the region MPU's memory-mapped
    /// registers.
    pub fn owns_register(addr: Addr) -> bool {
        (RMPU_BASE..RMPU_END).contains(&addr)
    }

    /// Reads a memory-mapped region-MPU register.
    pub fn read_register(&self, addr: Addr) -> u16 {
        let slot = self.slots.get(self.selected).copied().unwrap_or_default();
        match addr & !1 {
            RMPU_CTL => self.enabled as u16,
            RMPU_RNR => self.selected as u16,
            RMPU_RBAR => (slot.range.start >> 4) as u16,
            RMPU_RLAR => {
                ((slot.range.end >> 4) as u16 & 0x0FFF)
                    | (slot.perm.to_bits() << 12)
                    | ((slot.enabled as u16) << 15)
            }
            _ => 0,
        }
    }

    /// Writes a memory-mapped region-MPU register.  Region MPUs have no
    /// password/lock protocol, so writes always succeed.
    pub fn write_register(&mut self, addr: Addr, value: u16) {
        self.config_writes += 1;
        match addr & !1 {
            RMPU_CTL => self.enabled = value & 1 != 0,
            RMPU_RNR => self.selected = (value as usize) % self.slots.len().max(1),
            RMPU_RBAR => {
                if let Some(slot) = self.slots.get_mut(self.selected) {
                    let base = (value as Addr) << 4;
                    slot.range = AddrRange::new(base, base.max(slot.range.end));
                }
            }
            RMPU_RLAR => {
                if let Some(slot) = self.slots.get_mut(self.selected) {
                    let limit = ((value & 0x0FFF) as Addr) << 4;
                    slot.range = AddrRange::new(slot.range.start.min(limit), limit);
                    slot.perm = Perm::from_bits((value >> 12) & 0x7);
                    slot.enabled = value & 0x8000 != 0;
                }
            }
            _ => {}
        }
    }

    /// Applies a full region configuration in the order a context-switch
    /// routine writes it: every listed region (select, base, limit), then
    /// enable; slots beyond the listed ones are disabled.
    pub fn apply_config(&mut self, config: &amulet_core::mpu_plan::RegionRegisterValues) {
        for (i, region) in config.regions.iter().enumerate().take(self.slots.len()) {
            self.write_register(RMPU_RNR, i as u16);
            self.write_register(RMPU_RBAR, (region.range.start >> 4) as u16);
            self.write_register(
                RMPU_RLAR,
                ((region.range.end >> 4) as u16 & 0x0FFF) | (region.perm.to_bits() << 12) | 0x8000,
            );
        }
        for slot in self.slots.iter_mut().skip(config.regions.len()) {
            slot.enabled = false;
        }
        self.write_register(RMPU_CTL, 1);
    }
}

/// Base address of the PMP register block (present on NAPOT platforms such
/// as the `riscv-pmp` profile; memory-mapped stand-ins for the CSRs).
pub const PMP_BASE: Addr = 0x05C0;
/// `PMPMODE`: bit 0 selects user mode (PMP enforced).  Machine mode —
/// bit 0 clear — bypasses the PMP entirely, which is how the OS runs.
pub const PMP_MODE: Addr = 0x05C0;
/// `PMPCFG0`: packed entry configs for entries 0..4, 4 bits each
/// (bit 0 read, bit 1 write, bit 2 execute, bit 3 NAPOT-enable).
pub const PMP_CFG0: Addr = 0x05C2;
/// `PMPCFG1`: packed entry configs for entries 4..8.
pub const PMP_CFG1: Addr = 0x05C4;
/// `PMPADDR0`: first NAPOT address register; entry *i* lives at
/// `PMP_ADDR_BASE + 2 i`.  Encoding follows the RISC-V NAPOT rule scaled
/// to the 16-bit space: `pmpaddr = (base >> 2) | ((size >> 3) − 1)` — the
/// count of trailing one bits selects the power-of-two region size
/// (minimum 8 bytes), and the bits above them hold the size-aligned base.
pub const PMP_ADDR_BASE: Addr = 0x05C6;
/// One past the last PMP register address (8 entries).
pub const PMP_END: Addr = PMP_ADDR_BASE + 2 * PMP_MAX_ENTRIES as Addr;
/// Entry registers provided by the modelled PMP.
pub const PMP_MAX_ENTRIES: usize = 8;

/// One decoded PMP entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PmpEntry {
    /// The raw `pmpaddr` register value.
    pub addr_bits: u16,
    /// Entry permissions (from the packed config nibble).
    pub perm: Perm,
    /// Whether the entry participates in matching (`A` = NAPOT).
    pub enabled: bool,
}

impl PmpEntry {
    /// Decodes the NAPOT address register into the region it grants —
    /// TOR-free: the trailing-ones count alone fixes the power-of-two
    /// size, and masking them off yields the size-aligned base.
    pub fn range(&self) -> AddrRange {
        let ones = self.addr_bits.trailing_ones().min(13);
        let size = 8u32 << ones;
        let base = ((self.addr_bits as Addr) & !((1 << ones) - 1)) << 2;
        let start = base.min(amulet_core::addr::ADDRESS_SPACE_END);
        let end = base
            .saturating_add(size)
            .min(amulet_core::addr::ADDRESS_SPACE_END);
        AddrRange::new(start, end)
    }

    /// Encodes a NAPOT-valid range (power-of-two length, length-aligned
    /// base) into the register value.
    pub fn encode(range: AddrRange) -> u16 {
        debug_assert!(range.len().is_power_of_two() && range.len() >= 8);
        debug_assert!(range.start.is_multiple_of(range.len()));
        ((range.start >> 2) | ((range.len() >> 3) - 1)) as u16
    }
}

/// A RISC-V-PMP-style backend: NAPOT entries whose power-of-two regions
/// police **user-mode** accesses over every mapped range of the platform
/// — flash, InfoMem, SRAM, peripheral space, the boot ROM and the vector
/// table — while machine mode (the OS) bypasses the PMP entirely.
/// Deny-by-default: a user-mode access no enabled entry grants is a
/// violation.  The register block itself is privileged (CSR-style):
/// application stores through the bus fault, and only the OS's trusted
/// switch path programs it.
#[derive(Clone, Debug)]
pub struct PmpMpu {
    /// Whether user-mode enforcement is active (`PMPMODE` bit 0).  While
    /// false the CPU is in machine mode and the PMP checks nothing.
    pub user_mode: bool,
    /// The PMP entries.
    pub entries: Vec<PmpEntry>,
    /// The mapped platform ranges user-mode execution is policed over.
    jurisdiction: Vec<AddrRange>,
    /// Count of configuration writes (context-switch accounting).
    pub config_writes: u64,
    /// Count of violations detected (exact regardless of the attribute
    /// cache: denied accesses always reach the backend).
    pub violations: u64,
}

impl PmpMpu {
    /// Creates a machine-mode (non-enforcing) PMP with `entries` empty
    /// entries policing the given mapped platform ranges (real PMPs
    /// constrain user mode over the entire address space; restricting the
    /// model to the mapped ranges lets unmapped holes keep their
    /// higher-priority bus-fault semantics).
    pub fn new(entries: usize, jurisdiction: Vec<AddrRange>) -> Self {
        assert!(
            entries <= PMP_MAX_ENTRIES,
            "the modelled PMP register file has {PMP_MAX_ENTRIES} entries, \
             a {entries}-entry constraint cannot be honoured"
        );
        PmpMpu {
            user_mode: false,
            entries: vec![PmpEntry::default(); entries],
            jurisdiction,
            config_writes: 0,
            violations: 0,
        }
    }

    /// Returns the PMP to the state [`PmpMpu::new`] built it in — machine
    /// mode, every entry empty, counters cleared — keeping the entry count
    /// and jurisdiction, and allocating nothing.
    pub(crate) fn power_on(&mut self) {
        self.user_mode = false;
        self.entries.fill(PmpEntry::default());
        self.config_writes = 0;
        self.violations = 0;
    }

    /// Makes this PMP a copy of `saved`, reusing its buffers (a bus
    /// checkpoint restore allocates nothing).
    pub(crate) fn copy_state_from(&mut self, saved: &PmpMpu) {
        let PmpMpu {
            user_mode,
            entries,
            jurisdiction,
            config_writes,
            violations,
        } = saved;
        self.user_mode = *user_mode;
        self.entries.clone_from(entries);
        self.jurisdiction.clone_from(jurisdiction);
        self.config_writes = *config_writes;
        self.violations = *violations;
    }

    /// The address ranges this backend polices in user mode.
    pub fn jurisdiction(&self) -> impl Iterator<Item = AddrRange> + '_ {
        self.jurisdiction.iter().copied()
    }

    /// Whether `addr` falls inside the PMP's user-mode jurisdiction.
    pub fn covers(&self, addr: Addr) -> bool {
        self.jurisdiction.iter().any(|r| r.contains(addr))
    }

    /// The first enabled entry covering `addr`, if any (PMP entries match
    /// in priority order, lowest index first).
    pub fn entry_of(&self, addr: Addr) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.enabled && e.range().contains(addr))
    }

    /// Checks an access of `kind` at `addr`.
    pub fn check(&mut self, addr: Addr, kind: AccessKind) -> MpuDecision {
        if !self.user_mode || !self.covers(addr) {
            return MpuDecision::NotCovered;
        }
        match self.entry_of(addr) {
            Some(i) if self.entries[i].perm.allows(kind.required_perm()) => {
                MpuDecision::AllowedRegion(i)
            }
            matched => {
                self.violations += 1;
                MpuDecision::ViolationRegion(matched)
            }
        }
    }

    /// Non-mutating variant of [`PmpMpu::check`].
    pub fn would_allow(&self, addr: Addr, kind: AccessKind) -> bool {
        if !self.user_mode || !self.covers(addr) {
            return true;
        }
        self.entry_of(addr)
            .map(|i| self.entries[i].perm.allows(kind.required_perm()))
            .unwrap_or(false)
    }

    /// True when `addr` addresses one of the PMP's memory-mapped registers.
    pub fn owns_register(addr: Addr) -> bool {
        (PMP_BASE..PMP_END).contains(&addr)
    }

    /// Reads a memory-mapped PMP register.
    pub fn read_register(&self, addr: Addr) -> u16 {
        let cfg_nibble = |e: &PmpEntry| e.perm.to_bits() | ((e.enabled as u16) << 3);
        let packed = |lo: usize| -> u16 {
            self.entries
                .iter()
                .skip(lo)
                .take(4)
                .enumerate()
                .map(|(i, e)| cfg_nibble(e) << (4 * i))
                .sum()
        };
        match addr & !1 {
            PMP_MODE => self.user_mode as u16,
            PMP_CFG0 => packed(0),
            PMP_CFG1 => packed(4),
            a if (PMP_ADDR_BASE..PMP_END).contains(&a) => {
                let i = ((a - PMP_ADDR_BASE) / 2) as usize;
                self.entries.get(i).map(|e| e.addr_bits).unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Writes a memory-mapped PMP register (the privileged OS path; the
    /// bus rejects application stores before they reach here).
    pub fn write_register(&mut self, addr: Addr, value: u16) {
        self.config_writes += 1;
        let unpack = |entries: &mut [PmpEntry], lo: usize, value: u16| {
            for (i, e) in entries.iter_mut().skip(lo).take(4).enumerate() {
                let nibble = (value >> (4 * i)) & 0xF;
                e.perm = Perm::from_bits(nibble & 0x7);
                e.enabled = nibble & 0x8 != 0;
            }
        };
        match addr & !1 {
            PMP_MODE => self.user_mode = value & 1 != 0,
            PMP_CFG0 => unpack(&mut self.entries, 0, value),
            PMP_CFG1 => unpack(&mut self.entries, 4, value),
            a if (PMP_ADDR_BASE..PMP_END).contains(&a) => {
                let i = ((a - PMP_ADDR_BASE) / 2) as usize;
                if let Some(e) = self.entries.get_mut(i) {
                    e.addr_bits = value;
                }
            }
            _ => {}
        }
    }

    /// Applies a full PMP configuration in the order the OS switch code
    /// writes it: every entry's `pmpaddr`, **both** packed `pmpcfg` words
    /// (a real RV32 driver rewrites the whole `pmpcfg` CSR set, which also
    /// guarantees entries a previous, wider configuration enabled are
    /// disabled), then the privilege-mode toggle — or, for the
    /// machine-mode (OS) configuration, the mode toggle alone (entries
    /// are left in place; machine mode ignores them, exactly like
    /// hardware).  The write sequence is deterministic, so it always
    /// matches [`PmpRegisterValues::write_count`] and the
    /// constraint-derived cost model.
    ///
    /// [`PmpRegisterValues::write_count`]: amulet_core::mpu_plan::PmpRegisterValues::write_count
    pub fn apply_config(&mut self, config: &amulet_core::mpu_plan::PmpRegisterValues) {
        if !config.user_mode {
            self.write_register(PMP_MODE, 0);
            return;
        }
        let count = config.entries.len().min(self.entries.len());
        for (i, region) in config.entries.iter().enumerate().take(count) {
            self.write_register(
                PMP_ADDR_BASE + 2 * i as Addr,
                PmpEntry::encode(region.range),
            );
        }
        for (word, base) in [(PMP_CFG0, 0usize), (PMP_CFG1, 4)] {
            let mut packed = 0u16;
            for (i, region) in config.entries.iter().enumerate().take(count) {
                if i >= base && i < base + 4 {
                    packed |= (region.perm.to_bits() | 0x8) << (4 * (i - base));
                }
            }
            self.write_register(word, packed);
        }
        self.write_register(PMP_MODE, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};
    use amulet_core::mpu_plan::MpuPlan;

    fn fr5969() -> Mpu {
        Mpu::msp430fr5969()
    }

    #[test]
    fn disabled_mpu_allows_everything() {
        let mut mpu = fr5969();
        assert_eq!(
            mpu.check(0x5000, AccessKind::Write),
            MpuDecision::NotCovered
        );
        assert!(mpu.would_allow(0xF000, AccessKind::Execute));
    }

    #[test]
    fn segment_classification_follows_boundaries() {
        let mut mpu = fr5969();
        mpu.boundary1 = 0x6000;
        mpu.boundary2 = 0x8000;
        mpu.enabled = true;
        assert_eq!(mpu.segment_of(0x4400), Some(MpuSegment::Seg1));
        assert_eq!(mpu.segment_of(0x5FFF), Some(MpuSegment::Seg1));
        assert_eq!(mpu.segment_of(0x6000), Some(MpuSegment::Seg2));
        assert_eq!(mpu.segment_of(0x7FFF), Some(MpuSegment::Seg2));
        assert_eq!(mpu.segment_of(0x8000), Some(MpuSegment::Seg3));
        assert_eq!(mpu.segment_of(0x1800), Some(MpuSegment::Info));
        assert_eq!(mpu.segment_of(0x1C00), None, "SRAM is not covered");
        assert_eq!(mpu.segment_of(0x0200), None, "peripherals are not covered");
    }

    #[test]
    fn violations_are_latched_and_counted() {
        let mut mpu = fr5969();
        mpu.boundary1 = 0x6000;
        mpu.boundary2 = 0x8000;
        mpu.seg1 = Perm::X;
        mpu.seg2 = Perm::RW;
        mpu.seg3 = Perm::NONE;
        mpu.enabled = true;

        assert!(mpu.check(0x7000, AccessKind::Write).permits());
        assert!(!mpu.check(0x9000, AccessKind::Read).permits());
        assert!(!mpu.check(0x5000, AccessKind::Write).permits());
        assert_eq!(mpu.violations, 2);
        assert_ne!(mpu.violation_flags & (1 << 2), 0, "seg3 flag latched");
        assert_ne!(mpu.violation_flags & (1 << 0), 0, "seg1 flag latched");

        // Clearing via MPUCTL1 write.
        mpu.write_register(MPUCTL1, 0).unwrap();
        assert_eq!(mpu.violation_flags, 0);
    }

    #[test]
    fn register_password_and_lock_protocol() {
        let mut mpu = fr5969();
        // Enable without password: rejected.
        assert_eq!(
            mpu.write_register(MPUCTL0, 0x0001),
            Err(MpuRegisterError::BadPassword)
        );
        assert!(!mpu.enabled);
        // Proper password enables.
        mpu.write_register(MPUCTL0, 0xA501).unwrap();
        assert!(mpu.enabled);
        // Lock, then further writes fail.
        mpu.write_register(MPUCTL0, 0xA503).unwrap();
        assert!(mpu.locked);
        assert_eq!(
            mpu.write_register(MPUSEGB1, 0x600),
            Err(MpuRegisterError::Locked)
        );
        // Reset unlocks: the bus's power-on reset rebuilds the MPU.
        let mut bus = crate::bus::Bus::msp430fr5969();
        bus.write(MPUCTL0, 2, 0xA503).unwrap();
        assert!(bus.mpu().locked);
        bus.reset();
        assert!(!bus.mpu().locked && !bus.mpu().enabled);
        bus.write(MPUSEGB1, 2, 0x600).unwrap();
    }

    #[test]
    fn register_readback_roundtrips() {
        let mut mpu = fr5969();
        mpu.write_register(MPUSEGB1, 0x600).unwrap();
        mpu.write_register(MPUSEGB2, 0x800).unwrap();
        mpu.write_register(MPUSAM, 0x0124).unwrap();
        assert_eq!(mpu.read_register(MPUSEGB1), 0x600);
        assert_eq!(mpu.read_register(MPUSEGB2), 0x800);
        assert_eq!(mpu.boundary1, 0x6000);
        assert_eq!(mpu.boundary2, 0x8000);
        assert_eq!(mpu.seg1, Perm::from_bits(0x4));
        assert_eq!(mpu.seg2, Perm::from_bits(0x2));
        assert_eq!(mpu.seg3, Perm::from_bits(0x1));
        assert_eq!(mpu.read_register(MPUSAM), 0x0124);
        assert_eq!(mpu.read_register(MPUCTL0) & 0xFF00, 0x9600);
    }

    #[test]
    fn plan_register_values_enforce_figure1_permissions() {
        let map = MemoryMapPlanner::msp430fr5969()
            .plan(
                &OsImageSpec::default(),
                &[
                    AppImageSpec::new("A", 0x800, 0x200, 0x100),
                    AppImageSpec::new("B", 0x800, 0x200, 0x100),
                ],
            )
            .unwrap();
        let plan = MpuPlan::for_app_on(&map, 0).unwrap();
        let mut mpu = fr5969();
        mpu.apply_registers(plan.register_values()).unwrap();
        assert!(mpu.enabled);

        let app_a = &map.apps[0];
        let app_b = &map.apps[1];
        // App A may write its own data...
        assert!(mpu.check(app_a.data.start, AccessKind::Write).permits());
        // ...may execute its own code...
        assert!(mpu.check(app_a.code.start, AccessKind::Execute).permits());
        // ...may not touch app B at all...
        assert!(!mpu.check(app_b.data.start, AccessKind::Read).permits());
        assert!(!mpu.check(app_b.code.start, AccessKind::Execute).permits());
        // ...and may not write OS data (execute-only segment 1), though the
        // MPU alone cannot stop reads of SRAM or peripherals.
        assert!(!mpu.check(map.os_data.start, AccessKind::Write).permits());
        assert_eq!(
            mpu.check(map.os_stack.start, AccessKind::Write),
            MpuDecision::NotCovered
        );
    }

    fn fr5994_region() -> RegionMpu {
        let spec = amulet_core::layout::PlatformSpec::msp430fr5994();
        RegionMpu::new(8, spec.fram, spec.info_mem, spec.sram)
    }

    #[test]
    fn disabled_region_mpu_is_permissive() {
        let mut r = fr5994_region();
        assert_eq!(r.check(0x5000, AccessKind::Write), MpuDecision::NotCovered);
        assert!(r.would_allow(0x5000, AccessKind::Write));
    }

    #[test]
    fn region_mpu_denies_by_default_inside_its_jurisdiction() {
        let mut r = fr5994_region();
        r.apply_config(&amulet_core::mpu_plan::RegionRegisterValues {
            regions: vec![
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5000, 0x5400),
                    perm: Perm::X,
                },
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5400, 0x5800),
                    perm: Perm::RW,
                },
            ],
        });
        assert!(r.enabled);
        // Granted accesses pass…
        assert_eq!(
            r.check(0x5000, AccessKind::Execute),
            MpuDecision::AllowedRegion(0)
        );
        assert_eq!(
            r.check(0x5600, AccessKind::Write),
            MpuDecision::AllowedRegion(1)
        );
        // …a matching region without the permission is a violation…
        assert_eq!(
            r.check(0x5100, AccessKind::Write),
            MpuDecision::ViolationRegion(Some(0))
        );
        // …and uncovered FRAM *and SRAM* are denied (full coverage).
        assert_eq!(
            r.check(0x9000, AccessKind::Read),
            MpuDecision::ViolationRegion(None)
        );
        assert_eq!(
            r.check(0x1C00, AccessKind::Write),
            MpuDecision::ViolationRegion(None)
        );
        // Peripheral space stays outside the jurisdiction.
        assert_eq!(r.check(0x0200, AccessKind::Write), MpuDecision::NotCovered);
        assert_eq!(r.violations, 3);
    }

    #[test]
    fn region_registers_roundtrip_and_reconfigure() {
        let mut r = fr5994_region();
        r.write_register(RMPU_RNR, 2);
        r.write_register(RMPU_RBAR, 0x500);
        r.write_register(RMPU_RLAR, 0x540 | (Perm::RW.to_bits() << 12) | 0x8000);
        assert_eq!(r.read_register(RMPU_RNR), 2);
        assert_eq!(r.read_register(RMPU_RBAR), 0x500);
        assert_eq!(r.slots[2].range, AddrRange::new(0x5000, 0x5400));
        assert_eq!(r.slots[2].perm, Perm::RW);
        assert!(r.slots[2].enabled);
        // Reprogramming the same slot with a lower base works.
        r.write_register(RMPU_RBAR, 0x480);
        r.write_register(RMPU_RLAR, 0x500 | (Perm::X.to_bits() << 12) | 0x8000);
        assert_eq!(r.slots[2].range, AddrRange::new(0x4800, 0x5000));
        assert_eq!(r.slots[2].perm, Perm::X);
        // Config writes were counted.
        assert!(r.config_writes >= 5);
    }

    #[test]
    fn region_plan_for_app_encodes_and_enforces() {
        let map = MemoryMapPlanner::new(amulet_core::layout::PlatformSpec::msp430fr5994())
            .unwrap()
            .plan(
                &OsImageSpec::default(),
                &[
                    AppImageSpec::new("A", 0x800, 0x200, 0x100),
                    AppImageSpec::new("B", 0x800, 0x200, 0x100),
                ],
            )
            .unwrap();
        let plan = MpuPlan::for_app_on(&map, 0).unwrap();
        let mut r = fr5994_region();
        r.apply_config(&plan.region_register_values());

        let (a, b) = (&map.apps[0], &map.apps[1]);
        assert!(r.check(a.code.start, AccessKind::Execute).permits());
        assert!(r.check(a.data.start, AccessKind::Write).permits());
        // App B fully blocked, OS data blocked, OS stack in SRAM blocked —
        // all in hardware, with no compiler-inserted check needed.
        assert!(!r.check(b.data.start, AccessKind::Read).permits());
        assert!(!r.check(map.os_data.start, AccessKind::Write).permits());
        assert!(!r.check(map.os_stack.start, AccessKind::Write).permits());
    }

    #[test]
    fn region_mpu_with_peripheral_jurisdiction_polices_peripheral_space() {
        let spec = amulet_core::layout::PlatformSpec::cortex_m33();
        let mut r = RegionMpu::new(16, spec.fram, spec.info_mem, spec.sram)
            .with_extended_jurisdiction(&spec.full_jurisdiction_ranges()[3..]);
        assert!(r.covers_full_platform());
        assert_eq!(r.jurisdiction().count(), 6);
        r.apply_config(&amulet_core::mpu_plan::RegionRegisterValues {
            regions: vec![amulet_core::mpu_plan::RegionDesc {
                range: AddrRange::new(0x5000, 0x5400),
                perm: Perm::RW,
            }],
        });
        // Inside jurisdiction, no region grants it: a peripheral write is
        // a violation — the DESIGN §6 gap closed for this profile.
        assert_eq!(
            r.check(0x0200, AccessKind::Write),
            MpuDecision::ViolationRegion(None)
        );
        // A region over peripheral space grants access (the OS plan).
        r.apply_config(&amulet_core::mpu_plan::RegionRegisterValues {
            regions: vec![amulet_core::mpu_plan::RegionDesc {
                range: spec.peripherals,
                perm: Perm::RW,
            }],
        });
        assert!(r.check(0x0200, AccessKind::Write).permits());
    }

    fn riscv_pmp() -> PmpMpu {
        let spec = amulet_core::layout::PlatformSpec::riscv_pmp();
        PmpMpu::new(8, spec.full_jurisdiction_ranges().to_vec())
    }

    #[test]
    fn pmp_napot_encoding_roundtrips() {
        for (base, size) in [
            (0x5000u32, 0x400u32),
            (0x4400, 0x8),
            (0x8000, 0x8000),
            (0, 8),
        ] {
            let range = AddrRange::from_len(base, size);
            let entry = PmpEntry {
                addr_bits: PmpEntry::encode(range),
                perm: Perm::RW,
                enabled: true,
            };
            assert_eq!(entry.range(), range, "{range:?}");
        }
    }

    #[test]
    fn pmp_machine_mode_bypasses_and_user_mode_denies_by_default() {
        let mut p = riscv_pmp();
        // Machine mode (power-on): nothing is policed.
        assert_eq!(p.check(0x5000, AccessKind::Write), MpuDecision::NotCovered);
        p.apply_config(&amulet_core::mpu_plan::PmpRegisterValues {
            entries: vec![
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5000, 0x5400),
                    perm: Perm::X,
                },
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5400, 0x5800),
                    perm: Perm::RW,
                },
            ],
            user_mode: true,
        });
        assert!(p.user_mode);
        // Granted accesses pass…
        assert_eq!(
            p.check(0x5000, AccessKind::Execute),
            MpuDecision::AllowedRegion(0)
        );
        assert_eq!(
            p.check(0x5600, AccessKind::Write),
            MpuDecision::AllowedRegion(1)
        );
        // …a matching entry without the permission is a violation…
        assert_eq!(
            p.check(0x5100, AccessKind::Write),
            MpuDecision::ViolationRegion(Some(0))
        );
        // …and the full jurisdiction — FRAM, SRAM *and peripherals* — is
        // denied by default in user mode.
        assert_eq!(
            p.check(0x9000, AccessKind::Read),
            MpuDecision::ViolationRegion(None)
        );
        assert_eq!(
            p.check(0x1C00, AccessKind::Write),
            MpuDecision::ViolationRegion(None)
        );
        assert_eq!(
            p.check(0x0200, AccessKind::Write),
            MpuDecision::ViolationRegion(None)
        );
        // The boot ROM and the vector table are policed too: nowhere in
        // the mapped platform space escapes user-mode jurisdiction.
        assert_eq!(
            p.check(0x1000, AccessKind::Execute),
            MpuDecision::ViolationRegion(None)
        );
        assert_eq!(
            p.check(0xFF80, AccessKind::Write),
            MpuDecision::ViolationRegion(None)
        );
        assert_eq!(p.violations, 6);

        // Back to machine mode: one register write, everything permitted.
        let writes = p.config_writes;
        p.apply_config(&amulet_core::mpu_plan::PmpRegisterValues {
            entries: vec![],
            user_mode: false,
        });
        assert_eq!(p.config_writes - writes, 1);
        assert!(!p.user_mode);
        assert_eq!(p.check(0x0200, AccessKind::Write), MpuDecision::NotCovered);
        // The entries are still programmed (machine mode just ignores
        // them), exactly like hardware.
        assert!(p.entries[0].enabled);
    }

    #[test]
    fn pmp_registers_roundtrip_and_count_writes() {
        let mut p = riscv_pmp();
        let range = AddrRange::new(0x5000, 0x5400);
        p.write_register(PMP_ADDR_BASE + 4, PmpEntry::encode(range));
        p.write_register(PMP_CFG0, (Perm::RW.to_bits() | 0x8) << 8);
        p.write_register(PMP_MODE, 1);
        assert_eq!(p.read_register(PMP_ADDR_BASE + 4), PmpEntry::encode(range));
        assert_eq!(p.read_register(PMP_CFG0) >> 8, Perm::RW.to_bits() | 0x8);
        assert_eq!(p.read_register(PMP_MODE), 1);
        assert_eq!(p.entries[2].range(), range);
        assert_eq!(p.entries[2].perm, Perm::RW);
        assert!(p.entries[2].enabled);
        assert_eq!(p.config_writes, 3);
    }

    #[test]
    fn pmp_app_config_write_count_matches_the_cost_model() {
        // 2 pmpaddr + 1 packed pmpcfg + 1 mode toggle = 4, the figure the
        // constraint-derived cost model charges for an app install.
        let mut p = riscv_pmp();
        let cfg = amulet_core::mpu_plan::PmpRegisterValues {
            entries: vec![
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5000, 0x5400),
                    perm: Perm::X,
                },
                amulet_core::mpu_plan::RegionDesc {
                    range: AddrRange::new(0x5400, 0x5800),
                    perm: Perm::RW,
                },
            ],
            user_mode: true,
        };
        p.apply_config(&cfg);
        assert_eq!(p.config_writes, u64::from(cfg.write_count()));
        assert_eq!(
            cfg.write_count(),
            amulet_core::platform::MpuModel::riscv_pmp_napot(8, 0x40).config_writes_for_app()
        );
    }
}

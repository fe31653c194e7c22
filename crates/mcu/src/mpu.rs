//! The platform's Memory Protection Unit, in one of three shapes.
//!
//! The FR5969-style segmented part ([`Mpu`]) has exactly the shortcomings
//! the paper lists:
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
//! Its registers follow the MSP430FR5969 layout: `MPUCTL0` (password +
//! enable + lock), `MPUCTL1` (violation flags), `MPUSEGB2`/`MPUSEGB1`
//! (segment boundaries, address ÷ 16) and `MPUSAM` (per-segment R/W/X bits).
//!
//! The other two shapes — a Tock/Cortex-M-style region MPU
//! ([`RegionMpu`]) and a RISC-V-style NAPOT PMP ([`PmpMpu`]) — police
//! identically: deny by default inside their jurisdiction, and the first
//! enabled slot covering an address decides.  They share one slot table
//! and differ only in their register codecs.  A platform has one of the
//! three ([`MpuBackend`]); each shape's register block sits at a fixed
//! address, and only the platform's own backend answers at its block.

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::PlatformSpec;
use amulet_core::mpu_plan::{PmpRegisterValues, RegionRegisterValues};
use amulet_core::perm::{AccessKind, Perm};

/// Base address of the MPU register block.
pub(crate) const MPU_BASE: Addr = 0x05A0;
/// `MPUCTL0`: password, enable, segment-1/2/3 lock.
pub const MPUCTL0: Addr = 0x05A0;
/// `MPUCTL1`: violation flags (segment 1/2/3 and InfoMem).
pub(crate) const MPUCTL1: Addr = 0x05A2;
/// `MPUSEGB2`: boundary between segments 2 and 3, as address ÷ 16.
pub const MPUSEGB2: Addr = 0x05A4;
/// `MPUSEGB1`: boundary between segments 1 and 2, as address ÷ 16.
pub const MPUSEGB1: Addr = 0x05A6;
/// `MPUSAM`: segment access rights.
pub const MPUSAM: Addr = 0x05A8;
/// One past the last MPU register address.
pub(crate) const MPU_END: Addr = 0x05AA;

/// Password that must be present in the high byte of any `MPUCTL0` write.
pub(crate) const MPU_PASSWORD: u16 = 0xA5;

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

/// Error writing an MPU register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MpuRegisterError {
    /// An `MPUCTL0` write without the `0xA5` password; on real hardware this
    /// causes a power-up-clear reset.
    BadPassword,
    /// A configuration write while the lock bit is set.
    Locked,
    /// A store to a register block only the OS's switch path programs —
    /// the region MPU's (like the Cortex-M PPB) or the PMP's (like RISC-V
    /// CSRs) — or to the block of an MPU shape the platform does not have.
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
}

impl Mpu {
    /// Creates a disabled MPU covering the given main-FRAM and InfoMem
    /// ranges.
    fn new(main_range: AddrRange, info_range: AddrRange) -> Self {
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
        }
    }

    /// Creates the MPU for the MSP430FR5969 memory map.
    pub fn msp430fr5969() -> Self {
        let spec = PlatformSpec::msp430fr5969();
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

    /// Whether an access of `kind` at `addr` is permitted.  Pure: the bus
    /// latches a denial's flag through [`Mpu::latch_violation`].
    pub fn allows(&self, addr: Addr, kind: AccessKind) -> bool {
        match self.segment_of(addr) {
            Some(seg) if self.enabled => self.segment_perm(seg).allows(kind.required_perm()),
            _ => true,
        }
    }

    /// Latches the violation flag of `addr`'s segment, as the part does
    /// when it denies an access there.
    pub fn latch_violation(&mut self, addr: Addr) {
        self.violation_flags |= match self.segment_of(addr) {
            Some(MpuSegment::Seg1) => 1 << 0,
            Some(MpuSegment::Seg2) => 1 << 1,
            Some(MpuSegment::Seg3) => 1 << 2,
            Some(MpuSegment::Info) => 1 << 3,
            None => 0,
        };
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
        Ok(())
    }
}

/// One slot of a region MPU or one PMP entry, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    /// Address range the slot covers.
    range: AddrRange,
    /// Permissions the slot grants.
    perm: Perm,
    /// Whether the slot participates in checking.
    enabled: bool,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            range: AddrRange::empty(),
            perm: Perm::NONE,
            enabled: false,
        }
    }
}

/// The policing state a region MPU and a PMP share: while enforcing, an
/// access inside the jurisdiction is permitted only when the first
/// enabled slot covering its address grants it.
#[derive(Clone, Debug)]
pub(crate) struct SlotTable {
    /// Whether the table polices (region MPU enabled, PMP in user mode).
    pub(crate) enforcing: bool,
    /// The slots, in match order.
    slots: Vec<Slot>,
    /// The address ranges policed while enforcing; fixed by the platform.
    jurisdiction: Vec<AddrRange>,
}

impl SlotTable {
    /// Returns the table to its power-on state — not enforcing, every
    /// slot empty — allocating nothing.
    fn power_on(&mut self) {
        self.enforcing = false;
        self.slots.fill(Slot::default());
    }

    /// Makes this table a copy of `saved`, reusing its buffers.
    fn copy_state_from(&mut self, saved: &SlotTable) {
        let SlotTable {
            enforcing,
            slots,
            jurisdiction,
        } = saved;
        self.enforcing = *enforcing;
        self.slots.clone_from(slots);
        self.jurisdiction.clone_from(jurisdiction);
    }

    /// The enabled slots' ranges and permissions, in match order.
    pub(crate) fn enabled_slots(&self) -> impl Iterator<Item = (AddrRange, Perm)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.enabled)
            .map(|s| (s.range, s.perm))
    }

    /// Whether an access of `kind` at `addr` is permitted.
    fn allows(&self, addr: Addr, kind: AccessKind) -> bool {
        if !self.enforcing || !self.jurisdiction.iter().any(|r| r.contains(addr)) {
            return true;
        }
        self.slots
            .iter()
            .find(|s| s.enabled && s.range.contains(addr))
            .is_some_and(|s| s.perm.allows(kind.required_perm()))
    }
}

/// Base address of the region-MPU register block.
pub(crate) const RMPU_BASE: Addr = 0x05B0;
/// `RMPUCTL`: bit 0 enables region checking.
pub(crate) const RMPU_CTL: Addr = 0x05B0;
/// `RMPURNR`: selects which region slot `RMPURBAR`/`RMPURLAR` address.
pub(crate) const RMPU_RNR: Addr = 0x05B2;
/// `RMPURBAR`: selected region's base address ÷ 16.
pub(crate) const RMPU_RBAR: Addr = 0x05B4;
/// `RMPURLAR`: selected region's limit ÷ 16 in bits 0..12, permissions in
/// bits 12..15, enable in bit 15.
pub(crate) const RMPU_RLAR: Addr = 0x05B6;
/// One past the last region-MPU register address.
pub(crate) const RMPU_END: Addr = 0x05B8;

/// A Tock/Cortex-M-style region MPU: a fixed number of base/limit region
/// slots with per-slot R/W/X permissions.
///
/// Unlike the FR5969's segmented part, this backend **denies by default**:
/// inside its jurisdiction an access no enabled region grants is a
/// violation.  The base jurisdiction is main FRAM, InfoMem and SRAM,
/// like its classic Cortex-M inspirations — peripheral space, the
/// bootstrap loader and the vectors stay unpoliced there, the reason the
/// software keeps its function-pointer checks on the FR5994 profile.
/// ARMv8-M-class profiles extend the jurisdiction over those ranges too,
/// which is what lets their check policy drop the function-pointer check.
/// There is no password protocol, but the register block itself is
/// **privileged-only** (like the Cortex-M PPB): application stores through
/// the bus fault, and only the OS's trusted switch path
/// ([`crate::bus::Bus::install_mpu_config`]) programs it (select a slot
/// with `RMPURNR`, then write `RMPURBAR`/`RMPURLAR`).
#[derive(Clone, Debug)]
pub struct RegionMpu {
    /// `RMPUCTL` enable and the region slots.
    table: SlotTable,
    /// The slot index selected by `RMPURNR`.
    selected: usize,
}

impl RegionMpu {
    /// Reads a memory-mapped region-MPU register.
    fn read_register(&self, addr: Addr) -> u16 {
        let slot = self
            .table
            .slots
            .get(self.selected)
            .copied()
            .unwrap_or_default();
        match addr & !1 {
            RMPU_CTL => self.table.enforcing as u16,
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

    /// Writes a memory-mapped region-MPU register (the privileged OS
    /// path; region MPUs have no password/lock protocol).
    fn write_register(&mut self, addr: Addr, value: u16) {
        let slots = &mut self.table.slots;
        match addr & !1 {
            RMPU_CTL => self.table.enforcing = value & 1 != 0,
            RMPU_RNR => self.selected = (value as usize) % slots.len().max(1),
            RMPU_RBAR => {
                if let Some(slot) = slots.get_mut(self.selected) {
                    let base = (value as Addr) << 4;
                    slot.range = AddrRange::new(base, base.max(slot.range.end));
                }
            }
            RMPU_RLAR => {
                if let Some(slot) = slots.get_mut(self.selected) {
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
    pub(crate) fn apply_config(&mut self, config: &RegionRegisterValues) {
        let slots = self.table.slots.len();
        for (i, region) in config.regions.iter().enumerate().take(slots) {
            self.write_register(RMPU_RNR, i as u16);
            self.write_register(RMPU_RBAR, (region.range.start >> 4) as u16);
            self.write_register(
                RMPU_RLAR,
                ((region.range.end >> 4) as u16 & 0x0FFF) | (region.perm.to_bits() << 12) | 0x8000,
            );
        }
        for slot in self.table.slots.iter_mut().skip(config.regions.len()) {
            slot.enabled = false;
        }
        self.write_register(RMPU_CTL, 1);
    }
}

/// Base address of the PMP register block (memory-mapped stand-ins for
/// the CSRs).
pub(crate) const PMP_BASE: Addr = 0x05C0;
/// `PMPMODE`: bit 0 selects user mode (PMP enforced).  Machine mode —
/// bit 0 clear — bypasses the PMP entirely, which is how the OS runs.
pub(crate) const PMP_MODE: Addr = 0x05C0;
/// `PMPCFG0`: packed entry configs for entries 0..4, 4 bits each
/// (bit 0 read, bit 1 write, bit 2 execute, bit 3 NAPOT-enable).
pub(crate) const PMP_CFG0: Addr = 0x05C2;
/// `PMPCFG1`: packed entry configs for entries 4..8.
pub(crate) const PMP_CFG1: Addr = 0x05C4;
/// `PMPADDR0`: first NAPOT address register; entry *i* lives at
/// `PMP_ADDR_BASE + 2 i`.  Encoding follows the RISC-V NAPOT rule scaled
/// to the 16-bit space: `pmpaddr = (base >> 2) | ((size >> 3) − 1)` — the
/// count of trailing one bits selects the power-of-two region size
/// (minimum 8 bytes), and the bits above them hold the size-aligned base.
pub(crate) const PMP_ADDR_BASE: Addr = 0x05C6;
/// One past the last PMP register address (8 entries).
pub(crate) const PMP_END: Addr = PMP_ADDR_BASE + 2 * PMP_MAX_ENTRIES as Addr;
/// Entry registers provided by the modelled PMP.
pub(crate) const PMP_MAX_ENTRIES: usize = 8;

/// Decodes a NAPOT address register into the region it grants — TOR-free:
/// the trailing-ones count alone fixes the power-of-two size, and masking
/// them off yields the size-aligned base.
fn napot_range(bits: u16) -> AddrRange {
    let ones = bits.trailing_ones().min(13);
    let size = 8u32 << ones;
    let base = ((bits as Addr) & !((1 << ones) - 1)) << 2;
    let end = amulet_core::addr::ADDRESS_SPACE_END;
    AddrRange::new(base.min(end), base.saturating_add(size).min(end))
}

/// Encodes a NAPOT-valid range (power-of-two length, length-aligned base)
/// into the address register value.
fn napot_encode(range: AddrRange) -> u16 {
    debug_assert!(range.len().is_power_of_two() && range.len() >= 8);
    debug_assert!(range.start.is_multiple_of(range.len()));
    ((range.start >> 2) | ((range.len() >> 3) - 1)) as u16
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
    /// `PMPMODE` user mode and the decoded entries.
    table: SlotTable,
    /// The raw `pmpaddr` register values, for readback.
    addr_bits: Vec<u16>,
}

impl PmpMpu {
    /// Reads a memory-mapped PMP register.
    fn read_register(&self, addr: Addr) -> u16 {
        let packed = |lo: usize| -> u16 {
            self.table
                .slots
                .iter()
                .skip(lo)
                .take(4)
                .enumerate()
                .map(|(i, s)| (s.perm.to_bits() | ((s.enabled as u16) << 3)) << (4 * i))
                .sum()
        };
        match addr & !1 {
            PMP_MODE => self.table.enforcing as u16,
            PMP_CFG0 => packed(0),
            PMP_CFG1 => packed(4),
            a if (PMP_ADDR_BASE..PMP_END).contains(&a) => {
                let i = ((a - PMP_ADDR_BASE) / 2) as usize;
                self.addr_bits.get(i).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Writes a memory-mapped PMP register (the privileged OS path).
    fn write_register(&mut self, addr: Addr, value: u16) {
        let mut unpack = |lo: usize| {
            for (i, s) in self.table.slots.iter_mut().skip(lo).take(4).enumerate() {
                let nibble = (value >> (4 * i)) & 0xF;
                s.perm = Perm::from_bits(nibble & 0x7);
                s.enabled = nibble & 0x8 != 0;
            }
        };
        match addr & !1 {
            PMP_MODE => self.table.enforcing = value & 1 != 0,
            PMP_CFG0 => unpack(0),
            PMP_CFG1 => unpack(4),
            a if (PMP_ADDR_BASE..PMP_END).contains(&a) => {
                let i = ((a - PMP_ADDR_BASE) / 2) as usize;
                if let Some(bits) = self.addr_bits.get_mut(i) {
                    *bits = value;
                    self.table.slots[i].range = napot_range(value);
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
    pub(crate) fn apply_config(&mut self, config: &PmpRegisterValues) {
        if !config.user_mode {
            self.write_register(PMP_MODE, 0);
            return;
        }
        let count = config.entries.len().min(self.addr_bits.len());
        for (i, region) in config.entries.iter().enumerate().take(count) {
            self.write_register(PMP_ADDR_BASE + 2 * i as Addr, napot_encode(region.range));
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

/// Whether `addr` is in the register block of any MPU shape.  Each
/// shape's block sits at a fixed address on every platform; only the
/// platform's own MPU answers at its block.
pub(crate) fn is_register(addr: Addr) -> bool {
    [MPU_BASE..MPU_END, RMPU_BASE..RMPU_END, PMP_BASE..PMP_END]
        .iter()
        .any(|block| block.contains(&addr))
}

/// Whether a platform's MPU polices the **full platform space** —
/// peripheral registers, the boot ROM and the vector table as well as
/// memory.  The one rule the backend's jurisdiction and the bus's access
/// decision share, so they cannot drift.
pub(crate) fn polices_full_platform(platform: &PlatformSpec) -> bool {
    platform.mpu.is_napot() || platform.mpu.covers_peripherals()
}

/// A platform's MPU: the one backend its [`amulet_core::platform::MpuModel`]
/// selects.
#[derive(Clone, Debug)]
pub enum MpuBackend {
    /// The FR5969-style segmented part.
    Segmented(Mpu),
    /// An aligned-region (RNR/RBAR/RLAR) MPU.
    Region(RegionMpu),
    /// A NAPOT PMP.
    Pmp(PmpMpu),
}

impl MpuBackend {
    /// The platform's MPU in its power-on (non-enforcing) state.
    pub(crate) fn for_platform(platform: &PlatformSpec) -> Self {
        if !platform.mpu.is_region_based() {
            return MpuBackend::Segmented(Mpu::new(platform.fram, platform.info_mem));
        }
        let slots = platform.mpu.main_segments();
        // FRAM, InfoMem and SRAM, then peripheral space, the boot ROM and
        // the vectors, which a full-platform MPU polices too.
        let ranges = platform.full_jurisdiction_ranges();
        let policed = if polices_full_platform(platform) {
            &ranges[..]
        } else {
            &ranges[..3]
        };
        let table = SlotTable {
            enforcing: false,
            slots: vec![Slot::default(); slots],
            jurisdiction: policed.to_vec(),
        };
        if platform.mpu.is_napot() {
            assert!(
                slots <= PMP_MAX_ENTRIES,
                "the modelled PMP register file has {PMP_MAX_ENTRIES} entries, \
                 a {slots}-entry constraint cannot be honoured"
            );
            MpuBackend::Pmp(PmpMpu {
                table,
                addr_bits: vec![0; slots],
            })
        } else {
            MpuBackend::Region(RegionMpu { table, selected: 0 })
        }
    }

    /// Whether the MPU currently polices anything (segmented part
    /// enabled, region MPU enabled, PMP in user mode).
    pub fn enforcing(&self) -> bool {
        match self {
            MpuBackend::Segmented(mpu) => mpu.enabled,
            MpuBackend::Region(RegionMpu { table, .. }) | MpuBackend::Pmp(PmpMpu { table, .. }) => {
                table.enforcing
            }
        }
    }

    /// The slot table of a region MPU or PMP; `None` for the segmented
    /// part.
    pub(crate) fn slot_table(&self) -> Option<&SlotTable> {
        match self {
            MpuBackend::Segmented(_) => None,
            MpuBackend::Region(RegionMpu { table, .. }) | MpuBackend::Pmp(PmpMpu { table, .. }) => {
                Some(table)
            }
        }
    }

    /// Returns the MPU to its power-on state in place, allocating nothing.
    pub(crate) fn power_on(&mut self) {
        match self {
            MpuBackend::Segmented(mpu) => *mpu = Mpu::new(mpu.main_range, mpu.info_range),
            MpuBackend::Region(r) => {
                r.table.power_on();
                r.selected = 0;
            }
            MpuBackend::Pmp(p) => {
                p.table.power_on();
                p.addr_bits.fill(0);
            }
        }
    }

    /// Makes this MPU a copy of `saved`, reusing its buffers when both
    /// have the same shape (a bus checkpoint restore allocates nothing).
    pub(crate) fn copy_state_from(&mut self, saved: &MpuBackend) {
        match (&mut *self, saved) {
            (MpuBackend::Segmented(mpu), MpuBackend::Segmented(s)) => mpu.clone_from(s),
            (MpuBackend::Region(r), MpuBackend::Region(s)) => {
                r.table.copy_state_from(&s.table);
                r.selected = s.selected;
            }
            (MpuBackend::Pmp(p), MpuBackend::Pmp(s)) => {
                p.table.copy_state_from(&s.table);
                p.addr_bits.clone_from(&s.addr_bits);
            }
            (this, saved) => *this = saved.clone(),
        }
    }

    /// Whether an access of `kind` at `addr` is permitted: the backend's
    /// one permission query.  Pure.
    pub(crate) fn allows(&self, addr: Addr, kind: AccessKind) -> bool {
        match self {
            MpuBackend::Segmented(mpu) => mpu.allows(addr, kind),
            MpuBackend::Region(RegionMpu { table, .. }) | MpuBackend::Pmp(PmpMpu { table, .. }) => {
                table.allows(addr, kind)
            }
        }
    }

    /// Records a denied access at `addr`: the segmented part latches its
    /// segment's violation flag; the slot tables keep no flags.
    pub(crate) fn latch_violation(&mut self, addr: Addr) {
        if let MpuBackend::Segmented(mpu) = self {
            mpu.latch_violation(addr);
        }
    }

    /// Whether `addr` is in this MPU's own register block.
    fn owns_register(&self, addr: Addr) -> bool {
        let block = match self {
            MpuBackend::Segmented(_) => MPU_BASE..MPU_END,
            MpuBackend::Region(_) => RMPU_BASE..RMPU_END,
            MpuBackend::Pmp(_) => PMP_BASE..PMP_END,
        };
        block.contains(&addr)
    }

    /// A load from an MPU register block: the register's value in the
    /// MPU's own block, 0 in any other.
    pub(crate) fn read_register(&self, addr: Addr) -> u16 {
        match self {
            _ if !self.owns_register(addr) => 0,
            MpuBackend::Segmented(mpu) => mpu.read_register(addr),
            MpuBackend::Region(r) => r.read_register(addr),
            MpuBackend::Pmp(p) => p.read_register(addr),
        }
    }

    /// A CPU store to an MPU register block.  Only the segmented part's
    /// own block takes CPU stores (under its password/lock protocol); the
    /// region MPU's and the PMP's blocks are privileged, and a block the
    /// platform does not have refuses stores too.
    pub(crate) fn write_register(
        &mut self,
        addr: Addr,
        value: u16,
    ) -> Result<(), MpuRegisterError> {
        let owned = self.owns_register(addr);
        match self {
            MpuBackend::Segmented(mpu) if owned => mpu.write_register(addr, value),
            _ => Err(MpuRegisterError::Privileged),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};
    use amulet_core::mpu_plan::{MpuPlan, RegionDesc};

    fn fr5969() -> Mpu {
        Mpu::msp430fr5969()
    }

    #[test]
    fn disabled_mpu_allows_everything() {
        let mpu = fr5969();
        assert!(mpu.allows(0x5000, AccessKind::Write));
        assert!(mpu.allows(0xF000, AccessKind::Execute));
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
    fn violations_are_latched() {
        let mut mpu = fr5969();
        mpu.boundary1 = 0x6000;
        mpu.boundary2 = 0x8000;
        mpu.seg1 = Perm::X;
        mpu.seg2 = Perm::RW;
        mpu.seg3 = Perm::NONE;
        mpu.enabled = true;

        assert!(mpu.allows(0x7000, AccessKind::Write));
        assert!(!mpu.allows(0x9000, AccessKind::Read));
        assert!(!mpu.allows(0x5000, AccessKind::Write));
        assert_eq!(mpu.violation_flags, 0, "the query latches nothing");
        mpu.latch_violation(0x9000);
        mpu.latch_violation(0x5000);
        assert_eq!(mpu.violation_flags, 0b101, "seg3 and seg1 flags latched");

        // Clearing via MPUCTL1 write.
        mpu.write_register(MPUCTL1, 0).unwrap();
        assert_eq!(mpu.violation_flags, 0);

        // The bus latches the flag of each access it denies, and only then.
        let mut bus = crate::bus::Bus::msp430fr5969();
        for (addr, value) in [
            (MPUSEGB1, 0x600),
            (MPUSEGB2, 0x800),
            (MPUSAM, 0x0024),
            (MPUCTL0, 0xA501),
        ] {
            bus.write(addr, 2, value).unwrap();
        }
        bus.write(0x7000, 2, 1).unwrap();
        assert_eq!(bus.read(MPUCTL1, 2), Ok(0));
        assert!(bus.read(0x9000, 2).is_err());
        assert_eq!(bus.read(MPUCTL1, 2), Ok(0b100), "seg3 flag latched");
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
        assert!(matches!(bus.mpu(), MpuBackend::Segmented(m) if m.locked));
        bus.reset();
        assert!(matches!(bus.mpu(), MpuBackend::Segmented(m) if !m.locked && !m.enabled));
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
        // The register writes the bus performs when it installs a plan.
        let regs = plan.register_values();
        for (addr, value) in [
            (MPUSEGB1, regs.mpusegb1),
            (MPUSEGB2, regs.mpusegb2),
            (MPUSAM, regs.mpusam),
            (MPUCTL0, regs.mpuctl0),
        ] {
            mpu.write_register(addr, value).unwrap();
        }
        assert!(mpu.enabled);

        let app_a = &map.apps[0];
        let app_b = &map.apps[1];
        // App A may write its own data...
        assert!(mpu.allows(app_a.data.start, AccessKind::Write));
        // ...may execute its own code...
        assert!(mpu.allows(app_a.code.start, AccessKind::Execute));
        // ...may not touch app B at all...
        assert!(!mpu.allows(app_b.data.start, AccessKind::Read));
        assert!(!mpu.allows(app_b.code.start, AccessKind::Execute));
        // ...and may not write OS data (execute-only segment 1), though the
        // MPU alone cannot stop writes to SRAM or peripherals.
        assert!(!mpu.allows(map.os_data.start, AccessKind::Write));
        assert_eq!(mpu.segment_of(map.os_stack.start), None);
        assert!(mpu.allows(map.os_stack.start, AccessKind::Write));
    }

    fn region_mpu(platform: &PlatformSpec) -> RegionMpu {
        match MpuBackend::for_platform(platform) {
            MpuBackend::Region(r) => r,
            other => panic!("{} has no region MPU: {other:?}", platform.name),
        }
    }

    fn regions(list: &[(Addr, Addr, Perm)]) -> RegionRegisterValues {
        RegionRegisterValues {
            regions: list
                .iter()
                .map(|&(start, end, perm)| RegionDesc {
                    range: AddrRange::new(start, end),
                    perm,
                })
                .collect(),
        }
    }

    #[test]
    fn disabled_region_mpu_is_permissive() {
        let r = region_mpu(&PlatformSpec::msp430fr5994());
        assert!(r.table.allows(0x5000, AccessKind::Write));
    }

    #[test]
    fn region_mpu_denies_by_default_inside_its_jurisdiction() {
        let mut r = region_mpu(&PlatformSpec::msp430fr5994());
        r.apply_config(&regions(&[
            (0x5000, 0x5400, Perm::X),
            (0x5400, 0x5800, Perm::RW),
        ]));
        let t = &r.table;
        assert!(t.enforcing);
        // Granted accesses pass…
        assert!(t.allows(0x5000, AccessKind::Execute));
        assert!(t.allows(0x5600, AccessKind::Write));
        // …a matching region without the permission is a violation…
        assert!(!t.allows(0x5100, AccessKind::Write));
        // …and uncovered FRAM *and SRAM* are denied (full coverage).
        assert!(!t.allows(0x9000, AccessKind::Read));
        assert!(!t.allows(0x1C00, AccessKind::Write));
        // Peripheral space stays outside the jurisdiction.
        assert!(t.allows(0x0200, AccessKind::Write));
    }

    #[test]
    fn region_registers_roundtrip_and_reconfigure() {
        let mut r = region_mpu(&PlatformSpec::msp430fr5994());
        r.write_register(RMPU_RNR, 2);
        r.write_register(RMPU_RBAR, 0x500);
        r.write_register(RMPU_RLAR, 0x540 | (Perm::RW.to_bits() << 12) | 0x8000);
        assert_eq!(r.read_register(RMPU_RNR), 2);
        assert_eq!(r.read_register(RMPU_RBAR), 0x500);
        let slot = r.table.slots[2];
        assert_eq!(slot.range, AddrRange::new(0x5000, 0x5400));
        assert_eq!(slot.perm, Perm::RW);
        assert!(slot.enabled);
        // Reprogramming the same slot with a lower base works.
        r.write_register(RMPU_RBAR, 0x480);
        r.write_register(RMPU_RLAR, 0x500 | (Perm::X.to_bits() << 12) | 0x8000);
        assert_eq!(r.table.slots[2].range, AddrRange::new(0x4800, 0x5000));
        assert_eq!(r.table.slots[2].perm, Perm::X);
    }

    #[test]
    fn region_plan_for_app_encodes_and_enforces() {
        let map = MemoryMapPlanner::new(PlatformSpec::msp430fr5994())
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
        let mut r = region_mpu(&PlatformSpec::msp430fr5994());
        r.apply_config(&plan.region_register_values());

        let (a, b, t) = (&map.apps[0], &map.apps[1], &r.table);
        assert!(t.allows(a.code.start, AccessKind::Execute));
        assert!(t.allows(a.data.start, AccessKind::Write));
        // App B fully blocked, OS data blocked, OS stack in SRAM blocked —
        // all in hardware, with no compiler-inserted check needed.
        assert!(!t.allows(b.data.start, AccessKind::Read));
        assert!(!t.allows(map.os_data.start, AccessKind::Write));
        assert!(!t.allows(map.os_stack.start, AccessKind::Write));
    }

    #[test]
    fn region_mpu_with_peripheral_jurisdiction_polices_peripheral_space() {
        let spec = PlatformSpec::cortex_m33();
        let mut r = region_mpu(&spec);
        assert_eq!(r.table.jurisdiction, spec.full_jurisdiction_ranges());
        r.apply_config(&regions(&[(0x5000, 0x5400, Perm::RW)]));
        // Inside jurisdiction, no region grants it: a peripheral write is
        // a violation — the DESIGN §6 gap closed for this profile.
        assert!(!r.table.allows(0x0200, AccessKind::Write));
        // A region over peripheral space grants access (the OS plan).
        let p = spec.peripherals;
        r.apply_config(&regions(&[(p.start, p.end, Perm::RW)]));
        assert!(r.table.allows(0x0200, AccessKind::Write));
    }

    fn riscv_pmp() -> PmpMpu {
        match MpuBackend::for_platform(&PlatformSpec::riscv_pmp()) {
            MpuBackend::Pmp(p) => p,
            other => panic!("riscv-pmp has no PMP: {other:?}"),
        }
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
            assert_eq!(napot_range(napot_encode(range)), range, "{range:?}");
        }
    }

    #[test]
    fn pmp_machine_mode_bypasses_and_user_mode_denies_by_default() {
        let mut p = riscv_pmp();
        // Machine mode (power-on): nothing is policed.
        assert!(p.table.allows(0x5000, AccessKind::Write));
        let two = regions(&[(0x5000, 0x5400, Perm::X), (0x5400, 0x5800, Perm::RW)]);
        p.apply_config(&PmpRegisterValues {
            entries: two.regions,
            user_mode: true,
        });
        let t = &p.table;
        assert!(t.enforcing);
        // Granted accesses pass…
        assert!(t.allows(0x5000, AccessKind::Execute));
        assert!(t.allows(0x5600, AccessKind::Write));
        // …a matching entry without the permission is a violation…
        assert!(!t.allows(0x5100, AccessKind::Write));
        // …and the full jurisdiction — FRAM, SRAM *and peripherals* — is
        // denied by default in user mode.
        assert!(!t.allows(0x9000, AccessKind::Read));
        assert!(!t.allows(0x1C00, AccessKind::Write));
        assert!(!t.allows(0x0200, AccessKind::Write));
        // The boot ROM and the vector table are policed too: nowhere in
        // the mapped platform space escapes user-mode jurisdiction.
        assert!(!t.allows(0x1000, AccessKind::Execute));
        assert!(!t.allows(0xFF80, AccessKind::Write));

        // Back to machine mode: everything permitted.
        p.apply_config(&PmpRegisterValues {
            entries: vec![],
            user_mode: false,
        });
        assert!(!p.table.enforcing);
        assert!(p.table.allows(0x0200, AccessKind::Write));
        // The entries are still programmed (machine mode just ignores
        // them), exactly like hardware.
        assert!(p.table.slots[0].enabled);
    }

    #[test]
    fn pmp_registers_roundtrip() {
        let mut p = riscv_pmp();
        let range = AddrRange::new(0x5000, 0x5400);
        p.write_register(PMP_ADDR_BASE + 4, napot_encode(range));
        p.write_register(PMP_CFG0, (Perm::RW.to_bits() | 0x8) << 8);
        p.write_register(PMP_MODE, 1);
        assert_eq!(p.read_register(PMP_ADDR_BASE + 4), napot_encode(range));
        assert_eq!(p.read_register(PMP_CFG0) >> 8, Perm::RW.to_bits() | 0x8);
        assert_eq!(p.read_register(PMP_MODE), 1);
        let slot = p.table.slots[2];
        assert_eq!(slot.range, range);
        assert_eq!(slot.perm, Perm::RW);
        assert!(slot.enabled);
    }
}

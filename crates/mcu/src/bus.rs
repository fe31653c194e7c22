//! The memory bus: physical storage, region decoding, peripheral dispatch
//! and MPU enforcement.
//!
//! Every data access and instruction fetch made by the CPU (and by the OS on
//! the application's behalf) goes through [`Bus`].  One pure access
//! decision rules them all: it decodes the address into a [`Region`] of
//! the platform's memory map, asks the platform's MPU whether it permits
//! the access wherever the MPU polices that region, and then applies the
//! two region rules — peripheral-register loads and stores dispatch to the
//! MPU and timer models, and the boot ROM is write-protected.  Accesses it
//! denies are reported as [`BusFault`]s, which the CPU converts into
//! application faults.
//!
//! # The access-attribute cache
//!
//! Running that decision on **every** access would be the second-hottest
//! operation in the simulator after instruction fetch.  The bus therefore
//! keeps a flat 64 KiB *attribute table* — one byte per address encoding
//! whether a read, write or instruction fetch at that address is an
//! ordinary permitted memory access.  The table is a sampled cache of the
//! decision: the decision can change only at an edge of the platform's
//! ranges or of the MPU's segment boundaries or slots, so the table is
//! painted by evaluating it once per interval between edges.  The hot
//! paths of [`Bus::read`], [`Bus::write`] and [`Bus::check_execute`]
//! become a single table index; anything the table cannot prove harmless
//! (peripheral dispatch, denied or unmapped accesses) takes the slow path,
//! which runs the same decision and acts on it — it alone produces faults,
//! latches violation flags and counts denials.
//!
//! Because the OS alternates between the OS and per-app MPU configurations
//! on every context switch, tables are **memoised per configuration**:
//! each table is keyed by a fingerprint of the MPU's state, so
//! a switch back to an already-seen configuration re-points the bus at the
//! existing table instead of rebuilding.  The memo is bounded: once full,
//! each new configuration repaints the least recently used inactive table
//! in place.
//!
//! The bus owns the platform's one MPU: the only ways to change its state
//! are a register store through [`Bus::write`] (which reaches the
//! peripheral dispatch, on hardware and here alike) and the OS's
//! [`Bus::install_mpu_config`]; [`Bus::mpu`] is read-only.  So the table
//! is resolved when the
//! configuration **changes**, not when it is used: [`Bus::new`],
//! [`Bus::reset`], [`Bus::install_mpu_config`] and every MPU register
//! store re-point the bus before they return, and each fetch and data
//! access is one indexed byte load.  The memo survives [`Bus::reset`],
//! which is what lets the fleet simulator reuse attribute tables across
//! devices and firmware images.
//!
//! # Dirty pages
//!
//! A simulated device writes a few KiB of its 64 KiB: the isolation
//! confines each app to its own data and stack.  The bus therefore keeps
//! one dirty bit per 1 KiB page, set by every store path
//! ([`Bus::write_raw`], which [`Bus::write`] ends in, [`Bus::load_bytes`]
//! and [`Bus::fill`]), with the invariant that a clean page is all zero.
//! [`Bus::reset`] zeroes the dirty pages only, and [`Bus::save`] /
//! [`Bus::restore`] copy only them, so the cost of reusing a bus follows
//! what the run wrote.

use crate::mpu::{self, MpuBackend, MpuRegisterError};
use crate::timer::Timer;
use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::PlatformSpec;
use amulet_core::mpu_plan::MpuConfig;
use amulet_core::perm::{AccessKind, Perm};
use std::fmt;

/// Which architectural region an address decodes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Region {
    /// Memory-mapped peripheral registers.
    Peripherals,
    /// Bootstrap-loader ROM (read-only).
    BootstrapLoader,
    /// Information memory (FRAM).
    InfoMem,
    /// SRAM.
    Sram,
    /// Main FRAM (code + data).
    Fram,
    /// Interrupt vector table.
    InterruptVectors,
    /// A hole in the memory map.
    Unmapped,
}

/// Why a bus access failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusFaultCause {
    /// The MPU denied the access.
    MpuViolation,
    /// The address decodes to a hole in the memory map.
    Unmapped,
    /// A write targeted read-only memory (bootstrap loader).
    ReadOnly,
    /// An MPU register write violated the password/lock protocol, or
    /// targeted a privileged or absent register block.
    MpuRegisterProtocol(MpuRegisterError),
    /// [`Bus::install_mpu_config`] was handed a configuration for another
    /// MPU shape than the platform's; the address is the base of that
    /// shape's register block.
    ForeignMpuConfig,
    /// A word access at an odd address (the MSP430 requires aligned words).
    Misaligned,
}

/// A failed bus access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusFault {
    /// The faulting address.
    pub addr: Addr,
    /// What kind of access was attempted.
    pub access: AccessKind,
    /// Why it failed.
    pub cause: BusFaultCause,
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {:#06x} failed: {:?}",
            self.access, self.addr, self.cause
        )
    }
}

impl std::error::Error for BusFault {}

/// log2 of the memory page size the bus tracks writes at.
const PAGE_SHIFT: u32 = 10;
/// Bytes per tracked page (1 KiB, so 64 pages cover the address space
/// and one `u64` holds the dirty set).
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// The pages of a page set, in address order: the base address of each.
fn page_bases(mut pages: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (pages != 0).then(|| {
            let page = pages.trailing_zeros() as usize;
            pages &= pages - 1;
            page << PAGE_SHIFT
        })
    })
}

/// Counters the bus maintains for the evaluation and the profiler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Data reads performed.
    pub reads: u64,
    /// Data writes performed.
    pub writes: u64,
    /// Instruction-fetch permission checks performed.
    pub exec_checks: u64,
    /// Writes that landed in FRAM (more energy-expensive on real hardware).
    pub fram_writes: u64,
    /// Peripheral-register writes (MPU/timer configuration traffic).
    pub peripheral_writes: u64,
    /// Accesses denied by the MPU.
    pub denied: u64,
}

/// Attribute bit: a read at this address is a plain permitted memory read
/// (no peripheral dispatch, no fault possible).
const ATTR_R: u8 = 1 << 0;
/// Attribute bit: a write at this address is a plain permitted memory write.
const ATTR_W: u8 = 1 << 1;
/// Attribute bit: an instruction fetch at this address is permitted.
const ATTR_X: u8 = 1 << 2;
/// Attribute bit: a write here counts as an FRAM write in [`BusStats`].
const ATTR_FRAM_WRITE: u8 = 1 << 3;

/// Upper bound on memoised attribute tables (64 KiB each) per bus.  A
/// device needs one per MPU configuration it installs (the OS plus one per
/// app).  A runtime reloaded across images keeps earlier images' tables
/// until the memo is full; from then on each new configuration repaints
/// the least recently used table in place — never the active one — so the
/// memo's memory stays bounded however long the bus lives.
pub const MAX_ATTR_TABLES: usize = 16;

/// Everything an attribute table depends on besides the (fixed) platform:
/// the state of the platform's MPU, reduced to what [`decide`] reads.
/// Disabled slots and the slots of a non-enforcing MPU cannot change a
/// table, so they are left out, and every MPU state that paints one table
/// has one key.
#[derive(Clone, Debug, PartialEq)]
enum MpuFingerprint {
    /// The MPU enforces nothing (segmented MPU disabled, region MPU
    /// disabled, PMP in machine mode).
    Open,
    /// An enabled segmented MPU.
    Segmented {
        boundary1: Addr,
        boundary2: Addr,
        /// Segment 1, 2 and 3 permissions, then InfoMem's.
        perms: [Perm; 4],
    },
    /// An enforcing region MPU or user-mode PMP: its enabled slots
    /// (entries) in match order.
    Slots(Vec<(AddrRange, Perm)>),
}

/// One slot of the attribute-table memo.
#[derive(Clone)]
struct AttrSlot {
    /// The MPU state the table was painted for.
    key: MpuFingerprint,
    /// One attribute byte per address; `None` while this slot's table is
    /// the active one (it then lives in `Bus::attr_active`).  The fixed
    /// array size lets the hot path's masked index compile without a
    /// bounds check.
    attrs: Option<Box<[u8; 0x1_0000]>>,
    /// The memo clock at the slot's last use; eviction takes the least
    /// recently used inactive slot.
    last_used: u64,
}

/// Counters of a bus's attribute-table memo ([`Bus::attr_memo_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttrMemoStats {
    /// Tables the memo holds, the active one included.
    pub tables: usize,
    /// Tables painted since the bus was built.
    pub paints: u64,
    /// Tables repainted over an evicted one since the bus was built.
    pub evictions: u64,
}

/// A saved bus state ([`Bus::save`], [`Bus::restore`]).  Its buffers are
/// reused by every later save, so a checkpoint kept across runs makes
/// saving allocation-free after the first.  Its `Debug` form lists the
/// saved pages, not their bytes.
#[derive(Clone, Default)]
pub struct BusCheckpoint {
    /// The dirty-page set at save time.
    dirty: u64,
    /// The bytes of those pages, in address order.
    pages: Vec<u8>,
    /// The MPU (`None` until the first save).
    mpu: Option<MpuBackend>,
    timer: Timer,
    stats: BusStats,
}

impl fmt::Debug for BusCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BusCheckpoint")
            .field("dirty", &format_args!("{:#018x}", self.dirty))
            .field("mpu", &self.mpu)
            .field("timer", &self.timer)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A zeroed 64 KiB page (memory image or attribute table).
fn zeroed_page() -> Box<[u8; 0x1_0000]> {
    vec![0u8; 0x1_0000]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the page has the fixed size"))
}

/// Fills `range ∩ [0, 64 KiB)` of the attribute table with `value`,
/// except that an odd address never gets [`ATTR_X`]: instructions are
/// word-aligned, so a table hit on a fetch also proves it aligned.
fn paint(attrs: &mut [u8], range: AddrRange, value: u8) {
    let start = (range.start as usize).min(attrs.len());
    let end = (range.end as usize).min(attrs.len());
    if start >= end {
        return;
    }
    // Whole even/odd pairs, plus a lone odd first and even last byte.
    let pair = [value, value & !ATTR_X];
    let (even_start, even_end) = (start.next_multiple_of(2), end & !1);
    if start % 2 == 1 {
        attrs[start] = pair[1];
    }
    for word in attrs[even_start..even_end].chunks_exact_mut(2) {
        word.copy_from_slice(&pair);
    }
    if end % 2 == 1 && end > even_start {
        attrs[end - 1] = pair[0];
    }
}

/// Decodes `addr` into its architectural region on platform `p`: the
/// bus's one decode cascade.
fn region_of(p: &PlatformSpec, addr: Addr) -> Region {
    if p.peripherals.contains(addr) {
        Region::Peripherals
    } else if p.bootstrap_loader.contains(addr) {
        Region::BootstrapLoader
    } else if p.info_mem.contains(addr) {
        Region::InfoMem
    } else if p.sram.contains(addr) {
        Region::Sram
    } else if p.fram.contains(addr) {
        Region::Fram
    } else if p.interrupt_vectors.contains(addr) {
        Region::InterruptVectors
    } else {
        Region::Unmapped
    }
}

/// What one access does, as [`decide`] rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Access {
    /// An ordinary memory access: load, store or fetch.
    Plain,
    /// A peripheral-register load or store: dispatched to the register
    /// files.
    Peripheral,
    /// The access faults.
    Fault(BusFaultCause),
}

/// The bus's one access decision: what an access of `kind` at `addr`
/// does on `platform` with `mpu` in its current state.  Pure; the slow
/// paths act on it and the attribute table samples it.
///
/// The MPU always polices FRAM, InfoMem and SRAM (the segmented part
/// allows everything outside its segments, SRAM included), and peripheral
/// space, the boot ROM and the vectors only where it
/// [polices the full platform](mpu::polices_full_platform).  A permitted
/// access then meets the two region rules: peripheral loads and stores
/// dispatch, and the boot ROM is write-protected.
fn decide(platform: &PlatformSpec, mpu: &MpuBackend, addr: Addr, kind: AccessKind) -> Access {
    let region = region_of(platform, addr);
    let policed = match region {
        Region::Unmapped => return Access::Fault(BusFaultCause::Unmapped),
        Region::Fram | Region::InfoMem | Region::Sram => true,
        Region::Peripherals | Region::BootstrapLoader | Region::InterruptVectors => {
            mpu::polices_full_platform(platform)
        }
    };
    if policed && !mpu.allows(addr, kind) {
        return Access::Fault(BusFaultCause::MpuViolation);
    }
    match (region, kind) {
        (Region::Peripherals, AccessKind::Read | AccessKind::Write) => Access::Peripheral,
        (Region::BootstrapLoader, AccessKind::Write) => Access::Fault(BusFaultCause::ReadOnly),
        _ => Access::Plain,
    }
}

/// The system bus.
#[derive(Clone)]
pub struct Bus {
    platform: PlatformSpec,
    /// Physical memory.  Fixed size so masked indexing compiles without
    /// bounds checks on the hot path.
    mem: Box<[u8; 0x1_0000]>,
    /// One bit per [`PAGE_SIZE`] page of `mem` that a store may have
    /// touched since the last [`Bus::reset`].  Every store path sets it,
    /// so a clean page is all zero.
    dirty: u64,
    /// The platform's MPU, the one backend its MPU model selects.
    mpu: MpuBackend,
    /// The benchmark timer.
    pub timer: Timer,
    /// Access counters.
    pub stats: BusStats,
    /// The attribute table for the installed MPU configuration, always
    /// resolved.  Held directly — not behind an index or an `Option` — so
    /// the hot path is one pointer chase.  It belongs to memo slot
    /// `attr_slot`, which lends it out while it is active.
    attr_active: Box<[u8; 0x1_0000]>,
    /// The memo slot of the active table.
    attr_slot: usize,
    /// The attribute-table memo: at most [`MAX_ATTR_TABLES`] slots with
    /// pairwise distinct keys.
    attr_slots: Vec<AttrSlot>,
    /// The memo's use clock (see [`AttrSlot::last_used`]).
    attr_clock: u64,
    /// Tables painted and evicted over the bus's life.
    attr_paints: u64,
    attr_evictions: u64,
    /// Whether the cache is on.  While it is off
    /// ([`Bus::set_attr_cache_enabled`]) every table is painted all zero —
    /// a zero attribute proves nothing, so every access takes the slow
    /// path.
    attr_cache: bool,
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus")
            .field("platform", &"PlatformSpec")
            .field("mpu", &self.mpu)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Bus {
    /// Creates a bus for the given platform with zeroed memory and its
    /// MPU, the backend the platform's [`amulet_core::platform::MpuModel`]
    /// selects, in its power-on state.
    pub fn new(platform: PlatformSpec) -> Self {
        let mpu = MpuBackend::for_platform(&platform);
        let key = Self::fingerprint(&mpu);
        let mut attr_active = zeroed_page();
        Self::paint_attr_table(&mut attr_active, &platform, &mpu, &key, true);
        Bus {
            platform,
            mem: zeroed_page(),
            dirty: 0,
            mpu,
            timer: Timer::new(),
            stats: BusStats::default(),
            attr_active,
            attr_slot: 0,
            attr_slots: vec![AttrSlot {
                key,
                attrs: None,
                last_used: 0,
            }],
            attr_clock: 0,
            attr_paints: 1,
            attr_evictions: 0,
            attr_cache: true,
        }
    }

    /// Creates a bus for the MSP430FR5969.
    pub fn msp430fr5969() -> Self {
        Bus::new(PlatformSpec::msp430fr5969())
    }

    /// Returns the bus to its power-on state **in place**: memory is zeroed
    /// (only the pages a store touched since the last reset, so the cost
    /// follows what the run wrote, not the 64 KiB), the MPU returns to
    /// its disabled reset values, the timer stops and the
    /// access counters clear.  Lets one bus be reused across many
    /// simulation runs.
    ///
    /// The memoised attribute tables are deliberately **kept**: their
    /// contents are a pure function of MPU state and the (unchanged)
    /// platform, so the reset re-points the bus at the memoised table for
    /// the power-on configuration instead of rebuilding one per context
    /// switch of the next run.  The MPU returns to its power-on state in
    /// place, so a reset allocates nothing.
    pub fn reset(&mut self) {
        for base in page_bases(std::mem::take(&mut self.dirty)) {
            self.mem[base..base + PAGE_SIZE].fill(0);
        }
        self.mpu.power_on();
        self.timer = Timer::new();
        self.stats = BusStats::default();
        self.resolve_attr_table();
    }

    /// Saves the bus state into `checkpoint`, reusing its buffers: the
    /// dirty pages' bytes, the MPU, the timer and the access
    /// counters.  The attribute-table memo is not part of the state: it
    /// is a cache, re-resolved by [`Bus::restore`].
    pub fn save(&self, checkpoint: &mut BusCheckpoint) {
        checkpoint.dirty = self.dirty;
        checkpoint.pages.clear();
        for base in page_bases(self.dirty) {
            checkpoint
                .pages
                .extend_from_slice(&self.mem[base..base + PAGE_SIZE]);
        }
        match &mut checkpoint.mpu {
            Some(mpu) => mpu.copy_state_from(&self.mpu),
            None => checkpoint.mpu = Some(self.mpu.clone()),
        }
        checkpoint.timer = self.timer.clone();
        checkpoint.stats = self.stats;
    }

    /// Returns the bus to the state [`Bus::save`] recorded in
    /// `checkpoint` (taken on this bus): pages a store touched since the
    /// save are zeroed, the saved pages are copied back, and the MPU,
    /// timer and counters are restored before the attribute
    /// table is re-resolved.  Allocates nothing.
    ///
    /// # Panics
    ///
    /// If nothing was ever saved into `checkpoint`.
    pub fn restore(&mut self, checkpoint: &BusCheckpoint) {
        for base in page_bases(self.dirty & !checkpoint.dirty) {
            self.mem[base..base + PAGE_SIZE].fill(0);
        }
        for (base, bytes) in
            page_bases(checkpoint.dirty).zip(checkpoint.pages.chunks_exact(PAGE_SIZE))
        {
            self.mem[base..base + PAGE_SIZE].copy_from_slice(bytes);
        }
        self.dirty = checkpoint.dirty;
        let mpu = checkpoint
            .mpu
            .as_ref()
            .expect("a bus restores only a checkpoint it saved");
        self.mpu.copy_state_from(mpu);
        self.timer = checkpoint.timer.clone();
        self.stats = checkpoint.stats;
        self.resolve_attr_table();
    }

    /// Turns the access-attribute cache on or off.  With the cache off,
    /// every table is painted all zero, so every access runs the slow
    /// path's access decision; behaviour and [`BusStats`] must be
    /// identical either way, so this is a test oracle: only the
    /// `tests/prop_attr_cache.rs`, `tests/prop_mpu_reprogram.rs` and
    /// `tests/access_semantics.rs` tests call it.  A switch drops the memo
    /// to the active table, repainted under the new setting.
    pub fn set_attr_cache_enabled(&mut self, enabled: bool) {
        if enabled == self.attr_cache {
            return;
        }
        self.attr_cache = enabled;
        let mut active = self.attr_slots.swap_remove(self.attr_slot);
        active.last_used = self.attr_clock;
        self.attr_slots = vec![active];
        self.attr_slot = 0;
        self.attr_paints += 1;
        Self::paint_attr_table(
            &mut self.attr_active,
            &self.platform,
            &self.mpu,
            &self.attr_slots[0].key,
            enabled,
        );
    }

    /// The platform this bus models.
    pub(crate) fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// The platform's MPU.  Program it through [`Bus::install_mpu_config`]
    /// or, on the segmented part, [`Bus::write`] to its registers; the
    /// region MPU's and the PMP's register blocks are privileged.
    pub fn mpu(&self) -> &MpuBackend {
        &self.mpu
    }

    /// Decodes an address into its architectural region.
    pub fn region(&self, addr: Addr) -> Region {
        region_of(&self.platform, addr)
    }

    /// The attribute-table key of an MPU state (see [`MpuFingerprint`]).
    fn fingerprint(mpu: &MpuBackend) -> MpuFingerprint {
        match (mpu, mpu.slot_table()) {
            (MpuBackend::Segmented(m), _) if m.enabled => MpuFingerprint::Segmented {
                boundary1: m.boundary1,
                boundary2: m.boundary2,
                perms: [m.seg1, m.seg2, m.seg3, m.seg_info],
            },
            (_, Some(table)) if table.enforcing => {
                MpuFingerprint::Slots(table.enabled_slots().collect())
            }
            _ => MpuFingerprint::Open,
        }
    }

    /// Whether `key` is the fingerprint of the *installed* MPU state —
    /// [`Bus::fingerprint`] without building one, since this runs after
    /// every context switch.
    fn installed_matches(&self, key: &MpuFingerprint) -> bool {
        let mpu = &self.mpu;
        match (mpu, key) {
            (_, MpuFingerprint::Open) => !mpu.enforcing(),
            (
                MpuBackend::Segmented(m),
                MpuFingerprint::Segmented {
                    boundary1,
                    boundary2,
                    perms,
                },
            ) => {
                m.enabled
                    && m.boundary1 == *boundary1
                    && m.boundary2 == *boundary2
                    && [m.seg1, m.seg2, m.seg3, m.seg_info] == *perms
            }
            (_, MpuFingerprint::Slots(slots)) => mpu.slot_table().is_some_and(|table| {
                table.enforcing && slots.iter().copied().eq(table.enabled_slots())
            }),
            _ => false,
        }
    }

    /// The attribute byte for `addr` (masked to 16 bits) under the
    /// installed MPU configuration.  Hot path: one indexed byte load.
    #[inline(always)]
    fn attr(&self, addr: Addr) -> u8 {
        // Every path that changes MPU state re-resolves the table before
        // it returns; debug builds verify that on every access.
        debug_assert!(
            self.installed_matches(&self.attr_slots[self.attr_slot].key),
            "MPU state changed without re-resolving the attribute table \
             (configure the MPU through Bus::write to its registers or \
             Bus::install_mpu_config)"
        );
        self.attr_active[(addr & 0xFFFF) as usize]
    }

    /// Points the bus at the table matching the installed MPU
    /// configuration, searching the memo and painting the table on first
    /// sight.
    #[cold]
    fn resolve_attr_table(&mut self) {
        if self.installed_matches(&self.attr_slots[self.attr_slot].key) {
            return;
        }
        let slot = match (0..self.attr_slots.len())
            .find(|&i| self.installed_matches(&self.attr_slots[i].key))
        {
            Some(i) => i,
            None => self.paint_slot(Self::fingerprint(&self.mpu)),
        };
        self.activate(slot);
    }

    /// Makes memo slot `slot` the active table and marks it used.
    fn activate(&mut self, slot: usize) {
        self.attr_clock += 1;
        self.attr_slots[slot].last_used = self.attr_clock;
        if slot != self.attr_slot {
            let table = self.attr_slots[slot]
                .attrs
                .take()
                .expect("an inactive slot holds its table");
            let retired = std::mem::replace(&mut self.attr_active, table);
            self.attr_slots[self.attr_slot].attrs = Some(retired);
            self.attr_slot = slot;
        }
    }

    /// Paints `key`'s table, which the memo does not hold, and returns its
    /// slot: a new slot while the memo has room, otherwise the least
    /// recently used inactive slot — one eviction, never the active table.
    fn paint_slot(&mut self, key: MpuFingerprint) -> usize {
        self.attr_paints += 1;
        let (slot, mut attrs) = if self.attr_slots.len() < MAX_ATTR_TABLES {
            self.attr_slots.push(AttrSlot {
                key: MpuFingerprint::Open,
                attrs: None,
                last_used: 0,
            });
            (self.attr_slots.len() - 1, zeroed_page())
        } else {
            let victim = (0..self.attr_slots.len())
                .filter(|&i| i != self.attr_slot)
                .min_by_key(|&i| self.attr_slots[i].last_used)
                .expect("a full memo holds inactive tables");
            self.attr_evictions += 1;
            let attrs = self.attr_slots[victim]
                .attrs
                .take()
                .expect("an inactive slot holds its table");
            (victim, attrs)
        };
        Self::paint_attr_table(&mut attrs, &self.platform, &self.mpu, &key, self.attr_cache);
        let entry = &mut self.attr_slots[slot];
        entry.key = key;
        entry.attrs = Some(attrs);
        slot
    }

    /// Counters of the attribute-table memo.
    pub fn attr_memo_stats(&self) -> AttrMemoStats {
        AttrMemoStats {
            tables: self.attr_slots.len(),
            paints: self.attr_paints,
            evictions: self.attr_evictions,
        }
    }

    /// The active attribute table: one byte per address, all zero while
    /// [`Bus::set_attr_cache_enabled`] has the cache off.  A test oracle:
    /// `tests/prop_attr_cache.rs` and `tests/prop_dirty_pages.rs` compare
    /// tables through it.
    pub fn attr_table(&self) -> &[u8; 0x1_0000] {
        &self.attr_active
    }

    /// Paints the attribute table for `key`, the fingerprint of `mpu`'s
    /// state, over `attrs`, or all zero when `cache` is off.  The table is
    /// a sampled cache of [`decide`].  The decision can change only at an
    /// edge of the platform's six ranges or of the key's segment
    /// boundaries or slots, so each interval between consecutive edges gets
    /// the bits of the kinds `decide` finds [`Access::Plain`] at its first
    /// address, plus [`ATTR_FRAM_WRITE`] over FRAM and InfoMem.  `key`
    /// holds every part of the MPU state `decide` reads, which is what
    /// makes the memo sound.
    fn paint_attr_table(
        attrs: &mut [u8; 0x1_0000],
        p: &PlatformSpec,
        mpu: &MpuBackend,
        key: &MpuFingerprint,
        cache: bool,
    ) {
        if !cache {
            attrs.fill(0);
            return;
        }
        let (boundaries, slots): ([Option<Addr>; 2], &[(AddrRange, Perm)]) = match key {
            MpuFingerprint::Segmented {
                boundary1,
                boundary2,
                ..
            } => ([Some(*boundary1), Some(*boundary2)], &[]),
            MpuFingerprint::Slots(slots) => ([None; 2], slots),
            MpuFingerprint::Open => ([None; 2], &[]),
        };
        let edges = p
            .full_jurisdiction_ranges()
            .into_iter()
            .chain(slots.iter().map(|&(range, _)| range))
            .flat_map(|range| [range.start, range.end])
            .chain(boundaries.into_iter().flatten());
        let kinds = [
            (AccessKind::Read, ATTR_R),
            (AccessKind::Write, ATTR_W),
            (AccessKind::Execute, ATTR_X),
        ];
        let mut start = 0;
        while start < 0x1_0000 {
            let next = edges.clone().filter(|&edge| edge > start).min();
            let end = next.map_or(0x1_0000, |edge| edge.min(0x1_0000));
            let mut value = kinds
                .iter()
                .filter(|&&(kind, _)| decide(p, mpu, start, kind) == Access::Plain)
                .fold(0, |value, &(_, bit)| value | bit);
            if matches!(region_of(p, start), Region::Fram | Region::InfoMem) {
                value |= ATTR_FRAM_WRITE;
            }
            paint(&mut attrs[..], AddrRange::new(start, end), value);
            start = end;
        }
    }

    /// Installs an MPU configuration by performing the same memory-mapped
    /// register writes the OS's context-switch code issues on hardware:
    /// boundaries/access-bits/control for the segmented part, or
    /// select/base/limit per region plus control for the region part.
    ///
    /// A configuration for another MPU shape than the platform's is
    /// refused with [`BusFaultCause::ForeignMpuConfig`]: it writes
    /// nothing and counts nothing.
    pub fn install_mpu_config(&mut self, config: &MpuConfig) -> Result<(), BusFault> {
        let stats = &mut self.stats;
        let mut count = |writes: u32| {
            stats.writes += u64::from(writes);
            stats.peripheral_writes += u64::from(writes);
        };
        let installed = match (&mut self.mpu, config) {
            (MpuBackend::Segmented(mpu), MpuConfig::Segmented(regs)) => {
                // Trusted switch path: program the register file directly
                // (this runs twice per delivered event — the full
                // region-decode cascade per register write was measurable
                // at fleet scale).  Stats and the password/lock protocol
                // are identical to issuing each write through `Bus::write`.
                let writes = [
                    (mpu::MPUSEGB1, regs.mpusegb1),
                    (mpu::MPUSEGB2, regs.mpusegb2),
                    (mpu::MPUSAM, regs.mpusam),
                    (mpu::MPUCTL0, regs.mpuctl0),
                ];
                writes.into_iter().try_for_each(|(addr, value)| {
                    count(1);
                    mpu.write_register(addr, value).map_err(|e| BusFault {
                        addr,
                        access: AccessKind::Write,
                        cause: BusFaultCause::MpuRegisterProtocol(e),
                    })
                })
            }
            // Privileged paths: the region MPU's and the PMP's register
            // blocks reject CPU-side stores, so the OS programs them
            // directly (the write sequences live in `apply_config`).
            // Count the same stats a `Bus::write` per register would.
            (MpuBackend::Region(region), MpuConfig::Region(regs)) => {
                region.apply_config(regs);
                count(regs.write_count());
                Ok(())
            }
            (MpuBackend::Pmp(pmp), MpuConfig::Pmp(regs)) => {
                pmp.apply_config(regs);
                count(regs.write_count());
                Ok(())
            }
            (_, config) => {
                return Err(BusFault {
                    addr: match config {
                        MpuConfig::Segmented(_) => mpu::MPU_BASE,
                        MpuConfig::Region(_) => mpu::RMPU_BASE,
                        MpuConfig::Pmp(_) => mpu::PMP_BASE,
                    },
                    access: AccessKind::Write,
                    cause: BusFaultCause::ForeignMpuConfig,
                })
            }
        };
        // Re-point the attribute table now, even when a register write
        // failed part-way: the writes before it have landed.
        self.resolve_attr_table();
        installed
    }

    /// Decides an access the attribute table could not prove plain.  A
    /// denial latches the segmented part's violation flag and counts in
    /// [`BusStats::denied`].
    fn decide_slow(&mut self, addr: Addr, access: AccessKind) -> Result<Access, BusFault> {
        match decide(&self.platform, &self.mpu, addr, access) {
            Access::Fault(cause) => {
                if cause == BusFaultCause::MpuViolation {
                    self.mpu.latch_violation(addr);
                    self.stats.denied += 1;
                }
                Err(BusFault {
                    addr,
                    access,
                    cause,
                })
            }
            decided => Ok(decided),
        }
    }

    /// Reads `size` bytes (1 or 2) at `addr` as a little-endian value,
    /// enforcing region and MPU rules.  Inlined so that the execute loop,
    /// whose addresses are 16-bit, drops the table-range test.
    #[inline(always)]
    pub fn read(&mut self, addr: Addr, size: u32) -> Result<u16, BusFault> {
        debug_assert!(size == 1 || size == 2);
        if size == 2 && !addr.is_multiple_of(2) {
            return Err(BusFault {
                addr,
                access: AccessKind::Read,
                cause: BusFaultCause::Misaligned,
            });
        }
        self.stats.reads += 1;
        if addr <= 0xFFFF && self.attr(addr) & ATTR_R != 0 {
            return Ok(self.read_raw(addr, size));
        }
        self.read_slow(addr, size)
    }

    /// The read path for everything the attribute table cannot prove a
    /// plain permitted read: decide, then dispatch or read.
    fn read_slow(&mut self, addr: Addr, size: u32) -> Result<u16, BusFault> {
        Ok(match self.decide_slow(addr, AccessKind::Read)? {
            Access::Peripheral => self.read_peripheral(addr),
            _ => self.read_raw(addr, size),
        })
    }

    /// Writes `size` bytes (1 or 2) at `addr`, enforcing region and MPU
    /// rules.  A store to an MPU register re-resolves the attribute table
    /// before it returns.  Inlined like [`Bus::read`].
    #[inline(always)]
    pub fn write(&mut self, addr: Addr, size: u32, value: u16) -> Result<(), BusFault> {
        debug_assert!(size == 1 || size == 2);
        if size == 2 && !addr.is_multiple_of(2) {
            return Err(BusFault {
                addr,
                access: AccessKind::Write,
                cause: BusFaultCause::Misaligned,
            });
        }
        self.stats.writes += 1;
        if addr <= 0xFFFF {
            let a = self.attr(addr);
            if a & ATTR_W != 0 {
                if a & ATTR_FRAM_WRITE != 0 {
                    self.stats.fram_writes += 1;
                }
                self.write_raw(addr, size, value);
                return Ok(());
            }
        }
        self.write_slow(addr, size, value)
    }

    /// The write path for everything the attribute table cannot prove a
    /// plain permitted write: decide, then dispatch or store.
    fn write_slow(&mut self, addr: Addr, size: u32, value: u16) -> Result<(), BusFault> {
        if self.decide_slow(addr, AccessKind::Write)? == Access::Peripheral {
            self.stats.peripheral_writes += 1;
            return self.write_peripheral(addr, value);
        }
        if matches!(self.region(addr), Region::Fram | Region::InfoMem) {
            self.stats.fram_writes += 1;
        }
        self.write_raw(addr, size, value);
        Ok(())
    }

    /// Checks whether an instruction fetch at `addr` is permitted.
    ///
    /// Instructions are word-aligned, so a fetch at an odd program counter
    /// is rejected as [`BusFaultCause::Misaligned`] — the same word-access
    /// rule [`Bus::read`] and [`Bus::write`] enforce — and is not counted
    /// in [`BusStats::exec_checks`].  A test oracle: the interpreter
    /// fetches through the uncounted `check_fetch`, and only
    /// `tests/prop_attr_cache.rs` calls this, with the cache on and off.
    pub fn check_execute(&mut self, addr: Addr) -> Result<(), BusFault> {
        self.stats.exec_checks += u64::from(addr.is_multiple_of(2));
        self.check_fetch(addr)
    }

    /// The execute loop's fetch check: [`Bus::check_execute`] without
    /// counting — the loop counts execute checks in a block-local and
    /// flushes them into [`BusStats::exec_checks`] at block exit.
    #[inline(always)]
    pub(crate) fn check_fetch(&mut self, addr: Addr) -> Result<(), BusFault> {
        // The table grants X at even addresses only, so a hit is aligned.
        if addr <= 0xFFFF && self.attr(addr) & ATTR_X != 0 {
            return Ok(());
        }
        if !addr.is_multiple_of(2) {
            return Err(BusFault {
                addr,
                access: AccessKind::Execute,
                cause: BusFaultCause::Misaligned,
            });
        }
        self.check_execute_slow(addr)
    }

    /// The fetch path for everything the attribute table cannot prove
    /// executable.
    fn check_execute_slow(&mut self, addr: Addr) -> Result<(), BusFault> {
        self.decide_slow(addr, AccessKind::Execute).map(drop)
    }

    fn read_peripheral(&self, addr: Addr) -> u16 {
        if mpu::is_register(addr) {
            self.mpu.read_register(addr)
        } else if Timer::owns_register(addr) {
            self.timer.read_register(addr)
        } else {
            self.read_raw(addr & !1, 2)
        }
    }

    fn write_peripheral(&mut self, addr: Addr, value: u16) -> Result<(), BusFault> {
        if mpu::is_register(addr) {
            // Only the segmented part's own block takes CPU stores.  The
            // region MPU's and the PMP's blocks are privileged-only
            // (Cortex-M PPB / RISC-V CSR style) — without that, an app on
            // a region platform, compiled with no data-pointer checks,
            // could simply disable the MPU — and a block the platform
            // does not have refuses stores too.
            let written = self.mpu.write_register(addr, value);
            // The store may have moved a boundary, the access bits or the
            // enable: re-point the attribute table before the next fetch.
            self.resolve_attr_table();
            written.map_err(|e| BusFault {
                addr,
                access: AccessKind::Write,
                cause: BusFaultCause::MpuRegisterProtocol(e),
            })
        } else if Timer::owns_register(addr) {
            self.timer.write_register(addr, value);
            Ok(())
        } else {
            self.write_raw(addr & !1, 2, value);
            Ok(())
        }
    }

    /// Raw read with no protection checks (loader / host tooling only).
    /// Addresses must be inside the 64 KiB space (debug builds assert;
    /// release builds mask).
    #[inline]
    pub fn read_raw(&self, addr: Addr, size: u32) -> u16 {
        debug_assert!(addr < 0x1_0000, "raw read outside the address space");
        let lo = self.mem[addr as usize & 0xFFFF] as u16;
        if size == 1 {
            lo
        } else {
            let hi = self.mem[(addr as usize + 1) & 0xFFFF] as u16;
            lo | (hi << 8)
        }
    }

    /// Raw write with no protection checks (loader / host tooling only).
    #[inline]
    pub fn write_raw(&mut self, addr: Addr, size: u32, value: u16) {
        debug_assert!(addr < 0x1_0000, "raw write outside the address space");
        let lo = addr as usize & 0xFFFF;
        let hi = (addr as usize + usize::from(size == 2)) & 0xFFFF;
        self.dirty |= (1 << (lo >> PAGE_SHIFT)) | (1 << (hi >> PAGE_SHIFT));
        self.mem[lo] = (value & 0xFF) as u8;
        if size == 2 {
            self.mem[hi] = (value >> 8) as u8;
        }
    }

    /// Marks the pages of the `len` bytes from `addr` on dirty, wrapping
    /// at 64 KiB as the stores do.
    fn mark_dirty(&mut self, addr: Addr, len: usize) {
        for offset in (0..len).step_by(PAGE_SIZE).chain(len.checked_sub(1)) {
            self.dirty |= 1 << (((addr as usize + offset) & 0xFFFF) >> PAGE_SHIFT);
        }
    }

    /// Copies a byte slice into memory with no protection checks (used by the
    /// firmware loader).
    pub fn load_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        debug_assert!(
            (addr as usize) + bytes.len() <= 0x1_0000,
            "loaded bytes extend outside the address space"
        );
        self.mark_dirty(addr, bytes.len());
        for (i, b) in bytes.iter().enumerate() {
            self.mem[(addr as usize + i) & 0xFFFF] = *b;
        }
    }

    /// Copies bytes out of memory with no protection checks (host tooling).
    pub fn dump_bytes(&self, range: AddrRange) -> Vec<u8> {
        debug_assert!(range.end <= 0x1_0000, "dump outside the address space");
        (range.start..range.end)
            .map(|a| self.mem[a as usize & 0xFFFF])
            .collect()
    }

    /// Fills a range with a value, bypassing protection (used by the OS's
    /// `bzero`-on-switch ablation).
    pub fn fill(&mut self, range: AddrRange, value: u8) {
        debug_assert!(range.end <= 0x1_0000, "fill outside the address space");
        self.mark_dirty(range.start, range.end.saturating_sub(range.start) as usize);
        for a in range.start..range.end {
            self.mem[a as usize & 0xFFFF] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpu::{MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2, PMP_MODE, RMPU_CTL};
    use crate::timer::TIMER_CONTROL;
    use crate::timer::TIMER_COUNTER;
    use amulet_core::mpu_plan::{
        MpuRegisterValues, PmpRegisterValues, RegionDesc, RegionRegisterValues,
    };
    use amulet_core::platform::builtin_platforms;

    fn bus() -> Bus {
        Bus::msp430fr5969()
    }

    #[test]
    fn region_decoding_matches_datasheet() {
        let b = bus();
        assert_eq!(b.region(0x0200), Region::Peripherals);
        assert_eq!(b.region(0x1000), Region::BootstrapLoader);
        assert_eq!(b.region(0x1800), Region::InfoMem);
        assert_eq!(b.region(0x1C00), Region::Sram);
        assert_eq!(b.region(0x2400), Region::Unmapped);
        assert_eq!(b.region(0x4400), Region::Fram);
        assert_eq!(b.region(0xFF7F), Region::Fram);
        assert_eq!(b.region(0xFF80), Region::InterruptVectors);
    }

    #[test]
    fn sram_and_fram_read_write_roundtrip() {
        let mut b = bus();
        b.write(0x1C00, 2, 0xBEEF).unwrap();
        assert_eq!(b.read(0x1C00, 2).unwrap(), 0xBEEF);
        b.write(0x4400, 2, 0x1234).unwrap();
        assert_eq!(b.read(0x4400, 2).unwrap(), 0x1234);
        b.write(0x4403, 1, 0xAB).unwrap();
        assert_eq!(b.read(0x4403, 1).unwrap(), 0xAB);
    }

    #[test]
    fn little_endian_byte_order() {
        let mut b = bus();
        b.write(0x1C10, 2, 0x1234).unwrap();
        assert_eq!(b.read(0x1C10, 1).unwrap(), 0x34);
        assert_eq!(b.read(0x1C11, 1).unwrap(), 0x12);
    }

    #[test]
    fn unmapped_and_readonly_accesses_fault() {
        let mut b = bus();
        assert_eq!(
            b.read(0x3000, 2).unwrap_err().cause,
            BusFaultCause::Unmapped
        );
        assert_eq!(
            b.write(0x1000, 2, 1).unwrap_err().cause,
            BusFaultCause::ReadOnly
        );
        assert_eq!(
            b.write(0x4401, 2, 1).unwrap_err().cause,
            BusFaultCause::Misaligned
        );
    }

    #[test]
    fn mpu_registers_are_reachable_through_the_bus() {
        let mut b = bus();
        b.write(MPUSEGB1, 2, 0x600).unwrap();
        b.write(MPUSEGB2, 2, 0x800).unwrap();
        b.write(MPUSAM, 2, 0x0124).unwrap();
        b.write(MPUCTL0, 2, 0xA501).unwrap();
        let MpuBackend::Segmented(m) = b.mpu() else {
            panic!("the FR5969 has the segmented MPU");
        };
        assert!(m.enabled);
        assert_eq!(m.boundary1, 0x6000);
        assert_eq!(m.boundary2, 0x8000);
        // Bad password surfaces as a protocol fault.
        let err = b.write(MPUCTL0, 2, 0x0001).unwrap_err();
        assert!(matches!(err.cause, BusFaultCause::MpuRegisterProtocol(_)));
    }

    #[test]
    fn enabled_mpu_blocks_fram_but_not_sram() {
        let mut b = bus();
        b.write(MPUSEGB1, 2, 0x600).unwrap();
        b.write(MPUSEGB2, 2, 0x800).unwrap();
        // seg1 X, seg2 RW, seg3 none.
        b.write(MPUSAM, 2, 0x0024).unwrap();
        b.write(MPUCTL0, 2, 0xA501).unwrap();

        // Write into seg2: fine.
        b.write(0x7000, 2, 1).unwrap();
        // Write into seg1 (execute-only): MPU violation.
        assert_eq!(
            b.write(0x5000, 2, 1).unwrap_err().cause,
            BusFaultCause::MpuViolation
        );
        // Read from seg3 (no access): MPU violation.
        assert_eq!(
            b.read(0x9000, 2).unwrap_err().cause,
            BusFaultCause::MpuViolation
        );
        // SRAM is not covered by the MPU: still writable.
        b.write(0x1C00, 2, 7).unwrap();
        // Execute check in seg1 passes, in seg3 fails.
        assert!(b.check_execute(0x5000).is_ok());
        assert!(b.check_execute(0x9000).is_err());
        assert!(b.stats.denied >= 3);
    }

    #[test]
    fn misaligned_instruction_fetches_fault() {
        // Instructions are word-aligned: an odd PC is rejected with the
        // same cause word accesses use, on the cached and direct paths
        // alike, and before the check is even counted.
        let mut b = bus();
        assert!(b.check_execute(0x4400).is_ok());
        assert_eq!(
            b.check_execute(0x4401).unwrap_err().cause,
            BusFaultCause::Misaligned
        );
        let checks_counted = b.stats.exec_checks;
        assert_eq!(checks_counted, 1, "the misaligned fetch is not counted");
        let mut d = bus();
        d.set_attr_cache_enabled(false);
        assert_eq!(
            d.check_execute(0x4401).unwrap_err().cause,
            BusFaultCause::Misaligned
        );
    }

    #[test]
    fn attr_cache_disabled_bus_behaves_identically_on_the_basics() {
        let drive = |cache: bool| {
            let mut b = bus();
            b.set_attr_cache_enabled(cache);
            b.write(MPUSEGB1, 2, 0x600).unwrap();
            b.write(MPUSEGB2, 2, 0x800).unwrap();
            b.write(MPUSAM, 2, 0x0034).unwrap();
            b.write(MPUCTL0, 2, 0xA501).unwrap();
            let outcomes = (
                b.write(0x7000, 2, 7),
                b.read(0x7000, 2),
                b.write(0x5000, 2, 1).unwrap_err().cause,
                b.check_execute(0x5000),
                b.check_execute(0x9000).unwrap_err().cause,
            );
            (outcomes, b.stats)
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn switching_the_cache_repaints_the_active_table() {
        let configure = |b: &mut Bus| {
            b.write(MPUSEGB1, 2, 0x600).unwrap();
            b.write(MPUSEGB2, 2, 0x800).unwrap();
            b.write(MPUSAM, 2, 0x0034).unwrap();
            b.write(MPUCTL0, 2, 0xA501).unwrap();
        };
        let traffic = |b: &mut Bus| {
            (
                b.write(0x7000, 2, 7),
                b.read(0x7000, 2),
                b.write(0x5000, 2, 1),
                b.check_execute(0x5000),
                b.check_execute(0x9000),
            )
        };
        let mut never = bus();
        configure(&mut never);
        let mut switched = bus();
        configure(&mut switched);
        switched.set_attr_cache_enabled(false);
        assert!(switched.attr_table().iter().all(|&a| a == 0));
        assert_eq!(switched.attr_memo_stats().tables, 1);
        let off = traffic(&mut switched);
        switched.set_attr_cache_enabled(true);
        assert_eq!(switched.attr_table(), never.attr_table());
        assert_eq!(switched.attr_memo_stats().tables, 1);
        let on = traffic(&mut switched);
        let reference = (traffic(&mut never), traffic(&mut never));
        assert_eq!((off, on), reference);
        assert_eq!(switched.stats, never.stats);
    }

    #[test]
    fn timer_is_reachable_through_the_bus() {
        let mut b = bus();
        b.write(TIMER_CONTROL, 2, 0x0020).unwrap();
        b.timer.tick(100);
        let v = b.read(TIMER_COUNTER, 2).unwrap();
        assert_eq!(v, 96, "quantised to 16 cycles");
    }

    #[test]
    fn loader_bypasses_protection() {
        let mut b = bus();
        b.write(MPUSEGB1, 2, 0x600).unwrap();
        b.write(MPUSEGB2, 2, 0x800).unwrap();
        b.write(MPUSAM, 2, 0x0000).unwrap();
        b.write(MPUCTL0, 2, 0xA501).unwrap();
        b.load_bytes(0x9000, &[1, 2, 3, 4]);
        assert_eq!(
            b.dump_bytes(AddrRange::new(0x9000, 0x9004)),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn fill_zeroes_a_region() {
        let mut b = bus();
        b.load_bytes(0x1C00, &[9; 16]);
        b.fill(AddrRange::new(0x1C00, 0x1C10), 0);
        assert!(b
            .dump_bytes(AddrRange::new(0x1C00, 0x1C10))
            .iter()
            .all(|&x| x == 0));
    }

    #[test]
    fn stats_count_fram_writes_separately() {
        let mut b = bus();
        b.write(0x1C00, 2, 1).unwrap();
        b.write(0x4400, 2, 1).unwrap();
        b.write(0x4402, 2, 1).unwrap();
        assert_eq!(b.stats.writes, 3);
        assert_eq!(b.stats.fram_writes, 2);
    }

    /// One configuration of each MPU shape, in [`MpuBackend`] variant
    /// order; each enables its MPU and grants peripheral space read/write.
    fn configs() -> [MpuConfig; 3] {
        let peripherals = RegionDesc {
            range: AddrRange::new(0, 0x1000),
            perm: Perm::RW,
        };
        [
            MpuConfig::Segmented(MpuRegisterValues {
                mpuctl0: 0xA501,
                mpusegb1: 0x600,
                mpusegb2: 0x800,
                mpusam: 0x7777,
            }),
            MpuConfig::Region(RegionRegisterValues {
                regions: vec![peripherals],
            }),
            MpuConfig::Pmp(PmpRegisterValues {
                entries: vec![peripherals],
                user_mode: true,
            }),
        ]
    }

    /// The index into [`configs`] of the platform's own MPU shape.
    fn own_shape(bus: &Bus) -> usize {
        match bus.mpu() {
            MpuBackend::Segmented(_) => 0,
            MpuBackend::Region(_) => 1,
            MpuBackend::Pmp(_) => 2,
        }
    }

    #[test]
    fn only_the_platforms_own_mpu_register_block_answers() {
        // Per block: its first register, what that register loads once
        // the block's own configuration is installed, and every address
        // of the block.
        let blocks = [
            (MPUCTL0, 0x9601, mpu::MPU_BASE..mpu::MPU_END),
            (RMPU_CTL, 1, mpu::RMPU_BASE..mpu::RMPU_END),
            (PMP_MODE, 1, mpu::PMP_BASE..mpu::PMP_END),
        ];
        let privileged = Err(BusFaultCause::MpuRegisterProtocol(
            MpuRegisterError::Privileged,
        ));
        for platform in builtin_platforms() {
            let mut b = Bus::new(platform.clone());
            let own = own_shape(&b);
            b.install_mpu_config(&configs()[own]).unwrap();
            for (shape, (reg, loads, block)) in blocks.iter().cloned().enumerate() {
                let at = format!("{} at {reg:#06x}", platform.name);
                if shape != own {
                    // A foreign block loads 0 and refuses every store.
                    for addr in block.step_by(2) {
                        assert_eq!(b.read(addr, 2), Ok(0), "{at}");
                        let stored = b.write(addr, 2, 0xA501).map_err(|e| e.cause);
                        assert_eq!(stored, privileged, "{at}");
                    }
                    continue;
                }
                assert_eq!(b.read(reg, 2), Ok(loads), "{at}");
                if shape == 0 {
                    // The segmented part takes stores under its protocol.
                    b.write(MPUSEGB1, 2, 0x700).unwrap();
                    assert_eq!(b.read(MPUSEGB1, 2), Ok(0x700), "{at}");
                } else {
                    // The region MPU's and the PMP's blocks are privileged.
                    let stored = b.write(reg, 2, 0).map_err(|e| e.cause);
                    assert_eq!(stored, privileged, "{at}");
                    assert_eq!(b.read(reg, 2), Ok(loads), "{at}");
                }
            }
        }
    }

    #[test]
    fn a_foreign_mpu_config_is_refused_and_changes_nothing() {
        let bases = [mpu::MPU_BASE, mpu::RMPU_BASE, mpu::PMP_BASE];
        for platform in builtin_platforms() {
            let mut b = Bus::new(platform.clone());
            let own = own_shape(&b);
            for installed in [false, true] {
                if installed {
                    b.install_mpu_config(&configs()[own]).unwrap();
                }
                for (shape, config) in configs().iter().enumerate() {
                    if shape == own {
                        continue;
                    }
                    let (stats, table) = (b.stats, b.attr_table().to_vec());
                    assert_eq!(
                        b.install_mpu_config(config),
                        Err(BusFault {
                            addr: bases[shape],
                            access: AccessKind::Write,
                            cause: BusFaultCause::ForeignMpuConfig,
                        }),
                        "{} shape {shape}",
                        platform.name
                    );
                    assert_eq!(b.stats, stats, "{}", platform.name);
                    assert!(b.attr_table()[..] == table[..], "{}", platform.name);
                }
            }
        }
    }
}

//! Attribute-cache equivalence through the execute loop while the MPU is
//! reprogrammed.
//!
//! The bus resolves its access-attribute table when the MPU configuration
//! changes: after an MPU register store inside an execute block, after
//! `install_mpu_config`, and at every `Cpu::run_block` entry (which
//! catches direct backend writes and extended-MPU flips made between
//! blocks).  A table that missed one of those changes would let the cached
//! path permit an access the MPU denies, or the reverse.  So a run with the
//! cache on and a run with it off must retire the identical trace — same
//! events, steps, registers, flags, cycles, [`BusStats`], timer, latched
//! violation flags and memory — on every platform profile, for programs
//! that store to `MPUCTL0`/`MPUSEGB1`/`MPUSEGB2`/`MPUSAM` mid-block (with
//! the right and a wrong password) and then fetch, load and store across
//! the moved boundaries, with reconfiguration between blocks as well.
//!
//! [`BusStats`]: amulet_mcu::BusStats

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::fault::FaultClass;
use amulet_core::layout::PlatformSpec;
use amulet_core::mpu_plan::{
    MpuConfig, MpuRegisterValues, PmpRegisterValues, RegionDesc, RegionRegisterValues,
};
use amulet_core::perm::Perm;
use amulet_mcu::bus::Bus;
use amulet_mcu::code::InstrStore;
use amulet_mcu::cpu::{Cpu, FaultInfo, StepEvent};
use amulet_mcu::isa::{Cond, Instr, Reg, Width};
use amulet_mcu::mpu::{MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use amulet_mcu::timer::{TIMER_CONTROL, TIMER_COUNTER};
use proptest::collection::vec;
use proptest::prelude::*;

/// An instruction whose branch target (if any) is still a slot index into
/// the flattened program, resolved to a real address at layout time.
#[derive(Clone, Debug, PartialEq)]
enum P {
    /// A complete instruction with no intra-program target.
    I(Instr),
    /// `Jcc` to the instruction at slot `usize % len`.
    Jcc(Cond, usize),
    /// `Jmp` to the instruction at slot `usize % len`.
    Jmp(usize),
}

/// The register the generated MPU stores go through.
const VALUE_REG: Reg = Reg::R13;

/// Where programs start.  The initial configuration puts the code in
/// segment 1; boundary values drawn near it move the code across
/// segments mid-run.
const ORIGIN: Addr = 0x4400;

/// A boundary register value (the address shifted right by 4), biased
/// toward the code, toward the data segment edges and arbitrary.
fn boundary_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        0x440u16..0x462,
        0x5F0u16..0x610,
        0x7F0u16..0x810,
        0u16..0x1000
    ]
}

/// A segment access-management value: arbitrary, or with segment 1 kept
/// executable so programs keep running after the store.
fn sam_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        0u16..0x8000,
        (0u16..0x8000).prop_map(|v| v | 0x4),
        (0u16..0x8000).prop_map(|v| (v & 0x7770) | 0x5),
    ]
}

/// An `MPUCTL0` value: the right password (enable on or off, rarely the
/// lock bit) or a wrong one.
fn ctl0_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        Just(0xA501u16),
        Just(0xA501u16),
        Just(0xA500u16),
        Just(0xA503u16),
        (0u16..0x100, 0u16..4).prop_map(|(hi, lo)| {
            let hi = if hi == 0xA5 { 0x5A } else { hi };
            (hi << 8) | lo
        }),
    ]
}

/// One MPU register and a value for it.
fn mpu_store_strategy() -> impl Strategy<Value = (Addr, u16)> {
    prop_oneof![
        ctl0_strategy().prop_map(|v| (MPUCTL0, v)),
        boundary_strategy().prop_map(|v| (MPUSEGB1, v)),
        boundary_strategy().prop_map(|v| (MPUSEGB2, v)),
        sam_strategy().prop_map(|v| (MPUSAM, v)),
    ]
}

/// Data addresses around the places boundaries move to, plus SRAM,
/// InfoMem, peripherals (timer and MPU registers included) and anything.
fn data_addr_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![
        0x4400u16..0x4700,
        0x5F00u16..0x6100,
        0x7F00u16..0x8100,
        0x1C00u16..0x2400,
        0x1800u16..0x1A00,
        Just(TIMER_COUNTER as u16),
        0x0580u16..0x05B0,
        0u16..0xFFFF,
    ]
}

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (4u8..13).prop_map(Reg)
}

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::Word), Just(Width::Word), Just(Width::Byte)]
}

/// Aligns word accesses so they test permissions, not alignment.
fn align(addr: u16, width: Width) -> u16 {
    match width {
        Width::Word => addr & !1,
        Width::Byte => addr,
    }
}

/// One generator chunk.
fn chunk_strategy() -> impl Strategy<Value = Vec<P>> {
    let target = 0usize..128;
    prop_oneof![
        // An MPU register store: load the value, store it to the register.
        mpu_store_strategy().prop_map(|(reg, value)| vec![
            P::I(Instr::MovImm {
                dst: VALUE_REG,
                imm: value,
            }),
            P::I(Instr::StoreAbs {
                src: VALUE_REG,
                addr: reg as u16,
                width: Width::Word,
            }),
        ]),
        // Absolute loads and stores across the boundaries.
        (reg_strategy(), data_addr_strategy(), width_strategy()).prop_map(|(dst, a, width)| {
            vec![P::I(Instr::LoadAbs {
                dst,
                addr: align(a, width),
                width,
            })]
        }),
        (reg_strategy(), data_addr_strategy(), width_strategy()).prop_map(|(src, a, width)| {
            vec![P::I(Instr::StoreAbs {
                src,
                addr: align(a, width),
                width,
            })]
        }),
        // Register-based access: point a register at a data address, then
        // load or store through it.
        (
            reg_strategy(),
            reg_strategy(),
            data_addr_strategy(),
            -4i16..4,
            any::<bool>()
        )
            .prop_map(|(base, other, a, off, load)| {
                let set = P::I(Instr::MovImm {
                    dst: base,
                    imm: a & !1,
                });
                let offset = off * 2;
                let access = if load {
                    Instr::Load {
                        dst: other,
                        base,
                        offset,
                        width: Width::Word,
                    }
                } else {
                    Instr::Store {
                        src: other,
                        base,
                        offset,
                        width: Width::Word,
                    }
                };
                vec![set, P::I(access)]
            }),
        // Stack traffic (SRAM).
        reg_strategy()
            .prop_map(|r| vec![P::I(Instr::Push { src: r }), P::I(Instr::Pop { dst: r })]),
        // Control flow: re-fetch earlier or later code after a store moved
        // the boundaries.
        target.clone().prop_map(|t| vec![P::Jmp(t)]),
        (0usize..8, target).prop_map(|(c, t)| vec![P::Jcc(CONDS[c], t)]),
        (reg_strategy(), 0u16..0xFFFF)
            .prop_map(|(dst, imm)| vec![P::I(Instr::MovImm { dst, imm })]),
        (0u16..4).prop_map(|num| vec![P::I(Instr::Syscall { num })]),
        Just(vec![P::I(Instr::Nop)]),
    ]
}

const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lo,
    Cond::Hs,
    Cond::Lt,
    Cond::Ge,
    Cond::Mi,
    Cond::Pl,
];

fn program_strategy() -> impl Strategy<Value = Vec<P>> {
    vec(chunk_strategy(), 1..24).prop_map(|chunks| chunks.into_iter().flatten().collect())
}

/// Lays the program out contiguously from [`ORIGIN`] after a prologue
/// that starts the benchmark timer, resolves slot-index targets, and ends
/// it with a `Halt`.
fn assemble(program: &[P]) -> InstrStore {
    let prologue = [
        P::I(Instr::MovImm {
            dst: VALUE_REG,
            imm: 0x0020,
        }),
        P::I(Instr::StoreAbs {
            src: VALUE_REG,
            addr: TIMER_CONTROL as u16,
            width: Width::Word,
        }),
    ];
    let program: Vec<&P> = prologue.iter().chain(program).collect();
    let mut addrs = Vec::with_capacity(program.len() + 1);
    let mut at = ORIGIN;
    for p in &program {
        addrs.push(at);
        at += match p {
            P::I(i) => i.size_bytes(),
            P::Jcc(..) | P::Jmp(..) => 4,
        };
    }
    addrs.push(at);
    let resolve = |idx: usize| addrs[idx % addrs.len()] as u16;
    let mut code = InstrStore::new();
    for (p, &addr) in program.iter().zip(&addrs) {
        let instr = match p {
            P::I(i) => *i,
            P::Jcc(cond, t) => Instr::Jcc {
                cond: *cond,
                target: resolve(*t),
            },
            P::Jmp(t) => Instr::Jmp {
                target: resolve(*t),
            },
        };
        code.insert(addr, instr);
    }
    code.insert(at, Instr::Halt);
    code
}

/// Reconfiguration applied between two `run_block` calls.
#[derive(Clone, Debug, PartialEq)]
enum Between {
    /// Nothing: back-to-back blocks.
    Nothing,
    /// `install_mpu_config` with a segmented configuration.
    Segmented { b1: u16, b2: u16, sam: u16 },
    /// `install_mpu_config` with a region configuration; the first slot
    /// covers the code with the given permission bits.
    Region {
        code_perm: u16,
        regions: Vec<(Addr, Addr, u16)>,
    },
    /// `install_mpu_config` with a PMP configuration; the first entry
    /// covers the code with the given permission bits.
    Pmp {
        code_perm: u16,
        entries: Vec<(Addr, u32, u16)>,
        user_mode: bool,
    },
    /// A register write straight into the segmented backend
    /// (`bus.mpu.write_register`), bypassing the bus.
    Direct { reg: Addr, value: u16 },
    /// Flip the extended-MPU ablation on or off.
    Ext(bool),
    /// `set_attr_cache_enabled` on the cache-on run (the cache-off run
    /// keeps its cache off throughout).
    Cache(bool),
}

fn between_strategy() -> impl Strategy<Value = Between> {
    let perm = || prop_oneof![Just(0x5u16), Just(0x7u16), Just(0x4u16), 0u16..8];
    prop_oneof![
        Just(Between::Nothing),
        Just(Between::Nothing),
        (boundary_strategy(), boundary_strategy(), sam_strategy())
            .prop_map(|(b1, b2, sam)| Between::Segmented { b1, b2, sam }),
        (perm(), vec((0u32..0x1_0000, 0u32..0x1_0000, 0u16..8), 0..3))
            .prop_map(|(code_perm, regions)| Between::Region { code_perm, regions }),
        (
            perm(),
            vec((0u32..0x1_0000, 0u32..9, 0u16..8), 0..3),
            any::<bool>()
        )
            .prop_map(|(code_perm, entries, user_mode)| Between::Pmp {
                code_perm,
                entries,
                user_mode
            }),
        mpu_store_strategy().prop_map(|(reg, value)| Between::Direct { reg, value }),
        any::<bool>().prop_map(Between::Ext),
        any::<bool>().prop_map(Between::Cache),
    ]
}

/// A segmented configuration as the OS would install it.
fn segmented(b1: u16, b2: u16, sam: u16) -> MpuConfig {
    MpuConfig::Segmented(MpuRegisterValues {
        mpuctl0: 0xA501,
        mpusegb1: b1,
        mpusegb2: b2,
        mpusam: sam,
    })
}

fn apply(bus: &mut Bus, op: &Between, cached_run: bool) {
    match op {
        Between::Nothing => {}
        Between::Segmented { b1, b2, sam } => {
            // A locked MPU refuses the install; both runs see the same
            // refusal, so the outcome is not compared here.
            let _ = bus.install_mpu_config(&segmented(*b1, *b2, *sam));
        }
        Between::Region { code_perm, regions } => {
            let code = RegionDesc {
                range: AddrRange::new(0x4400, 0x4800),
                perm: Perm::from_bits(*code_perm),
            };
            let regions = std::iter::once(code)
                .chain(regions.iter().map(|(a, b, perm)| RegionDesc {
                    range: AddrRange::new((*a).min(*b) & 0xFFF0, (*a).max(*b) & 0xFFF0),
                    perm: Perm::from_bits(*perm),
                }))
                .collect();
            bus.install_mpu_config(&MpuConfig::Region(RegionRegisterValues { regions }))
                .unwrap();
        }
        Between::Pmp {
            code_perm,
            entries,
            user_mode,
        } => {
            let napot = |base_bits: Addr, k: u32, perm: u16| {
                let size = 8u32 << k;
                let base = (base_bits & 0xFFFF & !(size - 1)).min(0x1_0000 - size);
                RegionDesc {
                    range: AddrRange::from_len(base, size),
                    perm: Perm::from_bits(perm),
                }
            };
            let entries = std::iter::once(napot(0x4400, 7, *code_perm))
                .chain(entries.iter().map(|(b, k, p)| napot(*b, *k, *p)))
                .collect();
            bus.install_mpu_config(&MpuConfig::Pmp(PmpRegisterValues {
                entries,
                user_mode: *user_mode,
            }))
            .unwrap();
        }
        Between::Direct { reg, value } => {
            let _ = bus.mpu.write_register(*reg, *value);
        }
        Between::Ext(enabled) => bus.ext_mpu.enabled = *enabled,
        Between::Cache(enabled) => {
            if cached_run {
                bus.set_attr_cache_enabled(*enabled);
            }
        }
    }
}

/// Everything observable about a run, for exact comparison.
type Fingerprint = (
    Vec<StepEvent>,
    u64, // steps
    amulet_mcu::CpuStats,
    u64,       // cpu cycles
    [u16; 16], // register file
    u16,       // status word
    amulet_mcu::BusStats,
    u64,     // timer raw cycles
    u16,     // latched MPU violation flags
    Vec<u8>, // full memory image
);

const STEP_CAP: u64 = 2_000;

/// Runs `code` from [`ORIGIN`] under an initial segmented configuration
/// (code in segment 1, RWX; data segment 2 RW; segment 3 read-only),
/// cycling through `schedule`: before each block its reconfiguration is
/// applied, then the block runs for its step budget.  Syscalls resume;
/// halts and faults end the run.
fn run(
    platform: PlatformSpec,
    code: &InstrStore,
    cache: bool,
    schedule: &[(u64, Between)],
) -> Fingerprint {
    let mut cpu = Cpu::new();
    let mut bus = Bus::new(platform);
    bus.set_attr_cache_enabled(cache);
    bus.install_mpu_config(&segmented(0x600, 0x800, 0x3137))
        .unwrap();
    bus.ext_mpu.segments = vec![
        (AddrRange::new(0x4400, 0x6000), Perm::RWX),
        (AddrRange::new(0x6000, 0x8000), Perm::RW),
        (AddrRange::new(0x1C00, 0x2400), Perm::RW),
    ];
    cpu.set_pc(ORIGIN);
    cpu.set_sp(0x2400);
    let mut events = Vec::new();
    let mut total: u64 = 0;
    for (block, op) in schedule.iter().cycle() {
        if total >= STEP_CAP {
            break;
        }
        apply(&mut bus, op, cache);
        let (ev, used) = cpu.run_block(&mut bus, code, (*block).min(STEP_CAP - total));
        total += used;
        if let Some(ev) = ev {
            events.push(ev);
            if matches!(ev, StepEvent::Halted | StepEvent::Fault(_)) {
                break;
            }
        }
    }
    let regs: [u16; 16] = core::array::from_fn(|i| cpu.reg(Reg(i as u8)));
    (
        events,
        total,
        cpu.stats,
        cpu.cycles,
        regs,
        cpu.status_word(),
        bus.stats,
        bus.timer.raw_cycles(),
        bus.mpu.violation_flags,
        bus.dump_bytes(AddrRange::new(0, 0x1_0000)),
    )
}

/// The five platform profiles the repo models.
fn platforms() -> [PlatformSpec; 5] {
    [
        PlatformSpec::msp430fr5969(),
        PlatformSpec::msp430fr5969_advanced_mpu(),
        PlatformSpec::msp430fr5994(),
        PlatformSpec::cortex_m33(),
        PlatformSpec::riscv_pmp(),
    ]
}

/// Describes the first differing fingerprint field, compactly — the raw
/// tuples contain a 64 KiB memory image each.
fn diff(a: &Fingerprint, b: &Fingerprint) -> Option<String> {
    if a == b {
        return None;
    }
    Some(if a.0 != b.0 {
        format!("events {:?} vs {:?}", a.0, b.0)
    } else if a.1 != b.1 {
        format!("steps {} vs {}", a.1, b.1)
    } else if a.2 != b.2 {
        format!("cpu stats {:?} vs {:?}", a.2, b.2)
    } else if a.3 != b.3 {
        format!("cycles {} vs {}", a.3, b.3)
    } else if a.4 != b.4 {
        format!("regs {:?} vs {:?}", a.4, b.4)
    } else if a.5 != b.5 {
        format!("flags {:#06x} vs {:#06x}", a.5, b.5)
    } else if a.6 != b.6 {
        format!("bus stats {:?} vs {:?}", a.6, b.6)
    } else if a.7 != b.7 {
        format!("timer {} vs {}", a.7, b.7)
    } else if a.8 != b.8 {
        format!("violation flags {:#06x} vs {:#06x}", a.8, b.8)
    } else {
        let at = a.9.iter().zip(&b.9).position(|(x, y)| x != y).unwrap();
        format!("memory at {at:#06x}: {} vs {}", a.9[at], b.9[at])
    })
}

/// Runs `code` with the cache on and off on every platform, reporting the
/// first divergence.
fn cache_invariant(code: &InstrStore, schedule: &[(u64, Between)]) -> Result<(), String> {
    for platform in platforms() {
        let cached = run(platform.clone(), code, true, schedule);
        let direct = run(platform.clone(), code, false, schedule);
        if let Some(d) = diff(&cached, &direct) {
            return Err(format!("cache on/off diverged on {}: {}", platform.name, d));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MPU register stores mid-block and reconfiguration between blocks
    /// never make the cached execute loop disagree with the oracle path.
    #[test]
    fn cache_matches_oracle_through_mpu_reprogramming(
        program in program_strategy(),
        schedule in vec((1u64..40, between_strategy()), 1..8),
    ) {
        let res = cache_invariant(&assemble(&program), &schedule);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

fn mpu_fault(pc: Addr, addr: Addr) -> StepEvent {
    StepEvent::Fault(FaultInfo {
        class: FaultClass::MpuViolation,
        pc,
        addr: Some(addr),
    })
}

/// Assembles straight-line code at [`ORIGIN`].
fn straight(instrs: &[Instr]) -> InstrStore {
    let mut code = InstrStore::new();
    let mut at = ORIGIN;
    for i in instrs {
        code.insert(at, *i);
        at += i.size_bytes();
    }
    code
}

/// One block on the FR5969 under the initial configuration of [`run`]
/// (segment 2 = 0x6000..0x8000 read/write), with the cache on or off.
fn fr5969_block(code: &InstrStore, cache: bool) -> (Option<StepEvent>, Cpu, Bus) {
    let mut cpu = Cpu::new();
    let mut bus = Bus::msp430fr5969();
    bus.set_attr_cache_enabled(cache);
    bus.install_mpu_config(&segmented(0x600, 0x800, 0x3137))
        .unwrap();
    cpu.set_pc(ORIGIN);
    cpu.set_sp(0x2400);
    let (ev, _) = cpu.run_block(&mut bus, code, 100);
    (ev, cpu, bus)
}

/// A store to `MPUSAM` inside the block makes segment 2 read-only: the
/// next store there faults in the same block, on the cached path too.
#[test]
fn mid_block_access_bits_store_takes_effect_on_the_next_access() {
    let code = straight(&[
        Instr::StoreAbs {
            src: Reg::R4,
            addr: 0x7000,
            width: Width::Word,
        },
        Instr::MovImm {
            dst: VALUE_REG,
            imm: 0x3117,
        },
        Instr::StoreAbs {
            src: VALUE_REG,
            addr: MPUSAM as u16,
            width: Width::Word,
        },
        Instr::StoreAbs {
            src: Reg::R4,
            addr: 0x7000,
            width: Width::Word,
        },
        Instr::Halt,
    ]);
    for cache in [true, false] {
        let (ev, _, bus) = fr5969_block(&code, cache);
        assert_eq!(ev, Some(mpu_fault(0x440C, 0x7000)), "cache {cache}");
        assert_eq!(bus.stats.denied, 1, "cache {cache}");
    }
}

/// A store to `MPUSEGB1` inside the block moves the boundary below the
/// running code, putting the next instruction in segment 2, which grants
/// no execute: the fetch faults on the cached path too.
#[test]
fn mid_block_boundary_store_moves_the_fetch_boundary() {
    let code = straight(&[
        Instr::MovImm {
            dst: VALUE_REG,
            imm: 0x0440,
        },
        Instr::StoreAbs {
            src: VALUE_REG,
            addr: MPUSEGB1 as u16,
            width: Width::Word,
        },
        Instr::Nop,
        Instr::Halt,
    ]);
    for cache in [true, false] {
        let (ev, cpu, bus) = fr5969_block(&code, cache);
        assert_eq!(ev, Some(mpu_fault(0x4408, 0x4408)), "cache {cache}");
        assert_eq!(cpu.stats.instructions, 2, "cache {cache}");
        assert_eq!(bus.stats.exec_checks, 3, "cache {cache}");
    }
}

/// A wrong-password `MPUCTL0` store faults and changes nothing: the data
/// store behind it is never reached, and the configuration still grants
/// segment 2 read/write.
#[test]
fn wrong_password_store_faults_and_leaves_the_configuration() {
    let code = straight(&[
        Instr::MovImm {
            dst: VALUE_REG,
            imm: 0x5A00,
        },
        Instr::StoreAbs {
            src: VALUE_REG,
            addr: MPUCTL0 as u16,
            width: Width::Word,
        },
        Instr::Halt,
    ]);
    for cache in [true, false] {
        let (ev, _, mut bus) = fr5969_block(&code, cache);
        assert!(
            matches!(
                ev,
                Some(StepEvent::Fault(FaultInfo {
                    class: FaultClass::IllegalInstruction,
                    pc: 0x4404,
                    addr: Some(MPUCTL0),
                }))
            ),
            "cache {cache}: {ev:?}"
        );
        assert!(bus.mpu.enabled);
        assert!(bus.write(0x7000, 2, 1).is_ok(), "cache {cache}");
    }
}

/// A direct backend write between blocks (not through the bus) makes
/// segment 2 read-only; the next block sees it at entry.
#[test]
fn direct_backend_write_between_blocks_is_seen_by_the_next_block() {
    let code = straight(&[
        Instr::StoreAbs {
            src: Reg::R4,
            addr: 0x7000,
            width: Width::Word,
        },
        Instr::Jmp { target: 0x4400 },
    ]);
    for cache in [true, false] {
        let mut cpu = Cpu::new();
        let mut bus = Bus::msp430fr5969();
        bus.set_attr_cache_enabled(cache);
        bus.install_mpu_config(&segmented(0x600, 0x800, 0x3137))
            .unwrap();
        cpu.set_pc(ORIGIN);
        cpu.set_sp(0x2400);
        assert_eq!(cpu.run_block(&mut bus, &code, 10), (None, 10));
        bus.mpu.write_register(MPUSAM, 0x3117).unwrap();
        let (ev, steps) = cpu.run_block(&mut bus, &code, 10);
        assert_eq!(ev, Some(mpu_fault(ORIGIN, 0x7000)), "cache {cache}");
        assert_eq!(steps, 1, "cache {cache}");
    }
}

//! Block-partition invariance for `Cpu::run_block`.
//!
//! The fleet simulator runs firmware in step-budgeted blocks whose sizes
//! depend on the OS's delivery loop, so slicing a run into blocks of any
//! sizes (1, 7, generated, or one maximal block) must not change what
//! retires: same [`StepEvent`] sequence, same [`CpuStats`], same cycles,
//! same register file and flags, same [`BusStats`] (execute checks
//! included), same timer ticks, same memory image — on every platform
//! profile.
//!
//! Programs are the shapes the AFT compiler emits (double bounds checks,
//! add-then-check strides, frame prologues/epilogues) interleaved with
//! arbitrary straight-line code, wild branches, memory traffic, syscalls
//! and benchmark-timer control writes and counter reads.
//!
//! [`CpuStats`]: amulet_mcu::CpuStats
//! [`BusStats`]: amulet_mcu::BusStats

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::PlatformSpec;
use amulet_mcu::bus::Bus;
use amulet_mcu::code::InstrStore;
use amulet_mcu::cpu::{Cpu, StepEvent};
use amulet_mcu::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use amulet_mcu::timer::{TIMER_CONTROL, TIMER_COUNTER};
use proptest::collection::vec;
use proptest::prelude::*;

/// An instruction whose branch target (if any) is still a slot index
/// into the flattened program, resolved to a real address at layout time.
#[derive(Clone, Debug, PartialEq)]
enum P {
    /// A complete instruction with no intra-program target.
    I(Instr),
    /// `Jcc` to the instruction at slot `usize % len`.
    Jcc(Cond, usize),
    /// `Jmp` to the instruction at slot `usize % len`.
    Jmp(usize),
    /// `Call` of the instruction at slot `usize % len`.
    Call(usize),
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
const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
];
const UNARY_OPS: [UnaryOp; 5] = [
    UnaryOp::Neg,
    UnaryOp::Not,
    UnaryOp::Shl(3),
    UnaryOp::Shr(2),
    UnaryOp::Sar(1),
];

/// General-purpose-biased register: mostly `R4`–`R15`, occasionally the
/// architectural `PC`/`SP`/`SR`, whose writes redirect control flow or
/// rewrite the flags mid-block.
fn reg_strategy() -> impl Strategy<Value = Reg> {
    prop_oneof![
        (4u8..16).prop_map(Reg),
        (4u8..16).prop_map(Reg),
        (4u8..16).prop_map(Reg),
        (0u8..16).prop_map(Reg),
    ]
}

/// Immediates biased toward the bounds AFT checks actually use (SRAM
/// edges) plus small strides and fully arbitrary words.
fn imm_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..64, 0x1C00u16..0x2400, Just(0x2400u16), 0u16..0xFFFF,]
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    (0usize..CONDS.len()).prop_map(|i| CONDS[i])
}

/// One generator chunk: either a multi-instruction shape the AFT emits or
/// a single arbitrary instruction.  Chunks are concatenated and laid out
/// contiguously, so the shapes land adjacent exactly as compiled code
/// would.
fn chunk_strategy() -> impl Strategy<Value = Vec<P>> {
    let target = 0usize..256;
    prop_oneof![
        // Single bounds check: CmpImm + Jcc.
        (
            reg_strategy(),
            imm_strategy(),
            cond_strategy(),
            target.clone()
        )
            .prop_map(|(a, imm, cond, t)| vec![P::I(Instr::CmpImm { a, imm }), P::Jcc(cond, t)]),
        // Double bounds check: CmpImm + Jcc(Lo) + CmpImm + Jcc(Hs).
        (
            reg_strategy(),
            imm_strategy(),
            imm_strategy(),
            target.clone(),
            target.clone()
        )
            .prop_map(|(a, lo, hi, t1, t2)| vec![
                P::I(Instr::CmpImm { a, imm: lo }),
                P::Jcc(Cond::Lo, t1),
                P::I(Instr::CmpImm { a, imm: hi }),
                P::Jcc(Cond::Hs, t2),
            ]),
        // Stride advance then check: AluImm(Add) + CmpImm + Jcc.
        (
            reg_strategy(),
            0u16..16,
            imm_strategy(),
            cond_strategy(),
            target.clone()
        )
            .prop_map(|(dst, step, imm, cond, t)| vec![
                P::I(Instr::AluImm {
                    op: AluOp::Add,
                    dst,
                    imm: step,
                }),
                P::I(Instr::CmpImm { a: dst, imm }),
                P::Jcc(cond, t),
            ]),
        // Frame prologue: Push + Mov.
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(push, dst, src)| vec![
            P::I(Instr::Push { src: push }),
            P::I(Instr::Mov { dst, src }),
        ]),
        // Frame epilogue: Mov + Pop.
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(dst, src, pop)| vec![
            P::I(Instr::Mov { dst, src }),
            P::I(Instr::Pop { dst: pop }),
        ]),
        // Benchmark-timer traffic: read `TIMER_COUNTER` mid-block (after
        // whatever ran since the last access the attribute table could not
        // serve), then start, restart-and-clear or stop the timer through
        // `TIMER_CONTROL`, so the counter value every later instruction
        // sees is pinned whatever the block boundaries.
        (
            reg_strategy(),
            (4u8..16).prop_map(Reg),
            prop_oneof![
                Just(0x0020u16),
                Just(0x0024u16),
                Just(0x0010u16),
                Just(0x0000u16)
            ]
        )
            .prop_map(|(dst, ctl, value)| vec![
                P::I(Instr::LoadAbs {
                    dst,
                    addr: TIMER_COUNTER as u16,
                    width: Width::Word,
                }),
                P::I(Instr::MovImm {
                    dst: ctl,
                    imm: value
                }),
                P::I(Instr::StoreAbs {
                    src: ctl,
                    addr: TIMER_CONTROL as u16,
                    width: Width::Word,
                }),
            ]),
        // A single arbitrary instruction.
        single_strategy().prop_map(|p| vec![p]),
    ]
}

/// A single arbitrary instruction, weighted toward the common cases but
/// covering memory traffic, wild control flow, syscalls and faults.
fn single_strategy() -> impl Strategy<Value = P> {
    let target = 0usize..256;
    prop_oneof![
        (reg_strategy(), imm_strategy()).prop_map(|(dst, imm)| P::I(Instr::MovImm { dst, imm })),
        (reg_strategy(), reg_strategy()).prop_map(|(dst, src)| P::I(Instr::Mov { dst, src })),
        (0usize..ALU_OPS.len(), reg_strategy(), reg_strategy()).prop_map(|(op, dst, src)| P::I(
            Instr::Alu {
                op: ALU_OPS[op],
                dst,
                src
            }
        )),
        (0usize..ALU_OPS.len(), reg_strategy(), imm_strategy()).prop_map(|(op, dst, imm)| P::I(
            Instr::AluImm {
                op: ALU_OPS[op],
                dst,
                imm
            }
        )),
        (0usize..UNARY_OPS.len(), reg_strategy()).prop_map(|(op, reg)| P::I(Instr::Unary {
            op: UNARY_OPS[op],
            reg
        })),
        (reg_strategy(), reg_strategy()).prop_map(|(a, b)| P::I(Instr::Cmp { a, b })),
        (reg_strategy(), imm_strategy()).prop_map(|(a, imm)| P::I(Instr::CmpImm { a, imm })),
        (reg_strategy(), reg_strategy(), -8i16..8).prop_map(|(dst, base, off)| P::I(Instr::Load {
            dst,
            base,
            offset: off * 2,
            width: Width::Word,
        })),
        (reg_strategy(), reg_strategy(), -8i16..8).prop_map(|(src, base, off)| P::I(
            Instr::Store {
                src,
                base,
                offset: off * 2,
                width: Width::Word,
            }
        )),
        (reg_strategy(), imm_strategy()).prop_map(|(dst, addr)| P::I(Instr::LoadAbs {
            dst,
            addr: addr & !1,
            width: Width::Word,
        })),
        (reg_strategy(), imm_strategy()).prop_map(|(src, addr)| P::I(Instr::StoreAbs {
            src,
            addr: addr & !1,
            width: Width::Word,
        })),
        reg_strategy().prop_map(|src| P::I(Instr::Push { src })),
        reg_strategy().prop_map(|dst| P::I(Instr::Pop { dst })),
        target.clone().prop_map(P::Jmp),
        target.clone().prop_map(P::Call),
        reg_strategy().prop_map(|reg| P::I(Instr::Br { reg })),
        Just(P::I(Instr::Ret)),
        (0u16..8).prop_map(|num| P::I(Instr::Syscall { num })),
        Just(P::I(Instr::Nop)),
    ]
}

/// A whole program: concatenated chunks.
fn program_strategy() -> impl Strategy<Value = Vec<P>> {
    vec(chunk_strategy(), 1..14).prop_map(|chunks| chunks.into_iter().flatten().collect())
}

const ORIGIN: Addr = 0x4400;

/// Lays the program out contiguously from [`ORIGIN`], resolves slot-index
/// branch targets to instruction-start addresses, and terminates it with
/// a `Halt` so straight-line fall-through stops.
fn assemble(program: &[P]) -> InstrStore {
    let mut addrs = Vec::with_capacity(program.len() + 1);
    let mut at = ORIGIN;
    for p in program {
        addrs.push(at);
        let size = match p {
            P::I(i) => i.size_bytes(),
            P::Jcc(..) | P::Jmp(..) | P::Call(..) => 4,
        };
        at += size;
    }
    addrs.push(at); // the trailing Halt is a valid target too
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
            P::Call(t) => Instr::Call {
                target: resolve(*t),
            },
        };
        code.insert(addr, instr);
    }
    code.insert(at, Instr::Halt);
    code
}

/// Everything observable about a run, for exact comparison.
type Fingerprint = (
    Vec<StepEvent>,
    amulet_mcu::CpuStats,
    u64,       // cpu cycles
    [u16; 16], // register file
    u16,       // status word
    amulet_mcu::BusStats,
    u64,     // timer raw cycles
    Vec<u8>, // full memory image
);

/// Runs `code` from [`ORIGIN`] for at most `cap` steps, pulling block
/// sizes cyclically from `blocks`, collecting every stopping event.
/// Syscalls resume (the OS would service them); halts and faults end the
/// run.
fn run(platform: PlatformSpec, code: &InstrStore, cap: u64, blocks: &[u64]) -> Fingerprint {
    let mut cpu = Cpu::new();
    let mut bus = Bus::new(platform);
    cpu.set_pc(ORIGIN);
    cpu.set_sp(0x2400);
    let mut events = Vec::new();
    let mut total: u64 = 0;
    let mut bi = 0usize;
    while total < cap {
        let block = blocks[bi % blocks.len()].min(cap - total);
        bi += 1;
        let (ev, used) = cpu.run_block(&mut bus, code, block);
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
        cpu.stats,
        cpu.cycles,
        regs,
        cpu.status_word(),
        bus.stats,
        bus.timer.raw_cycles(),
        bus.dump_bytes(AddrRange::new(0, 0x1_0000)),
    )
}

const STEP_CAP: u64 = 3_000;

/// The five platform profiles the repo models.  The advanced-MPU ablation
/// disables the attribute fast path, so the property covers execute checks
/// both through the attribute table and through the exact slow path.
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
        format!("cpu stats {:?} vs {:?}", a.1, b.1)
    } else if a.2 != b.2 {
        format!("cycles {} vs {}", a.2, b.2)
    } else if a.3 != b.3 {
        format!("regs {:?} vs {:?}", a.3, b.3)
    } else if a.4 != b.4 {
        format!("flags {:#06x} vs {:#06x}", a.4, b.4)
    } else if a.5 != b.5 {
        format!("bus stats {:?} vs {:?}", a.5, b.5)
    } else if a.6 != b.6 {
        format!("timer {} vs {}", a.6, b.6)
    } else {
        let at = a.7.iter().zip(&b.7).position(|(x, y)| x != y).unwrap();
        format!("memory at {at:#06x}: {} vs {}", a.7[at], b.7[at])
    })
}

/// Runs `program` once as a single maximal block and once sliced into
/// `blocks` (cycled) on every platform, reporting the first divergence.
fn partition_invariant(program: &[P], blocks: &[u64]) -> Result<(), String> {
    let code = assemble(program);
    for platform in platforms() {
        let whole = run(platform.clone(), &code, STEP_CAP, &[u64::MAX]);
        let sliced = run(platform.clone(), &code, STEP_CAP, blocks);
        if let Some(d) = diff(&whole, &sliced) {
            return Err(format!(
                "partitioned run diverged on {}: {}",
                platform.name, d
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Slicing the same run into blocks of generated sizes — interleaved
    /// with the degenerate 1 and the awkward 7 — retires the identical
    /// trace as one maximal block on every platform.
    #[test]
    fn run_block_is_partition_invariant_on_every_platform(
        program in program_strategy(),
        sizes in vec(1u64..24, 1..8),
    ) {
        let mut blocks = vec![1, 7];
        blocks.extend(sizes);
        let res = partition_invariant(&program, &blocks);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

/// A deterministic program made of every AFT shape runs to `Halt` without
/// faulting on every platform, retiring every instruction, and is
/// partition-invariant — so the generator's shapes are exercised on a
/// path that reaches the end, not only on programs that fault early.
#[test]
fn aft_shapes_run_to_halt_and_are_partition_invariant() {
    let program = vec![
        P::I(Instr::MovImm {
            dst: Reg::R14,
            imm: 0x1C10,
        }),
        // Double check (in range: falls through).
        P::I(Instr::CmpImm {
            a: Reg::R14,
            imm: 0x1C00,
        }),
        P::Jcc(Cond::Lo, 250),
        P::I(Instr::CmpImm {
            a: Reg::R14,
            imm: 0x2400,
        }),
        P::Jcc(Cond::Hs, 250),
        // Prologue + epilogue.
        P::I(Instr::Push { src: Reg::FP }),
        P::I(Instr::Mov {
            dst: Reg::FP,
            src: Reg::SP,
        }),
        P::I(Instr::Mov {
            dst: Reg::SP,
            src: Reg::FP,
        }),
        P::I(Instr::Pop { dst: Reg::FP }),
        // Add-then-check (branch not taken: R4 stays below the bound).
        P::I(Instr::AluImm {
            op: AluOp::Add,
            dst: Reg::R4,
            imm: 2,
        }),
        P::I(Instr::CmpImm {
            a: Reg::R4,
            imm: 0x4000,
        }),
        P::Jcc(Cond::Hs, 250),
    ];
    for platform in platforms() {
        let (events, stats, ..) = run(platform.clone(), &assemble(&program), STEP_CAP, &[u64::MAX]);
        assert_eq!(events.last(), Some(&StepEvent::Halted), "{}", platform.name);
        assert_eq!(stats.faults, 0, "{}", platform.name);
        assert_eq!(
            stats.instructions,
            program.len() as u64 + 1,
            "{}",
            platform.name
        );
    }
    partition_invariant(&program, &[1, 2, 3, 7]).unwrap();
}

/// A deterministic timer program: start the timer, work, read the counter
/// mid-block, work, read again, restart-and-clear, work, read a third
/// time.  Every read must see a non-trivial count, and slicing the run
/// into blocks must not move any of them, on every platform.
#[test]
fn mid_block_timer_reads_are_partition_invariant() {
    let work = |n: usize| {
        (0..n).map(|_| {
            P::I(Instr::AluImm {
                op: AluOp::Add,
                dst: Reg::R5,
                imm: 1,
            })
        })
    };
    let control = |value: u16| {
        [
            P::I(Instr::MovImm {
                dst: Reg::R4,
                imm: value,
            }),
            P::I(Instr::StoreAbs {
                src: Reg::R4,
                addr: TIMER_CONTROL as u16,
                width: Width::Word,
            }),
        ]
    };
    let read = |dst: Reg| {
        P::I(Instr::LoadAbs {
            dst,
            addr: TIMER_COUNTER as u16,
            width: Width::Word,
        })
    };
    let mut program: Vec<P> = control(0x0020).into();
    program.extend(work(21));
    program.push(read(Reg::R6));
    program.extend(work(13));
    program.push(read(Reg::R7));
    program.extend(control(0x0024));
    program.extend(work(9));
    program.push(read(Reg::R8));
    for platform in platforms() {
        let (_, _, _, regs, ..) = run(platform.clone(), &assemble(&program), STEP_CAP, &[u64::MAX]);
        let (r6, r7, r8) = (regs[6], regs[7], regs[8]);
        assert!(
            r6 >= 32 && r7 > r6 && r8 >= 16 && r8 < r7,
            "{}: counter reads {r6}, {r7}, {r8}",
            platform.name
        );
    }
    partition_invariant(&program, &[1, 2, 3, 7]).unwrap();
}

//! The bus's dirty-page tracking against a shadow memory.
//!
//! `Bus::reset` zeroes only the 1 KiB pages a store touched, and
//! `Bus::save`/`Bus::restore` copy only those pages, so every store path
//! must mark the pages it writes: `write`, `write_raw` (both bytes of a
//! word, including a word at a page's last byte and one that wraps at
//! 0xFFFF), `fill` and `load_bytes` across page edges.  Random store
//! sequences, mixed with MPU register stores, MPU installs and timer
//! ticks, run on every platform profile beside a shadow array that
//! applies the same stores byte by byte.  The bus must match the shadow,
//! `reset` must leave all 64 KiB zero, and `save` → more stores →
//! `restore` must give back the saved bytes, MPU, timer and counters,
//! and the attribute table of a bus that was never checkpointed.  Every
//! op kind runs on every profile: a segmented-register store or an
//! install of another MPU shape than the platform's must be refused.

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::PlatformSpec;
use amulet_core::mpu_plan::{
    MpuConfig, MpuRegisterValues, PmpRegisterValues, RegionDesc, RegionRegisterValues,
};
use amulet_core::perm::Perm;
use amulet_mcu::bus::{Bus, BusCheckpoint, BusFaultCause, Region};
use amulet_mcu::mpu::{MpuBackend, MpuRegisterError, MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use amulet_mcu::timer::TIMER_CONTROL;
use proptest::collection::vec;
use proptest::prelude::*;

/// One store (or configuration change) applied to the bus.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// `Bus::write` of a byte or an aligned word, MPU-checked.
    Write { addr: Addr, word: bool, value: u16 },
    /// `Bus::write_raw` of a byte or a word (a word may straddle pages
    /// or wrap at 0xFFFF).
    WriteRaw { addr: Addr, word: bool, value: u16 },
    /// `Bus::fill` of `len` bytes from `start`.
    Fill { start: Addr, len: u32, value: u8 },
    /// `Bus::load_bytes` at `addr`.
    Load { addr: Addr, bytes: Vec<u8> },
    /// A store to a segmented-MPU register through `Bus::write`.
    MpuStore { reg: Addr, value: u16 },
    /// `Bus::install_mpu_config`: segmented, region or PMP, with one
    /// region over `a..b` (rounded to the backend's grain).
    Install {
        kind: u8,
        a: Addr,
        b: Addr,
        perm: u16,
    },
    /// The timer started and advanced by this many cycles.
    Tick(u64),
}

/// An address near a page edge (the first two and last two bytes of a
/// page) or anywhere.
fn addr_strategy() -> impl Strategy<Value = Addr> {
    prop_oneof![
        (0u32..64, 0u32..2).prop_map(|(page, off)| page * 1024 + off),
        (0u32..64, 1022u32..1024).prop_map(|(page, off)| page * 1024 + off),
        0u32..0x1_0000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), any::<bool>(), any::<u16>()).prop_map(|(addr, word, value)| {
            Op::Write {
                addr: if word { addr & !1 } else { addr },
                word,
                value,
            }
        }),
        (
            prop_oneof![
                Just(0xFFFFu32),
                Just(0x3FEu32),
                Just(0x3FFu32),
                addr_strategy()
            ],
            any::<bool>(),
            any::<u16>()
        )
            .prop_map(|(addr, word, value)| Op::WriteRaw { addr, word, value }),
        (addr_strategy(), 0u32..3000, any::<u8>()).prop_map(|(start, len, value)| Op::Fill {
            start,
            len: len.min(0x1_0000 - start),
            value,
        }),
        (addr_strategy(), vec(any::<u8>(), 0..2100)).prop_map(|(addr, mut bytes)| {
            bytes.truncate((0x1_0000 - addr) as usize);
            Op::Load { addr, bytes }
        }),
        (
            prop_oneof![Just(MPUCTL0), Just(MPUSEGB1), Just(MPUSEGB2), Just(MPUSAM)],
            prop_oneof![Just(0xA501u16), Just(0xA500u16), any::<u16>()]
        )
            .prop_map(|(reg, value)| Op::MpuStore { reg, value }),
        (0u8..3, 0u32..0x1_0000, 0u32..0x1_0000, 0u16..8)
            .prop_map(|(kind, a, b, perm)| Op::Install { kind, a, b, perm }),
        (0u64..5000).prop_map(Op::Tick),
    ]
}

/// The configuration an [`Op::Install`] installs.
fn config(kind: u8, a: Addr, b: Addr, perm: u16) -> MpuConfig {
    let perm = Perm::from_bits(perm);
    match kind {
        0 => MpuConfig::Segmented(MpuRegisterValues {
            mpuctl0: 0xA501,
            mpusegb1: (a.min(b) >> 4) as u16,
            mpusegb2: (a.max(b) >> 4) as u16,
            mpusam: perm.to_bits() * 0x111,
        }),
        1 => MpuConfig::Region(RegionRegisterValues {
            regions: vec![RegionDesc {
                range: AddrRange::new(a.min(b) & 0xFFF0, a.max(b) & 0xFFF0),
                perm,
            }],
        }),
        _ => {
            let size = 1024;
            let base = (a & !(size - 1)).min(0x1_0000 - size);
            MpuConfig::Pmp(PmpRegisterValues {
                entries: vec![RegionDesc {
                    range: AddrRange::from_len(base, size),
                    perm,
                }],
                user_mode: b.is_multiple_of(2),
            })
        }
    }
}

/// Applies `op` to the bus and the same byte stores to `shadow`.
fn apply(bus: &mut Bus, shadow: &mut [u8], op: &Op) {
    match op {
        Op::Write { addr, word, value } => {
            let size = if *word { 2 } else { 1 };
            // Peripheral space dispatches to register files, not memory,
            // so the generator's plain stores stay out of it.
            if bus.region(*addr) == Region::Peripherals {
                return;
            }
            if bus.write(*addr, size, *value).is_ok() {
                shadow[*addr as usize] = *value as u8;
                if *word {
                    shadow[*addr as usize + 1] = (*value >> 8) as u8;
                }
            }
        }
        Op::WriteRaw { addr, word, value } => {
            bus.write_raw(*addr, if *word { 2 } else { 1 }, *value);
            shadow[*addr as usize] = *value as u8;
            if *word {
                shadow[(*addr as usize + 1) & 0xFFFF] = (*value >> 8) as u8;
            }
        }
        Op::Fill { start, len, value } => {
            bus.fill(AddrRange::from_len(*start, *len), *value);
            shadow[*start as usize..(*start + *len) as usize].fill(*value);
        }
        Op::Load { addr, bytes } => {
            bus.load_bytes(*addr, bytes);
            shadow[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        Op::MpuStore { reg, value } => {
            let stored = bus.write(*reg, 2, *value);
            if !matches!(bus.mpu(), MpuBackend::Segmented(_)) {
                // Another shape's block: refused, unless the MPU's own
                // peripheral jurisdiction denies the store first.
                let cause = stored
                    .expect_err("a foreign MPU block refuses stores")
                    .cause;
                assert!(
                    matches!(
                        cause,
                        BusFaultCause::MpuRegisterProtocol(MpuRegisterError::Privileged)
                            | BusFaultCause::MpuViolation
                    ),
                    "{cause:?}"
                );
            }
        }
        Op::Install { kind, a, b, perm } => {
            let installed = bus.install_mpu_config(&config(*kind, *a, *b, *perm));
            let own = match bus.mpu() {
                MpuBackend::Segmented(_) => 0,
                MpuBackend::Region(_) => 1,
                MpuBackend::Pmp(_) => 2,
            };
            if *kind != own {
                let cause = installed
                    .expect_err("a foreign MPU config is refused")
                    .cause;
                assert_eq!(cause, BusFaultCause::ForeignMpuConfig);
            }
        }
        Op::Tick(cycles) => {
            let _ = bus.write(TIMER_CONTROL, 2, 0x0020);
            bus.timer.tick(*cycles);
        }
    }
}

/// Everything of a bus a checkpoint must carry, plus its attribute table.
fn state(bus: &Bus) -> (Vec<u8>, String, amulet_mcu::BusStats, Vec<u8>) {
    (
        bus.dump_bytes(AddrRange::new(0, 0x1_0000)),
        format!("{:?} {:?}", bus.mpu(), bus.timer),
        bus.stats,
        bus.attr_table().to_vec(),
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

/// Runs `ops` with a save after the first `save_at`, restores, replays
/// the tail and resets, checking each step against the shadow and a bus
/// that never saw a checkpoint.
fn check(platform: PlatformSpec, ops: &[Op], save_at: usize) -> Result<(), String> {
    let name = platform.name.clone();
    let save_at = save_at % (ops.len() + 1);
    let (head, tail) = ops.split_at(save_at);
    let mut bus = Bus::new(platform.clone());
    let mut shadow = vec![0u8; 0x1_0000];
    let mut checkpoint = BusCheckpoint::default();
    // Save twice so the second save reuses the first one's buffers.
    bus.save(&mut checkpoint);
    for op in head {
        apply(&mut bus, &mut shadow, op);
    }
    bus.save(&mut checkpoint);
    let saved = state(&bus);
    for op in tail {
        apply(&mut bus, &mut shadow, op);
    }
    if bus.dump_bytes(AddrRange::new(0, 0x1_0000)) != shadow {
        return Err(format!("{name}: memory differs from the shadow"));
    }

    bus.restore(&checkpoint);
    let restored = state(&bus);
    let mut never = Bus::new(platform);
    let mut never_shadow = vec![0u8; 0x1_0000];
    for op in head {
        apply(&mut never, &mut never_shadow, op);
    }
    for (what, a, b) in [
        ("saved", &restored, &saved),
        ("never checkpointed", &restored, &state(&never)),
    ] {
        if a.0 != b.0 {
            let at = a.0.iter().zip(&b.0).position(|(x, y)| x != y).unwrap();
            return Err(format!("{name}: restored memory at {at:#06x} vs {what}"));
        }
        if a.1 != b.1 || a.2 != b.2 {
            return Err(format!("{name}: restored MPU/timer/stats vs {what}"));
        }
        if a.3 != b.3 {
            return Err(format!("{name}: restored attribute table vs {what}"));
        }
    }

    // The restored bus tracks its pages as well as the fresh one: the
    // same tail leaves the same memory, and a reset clears all of it.
    for op in tail {
        apply(&mut bus, &mut shadow, op);
        apply(&mut never, &mut never_shadow, op);
    }
    if state(&bus) != state(&never) {
        return Err(format!("{name}: the replayed tail diverged after restore"));
    }
    bus.reset();
    if bus
        .dump_bytes(AddrRange::new(0, 0x1_0000))
        .iter()
        .any(|&b| b != 0)
    {
        return Err(format!("{name}: reset left a nonzero byte"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reset, save and restore agree with a byte-by-byte shadow and with
    /// a bus that was never checkpointed, on every platform.
    #[test]
    fn dirty_pages_track_every_store(
        ops in vec(op_strategy(), 0..40),
        save_at in 0usize..64,
    ) {
        for platform in platforms() {
            let res = check(platform, &ops, save_at);
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
    }
}

#[test]
fn page_edge_words_mark_both_pages() {
    for addr in [0xFFFF, 0x3FE, 0x3FF] {
        let mut bus = Bus::msp430fr5969();
        bus.write_raw(addr, 2, 0xA5A5);
        bus.reset();
        assert!(
            bus.dump_bytes(AddrRange::new(0, 0x1_0000))
                .iter()
                .all(|&b| b == 0),
            "a word at {addr:#06x} survived reset"
        );
    }
}

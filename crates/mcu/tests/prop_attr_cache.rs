//! Equivalence property for the bus's access-attribute cache.
//!
//! The flat per-address attribute table is a pure optimisation: for
//! arbitrary platforms, arbitrary MPU configurations (segmented, region
//! and PMP), and arbitrary interleavings of configuration changes with
//! reads/writes/instruction fetches, a bus with the cache enabled and a
//! bus taking the direct MPU path must produce **identical results for
//! every access** (same values, same faults), **identical [`BusStats`]
//! deltas**, and identical memory — including after the bounded table
//! memo has evicted tables.  Every op kind runs on every platform: an
//! install of another MPU shape than the platform's must be refused.

use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec, PlatformSpec};
use amulet_core::mpu_plan::{
    MpuConfig, MpuPlan, MpuRegisterValues, PmpRegisterValues, RegionDesc, RegionRegisterValues,
};
use amulet_core::perm::Perm;
use amulet_core::platform::builtin_platforms;
use amulet_mcu::bus::{Bus, BusFaultCause, BusStats};
use amulet_mcu::mpu::MpuBackend;
use proptest::collection::vec;
use proptest::prelude::*;

/// One step of a driven access/configuration sequence.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// `Bus::read` of 1 or 2 bytes.
    Read { addr: Addr, size: u32 },
    /// `Bus::write` of 1 or 2 bytes.
    Write { addr: Addr, size: u32, value: u16 },
    /// `Bus::check_execute`.
    Exec { addr: Addr },
    /// Install a segmented MPU configuration (as the OS switch path does).
    Segmented {
        b1: u16,
        b2: u16,
        sam: u16,
        enable: bool,
    },
    /// Install a region MPU configuration.
    Region { regions: Vec<(Addr, Addr, u16)> },
    /// Install a PMP configuration: NAPOT entries drawn as
    /// (base bits, size exponent, perm), or the machine-mode toggle.
    Pmp {
        entries: Vec<(Addr, u32, u16)>,
        user_mode: bool,
    },
    /// Power-on reset.
    Reset,
}

/// Addresses biased toward the interesting parts of the map (boundaries,
/// SRAM, FRAM, InfoMem, peripherals, holes) but covering everything,
/// including just past the 64 KiB space.
fn addr_strategy() -> impl Strategy<Value = Addr> {
    prop_oneof![
        0u32..0x1_0010,
        0x1800u32..0x2000,  // InfoMem and the hole behind it
        0x1C00u32..0x2400,  // SRAM
        0x4400u32..0x10000, // FRAM + vectors
        0x0000u32..0x0600,  // peripherals (incl. MPU register files)
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = |n: usize| vec((addr_strategy(), addr_strategy(), 0u16..8), 0..n);
    prop_oneof![
        (addr_strategy(), prop_oneof![Just(1u32), Just(2u32)])
            .prop_map(|(addr, size)| Op::Read { addr, size }),
        (
            addr_strategy(),
            prop_oneof![Just(1u32), Just(2u32)],
            0u16..0xFFFF
        )
            .prop_map(|(addr, size, value)| Op::Write { addr, size, value }),
        addr_strategy().prop_map(|addr| Op::Exec { addr }),
        (0u16..0x1000, 0u16..0x1000, 0u16..0x7777, any::<bool>()).prop_map(
            |(b1, b2, sam, enable)| Op::Segmented {
                b1,
                b2,
                sam,
                enable
            }
        ),
        span(4).prop_map(|regions| Op::Region { regions }),
        (
            vec((addr_strategy(), 0u32..9, 0u16..8), 0..4),
            any::<bool>()
        )
            .prop_map(|(entries, user_mode)| Op::Pmp { entries, user_mode }),
        Just(Op::Reset),
    ]
}

/// The MPU configuration an install op installs (`None` for the other
/// ops).
fn mpu_config(op: &Op) -> Option<MpuConfig> {
    match op {
        Op::Segmented {
            b1,
            b2,
            sam,
            enable,
        } => Some(MpuConfig::Segmented(MpuRegisterValues {
            mpuctl0: 0xA500 | u16::from(*enable),
            mpusegb1: *b1,
            mpusegb2: *b2,
            mpusam: *sam,
        })),
        Op::Region { regions } => {
            let regions = regions
                .iter()
                .map(|(a, b, perm)| RegionDesc {
                    range: AddrRange::new((*a).min(*b) & 0xFFF0, (*a).max(*b) & 0xFFF0),
                    perm: Perm::from_bits(*perm),
                })
                .collect();
            Some(MpuConfig::Region(RegionRegisterValues { regions }))
        }
        Op::Pmp { entries, user_mode } => {
            let entries = entries
                .iter()
                .map(|(base_bits, k, perm)| {
                    // A NAPOT-valid range: power-of-two size, size-aligned
                    // base, clamped inside the 64 KiB space.
                    let size = 8u32 << k;
                    let base = (base_bits & 0xFFFF & !(size - 1)).min(0x1_0000 - size);
                    RegionDesc {
                        range: AddrRange::from_len(base, size),
                        perm: Perm::from_bits(*perm),
                    }
                })
                .collect();
            Some(MpuConfig::Pmp(PmpRegisterValues {
                entries,
                user_mode: *user_mode,
            }))
        }
        _ => None,
    }
}

/// Applies one op to a bus, returning a comparable outcome.
fn apply(bus: &mut Bus, op: &Op) -> Result<u16, String> {
    if let Some(config) = mpu_config(op) {
        let installed = bus.install_mpu_config(&config);
        let own = matches!(
            (bus.mpu(), &config),
            (MpuBackend::Segmented(_), MpuConfig::Segmented(_))
                | (MpuBackend::Region(_), MpuConfig::Region(_))
                | (MpuBackend::Pmp(_), MpuConfig::Pmp(_))
        );
        if !own {
            let cause = installed.map_err(|e| e.cause);
            assert_eq!(cause, Err(BusFaultCause::ForeignMpuConfig), "{op:?}");
        }
        return installed.map(|()| 0).map_err(|e| e.to_string());
    }
    match op {
        Op::Read { addr, size } => bus.read(*addr, *size).map_err(|e| e.to_string()),
        Op::Write { addr, size, value } => bus
            .write(*addr, *size, *value)
            .map(|()| 0)
            .map_err(|e| e.to_string()),
        Op::Exec { addr } => bus
            .check_execute(*addr)
            .map(|()| 0)
            .map_err(|e| e.to_string()),
        Op::Reset => {
            bus.reset();
            Ok(0)
        }
        Op::Segmented { .. } | Op::Region { .. } | Op::Pmp { .. } => {
            unreachable!("install ops returned above")
        }
    }
}

fn stats_tuple(s: &BusStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        s.reads,
        s.writes,
        s.exec_checks,
        s.fram_writes,
        s.peripheral_writes,
        s.denied,
    )
}

fn drive(platform: PlatformSpec, ops: &[Op]) {
    let mut cached = Bus::new(platform.clone());
    let mut direct = Bus::new(platform);
    direct.set_attr_cache_enabled(false);
    for (i, op) in ops.iter().enumerate() {
        let a = apply(&mut cached, op);
        let b = apply(&mut direct, op);
        assert_eq!(a, b, "op {i} {op:?} diverged");
        assert_eq!(
            stats_tuple(&cached.stats),
            stats_tuple(&direct.stats),
            "op {i} {op:?} diverged in BusStats"
        );
    }
    assert_eq!(
        cached.dump_bytes(AddrRange::new(0, 0x1_0000)),
        direct.dump_bytes(AddrRange::new(0, 0x1_0000)),
        "memory contents diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmented platform (MSP430FR5969): cache and direct path agree on
    /// every access outcome and every stats counter, under arbitrary
    /// interleavings of MPU reconfiguration and traffic.
    #[test]
    fn cache_matches_oracle_on_the_segmented_platform(
        ops in vec(op_strategy(), 1..60),
    ) {
        drive(PlatformSpec::msp430fr5969(), &ops);
    }

    /// Region-MPU platform (FR5994-class profile): same equivalence, with
    /// the deny-by-default region backend as the oracle.
    #[test]
    fn cache_matches_oracle_on_the_region_platform(
        ops in vec(op_strategy(), 1..60),
    ) {
        drive(PlatformSpec::msp430fr5994(), &ops);
    }

    /// Cortex-M33-class platform: the aligned-region backend with
    /// jurisdiction over peripheral space as the oracle — the painter must
    /// track the jurisdiction, not a hardcoded range set.
    #[test]
    fn cache_matches_oracle_on_the_cortex_m33_platform(
        ops in vec(op_strategy(), 1..60),
    ) {
        drive(PlatformSpec::cortex_m33(), &ops);
    }

    /// RISC-V PMP platform: the NAPOT backend (full user-mode
    /// jurisdiction, machine-mode bypass) as the oracle.
    #[test]
    fn cache_matches_oracle_on_the_riscv_pmp_platform(
        ops in vec(op_strategy(), 1..60),
    ) {
        drive(PlatformSpec::riscv_pmp(), &ops);
    }
}

/// The install op whose configuration is exactly `config`.
fn install_op(config: MpuConfig) -> Op {
    let op = match &config {
        MpuConfig::Segmented(regs) => Op::Segmented {
            b1: regs.mpusegb1,
            b2: regs.mpusegb2,
            sam: regs.mpusam,
            enable: regs.mpuctl0 & 1 != 0,
        },
        MpuConfig::Region(regs) => Op::Region {
            regions: regs
                .regions
                .iter()
                .map(|d| (d.range.start, d.range.end, d.perm.to_bits()))
                .collect(),
        },
        MpuConfig::Pmp(regs) => Op::Pmp {
            entries: regs
                .entries
                .iter()
                .map(|d| {
                    let k = (d.range.len() >> 3).trailing_zeros();
                    (d.range.start, k, d.perm.to_bits())
                })
                .collect(),
            user_mode: regs.user_mode,
        },
    };
    assert_eq!(mpu_config(&op).as_ref(), Some(&config), "{op:?}");
    op
}

/// The OS configuration and each app configuration the planner emits for
/// a fixed 3-app layout, on every built-in profile: the configurations a
/// fleet actually installs.
fn planned_states() -> Vec<(PlatformSpec, Vec<Op>)> {
    let apps = [
        AppImageSpec::new("A", 0x800, 0x200, 0x100),
        AppImageSpec::new("B", 0x600, 0x100, 0x80),
        AppImageSpec::new("C", 0x400, 0x180, 0x100),
    ];
    let mut states = Vec::new();
    for platform in builtin_platforms() {
        let map = MemoryMapPlanner::new(platform.clone())
            .unwrap()
            .plan(&OsImageSpec::default(), &apps)
            .unwrap();
        let plans = std::iter::once(MpuPlan::for_os_on(&map).unwrap())
            .chain((0..apps.len()).map(|i| MpuPlan::for_app_on(&map, i).unwrap()));
        for plan in plans {
            let op = install_op(plan.config(&platform.mpu));
            states.push((platform.clone(), vec![op]));
        }
    }
    states
}

/// Deterministic exhaustive sweep: for a handful of fixed configurations,
/// compare the cache against the oracle for **every** address in the
/// 64 KiB space and every access kind — no sampling gaps.  The planner's
/// configurations of all five profiles are swept too.
#[test]
fn cache_matches_oracle_exhaustively() {
    let mut configs: Vec<(PlatformSpec, Vec<Op>)> = vec![
        (PlatformSpec::msp430fr5969(), vec![]),
        (
            PlatformSpec::msp430fr5969(),
            vec![Op::Segmented {
                b1: 0x600,
                b2: 0x800,
                sam: 0x1024,
                enable: true,
            }],
        ),
        (
            PlatformSpec::msp430fr5994(),
            vec![Op::Region {
                regions: vec![(0x5000, 0x5400, 0x4), (0x5400, 0x5800, 0x3)],
            }],
        ),
        (
            PlatformSpec::cortex_m33(),
            vec![Op::Region {
                regions: vec![(0x5000, 0x5400, 0x4), (0x5400, 0x5800, 0x3)],
            }],
        ),
        (
            PlatformSpec::riscv_pmp(),
            // User mode with two NAPOT entries: everything else inside the
            // full jurisdiction — peripherals included — is denied.
            vec![Op::Pmp {
                entries: vec![(0x5000, 7, 0x4), (0x5400, 7, 0x3)],
                user_mode: true,
            }],
        ),
        (
            PlatformSpec::riscv_pmp(),
            // Machine mode: the PMP checks nothing.
            vec![Op::Pmp {
                entries: vec![],
                user_mode: false,
            }],
        ),
    ];
    configs.extend(planned_states());
    for (platform, setup) in configs {
        let mut cached = Bus::new(platform.clone());
        let mut direct = Bus::new(platform);
        direct.set_attr_cache_enabled(false);
        for op in &setup {
            apply(&mut cached, op).unwrap();
            apply(&mut direct, op).unwrap();
        }
        for addr in 0..0x1_0000u32 {
            let r = (
                cached.read(addr, 1).map_err(|e| e.cause),
                cached.write(addr, 1, 0xA5).map_err(|e| e.cause),
                cached.check_execute(addr).map_err(|e| e.cause),
            );
            let d = (
                direct.read(addr, 1).map_err(|e| e.cause),
                direct.write(addr, 1, 0xA5).map_err(|e| e.cause),
                direct.check_execute(addr).map_err(|e| e.cause),
            );
            assert_eq!(r, d, "divergence at {addr:#06x}");
        }
        assert_eq!(stats_tuple(&cached.stats), stats_tuple(&direct.stats));
    }
}

/// The `i`-th of a family of pairwise distinct MPU configurations for
/// `platform`'s backend, as an install op.
fn distinct_config(platform: &PlatformSpec, i: u32) -> Op {
    if platform.mpu.is_napot() {
        Op::Pmp {
            entries: vec![(0x5000 + 0x100 * i, 5, 0x3)],
            user_mode: true,
        }
    } else if platform.mpu.is_region_based() {
        Op::Region {
            regions: vec![(0x5000 + 0x100 * i, 0x5400 + 0x100 * i, 0x3)],
        }
    } else {
        Op::Segmented {
            b1: 0x450 + 0x10 * i as u16,
            b2: 0x800,
            sam: 0x0124,
            enable: true,
        }
    }
}

/// The attribute table a freshly built bus paints for `op`.
fn fresh_table(platform: &PlatformSpec, op: &Op) -> Vec<u8> {
    let mut bus = Bus::new(platform.clone());
    apply(&mut bus, op).unwrap();
    bus.attr_table().to_vec()
}

/// Cache-on and cache-off buses agree on a sweep of the address space and
/// on their counters.
fn assert_cache_matches_oracle(cached: &mut Bus, direct: &mut Bus, context: &str) {
    for addr in (0..0x1_0000u32).step_by(7) {
        let r = (
            cached.read(addr, 1).map_err(|e| e.cause),
            cached.write(addr, 1, 0x5A).map_err(|e| e.cause),
            cached.check_execute(addr & !1).map_err(|e| e.cause),
        );
        let d = (
            direct.read(addr, 1).map_err(|e| e.cause),
            direct.write(addr, 1, 0x5A).map_err(|e| e.cause),
            direct.check_execute(addr & !1).map_err(|e| e.cause),
        );
        assert_eq!(r, d, "{context}: divergence at {addr:#06x}");
    }
    assert_eq!(
        stats_tuple(&cached.stats),
        stats_tuple(&direct.stats),
        "{context}"
    );
}

/// The memo is bounded: past `MAX_ATTR_TABLES` distinct configurations
/// each new one evicts exactly one table, never the active one, and a
/// configuration installed again after its eviction repaints a table
/// identical to the first — with the cache on or off.
#[test]
fn the_memo_evicts_one_table_at_a_time_and_repaints_identically() {
    let cap = amulet_mcu::bus::MAX_ATTR_TABLES;
    for platform in [
        PlatformSpec::msp430fr5969(),
        PlatformSpec::msp430fr5994(),
        PlatformSpec::cortex_m33(),
        PlatformSpec::riscv_pmp(),
    ] {
        let name = platform.name.clone();
        let mut cached = Bus::new(platform.clone());
        let mut direct = Bus::new(platform.clone());
        direct.set_attr_cache_enabled(false);
        let configs: Vec<Op> = (0..cap as u32 + 8)
            .map(|i| distinct_config(&platform, i))
            .collect();
        let first_table = fresh_table(&platform, &configs[0]);
        for (i, op) in configs.iter().enumerate() {
            let before = cached.attr_memo_stats();
            apply(&mut cached, op).unwrap();
            apply(&mut direct, op).unwrap();
            let after = cached.attr_memo_stats();
            assert_eq!(
                after.paints,
                before.paints + 1,
                "{name} config {i}: one paint"
            );
            // The power-on table plus one per configuration fill the memo;
            // every configuration beyond evicts exactly one table.
            let expected_evictions = (i + 2).saturating_sub(cap) as u64;
            assert_eq!(after.evictions, expected_evictions, "{name} config {i}");
            assert_eq!(after.tables, (i + 2).min(cap), "{name} config {i}");
            assert_eq!(
                cached.attr_table().to_vec(),
                fresh_table(&platform, op),
                "{name} config {i}: the active table"
            );
        }

        // Eviction took the least recently used tables: the last `cap`
        // configurations are all still held — the active one included.
        for (i, op) in configs.iter().enumerate().skip(configs.len() - cap) {
            let before = cached.attr_memo_stats();
            apply(&mut cached, op).unwrap();
            apply(&mut direct, op).unwrap();
            assert_eq!(cached.attr_memo_stats(), before, "{name} config {i}: held");
        }
        assert_cache_matches_oracle(&mut cached, &mut direct, &name);

        // The first configuration was evicted: installing it again
        // repaints (one more eviction) an identical table.
        let before = cached.attr_memo_stats();
        apply(&mut cached, &configs[0]).unwrap();
        apply(&mut direct, &configs[0]).unwrap();
        let after = cached.attr_memo_stats();
        assert_eq!(after.paints, before.paints + 1, "{name}: repainted");
        assert_eq!(after.evictions, before.evictions + 1, "{name}");
        assert_eq!(
            cached.attr_table().to_vec(),
            first_table,
            "{name}: same table"
        );
        assert_cache_matches_oracle(&mut cached, &mut direct, &name);
    }
}

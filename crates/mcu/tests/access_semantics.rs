//! Pins the bus's access semantics on every built-in platform.
//!
//! For each platform and each of a fixed set of MPU states — power-on,
//! the OS and app configurations the planner emits for a fixed 3-app
//! layout, and the hand-written states of `prop_attr_cache.rs`'s
//! exhaustive sweep — every address of the 64 KiB space is read, written
//! and fetch-checked through the bus.  Every outcome, the final
//! [`BusStats`], the MPU's `Debug` form and a hash of memory fold into one
//! FNV-1a64 digest, which must be the same with the attribute cache on
//! and off.  A refactor of the bus or the MPU backends must keep it; it may
//! only change with a deliberate change of the simulated hardware, and the
//! failure message prints the new value to record.

use amulet_core::addr::AddrRange;
use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec, PlatformSpec};
use amulet_core::mpu_plan::{
    MpuConfig, MpuPlan, MpuRegisterValues, PmpRegisterValues, RegionDesc, RegionRegisterValues,
};
use amulet_core::perm::Perm;
use amulet_core::platform::builtin_platforms;
use amulet_core::serial::fnv1a64;
use amulet_mcu::bus::{Bus, BusFault, BusFaultCause};
use amulet_mcu::mpu::{MpuBackend, MpuRegisterError};

/// The digest of the whole sweep, recorded on the code it pins.
const PINNED: u64 = 0x7751_13ef_be8a_8083;

/// One byte per fault cause, so a sweep's transcript stays small.
fn cause_code(cause: BusFaultCause) -> u8 {
    match cause {
        BusFaultCause::MpuViolation => 1,
        BusFaultCause::Unmapped => 2,
        BusFaultCause::ReadOnly => 3,
        BusFaultCause::MpuRegisterProtocol(MpuRegisterError::BadPassword) => 4,
        BusFaultCause::MpuRegisterProtocol(MpuRegisterError::Locked) => 5,
        BusFaultCause::MpuRegisterProtocol(MpuRegisterError::Privileged) => 6,
        BusFaultCause::ForeignMpuConfig => 7,
        BusFaultCause::Misaligned => 8,
    }
}

/// Appends an access outcome to `transcript`: `0, lo, hi` for a value,
/// `1, cause` for a fault.
fn record(transcript: &mut Vec<u8>, outcome: Result<u16, BusFault>) {
    match outcome {
        Ok(v) => transcript.extend_from_slice(&[0, v as u8, (v >> 8) as u8]),
        Err(e) => transcript.extend_from_slice(&[1, cause_code(e.cause)]),
    }
}

/// The planner's OS configuration and one configuration per app for a
/// fixed 3-app layout on `platform`.
fn planned_configs(platform: &PlatformSpec) -> Vec<MpuConfig> {
    let apps = [
        AppImageSpec::new("A", 0x800, 0x200, 0x100),
        AppImageSpec::new("B", 0x600, 0x100, 0x80),
        AppImageSpec::new("C", 0x400, 0x180, 0x100),
    ];
    let map = MemoryMapPlanner::new(platform.clone())
        .unwrap()
        .plan(&OsImageSpec::default(), &apps)
        .unwrap();
    let os = MpuPlan::for_os_on(&map).unwrap();
    std::iter::once(os)
        .chain((0..apps.len()).map(|i| MpuPlan::for_app_on(&map, i).unwrap()))
        .map(|plan| plan.config(&platform.mpu))
        .collect()
}

/// The hand-written states of `prop_attr_cache.rs`'s exhaustive sweep,
/// one list per MPU shape.
fn hand_written_configs(bus: &Bus) -> Vec<MpuConfig> {
    let regions = |list: &[(u32, u32, u16)]| -> Vec<RegionDesc> {
        list.iter()
            .map(|&(start, end, perm)| RegionDesc {
                range: AddrRange::new(start, end),
                perm: Perm::from_bits(perm),
            })
            .collect()
    };
    match bus.mpu() {
        MpuBackend::Segmented(_) => vec![MpuConfig::Segmented(MpuRegisterValues {
            mpuctl0: 0xA501,
            mpusegb1: 0x600,
            mpusegb2: 0x800,
            mpusam: 0x1024,
        })],
        MpuBackend::Region(_) => vec![MpuConfig::Region(RegionRegisterValues {
            regions: regions(&[(0x5000, 0x5400, 0x4), (0x5400, 0x5800, 0x3)]),
        })],
        MpuBackend::Pmp(_) => vec![
            MpuConfig::Pmp(PmpRegisterValues {
                entries: regions(&[(0x5000, 0x5400, 0x4), (0x5400, 0x5800, 0x3)]),
                user_mode: true,
            }),
            MpuConfig::Pmp(PmpRegisterValues {
                entries: vec![],
                user_mode: false,
            }),
        ],
    }
}

/// Installs `config` (power-on when `None`) on a fresh bus and sweeps the
/// address space top down, so memory is swept under the installed state
/// before the sweep's own stores reach the MPU registers at the bottom;
/// returns the digest of the state's transcript.
fn sweep(platform: &PlatformSpec, config: Option<&MpuConfig>, cache: bool) -> u64 {
    let mut bus = Bus::new(platform.clone());
    bus.set_attr_cache_enabled(cache);
    let mut transcript = Vec::with_capacity(10 << 16);
    if let Some(config) = config {
        record(&mut transcript, bus.install_mpu_config(config).map(|()| 0));
    }
    for addr in (0..0x1_0000u32).rev() {
        let read = bus.read(addr, 1);
        record(&mut transcript, read);
        let written = bus.write(addr, 1, (addr as u16).wrapping_mul(0x9E37) >> 8);
        record(&mut transcript, written.map(|()| 0));
        let fetched = bus.check_execute(addr);
        record(&mut transcript, fetched.map(|()| 0));
    }
    transcript.extend_from_slice(format!("{:?}", bus.stats).as_bytes());
    transcript.extend_from_slice(format!("{:?}", bus.mpu()).as_bytes());
    let memory = bus.dump_bytes(AddrRange::new(0, 0x1_0000));
    transcript.extend_from_slice(&fnv1a64(&memory).to_le_bytes());
    fnv1a64(&transcript)
}

/// The digest of every state of every built-in platform.
fn digest(cache: bool) -> u64 {
    let mut states = Vec::new();
    for platform in builtin_platforms() {
        let bus = Bus::new(platform.clone());
        let configs: Vec<MpuConfig> = planned_configs(&platform)
            .into_iter()
            .chain(hand_written_configs(&bus))
            .collect();
        states.extend_from_slice(platform.name.as_bytes());
        states.extend_from_slice(&sweep(&platform, None, cache).to_le_bytes());
        for config in &configs {
            states.extend_from_slice(&sweep(&platform, Some(config), cache).to_le_bytes());
        }
    }
    fnv1a64(&states)
}

fn assert_pinned(cache: bool) {
    let digest = digest(cache);
    assert_eq!(
        digest, PINNED,
        "cache {cache}: access digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}

#[test]
fn access_semantics_are_pinned_with_the_cache_on() {
    assert_pinned(true);
}

#[test]
fn access_semantics_are_pinned_with_the_cache_off() {
    assert_pinned(false);
}

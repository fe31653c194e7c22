//! Format-hardening battery for the v1 firmware serialization.
//!
//! Four layers of defence, per DESIGN §6:
//!
//! 1. **Round-trip properties** — arbitrary *built* firmwares (assembled
//!    through [`FirmwareBuilder`] across all five platform profiles, so every
//!    image here is one the AFT could have produced) satisfy
//!    `decode(encode(x)) == x` structurally and
//!    `encode(decode(encode(x))) == encode(x)` byte-for-byte.
//! 2. **Corruption battery** — truncation at *every* prefix length and a
//!    single-bit flip at *every* bit position of an encoded envelope must
//!    return `Err(_)`.  A panic anywhere fails the test, and any accidental
//!    `Ok` is cross-checked against a fresh encoding so a decoded-but-wrong
//!    image can never slip through.
//! 3. **Golden bytes** — a checked-in fixture pins the v1 wire format; any
//!    encoder change that moves a byte fails loudly and demands a version
//!    bump, not a silent format fork.
//! 4. **Shrink regression** — a deliberately falsified size bound on a
//!    `prop_map`-built instruction stream must shrink to fewer than 10
//!    elements, proving the vendored proptest shrinks *through* `prop_map`
//!    (the counterexample quality this battery depends on).

use std::collections::BTreeMap;

use amulet_core::layout::OsImageSpec;
use amulet_core::serial::Reader;
use amulet_core::{
    builtin_platforms, fnv1a64, Addr, AppImageSpec, Codec, DecodeError, IsolationMethod, MemoryMap,
    MemoryMapPlanner, MpuPlan,
};
use amulet_mcu::{
    decode_firmware, encode_firmware, AluOp, AppBinary, Cond, Firmware, FirmwareBuilder, Instr,
    OsBinary, Reg, SymbolTable, UnaryOp, Width,
};
use proptest::collection::vec;
use proptest::prelude::*;

const METHODS: [IsolationMethod; 4] = [
    IsolationMethod::NoIsolation,
    IsolationMethod::FeatureLimited,
    IsolationMethod::Mpu,
    IsolationMethod::SoftwareOnly,
];

// ---------------------------------------------------------------------------
// Fixture construction: real images via the builder, never struct literals.
// ---------------------------------------------------------------------------

fn planned_map(platform_idx: usize) -> MemoryMap {
    let spec = builtin_platforms()[platform_idx].clone();
    MemoryMapPlanner::new(spec)
        .unwrap()
        .plan(
            &OsImageSpec::default(),
            &[
                AppImageSpec::new("A", 0x400, 0x100, 0x80),
                AppImageSpec::new("B", 0x200, 0x80, 0x80),
            ],
        )
        .unwrap()
}

fn os_binary(map: &MemoryMap) -> OsBinary {
    OsBinary {
        mpu_config: MpuPlan::for_os_on(map).unwrap().config(&map.platform.mpu),
        initial_sp: map.os_initial_stack_pointer(),
    }
}

fn app_binary(
    map: &MemoryMap,
    index: usize,
    handlers: SymbolTable,
    max_stack_estimate: Option<u32>,
) -> AppBinary {
    let placement = map.apps[index].clone();
    AppBinary {
        name: placement.name.clone(),
        index,
        initial_sp: placement.initial_stack_pointer(),
        mpu_config: MpuPlan::for_app_on(map, index)
            .unwrap()
            .config(&map.platform.mpu),
        placement,
        handlers,
        max_stack_estimate,
    }
}

/// Assemble a firmware the way the AFT would: app A carries the generated
/// instruction stream, app B a fixed stub, plus data + symbols.
fn build_firmware(
    platform_idx: usize,
    method: IsolationMethod,
    instrs: &[Instr],
    data: Vec<u8>,
    sym: u16,
    has_estimate: bool,
) -> Firmware {
    let map = planned_map(platform_idx);
    let mut b = FirmwareBuilder::new(method, map.clone(), os_binary(&map));

    let a_entry = map.apps[0].code.start;
    b.emit(a_entry, instrs);
    let b_entry = map.apps[1].code.start;
    b.emit(b_entry, &[Instr::Nop, Instr::Ret]);

    if !data.is_empty() {
        b.add_data(map.apps[0].data.start, data);
    }
    b.define_symbol("A::main", a_entry);
    b.define_symbol("scratch", Addr::from(sym));

    let mut a_handlers = BTreeMap::new();
    if !instrs.is_empty() {
        a_handlers.insert("on_timer".into(), a_entry);
    }
    let mut b_handlers = BTreeMap::new();
    b_handlers.insert("on_timer".into(), b_entry);

    let est = has_estimate.then_some(0x40);
    b.add_app(app_binary(&map, 0, a_handlers, est));
    b.add_app(app_binary(&map, 1, b_handlers, Some(0x20)));
    b.build().expect("generated firmware must validate")
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let reg = || (0u8..16).prop_map(Reg);
    let width = || any::<bool>().prop_map(|w| if w { Width::Word } else { Width::Byte });
    let alu_op = || {
        (0u8..8).prop_map(|n| {
            [
                AluOp::Add,
                AluOp::Sub,
                AluOp::And,
                AluOp::Or,
                AluOp::Xor,
                AluOp::Mul,
                AluOp::Div,
                AluOp::Rem,
            ][n as usize]
        })
    };
    prop_oneof![
        (reg(), any::<u16>()).prop_map(|(dst, imm)| Instr::MovImm { dst, imm }),
        (reg(), reg()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        (reg(), reg(), -64i16..64, width()).prop_map(|(dst, base, offset, width)| Instr::Load {
            dst,
            base,
            offset,
            width
        }),
        (reg(), reg(), -64i16..64, width()).prop_map(|(src, base, offset, width)| Instr::Store {
            src,
            base,
            offset,
            width
        }),
        reg().prop_map(|src| Instr::Push { src }),
        reg().prop_map(|dst| Instr::Pop { dst }),
        (alu_op(), reg(), reg()).prop_map(|(op, dst, src)| Instr::Alu { op, dst, src }),
        (alu_op(), reg(), any::<u16>()).prop_map(|(op, dst, imm)| Instr::AluImm { op, dst, imm }),
        (0u8..15, reg()).prop_map(|(n, r)| Instr::Unary {
            op: UnaryOp::Shl(n),
            reg: r
        }),
        (reg(), reg()).prop_map(|(a, b)| Instr::Cmp { a, b }),
        (any::<u16>()).prop_map(|target| Instr::Jcc {
            cond: Cond::Ne,
            target
        }),
        any::<u16>().prop_map(|num| Instr::Syscall { num }),
        Just(Instr::Ret),
        Just(Instr::Nop),
        Just(Instr::Halt),
    ]
}

// ---------------------------------------------------------------------------
// 1. Round-trip properties over all five platforms.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode(encode(x)) == x` structurally, and re-encoding the decoded
    /// image is byte-identical — the format is canonical, not just stable.
    #[test]
    fn built_firmwares_survive_encode_and_decode(
        platform_idx in 0usize..5,
        method_idx in 0usize..4,
        instrs in vec(instr_strategy(), 0..48),
        data in vec(any::<u8>(), 0..64),
        sym in any::<u16>(),
        has_estimate in any::<bool>(),
    ) {
        let fw = build_firmware(
            platform_idx,
            METHODS[method_idx],
            &instrs,
            data,
            sym,
            has_estimate,
        );
        let bytes = encode_firmware("prop|roundtrip", &fw);
        let decoded = decode_firmware(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let (key, back) = decoded.unwrap();
        prop_assert_eq!(key.as_str(), "prop|roundtrip");
        prop_assert_eq!(&back, &fw);
        prop_assert_eq!(encode_firmware("prop|roundtrip", &back), bytes);
    }
}

// ---------------------------------------------------------------------------
// 2. Corruption battery: totality under truncation and bit flips.
// ---------------------------------------------------------------------------

/// One representative encoded envelope per platform profile.
fn battery_fixtures() -> Vec<Vec<u8>> {
    (0..builtin_platforms().len())
        .map(|p| {
            let fw = build_firmware(
                p,
                METHODS[p % METHODS.len()],
                &[
                    Instr::MovImm {
                        dst: Reg::R4,
                        imm: 7,
                    },
                    Instr::Push { src: Reg::R4 },
                    Instr::Syscall { num: 2 },
                    Instr::Ret,
                ],
                vec![0xAB, 0xCD, 0xEF],
                0x2400,
                true,
            );
            encode_firmware("battery|fixture", &fw)
        })
        .collect()
}

/// Truncating an envelope at any strict prefix must yield a typed error.
#[test]
fn truncation_at_every_prefix_is_refused() {
    for bytes in battery_fixtures() {
        for len in 0..bytes.len() {
            let got = decode_firmware(&bytes[..len]);
            assert!(
                got.is_err(),
                "decode accepted a {len}-byte prefix of a {}-byte envelope",
                bytes.len()
            );
        }
    }
}

/// Flipping any single bit anywhere in the envelope must yield `Err(_)` —
/// the FNV-1a round `h = (h ^ b) * prime` is injective modulo 2^64 (the
/// prime is odd), so no single-bit change can leave the content hash fixed.
/// If a flip ever *were* accepted, the decoded image is re-encoded and
/// compared so a silently-wrong firmware still fails the test.
#[test]
fn every_single_bit_flip_is_refused() {
    for bytes in battery_fixtures() {
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte_idx] ^= 1 << bit;
                match decode_firmware(&corrupt) {
                    Err(_) => {}
                    Ok((key, fw)) => {
                        // Defence in depth: prove the image is not wrong.
                        assert_eq!(
                            encode_firmware(&key, &fw),
                            bytes,
                            "bit flip at byte {byte_idx} bit {bit} decoded to a \
                             different image without an error"
                        );
                        panic!(
                            "bit flip at byte {byte_idx} bit {bit} was accepted \
                             (hash failed to detect it)"
                        );
                    }
                }
            }
        }
    }
}

/// The corruption battery's error taxonomy is reachable: each guard in the
/// envelope (magic, version, hash, payload length, trailing bytes) reports
/// its own typed error rather than a generic failure.
#[test]
fn envelope_guards_report_typed_errors() {
    let bytes = battery_fixtures().remove(0);

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        decode_firmware(&bad_magic),
        Err(DecodeError::BadMagic)
    ));

    let mut bad_version = bytes.clone();
    bad_version[4] = 0xFF;
    bad_version[5] = 0xFF;
    assert!(matches!(
        decode_firmware(&bad_version),
        Err(DecodeError::UnsupportedVersion { version: 0xFFFF })
    ));

    let mut bad_body = bytes.clone();
    let last = bad_body.len() - 1;
    bad_body[last] ^= 0x01;
    assert!(matches!(
        decode_firmware(&bad_body),
        Err(DecodeError::HashMismatch { .. })
    ));

    assert!(matches!(
        decode_firmware(&[]),
        Err(DecodeError::UnexpectedEof { .. })
    ));
}

/// An opcode byte that names no instruction is refused with a typed error.
/// Tag 23 once encoded the check-elision placeholder, which is gone; it
/// must decode exactly like any other unknown opcode.
#[test]
fn unknown_instruction_opcodes_are_refused() {
    for tag in [23u8, 0xFF] {
        let bytes = [tag, 4, 4];
        let got = <Instr as Codec>::decode(&mut Reader::new(&bytes));
        assert!(
            matches!(
                got,
                Err(DecodeError::BadTag {
                    what: "instruction opcode",
                    tag: t,
                }) if t == tag
            ),
            "opcode {tag}: {got:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Golden bytes: the v1 wire format is pinned by a checked-in fixture.
// ---------------------------------------------------------------------------

fn golden_firmware() -> Firmware {
    build_firmware(
        0, // msp430fr5969
        IsolationMethod::Mpu,
        &[
            Instr::MovImm {
                dst: Reg::R4,
                imm: 0x1234,
            },
            Instr::Mov {
                dst: Reg::R5,
                src: Reg::R4,
            },
            Instr::AluImm {
                op: AluOp::Add,
                dst: Reg::R5,
                imm: 1,
            },
            Instr::Push { src: Reg::R5 },
            Instr::Syscall { num: 3 },
            Instr::Ret,
        ],
        vec![0x01, 0x02, 0x03, 0x04],
        0x2400,
        true,
    )
}

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/firmware_v1.bin");

/// FNV-1a64 of the canonical golden envelope.  If this assertion fires you
/// have changed the v1 wire format: bump `FORMAT_VERSION`, add a migration,
/// and regenerate the fixture with `BLESS_GOLDEN=1 cargo test -p amulet-mcu
/// golden` — do *not* just update the constant.
const GOLDEN_FNV: u64 = 0x75f4_72b9_e0a8_a4e1;

#[test]
fn golden_v1_fixture_is_byte_stable() {
    let bytes = encode_firmware("golden|v1", &golden_firmware());
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden fixture");
    }
    assert_eq!(
        fnv1a64(&bytes),
        GOLDEN_FNV,
        "encoder output changed — the v1 format is frozen; bump FORMAT_VERSION"
    );
    let fixture =
        std::fs::read(GOLDEN_PATH).expect("golden fixture missing; regenerate with BLESS_GOLDEN=1");
    assert_eq!(
        bytes, fixture,
        "encoder output no longer matches the checked-in v1 fixture"
    );
    let (key, fw) = decode_firmware(&fixture).expect("golden fixture must decode");
    assert_eq!(key, "golden|v1");
    assert_eq!(fw, golden_firmware());
}

// ---------------------------------------------------------------------------
// 4. Shrink regression: counterexamples shrink through `prop_map`.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Deliberately falsified: 4-byte count prefix + 3 bytes per (addr, tag)
    // entry means any stream of >= 7 instructions breaks the bound.  Declared
    // without `#[test]` — driven by the harness test below, which inspects
    // the shrunk counterexample.
    fn encoded_streams_stay_tiny(
        placed in vec(
            prop_oneof![Just(Instr::Nop), Just(Instr::Ret), Just(Instr::Halt)],
            0..40,
        )
        .prop_map(|instrs| {
            instrs
                .into_iter()
                .enumerate()
                .map(|(k, i)| (0x4400 + 2 * k as Addr, i))
                .collect::<Vec<(Addr, Instr)>>()
        }),
    ) {
        let store: amulet_mcu::InstrStore = placed.iter().cloned().collect();
        let bytes = amulet_core::Codec::to_bytes(&store);
        prop_assert!(
            bytes.len() <= 24,
            "encoded stream is {} bytes for {} instructions",
            bytes.len(),
            placed.len()
        );
    }
}

/// The falsified property above must report a *minimal* counterexample: the
/// vendored proptest shrinks `prop_map` outputs through their recorded
/// pre-image, so the 0..40-element stream must collapse to the smallest
/// failing size (7 elements) — well under the 10-element ceiling this
/// battery requires for debuggable serialization failures.
#[test]
fn serialization_counterexamples_shrink_below_ten_elements() {
    let err = std::panic::catch_unwind(encoded_streams_stay_tiny)
        .expect_err("falsified size bound must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string");
    let minimal = msg
        .split("minimal arguments:")
        .nth(1)
        .expect("failure report must include the minimal arguments section");
    let elements = minimal.matches("Nop").count()
        + minimal.matches("Ret").count()
        + minimal.matches("Halt").count();
    assert!(
        elements < 10,
        "counterexample did not shrink below 10 elements ({elements}):\n{msg}"
    );
    assert_eq!(
        elements, 7,
        "greedy shrink should reach the exact boundary (7 elements):\n{msg}"
    );
}

//! Property tests for the MPU hardware model: segment decoding is total over
//! the covered range, the permission query is pure and a denial latches its
//! segment's flag, and the register file round-trips arbitrary
//! configurations.

use amulet_core::perm::{AccessKind, Perm};
use amulet_mcu::mpu::{Mpu, MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use proptest::prelude::*;

fn access_strategy() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Execute),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any boundary configuration and any address, `allows` changes
    /// no state, latching a denial sets a flag, and addresses outside
    /// FRAM/InfoMem are never policed.
    #[test]
    fn query_is_pure_and_a_denial_latches_a_flag(
        b1_units in 0x440u16..0xFF8,
        b2_units in 0x440u16..0xFF8,
        sam in any::<u16>(),
        addr in 0u32..0x1_0000,
        kind in access_strategy(),
    ) {
        let mut mpu = Mpu::msp430fr5969();
        mpu.write_register(MPUSEGB1, b1_units.min(b2_units)).unwrap();
        mpu.write_register(MPUSEGB2, b1_units.max(b2_units)).unwrap();
        mpu.write_register(MPUSAM, sam).unwrap();
        mpu.write_register(MPUCTL0, 0xA501).unwrap();

        let before = format!("{mpu:?}");
        let permitted = mpu.allows(addr, kind);
        prop_assert_eq!(format!("{mpu:?}"), before);
        if !permitted {
            mpu.latch_violation(addr);
        }
        match mpu.segment_of(addr) {
            // SRAM, peripherals, BSL and vectors are never covered.
            None => prop_assert!(permitted),
            Some(seg) => {
                prop_assert_eq!(permitted, mpu.segment_perm(seg).allows(kind.required_perm()));
                prop_assert_eq!(mpu.violation_flags != 0, !permitted);
            }
        }
    }

    /// Register writes round-trip: reading back SEGB1/SEGB2/SAM returns what
    /// was written, and the permission nibbles decode consistently.
    #[test]
    fn register_file_roundtrips(
        b1 in 0x440u16..0xFF8,
        b2 in 0x440u16..0xFF8,
        sam in any::<u16>(),
    ) {
        let mut mpu = Mpu::msp430fr5969();
        mpu.write_register(MPUSEGB1, b1).unwrap();
        mpu.write_register(MPUSEGB2, b2).unwrap();
        mpu.write_register(MPUSAM, sam & 0x7777).unwrap();
        prop_assert_eq!(mpu.read_register(MPUSEGB1), b1);
        prop_assert_eq!(mpu.read_register(MPUSEGB2), b2);
        prop_assert_eq!(mpu.read_register(MPUSAM), sam & 0x7777);
        prop_assert_eq!(mpu.seg1, Perm::from_bits(sam & 0x7));
        prop_assert_eq!(mpu.seg2, Perm::from_bits((sam >> 4) & 0x7));
        prop_assert_eq!(mpu.seg3, Perm::from_bits((sam >> 8) & 0x7));
    }

    /// A disabled MPU never denies anything, whatever was previously
    /// configured.
    #[test]
    fn disabled_mpu_is_permissive(
        addr in 0u32..0x1_0000,
        kind in access_strategy(),
        sam in any::<u16>(),
    ) {
        let mut mpu = Mpu::msp430fr5969();
        mpu.write_register(MPUSAM, sam).unwrap();
        // Never enabled.
        prop_assert!(mpu.allows(addr, kind));
    }
}

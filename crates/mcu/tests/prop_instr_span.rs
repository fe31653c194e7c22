//! The instruction store holds only its occupied span.  These properties
//! check it against a `BTreeMap` model of the inserts: random inserts
//! (slot 0, the top slot `0xFFFE`, replacements and out-of-order
//! addresses, so the span grows at both ends) must give the model's
//! answer from the point lookups `get`, `fetch` and `contains` at every
//! even and odd address of the 64 KiB space (inside the span, in its
//! holes and outside it), and the same `iter`, `range`, `first`, `last`,
//! `len` and `Codec` encoding (whose decoding gives back an equal store);
//! equal contents must compare equal however they were inserted.

use std::collections::BTreeMap;

use amulet_core::serial::Writer;
use amulet_core::{Addr, Codec};
use amulet_mcu::{Instr, InstrStore, Reg};
use proptest::collection::vec;
use proptest::prelude::*;

/// Word indices: the two edges of the address space, anywhere, and a narrow
/// cluster that makes replacements common.
fn slot_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(0x7FFFu32), 0u32..0x8000, 0x2200u32..0x2210]
}

/// Instructions whose immediates tell a replacement from the original.
fn instr_strategy() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Ret),
        any::<u16>().prop_map(|imm| Instr::MovImm { dst: Reg::R4, imm }),
    ]
}

fn build(pairs: &[(u32, Instr)]) -> InstrStore {
    pairs.iter().map(|&(slot, i)| (slot << 1, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_and_scans_match_a_btreemap_model(
        pairs in vec((slot_strategy(), instr_strategy()), 0..40),
        bounds in vec((0u32..0x1_0003, 0u32..0x1_0003), 6),
    ) {
        let store = build(&pairs);
        let model: BTreeMap<Addr, Instr> =
            pairs.iter().map(|&(slot, i)| (slot << 1, i)).collect();
        for addr in 0..0x1_0000u32 {
            let expected = model.get(&addr).copied();
            prop_assert_eq!(store.get(addr), expected, "get {:#06x}", addr);
            prop_assert_eq!(store.contains(addr), expected.is_some());
            prop_assert_eq!(
                store
                    .fetch(addr)
                    .map(|(i, m)| (i, m.size_bytes(), m.base_cycles(), m.touches_data_memory())),
                expected.map(|i| (i, i.size_bytes(), i.base_cycles(), i.touches_data_memory())),
                "fetch {:#06x}",
                addr
            );
        }
        let oracle: Vec<(Addr, Instr)> = model.into_iter().collect();

        prop_assert_eq!(store.iter().collect::<Vec<_>>(), oracle.clone());
        prop_assert_eq!(store.len(), oracle.len());
        prop_assert_eq!(store.is_empty(), oracle.is_empty());
        prop_assert_eq!(store.first(), oracle.first().copied());
        prop_assert_eq!(store.last(), oracle.last().copied());

        // Odd, empty, reversed and past-the-end bounds alike.
        let mut all_bounds = bounds.clone();
        all_bounds.extend([(0, 0x1_0000), (0, 0), (0xFFFE, 0x1_0000), (1, 3)]);
        for (start, end) in all_bounds {
            let expected: Vec<(Addr, Instr)> = oracle
                .iter()
                .filter(|(a, _)| start <= *a && *a < end)
                .copied()
                .collect();
            prop_assert_eq!(
                store.range(start..end).collect::<Vec<_>>(),
                expected,
                "range {:#x}..{:#x}",
                start,
                end
            );
        }

        let mut w = Writer::new();
        w.usize(oracle.len());
        for (addr, instr) in &oracle {
            w.u16(*addr as u16);
            instr.encode(&mut w);
        }
        let bytes = w.into_bytes();
        prop_assert_eq!(store.to_bytes(), bytes.clone());
        prop_assert_eq!(InstrStore::from_bytes(&bytes).unwrap(), store);
    }

    #[test]
    fn equal_contents_compare_equal_in_any_insert_order(
        pairs in vec((slot_strategy(), instr_strategy()), 0..40),
        rotate in 0usize..40,
    ) {
        // The final contents, last write winning, inserted once each in a
        // different order than the original (replacing) sequence.
        let last: BTreeMap<u32, Instr> = pairs.iter().copied().collect();
        let mut reordered: Vec<(u32, Instr)> = last.into_iter().rev().collect();
        if !reordered.is_empty() {
            let k = rotate % reordered.len();
            reordered.rotate_left(k);
        }
        let a = build(&pairs);
        let b = build(&reordered);
        prop_assert!(a == b, "{:?} != {:?}", a, b);
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
    }
}

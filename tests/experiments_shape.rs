//! Integration tests asserting the *shape* of every experiment in the
//! paper's evaluation section — who wins, by roughly what factor, and where
//! the crossovers fall — as reproduced by the benchmark harness.
//!
//! Each test also pins the FNV-1a64 digest of the figure's rendered text,
//! so a refactor of the models underneath keeps every printed byte.  A digest
//! may only change with a deliberate change to a model or a renderer; the
//! failure message prints the new value to record.

use amulet_iso::core::method::IsolationMethod;
use amulet_iso::core::serial::fnv1a64;

fn assert_pinned(label: &str, text: &str, pinned: u64) {
    let digest = fnv1a64(text.as_bytes());
    assert_eq!(
        digest, pinned,
        "{label}: rendered digest {digest:#018x}, pinned {pinned:#018x}"
    );
}

/// Table 1 shape: per-operation costs keep the paper's orderings, and the
/// MPU method needs half as many pointer checks as Software Only.
#[test]
fn table1_shape() {
    let rows = amulet_bench::table1::measure(20);
    assert_pinned(
        "table1",
        &amulet_bench::table1::render(&rows),
        0x3ffe_e8fc_ec81_a1fa,
    );
    let get = |m| rows.iter().find(|r| r.method == m).unwrap();
    let none = get(IsolationMethod::NoIsolation);
    let fl = get(IsolationMethod::FeatureLimited);
    let mpu = get(IsolationMethod::Mpu);
    let sw = get(IsolationMethod::SoftwareOnly);

    // Memory access: No Isolation < MPU < Software Only < Feature Limited.
    assert!(none.memory_access_cycles < mpu.memory_access_cycles);
    assert!(mpu.memory_access_cycles < sw.memory_access_cycles);
    assert!(sw.memory_access_cycles < fl.memory_access_cycles);

    // Context switch: baseline methods tie, Software Only pays a small stack
    // premium, the MPU method pays the reconfiguration premium on top.
    assert!((none.context_switch_cycles - fl.context_switch_cycles).abs() < 1.0);
    assert!(sw.context_switch_cycles > none.context_switch_cycles);
    assert!(mpu.context_switch_cycles > sw.context_switch_cycles + 20.0);

    // And the analytic model reproduces the paper's exact Table 1 values.
    for r in &rows {
        assert_eq!(r.analytic_memory_access, r.paper_memory_access);
        assert_eq!(r.analytic_context_switch, r.paper_context_switch);
    }
}

/// Figure 2 shape: every one of the nine applications stays below 0.5 %
/// battery impact under both the MPU and Software Only methods, and the
/// computation-heavy apps prefer MPU while the API-heavy logger prefers
/// Software Only.
#[test]
fn figure2_shape() {
    let rows = amulet_bench::fig2::compute();
    let text = format!(
        "{}\n{}\n",
        amulet_bench::fig2::render(&rows),
        amulet_bench::fig2::arp_view()
    );
    assert_pinned("fig2", &text, 0x562f_cc0e_b706_2f06);
    assert_eq!(rows.len(), 27, "nine apps × three isolating methods");
    for r in &rows {
        assert!(
            r.battery_impact_percent < 0.5,
            "{}: {}%",
            r.app,
            r.battery_impact_percent
        );
    }
    let g = |app: &str, m| {
        rows.iter()
            .find(|r| r.app == app && r.method == m)
            .unwrap()
            .billions_of_cycles_per_week
    };
    for compute_heavy in ["Pedometer", "FallDetection", "HR"] {
        assert!(
            g(compute_heavy, IsolationMethod::Mpu)
                < g(compute_heavy, IsolationMethod::SoftwareOnly),
            "{compute_heavy} should favour the MPU method"
        );
        assert!(
            g(compute_heavy, IsolationMethod::Mpu)
                < g(compute_heavy, IsolationMethod::FeatureLimited),
            "{compute_heavy} should beat Feature Limited under MPU"
        );
    }
    assert!(
        g("HRLog", IsolationMethod::SoftwareOnly) < g("HRLog", IsolationMethod::Mpu),
        "the API-heavy logger should favour Software Only"
    );
}

/// Figure 3 shape: for the memory-access-dominated benchmarks the MPU method
/// has the lowest slowdown of the isolating methods, and all slowdowns stay
/// within the figure's 0–50 % range.
#[test]
fn figure3_shape() {
    let rows = amulet_bench::fig3::measure(20);
    assert_pinned(
        "fig3",
        &amulet_bench::fig3::render(&rows),
        0xa430_c53c_a39c_6228,
    );
    for workload in ["Activity Case 1", "Activity Case 2", "Quicksort"] {
        let get = |m| {
            rows.iter()
                .find(|r| r.workload == workload && r.method == m)
                .unwrap()
                .slowdown_percent
        };
        let mpu = get(IsolationMethod::Mpu);
        let sw = get(IsolationMethod::SoftwareOnly);
        let fl = get(IsolationMethod::FeatureLimited);
        assert_eq!(get(IsolationMethod::NoIsolation), 0.0);
        assert!(mpu > 0.0, "{workload}: isolation is not free");
        assert!(
            mpu < sw,
            "{workload}: MPU ({mpu}%) beats Software Only ({sw}%)"
        );
        assert!(
            mpu < fl,
            "{workload}: MPU ({mpu}%) beats Feature Limited ({fl}%)"
        );
        for v in [mpu, sw, fl] {
            assert!(
                v < 120.0,
                "{workload}: slowdown {v}% is within a plausible range"
            );
        }
    }
}

/// Ablation shapes: zeroing a shared stack is far more expensive than
/// dedicated per-app stacks, and an advanced MPU would remove most of the
/// check overhead for compute-heavy workloads.
#[test]
fn ablation_shapes() {
    let stacks = amulet_bench::ablation::stack_ablation(30);
    assert_pinned(
        "stack ablation",
        &amulet_bench::ablation::render_stack_ablation(&stacks),
        0x2702_6ea5_fbfc_a8a7,
    );
    assert!(stacks[2].cycles_per_event > stacks[0].cycles_per_event);
    assert!(stacks[2].cycles_per_event > 2.0 * stacks[1].cycles_per_event);

    let adv = amulet_bench::ablation::advanced_mpu_ablation(5);
    assert_pinned(
        "advanced-MPU ablation",
        &amulet_bench::ablation::render_advanced_mpu(&adv),
        0x87bb_1a5e_88ad_7cef,
    );
    let quick = adv.iter().find(|r| r.workload == "Quicksort").unwrap();
    assert!(quick.advanced_mpu_slowdown_percent < quick.mpu_slowdown_percent);
    assert!(quick.check_share_percent > 50.0);
}

/// The platform comparison document is pinned byte for byte: it is the one
/// report that runs every model on every built-in platform.
#[test]
fn platform_compare_document_is_pinned() {
    use amulet_bench::platform_compare::{compare, render_json};
    assert_pinned(
        "platform_compare",
        &render_json(&compare()),
        0xe973_3a12_6428_86fc,
    );
}

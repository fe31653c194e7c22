//! Ablation A: per-app stacks vs a shared stack that must be zeroed on every
//! app change (§3 design decision).
//!
//! Usage: `cargo run -p amulet-bench --bin ablation_stacks [events]` (default
//! 200, at least 1).

fn main() {
    let events: u32 = amulet_bench::cli::count_arg("usage: ablation_stacks [events >= 1]", 200, 1);
    let rows = amulet_bench::ablation::stack_ablation(events);
    print!("{}", amulet_bench::ablation::render_stack_ablation(&rows));
}

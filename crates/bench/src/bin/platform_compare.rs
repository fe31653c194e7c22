//! Emits the cross-platform comparison (per-method costs, measured switch
//! cycles, catalogue packing and battery impact on every built-in platform
//! profile) as JSON on stdout.
//!
//! Usage: `cargo run -p amulet-bench --bin platform_compare` (no arguments).

fn main() {
    amulet_bench::cli::no_args("usage: platform_compare");
    let rows = amulet_bench::platform_compare::compare();
    print!("{}", amulet_bench::platform_compare::render_json(&rows));
}

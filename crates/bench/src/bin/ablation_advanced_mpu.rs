//! Ablation B: how much of the MPU method's slowdown an "advanced MPU"
//! (4+ regions, full coverage — §5 future work) would remove.
//!
//! Usage: `cargo run -p amulet-bench --bin ablation_advanced_mpu [iterations]`
//! (default 50, at least 1).

fn main() {
    let iterations: u16 =
        amulet_bench::cli::count_arg("usage: ablation_advanced_mpu [iterations >= 1]", 50, 1);
    let rows = amulet_bench::ablation::advanced_mpu_ablation(iterations);
    print!("{}", amulet_bench::ablation::render_advanced_mpu(&rows));
}

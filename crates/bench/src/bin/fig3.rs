//! Regenerates Figure 3 of the paper: percentage slowdown of the benchmark
//! applications under each memory-isolation method.
//!
//! Usage: `cargo run -p amulet-bench --bin fig3 [iterations]` (default 200,
//! at least 1).

fn main() {
    let iterations: u16 = amulet_bench::cli::count_arg("usage: fig3 [iterations >= 1]", 200, 1);
    let rows = amulet_bench::fig3::measure(iterations);
    print!("{}", amulet_bench::fig3::render(&rows));
}

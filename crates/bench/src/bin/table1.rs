//! Regenerates Table 1 of the paper on the simulated device.
//!
//! Usage: `cargo run -p amulet-bench --bin table1 [rounds]` (default 200,
//! at least 2: each cost is the difference of a long and a 1-round run).

fn main() {
    let rounds: u16 = amulet_bench::cli::count_arg("usage: table1 [rounds >= 2]", 200, 2);
    let rows = amulet_bench::table1::measure(rounds);
    print!("{}", amulet_bench::table1::render(&rows));
}

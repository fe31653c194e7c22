//! Regenerates Figure 2 of the paper: weekly isolation overhead and battery
//! impact for the nine Amulet applications.
//!
//! Usage: `cargo run -p amulet-bench --bin fig2` (no arguments).

fn main() {
    amulet_bench::cli::no_args("usage: fig2");
    let rows = amulet_bench::fig2::compute();
    print!("{}", amulet_bench::fig2::render(&rows));
    println!();
    println!("{}", amulet_bench::fig2::arp_view());
}

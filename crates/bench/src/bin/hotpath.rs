//! Hot-path bench: instruction-execution microbench (attribute cache on vs
//! off), fleet devices/second and the check-elision comparison (the
//! Software-Only catalogue with and without verifier-certified checks),
//! emitted as `BENCH_hotpath.json` — both on stdout and to the file.
//!
//! Usage: `cargo run -p amulet-bench --bin hotpath --release
//! [instructions] [fleet_devices] [fleet_events] [fleet_workers]
//! [elision_rounds]`
//! (defaults: 20 M instructions, 1000 devices, 120 events, 1 worker — the
//! same shape as the recorded pre-optimisation baseline — and 2000
//! elision rounds).  An argument that is not a non-negative integer, a
//! zero count of instructions, fleet devices, fleet workers or elision
//! rounds (nothing would be measured), or a sixth argument, is rejected
//! with exit code 2.  Zero fleet events is valid: devices still boot.

use amulet_bench::hotpath;

const USAGE: &str = "usage: hotpath [instructions] [fleet_devices] [fleet_events] \
     [fleet_workers] [elision_rounds]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 5 {
        fail(&format!("unexpected argument {:?}", args[5]));
    }
    let arg = |i: usize, d: u64| -> u64 {
        args.get(i).map_or(d, |s| {
            s.parse()
                .unwrap_or_else(|_| fail(&format!("not a number: {s:?}")))
        })
    };
    // A count that sizes a measured population: zero would print a rate
    // for nothing.
    let count = |i: usize, name: &str, d: u64| -> u64 {
        match arg(i, d) {
            0 => fail(&format!("{name} must be at least 1")),
            n => n,
        }
    };
    let instructions = count(0, "instructions", 20_000_000);
    let fleet_devices = count(
        1,
        "fleet_devices",
        hotpath::BASELINE_FLEET_SCENARIO.0 as u64,
    ) as usize;
    let fleet_events = arg(2, hotpath::BASELINE_FLEET_SCENARIO.1 as u64) as usize;
    let fleet_workers = count(
        3,
        "fleet_workers",
        hotpath::BASELINE_FLEET_SCENARIO.2 as u64,
    ) as usize;
    let elision_rounds = count(4, "elision_rounds", 2000) as usize;

    assert!(
        hotpath::verify_equivalence(100_000),
        "attribute cache disagrees with the direct MPU path"
    );

    let cached = hotpath::run_microbench(instructions, true);
    let direct = hotpath::run_microbench(instructions, false);
    let fleet = hotpath::run_fleet(fleet_devices, fleet_events, fleet_workers);
    let elision = hotpath::run_check_elision(elision_rounds);
    assert!(
        elision.outcomes_identical,
        "check elision changed a dynamic outcome; the numbers are untrustworthy"
    );

    let json = hotpath::render_json(&cached, &direct, &fleet, &elision);
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_hotpath.json", &json) {
        eprintln!("warning: could not write BENCH_hotpath.json: {e}");
    } else {
        eprintln!(
            "wrote BENCH_hotpath.json ({:.1} M instr/s cached, {:.1} M instr/s direct, {:.0} devices/s = {:.2}x baseline, elision -{:.1}% retired = {:.2}x workload)",
            cached.instr_per_second / 1e6,
            direct.instr_per_second / 1e6,
            fleet.devices_per_second,
            fleet.devices_per_second / hotpath::BASELINE_FLEET_DEVICES_PER_SECOND,
            elision.instr_retired_drop_percent(),
            elision.workload_speedup(),
        );
    }
}

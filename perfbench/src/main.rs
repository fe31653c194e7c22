//! `perfbench --workload <dense|scaling|storm> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it prints the end-to-end metrics (`devices_per_s`,
//! `sim_mcycles_per_s`, `peak_rss_mb`, `setup_s`); with `--trace 1` the
//! per-layer metrics of the traced one-worker replay.  Every campaign's
//! report document is checked, and the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--digest` prints the document digest of one campaign instead of
//! measuring, which is how the pins in `workloads.rs` are produced.

use amulet_perfbench::measure::{self, Outcome};
use amulet_perfbench::workloads::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut digest = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--digest" {
            digest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        digest,
    })
}

/// One JSON number: Rust's shortest round-trip form, which never uses an
/// exponent and so is always valid JSON for a finite value.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn result_line(out: &Outcome) -> Result<String, String> {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value)?,
                m.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let devices = args.workload.devices();
    let scenario = args.workload.scenario(args.seed, devices);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.digest {
        let store = amulet_fleet::FirmwareStore::for_scenario(&scenario);
        let summary = amulet_fleet::simulate_summary_in(&scenario, workers, &store);
        let doc = measure::document(&scenario, &summary.aggregate);
        println!(
            "{} {:#x} {} {:#018x}",
            args.workload.name(),
            args.seed,
            devices,
            measure::digest(&doc)
        );
        return Ok(());
    }
    println!(
        "perfbench: workload {} seed {:#x} devices {} nproc {workers} trace {}",
        args.workload.name(),
        args.seed,
        devices,
        u8::from(args.trace)
    );
    for line in measure::table1_reference() {
        println!("{line}");
    }
    let out = if args.trace {
        measure::traced(args.workload, &scenario, args.seconds)?
    } else {
        measure::end_to_end(args.workload, &scenario, workers, args.seconds)?
    };
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

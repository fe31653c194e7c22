//! Fleet-scale simulation bench: simulates one seeded device fleet and
//! prints the aggregate report (energy distribution, switch-overhead share,
//! fault counts, battery-impact histograms, and the per-event vs batched
//! delivery comparison) as one JSON document on stdout.  It writes no
//! file; the committed `BENCH_fleet.json` is
//! `fleet_sim --preset scaling --devices 100000 --summary > BENCH_fleet.json`.
//!
//! Usage (positional form, kept for compatibility):
//! `fleet_sim [devices] [workers] [events_per_device] [seed] [mode]`
//! (defaults: 1000 devices, one worker per host core, 120 events, the
//! scenario's default seed, `arrival-order`).
//!
//! Flag form (mixable with positionals; flags win):
//! `--devices N --workers N --events N --seed N --mode arrival-order|stepped
//!  --silent-permille N --preset scaling --summary`
//!
//! * `--preset scaling` starts from [`FleetScenario::scaling`] — the
//!   mostly-silent, windowed campaign of the committed report — before
//!   the other flags apply.  `--preset storm` starts from
//!   [`FleetScenario::storm`]: the fault-injection campaign (adversarial
//!   apps, watchdog restart policy, OTA re-install wave), whose report
//!   gains `containment` and `ota_wave` aggregate sections.
//! * `--fault-permille N`, `--ota-permille N`, `--ota-corrupt-permille N`,
//!   `--ota-max-retries N` and `--step-budget N` set the campaign knobs
//!   individually on any scenario.
//! * Every numeric flag is parsed at its field's own type: a value that
//!   does not fit is rejected with exit code 2, never wrapped.  So is a
//!   per-mille value above 1000, an empty fleet (`--devices 0`) and a
//!   worker count above 1024 (flag or positional): each worker is an OS
//!   thread, and tens of thousands of them exhaust the host.
//! * Contradictory flag combinations (`--preset scaling --preset storm`)
//!   are rejected up front with exit code 2, and so is any unknown flag.
//! * `--summary` streams block aggregation (`simulate_summary_in`) instead
//!   of materialising per-device results: bounded memory at 10⁵–10⁶
//!   devices.  The document matches the materialised run's byte for byte
//!   only under the condition `simulate_summary_in` documents: the fleet
//!   fits one 1024-device block and each leg's latency samples fit the
//!   2048-sample sketch.  Beyond it, delivery-latency mean, p50 and p99
//!   are deterministic sample estimates — the default stepped fleet
//!   (1000 devices × 120 events) is already past the sketch.  Either way
//!   the document is the same for every worker count.
//! * `--verify` runs the `amulet-verify` static analyser over every
//!   distinct firmware image once, before the campaign.  If any image has
//!   a proven escape, it prints the failing keys to stderr and exits 1
//!   without simulating; otherwise the document gains a `verifier`
//!   section with the fleet's verdict counters.

use amulet_bench::fleet_sim::{render_document_with, verify_gate, verify_summary_json};
use amulet_bench::lint::verify_fleet;
use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore, FleetScenario, TimeMode};
use std::time::Instant;

const USAGE: &str = "usage: fleet_sim [devices] [workers] [events_per_device] [seed] [mode] \
     [--devices N] [--workers N] [--events N] [--seed N] [--mode arrival-order|stepped] \
     [--silent-permille N] [--preset scaling|storm] [--fault-permille N] [--ota-permille N] \
     [--ota-corrupt-permille N] [--ota-max-retries N] [--step-budget N] [--summary] \
     [--verify]";

/// The largest worker count accepted, by flag or by position.
const MAX_WORKERS: usize = 1024;

/// Everything the command line can ask for, before it is resolved into a
/// scenario.
#[derive(Default)]
struct Cli {
    devices: Option<usize>,
    workers: Option<usize>,
    events: Option<usize>,
    seed: Option<u64>,
    mode: Option<TimeMode>,
    silent_permille: Option<u16>,
    fault_permille: Option<u16>,
    ota_permille: Option<u16>,
    ota_corrupt_permille: Option<u16>,
    ota_max_retries: Option<u32>,
    step_budget: Option<u64>,
    preset_scaling: bool,
    preset_storm: bool,
    summary: bool,
    verify: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_mode(s: &str) -> TimeMode {
    match s {
        "stepped" => TimeMode::Stepped,
        "arrival-order" | "arrival" => TimeMode::ArrivalOrder,
        other => fail(&format!("unknown mode {other:?}")),
    }
}

/// The value following `flag`.
fn value(flag: &str, it: &mut dyn Iterator<Item = String>) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

/// The value following `flag`, parsed at the flag's own type: a value
/// that does not fit is rejected, never wrapped.
fn num<T: std::str::FromStr>(flag: &str, it: &mut dyn Iterator<Item = String>) -> T {
    let s = value(flag, it);
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: not a number in range: {s:?}")))
}

/// The per-mille value following `flag`: 0 to 1000.
fn permille(flag: &str, it: &mut dyn Iterator<Item = String>) -> u16 {
    let p: u16 = num(flag, it);
    if p > 1000 {
        fail(&format!("{flag} is per mille (0 to 1000), got {p}"));
    }
    p
}

fn parse(args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli::default();
    let mut positional = 0usize;
    let mut it = args;
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--devices" => cli.devices = Some(num(flag, &mut it)),
            "--workers" => cli.workers = Some(num(flag, &mut it)),
            "--events" => cli.events = Some(num(flag, &mut it)),
            "--seed" => cli.seed = Some(num(flag, &mut it)),
            "--mode" => cli.mode = Some(parse_mode(&value(flag, &mut it))),
            "--silent-permille" => cli.silent_permille = Some(permille(flag, &mut it)),
            "--fault-permille" => cli.fault_permille = Some(permille(flag, &mut it)),
            "--ota-permille" => cli.ota_permille = Some(permille(flag, &mut it)),
            "--ota-corrupt-permille" => cli.ota_corrupt_permille = Some(permille(flag, &mut it)),
            "--ota-max-retries" => cli.ota_max_retries = Some(num(flag, &mut it)),
            "--step-budget" => cli.step_budget = Some(num(flag, &mut it)),
            "--preset" => match value(flag, &mut it).as_str() {
                "scaling" => cli.preset_scaling = true,
                "storm" => cli.preset_storm = true,
                other => fail(&format!("unknown preset {other:?}")),
            },
            "--summary" => cli.summary = true,
            "--verify" => cli.verify = true,
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
            word => {
                // Positional compatibility: devices, workers, events, seed,
                // then the mode word.
                match (positional, word.parse::<u64>()) {
                    (0, Ok(n)) => cli.devices = Some(n as usize),
                    (1, Ok(n)) => cli.workers = Some(n as usize),
                    (2, Ok(n)) => cli.events = Some(n as usize),
                    (3, Ok(n)) => cli.seed = Some(n),
                    (_, Ok(_)) => fail(&format!("unexpected trailing argument {word:?}")),
                    (_, Err(_)) if cli.mode.is_none() => cli.mode = Some(parse_mode(word)),
                    _ => fail(&format!("unexpected trailing argument {word:?}")),
                }
                if word.parse::<u64>().is_ok() {
                    positional += 1;
                }
            }
        }
    }
    cli
}

/// Rejects an empty fleet, which has no population to report on, more
/// workers than [`MAX_WORKERS`] and contradictory flag combinations up
/// front (exit 2 with usage) instead of letting one flag silently win
/// over another.
fn validate(cli: &Cli) {
    if cli.devices == Some(0) {
        fail("a fleet needs at least one device");
    }
    if let Some(w) = cli.workers.filter(|&w| w > MAX_WORKERS) {
        fail(&format!("at most {MAX_WORKERS} workers, got {w}"));
    }
    if cli.preset_scaling && cli.preset_storm {
        fail("--preset given twice with different presets");
    }
}

fn scenario_from(cli: &Cli) -> (FleetScenario, usize) {
    let mut scenario = if cli.preset_scaling {
        FleetScenario::scaling(cli.devices.unwrap_or(1000))
    } else if cli.preset_storm {
        FleetScenario::storm(cli.devices.unwrap_or(1000))
    } else {
        FleetScenario::default()
    };
    if let Some(d) = cli.devices {
        scenario.devices = d;
    }
    if let Some(e) = cli.events {
        scenario.events_per_device = e;
    }
    if let Some(s) = cli.seed {
        scenario.seed = s;
    }
    if let Some(m) = cli.mode {
        scenario.time_mode = m;
    }
    if let Some(p) = cli.silent_permille {
        scenario.silent_permille = p;
    }
    if let Some(p) = cli.fault_permille {
        scenario.fault_permille = p;
    }
    if let Some(p) = cli.ota_permille {
        scenario.ota_permille = p;
    }
    if let Some(p) = cli.ota_corrupt_permille {
        scenario.ota_corrupt_permille = p;
    }
    if let Some(n) = cli.ota_max_retries {
        scenario.ota_max_retries = n;
    }
    if let Some(b) = cli.step_budget {
        scenario.step_budget = Some(b);
    }
    scenario.verify = cli.verify;
    let workers = cli.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    (scenario, workers)
}

fn main() {
    let cli = parse(std::env::args().skip(1));
    validate(&cli);

    let (scenario, workers) = scenario_from(&cli);
    let extras = if cli.verify {
        let summary = verify_fleet(&scenario, workers);
        if let Err(code) = verify_gate(&summary, &mut std::io::stderr()) {
            std::process::exit(code);
        }
        vec![("verifier", verify_summary_json(&summary))]
    } else {
        Vec::new()
    };
    let store = FirmwareStore::for_scenario(&scenario);
    let started = Instant::now();
    // `threads` is what the runner actually spawned, which may be fewer
    // than the `workers` asked for.
    let (aggregate, threads) = if cli.summary {
        let s = simulate_summary_in(&scenario, workers, &store);
        (s.aggregate, s.workers)
    } else {
        let r = simulate_in(&scenario, workers, &store);
        (r.aggregate, r.workers)
    };
    let wall = started.elapsed().as_secs_f64();
    let json = render_document_with(&scenario, threads, &aggregate, Some(wall), extras);
    print!("{json}");
}

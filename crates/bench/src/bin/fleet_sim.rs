//! Fleet-scale simulation bench: simulates one seeded device fleet and
//! prints the aggregate report (energy distribution, switch-overhead share,
//! fault counts, battery-impact histograms, and the per-event vs batched
//! delivery comparison) as one JSON document on stdout.  It writes a file
//! only when asked to (`--report-out FILE`); the committed
//! `BENCH_fleet.json` is
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
//! * `--store-cap-bytes N` bounds the on-disk store (least-recently-used
//!   images evicted first); requires `--store`.  Contradictory flag
//!   combinations (`--store --no-store`, `--paranoid --no-store`,
//!   `--preset scaling --preset storm`, ...) are rejected up front with
//!   exit code 2, and so is any unknown flag.
//! * `--summary` streams block aggregation (`simulate_summary_in`) instead
//!   of materialising per-device results: bounded memory at 10⁵–10⁶
//!   devices.  The document matches the materialised run's byte for byte
//!   only under the condition `simulate_summary_in` documents: the fleet
//!   fits one 1024-device block and each leg's latency samples fit the
//!   2048-sample sketch.  Beyond it, delivery-latency mean, p50 and p99
//!   are deterministic sample estimates — the default stepped fleet
//!   (1000 devices × 120 events) is already past the sketch.  Either way
//!   the document is the same for every worker count.
//! * `--store DIR` persists built firmwares in a content-addressable
//!   store under `DIR`: the run prewarms every distinct configuration
//!   through the store (timed separately from the campaign, and built
//!   on every core whatever `--workers` says) and the
//!   report gains a `firmware_store` section with the store counters.
//!   Two runs over one `DIR` give the cold and the warm prewarm time.
//!   `DIR` is created if missing; one the process cannot create or
//!   write to is rejected with exit code 2 before anything runs.
//!   `--no-store` forces the in-memory store; `--paranoid` re-builds and
//!   byte-compares every image loaded from disk (CI runs this).
//! * `--report-out FILE` additionally writes the *deterministic* document
//!   (no `timing`, `firmware_store` or `verifier` sections) to `FILE` —
//!   cold and warm store runs of the same scenario must produce
//!   byte-identical files, which CI asserts.
//! * `--verify` gates every firmware image through the `amulet-verify`
//!   static analyser before it enters the fleet (a proven-escape image
//!   aborts the run) and attaches a `verifier` section with the fleet's
//!   verdict counters.

use amulet_bench::fleet_sim::{
    render_document, render_document_with, store_stats_json, verify_summary_json,
};
use amulet_bench::json::Json;
use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore, FleetScenario, TimeMode};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: fleet_sim [devices] [workers] [events_per_device] [seed] [mode] \
     [--devices N] [--workers N] [--events N] [--seed N] [--mode arrival-order|stepped] \
     [--silent-permille N] [--preset scaling|storm] [--fault-permille N] [--ota-permille N] \
     [--ota-corrupt-permille N] [--ota-max-retries N] [--step-budget N] [--summary] \
     [--store DIR] [--no-store] [--paranoid] [--store-cap-bytes N] \
     [--report-out FILE] [--verify]";

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
    store: Option<PathBuf>,
    no_store: bool,
    paranoid: bool,
    store_cap_bytes: Option<u64>,
    report_out: Option<PathBuf>,
    verify: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Creates the store directory `dir` if missing and proves this process
/// can write there, so an unusable store fails up front (exit 2 with the
/// OS error) instead of silently persisting nothing.
fn require_store_dir(dir: &Path) {
    let probe = dir.join(format!(".fleet_sim-probe-{}", std::process::id()));
    let usable = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&probe, b""))
        .and_then(|()| std::fs::remove_file(&probe));
    if let Err(e) = usable {
        fail(&format!("store directory {}: {e}", dir.display()));
    }
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
            "--store-cap-bytes" => cli.store_cap_bytes = Some(num(flag, &mut it)),
            "--preset" => match value(flag, &mut it).as_str() {
                "scaling" => cli.preset_scaling = true,
                "storm" => cli.preset_storm = true,
                other => fail(&format!("unknown preset {other:?}")),
            },
            "--summary" => cli.summary = true,
            "--store" => cli.store = Some(PathBuf::from(value(flag, &mut it))),
            "--no-store" => cli.no_store = true,
            "--paranoid" => cli.paranoid = true,
            "--report-out" => cli.report_out = Some(PathBuf::from(value(flag, &mut it))),
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
/// workers than [`MAX_WORKERS`], contradictory flag combinations and an
/// unusable `--store` directory up front (exit 2 with usage) instead of
/// letting one flag silently win over another.
fn validate(cli: &Cli) {
    if cli.devices == Some(0) {
        fail("a fleet needs at least one device");
    }
    if let Some(w) = cli.workers.filter(|&w| w > MAX_WORKERS) {
        fail(&format!("at most {MAX_WORKERS} workers, got {w}"));
    }
    if cli.store.is_some() && cli.no_store {
        fail("--store and --no-store conflict");
    }
    if cli.paranoid && cli.no_store {
        fail("--paranoid and --no-store conflict");
    }
    if cli.paranoid && cli.store.is_none() {
        fail("--paranoid verifies disk loads and needs --store DIR");
    }
    if cli.store_cap_bytes.is_some() && cli.store.is_none() {
        fail("--store-cap-bytes bounds an on-disk store and needs --store DIR");
    }
    if cli.preset_scaling && cli.preset_storm {
        fail("--preset given twice with different presets");
    }
    if let Some(dir) = &cli.store {
        require_store_dir(dir);
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
    if !cli.no_store {
        scenario.store_dir = cli.store.clone();
    }
    scenario.paranoid = cli.paranoid;
    scenario.store_cap_bytes = cli.store_cap_bytes;
    scenario.verify = cli.verify;
    let workers = cli.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    (scenario, workers)
}

/// Writes the deterministic document (no `timing`, `firmware_store` or
/// `verifier` sections) to `--report-out`, so cold and warm store runs of
/// one scenario can be byte-compared.
fn write_report_out(
    cli: &Cli,
    s: &FleetScenario,
    workers: usize,
    agg: &amulet_fleet::FleetAggregate,
) {
    let Some(path) = &cli.report_out else { return };
    let doc = render_document(s, workers, agg, None, None, None);
    if let Err(e) = std::fs::write(path, &doc) {
        fail(&format!("could not write {}: {e}", path.display()));
    }
    eprintln!("wrote deterministic report to {}", path.display());
}

fn main() {
    let cli = parse(std::env::args().skip(1));
    validate(&cli);

    let (scenario, workers) = scenario_from(&cli);
    let store = FirmwareStore::for_scenario(&scenario);
    // With a persistent store the build/load phase is timed on its own —
    // that is the phase the store exists to accelerate, and at fleet scale
    // it is a sliver of campaign wall-clock.
    let prewarm = store.is_persistent().then(|| {
        let started = Instant::now();
        let configs = store.prewarm(&scenario);
        (configs, started.elapsed().as_secs_f64())
    });
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
    let store_json = prewarm.map(|(configs, secs)| {
        Json::obj()
            .field("paranoid", scenario.paranoid)
            .field(
                "prewarm",
                Json::obj()
                    .field("configs", configs)
                    .field("wall_seconds", secs),
            )
            .field("stats", store_stats_json(&store.stats()))
    });
    // The per-image gate already ran inside the builds; the `verifier`
    // section reports the fleet-wide verdict counters alongside.
    let extras = if cli.verify {
        let summary = amulet_fleet::verify_fleet(&scenario, workers);
        vec![("verifier", verify_summary_json(&summary))]
    } else {
        Vec::new()
    };
    let json = render_document_with(
        &scenario,
        threads,
        &aggregate,
        Some(wall),
        store_json,
        extras,
    );
    write_report_out(&cli, &scenario, threads, &aggregate);
    print!("{json}");
}

//! Fleet-scale simulation bench: simulates seeded device fleets and emits
//! the aggregate report (energy distribution, switch-overhead share, fault
//! counts, battery-impact histograms, and the per-event vs batched
//! delivery comparison) as `BENCH_fleet.json` — both on stdout and to the
//! file.
//!
//! Usage (positional form, unchanged since PR 3):
//! `fleet_sim [devices] [workers] [events_per_device] [seed] [mode]`
//! (defaults: 1000 devices, one worker per host core, 120 events, the
//! scenario's default seed, `arrival-order`).
//!
//! Flag form (mixable with positionals; flags win):
//! `--devices N --workers N --events N --seed N --mode arrival-order|stepped
//!  --silent-permille N --preset scaling --summary --no-write`
//!
//! * `--preset scaling` starts from [`FleetScenario::scaling`] — the
//!   mostly-silent, windowed campaign the scaling study runs — before
//!   the other flags apply.  `--preset storm` starts from
//!   [`FleetScenario::storm`]: the fault-injection campaign (adversarial
//!   apps, watchdog restart policy, OTA re-install wave), whose report
//!   gains `containment` and `ota_wave` aggregate sections.
//! * `--fault-permille N`, `--ota-permille N`, `--ota-corrupt-permille N`,
//!   `--ota-max-retries N` and `--step-budget N` set the campaign knobs
//!   individually on any scenario.
//! * Every numeric flag is parsed at its field's own type: a value that
//!   does not fit is rejected with exit code 2, never wrapped.  So is a
//!   per-mille value above 1000 and an empty fleet (`--devices 0`).
//! * `--store-cap-bytes N` bounds the on-disk store (least-recently-used
//!   images evicted first); requires `--store`.  Contradictory flag
//!   combinations (`--store --no-store`, `--paranoid --no-store`,
//!   `--scaling --scaling-point`, ...) are rejected up front with exit
//!   code 2, and so is any unknown flag.
//! * `--summary` streams block aggregation (`simulate_summary_in`) instead
//!   of materialising per-device results: bounded memory at 10⁵–10⁶
//!   devices.  The document matches the materialised run's byte for byte
//!   only under the condition `simulate_summary_in` documents: the fleet
//!   fits one 1024-device block and each leg's latency samples fit the
//!   2048-sample sketch.  Beyond it, delivery-latency mean, p50 and p99
//!   are deterministic sample estimates — the default stepped fleet
//!   (1000 devices × 120 events) is already past the sketch.  Either way
//!   the document is the same for every worker count.
//! * `--scaling` runs the whole scaling campaign: calendar points at
//!   {10³, 10⁴, 10⁵}, each in a child process so peak RSS is measured
//!   per point, then writes the report for the largest point with a
//!   `"scaling"` section attached — plus a `"firmware_store"` section
//!   timing a cold vs warm store prewarm of the top point's distinct
//!   configurations.
//! * `--store DIR` persists built firmwares in a content-addressable
//!   store under `DIR`: the run prewarms every distinct configuration
//!   through the store (timed separately from the campaign) and the
//!   report gains a `firmware_store` section with the store counters.
//!   `DIR` is created if missing; one the process cannot create or
//!   write to is rejected with exit code 2 before anything runs.
//!   `--no-store` forces the in-memory store; `--paranoid` re-builds and
//!   byte-compares every image loaded from disk (CI runs this).
//! * `--report-out FILE` additionally writes the *deterministic* document
//!   (no `timing`, `scaling` or `firmware_store` sections) to `FILE` —
//!   cold and warm store runs of the same scenario must produce
//!   byte-identical files, which CI asserts.
//! * `--verify` gates every firmware image through the `amulet-verify`
//!   static analyser before it enters the fleet (a proven-escape image
//!   aborts the run) and attaches a `verifier` section with the fleet's
//!   verdict counters.

use amulet_bench::fleet_sim::{
    containment_json, ota_wave_json, render_document, render_document_with, store_stats_json,
    verify_summary_json,
};
use amulet_bench::json::Json;
use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore, FleetScenario, TimeMode};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: fleet_sim [devices] [workers] [events_per_device] [seed] [mode] \
     [--devices N] [--workers N] [--events N] [--seed N] [--mode arrival-order|stepped] \
     [--silent-permille N] [--preset scaling|storm] [--fault-permille N] [--ota-permille N] \
     [--ota-corrupt-permille N] [--ota-max-retries N] [--step-budget N] [--summary] \
     [--no-write] [--scaling] [--store DIR] [--no-store] [--paranoid] [--store-cap-bytes N] \
     [--report-out FILE] [--verify]";

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
    no_write: bool,
    scaling: bool,
    scaling_point: bool,
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
            "--no-write" => cli.no_write = true,
            "--scaling" => cli.scaling = true,
            "--scaling-point" => cli.scaling_point = true,
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

/// Rejects an empty fleet, which has no population to report on,
/// contradictory flag combinations and an unusable `--store` directory up
/// front (exit 2 with usage) instead of letting one flag silently win
/// over another.
fn validate(cli: &Cli) {
    if cli.devices == Some(0) {
        fail("a fleet needs at least one device");
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
    if cli.scaling && cli.scaling_point {
        fail("--scaling and --scaling-point conflict");
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

/// Peak resident set of this process in KiB, from `/proc/self/status`
/// (`VmHWM`); 0 where the proc file is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// One measured run, as the `--scaling-point` child reports it.
struct Point {
    devices: usize,
    wall_seconds: f64,
    events_delivered: u64,
    peak_rss_kb: u64,
}

impl Point {
    fn devices_per_second(&self) -> f64 {
        self.devices as f64 / self.wall_seconds.max(1e-9)
    }
    fn events_per_second(&self) -> f64 {
        self.events_delivered as f64 / self.wall_seconds.max(1e-9)
    }
    fn json(&self) -> Json {
        Json::obj()
            .field("devices", self.devices)
            .field("wall_seconds", self.wall_seconds)
            .field("devices_per_second", self.devices_per_second())
            .field("events_per_second", self.events_per_second())
            .field("peak_rss_kb", self.peak_rss_kb)
    }
}

/// Runs one scenario in-process and reports the measurement; the
/// `--scaling-point` entry so every campaign point gets its own address
/// space (and therefore its own `VmHWM` high-water mark).
fn run_point(cli: &Cli) -> ! {
    let (scenario, workers) = scenario_from(cli);
    let store = FirmwareStore::for_scenario(&scenario);
    let started = Instant::now();
    let summary = simulate_summary_in(&scenario, workers, &store);
    let events =
        summary.aggregate.per_event.events_delivered + summary.aggregate.batched.events_delivered;
    let wall = started.elapsed().as_secs_f64();
    println!("devices={}", scenario.devices);
    println!("wall_seconds={wall}");
    println!("events_delivered={events}");
    println!("peak_rss_kb={}", peak_rss_kb());
    println!("store_builds={}", store.stats().builds);
    println!("store_disk_hits={}", store.stats().disk_hits);
    std::process::exit(0);
}

/// Re-executes this binary as a `--scaling-point` child and parses its
/// key=value report.
fn spawn_point(extra: &[&str], devices: usize, workers: usize) -> Point {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--scaling-point")
        .arg("--devices")
        .arg(devices.to_string())
        .arg("--workers")
        .arg(workers.to_string())
        .args(extra);
    let out = cmd.output().expect("scaling-point child failed to start");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        fail("scaling-point child failed");
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let get = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| fail(&format!("child report missing {key}")))
    };
    Point {
        devices,
        wall_seconds: get("wall_seconds"),
        events_delivered: get("events_delivered") as u64,
        peak_rss_kb: get("peak_rss_kb") as u64,
    }
}

/// Cold-vs-warm firmware-store bench over the top point's distinct
/// configurations.  The config set is derived once, *outside* both timed
/// phases, so the phases compare exactly what changes between a cold and a
/// warm process start: cold pays AFT build + encode + atomic write per
/// config (there is nothing on disk to defer to), warm pays envelope
/// verification — read + content-hash + key check via
/// [`FirmwareStore::validate_configs`] — after which every build is
/// skippable and images decode lazily at first use.
///
/// Each phase is timed as the minimum over `STORE_BENCH_REPS`
/// repetitions (criterion-style) so one-off allocator and page-cache
/// effects don't masquerade as phase cost.
fn store_bench(scenario: &FleetScenario, dir: &std::path::Path) -> Json {
    const STORE_BENCH_REPS: usize = 3;
    let mut sc = scenario.clone();
    sc.store_dir = Some(dir.to_path_buf());
    sc.paranoid = false;
    let configs = FirmwareStore::distinct_configs(&sc);

    let mut cold_wall = f64::INFINITY;
    let mut cold_stats = amulet_fleet::FirmwareStoreStats::default();
    for _ in 0..STORE_BENCH_REPS {
        let _ = std::fs::remove_dir_all(dir);
        let cold = FirmwareStore::for_scenario(&sc);
        let started = Instant::now();
        cold.prewarm_configs(&configs);
        let wall = started.elapsed().as_secs_f64();
        if wall < cold_wall {
            cold_wall = wall;
            cold_stats = cold.stats();
        }
    }

    // The store directory is now populated by the last cold repetition.
    let mut warm_wall = f64::INFINITY;
    let mut warm_stats = amulet_fleet::FirmwareStoreStats::default();
    for _ in 0..STORE_BENCH_REPS {
        let warm = FirmwareStore::for_scenario(&sc);
        let started = Instant::now();
        let verified = warm.validate_configs(&configs);
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(verified, configs.len(), "warm store must verify fully");
        if wall < warm_wall {
            warm_wall = wall;
            warm_stats = warm.stats();
        }
    }

    Json::obj()
        .field("configs", configs.len())
        .field("repetitions", STORE_BENCH_REPS)
        .field(
            "cold",
            Json::obj()
                .field("wall_seconds", cold_wall)
                .field("stats", store_stats_json(&cold_stats)),
        )
        .field(
            "warm",
            Json::obj()
                .field("wall_seconds", warm_wall)
                .field("stats", store_stats_json(&warm_stats)),
        )
        .field("warm_start_speedup", cold_wall / warm_wall.max(1e-9))
}

/// The scaling campaign: calendar points at {10³, 10⁴, 10⁵}, each in its
/// own child process, composed into the `"scaling"` section of the
/// largest point's report.
fn run_scaling(cli: &Cli) {
    let workers = scenario_from(cli).1;
    let top = cli.devices.unwrap_or(100_000);

    let mut calendar_points = Vec::new();
    let mut n = 1000usize;
    while n <= top {
        eprintln!("scaling: calendar, scaling preset, {n} devices...");
        calendar_points.push(spawn_point(&["--preset", "scaling"], n, workers));
        n *= 10;
    }
    let top_point = calendar_points.last().expect("at least one calendar point");
    let scaling = Json::obj()
        .field("preset", "scaling-campaign")
        .field("workers", workers)
        .field(
            "calendar",
            calendar_points.iter().map(Point::json).collect::<Vec<_>>(),
        )
        .field("top_devices", top_point.devices);

    // The firmware-store cold/warm bench over the top point's distinct
    // configurations — the committed `firmware_store` section.
    let store_dir = match (&cli.store, cli.no_store) {
        (Some(dir), false) => dir.clone(),
        _ => std::env::temp_dir().join(format!("amulet-fleet-store-bench-{}", std::process::id())),
    };
    require_store_dir(&store_dir);
    eprintln!(
        "scaling: firmware store cold/warm bench, {} devices...",
        top_point.devices
    );
    let store_json = store_bench(&FleetScenario::scaling(top_point.devices), &store_dir);

    // The fault-injection campaign: a storm preset sweep whose
    // containment matrix and OTA-wave tallies ride the committed document
    // as top-level sections (they measure a different scenario than the
    // scaling point, so they cannot live inside its aggregate).
    const STORM_DEVICES: usize = 10_000;
    eprintln!("scaling: fault storm, {STORM_DEVICES} devices...");
    let storm_scenario = FleetScenario::storm(STORM_DEVICES);
    let storm_started = Instant::now();
    let storm_store = FirmwareStore::for_scenario(&storm_scenario);
    let storm = simulate_summary_in(&storm_scenario, workers, &storm_store);
    let storm_wall = storm_started.elapsed().as_secs_f64();
    let extras = vec![
        (
            "fault_campaign",
            Json::obj()
                .field("name", storm_scenario.name.as_str())
                .field("seed", storm_scenario.seed)
                .field("devices", STORM_DEVICES)
                .field("wall_seconds", storm_wall),
        ),
        (
            "containment",
            Json::from(containment_json(&storm.aggregate.containment)),
        ),
        ("ota_wave", ota_wave_json(&storm.aggregate.ota_wave)),
    ];

    // The document itself reports the largest calendar point, re-run
    // in-process (cheap next to the campaign) so the full aggregate is
    // available.  When a store directory is active it was just prewarmed
    // by the bench above, so this run is the warm-start case: every
    // firmware loads, none rebuild.
    eprintln!("scaling: rendering the {top}-device report...");
    let mut scenario = FleetScenario::scaling(top_point.devices);
    if !cli.no_store {
        scenario.store_dir = cli.store.clone();
    }
    scenario.paranoid = cli.paranoid;
    let store = FirmwareStore::for_scenario(&scenario);
    let started = Instant::now();
    let summary = simulate_summary_in(&scenario, workers, &store);
    let wall = started.elapsed().as_secs_f64();
    let json = render_document_with(
        &summary.scenario,
        summary.workers,
        &summary.aggregate,
        Some(wall),
        Some(scaling),
        Some(store_json),
        extras,
    );
    if cli.store.is_none() {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    write_report_out(cli, &summary.scenario, summary.workers, &summary.aggregate);
    emit(cli, &scenario, summary.workers, wall, json);
}

/// Writes the deterministic document (no `timing`, `scaling` or
/// `firmware_store` sections) to `--report-out`, so cold and warm store
/// runs of one scenario can be byte-compared.
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

fn emit(cli: &Cli, scenario: &FleetScenario, workers: usize, wall: f64, json: String) {
    print!("{json}");
    if cli.no_write {
        return;
    }
    if let Err(e) = std::fs::write("BENCH_fleet.json", &json) {
        eprintln!("warning: could not write BENCH_fleet.json: {e}");
    } else {
        eprintln!(
            "wrote BENCH_fleet.json ({} devices, {workers} workers, {} mode, {:.2}s, {:.0} devices/s)",
            scenario.devices,
            scenario.time_mode.label(),
            wall,
            scenario.devices as f64 / wall.max(1e-9),
        );
    }
}

fn main() {
    let cli = parse(std::env::args().skip(1));
    validate(&cli);
    if cli.scaling_point {
        run_point(&cli);
    }
    if cli.scaling {
        run_scaling(&cli);
        return;
    }

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
        None,
        store_json,
        extras,
    );
    write_report_out(&cli, &scenario, threads, &aggregate);
    emit(&cli, &scenario, threads, wall, json);
}

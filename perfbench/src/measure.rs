//! The two kinds of run: the untraced end-to-end campaign loop and the
//! traced pairs that attribute a one-worker run to layers.

use crate::replay::{method_slot, replay, Trace};
use crate::workloads::{pinned_digest, Workload};
use amulet_core::method::IsolationMethod;
use amulet_core::serial::fnv1a64;
use amulet_fleet::{simulate_summary_in, FirmwareStore, FleetAggregate, FleetScenario};
use std::time::{Duration, Instant};

/// Whether another repetition as long as the last one still ends before
/// `deadline`, so a run never overshoots its measuring time.
fn another_fits(deadline: Instant, last: Duration) -> bool {
    Instant::now() + last < deadline
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// A finished run: its checks and its metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Campaign documents checked.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The deterministic report document: `render_document` with no timing,
/// scaling or store sections.
pub fn document(scenario: &FleetScenario, aggregate: &FleetAggregate) -> String {
    amulet_bench::fleet_sim::render_document(scenario, 1, aggregate, None, None, None)
}

/// FNV-1a64 of a document.
pub fn digest(document: &str) -> u64 {
    fnv1a64(document.as_bytes())
}

/// What every campaign document of a run must equal.
enum Expected {
    /// The digest pinned for this workload, seed and size.
    Pinned(u64),
    /// With no pin: the one-worker document, which any worker count must
    /// reproduce byte for byte.
    OneWorker(String),
}

impl Expected {
    fn for_run(workload: Workload, scenario: &FleetScenario, store: &FirmwareStore) -> Self {
        match pinned_digest(workload, scenario.seed, scenario.devices) {
            Some(d) => Expected::Pinned(d),
            None => Expected::OneWorker(document(
                scenario,
                &simulate_summary_in(scenario, 1, store).aggregate,
            )),
        }
    }

    fn matches(&self, doc: &str) -> bool {
        match self {
            Expected::Pinned(d) => digest(doc) == *d,
            Expected::OneWorker(reference) => doc == reference,
        }
    }

    fn describe(&self) -> String {
        match self {
            Expected::Pinned(d) => format!("pinned digest {d:#018x}"),
            Expected::OneWorker(_) => {
                "no pinned digest: one-worker document, byte for byte".to_string()
            }
        }
    }
}

/// The median of `values` (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=1) of `values`; `p = 0` is the minimum.
pub fn percentile<T: Copy + Default + PartialOrd>(values: &[T], p: f64) -> T {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    match v.len() {
        0 => T::default(),
        n => v[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The untraced run: repetitions of (fresh-store prewarm, campaign
/// through `simulate_summary_in` on `workers` threads) for `seconds` (at
/// least one), each campaign checked against the run's reference
/// document.  The throughputs come from the fastest campaign, `setup_s`
/// is the median set-up.
pub fn end_to_end(
    workload: Workload,
    scenario: &FleetScenario,
    workers: usize,
    seconds: f64,
) -> Result<Outcome, String> {
    // Untimed warm-up set-up, which also yields the reference document.
    let expected = {
        let store = FirmwareStore::for_scenario(scenario);
        store.prewarm(scenario);
        Expected::for_run(workload, scenario, &store)
    };

    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut images;
    let mut cycles;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        // Each repetition sets up a fresh store, so set-up samples are
        // spread over the run like the campaigns; one store is alive at a
        // time, so peak RSS sees a single image set.
        let start = Instant::now();
        let store = FirmwareStore::for_scenario(scenario);
        images = store.prewarm(scenario);
        setup.push(start.elapsed().as_secs_f64());
        let builds = store.stats().builds;

        let campaign_start = Instant::now();
        let summary = simulate_summary_in(scenario, workers, &store);
        walls.push(campaign_start.elapsed().as_secs_f64());
        let agg = &summary.aggregate;
        cycles = agg.per_event.total_cycles + agg.batched.total_cycles;
        out.attempted += 1;
        if !expected.matches(&document(scenario, agg)) || store.stats().builds != builds {
            out.failed += 1;
        }
        if !another_fits(deadline, start.elapsed()) {
            break;
        }
    }

    // Co-tenant interference on a shared host only ever adds time, so the
    // fastest campaign is the steadiest estimate of the program's own
    // speed; the median and p90 are printed beside it.
    let best = percentile(&walls, 0.0);
    out.notes.push(format!(
        "{} campaigns of {} devices on {workers} workers: best {best:.4} s, median {:.4} s, \
         p90 {:.4} s; set-up median {:.4} s over {} fresh stores of {images} images; \
         checked against {}",
        walls.len(),
        scenario.devices,
        median(&walls),
        percentile(&walls, 0.9),
        median(&setup),
        setup.len(),
        expected.describe(),
    ));
    out.metrics = vec![
        metric("devices_per_s", "devices/s", scenario.devices as f64 / best),
        metric("sim_mcycles_per_s", "Mcycles/s", cycles as f64 / 1e6 / best),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric("setup_s", "s", median(&setup)),
    ];
    Ok(out)
}

/// The untraced one-worker run the traced replay is compared with:
/// fresh-store set-up, campaign and render.  Returns the aggregate, its
/// document and the wall time.
fn one_worker_run(scenario: &FleetScenario) -> (FleetAggregate, String, f64) {
    let start = Instant::now();
    let store = FirmwareStore::for_scenario(scenario);
    store.prewarm(scenario);
    let aggregate = simulate_summary_in(scenario, 1, &store).aggregate;
    let doc = document(scenario, &aggregate);
    (aggregate, doc, start.elapsed().as_secs_f64())
}

/// The traced run: a warm-up one-worker run (the first campaign in a
/// process pays page faults the later ones do not), then pairs of
/// (untraced one-worker run, traced replay) for `seconds` (at least one
/// pair); every per-layer metric is the median over the pairs.
pub fn traced(
    workload: Workload,
    scenario: &FleetScenario,
    seconds: f64,
) -> Result<Outcome, String> {
    let pinned = pinned_digest(workload, scenario.seed, scenario.devices);
    let pin_holds = |doc: &str| pinned.is_none_or(|d| digest(doc) == d);
    let mut out = Outcome::default();
    let (_, warm_doc, _) = one_worker_run(scenario);
    out.attempted += 1;
    out.failed += u64::from(!pin_holds(&warm_doc));
    let mut pairs: Vec<Vec<Metric>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let pair_start = Instant::now();
        let (a, doc, untraced_s) = one_worker_run(scenario);
        let traced = replay(scenario, false)?;
        let b = &traced.aggregate;
        let legs_agree = a.devices == b.devices
            && a.per_event.total_cycles == b.per_event.total_cycles
            && a.batched.total_cycles == b.batched.total_cycles
            && a.per_event.events_delivered == b.per_event.events_delivered
            && a.batched.events_delivered == b.batched.events_delivered;
        out.attempted += 2;
        out.failed += u64::from(!pin_holds(&doc));
        if !legs_agree || traced.document != doc {
            out.failed += 1;
            out.notes.push(format!(
                "replay drift: per-event cycles {} vs {}, batched cycles {} vs {}",
                b.per_event.total_cycles,
                a.per_event.total_cycles,
                b.batched.total_cycles,
                a.batched.total_cycles
            ));
        }
        pairs.push(layer_metrics(&traced.trace, scenario.devices, untraced_s));
        if !another_fits(deadline, pair_start.elapsed()) {
            break;
        }
    }

    out.notes.push(format!(
        "{} traced pairs of {} devices on 1 worker",
        pairs.len(),
        scenario.devices
    ));
    out.metrics = pairs[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = pairs.iter().map(|p| p[i].value).collect();
            metric(m.name.clone(), m.unit, median(&values))
        })
        .collect();
    out.metrics
        .push(metric("bench.failed_checks", "count", out.failed as f64));
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Report label of a method's per-method metrics.
fn method_key(method: IsolationMethod) -> &'static str {
    match method {
        IsolationMethod::NoIsolation => "no_isolation",
        IsolationMethod::FeatureLimited => "feature_limited",
        IsolationMethod::Mpu => "mpu",
        IsolationMethod::SoftwareOnly => "software_only",
    }
}

/// Turns one traced replay (and the untraced one-worker wall time of the
/// same campaign) into the per-layer metrics.
pub fn layer_metrics(t: &Trace, devices: usize, untraced_s: f64) -> Vec<Metric> {
    let count = |name: &str, n: u64| metric(name, "count", n as f64);
    let busy = |name: &str, b: &crate::replay::Busy| metric(name, "s", b.secs());
    let lookups = t.store_stats.hits + t.store_stats.misses;
    let minstr = |instr: u64, ns: u64| ratio(instr as f64 * 1e3, ns as f64);
    let layers_s = t.layers_ns() as f64 / 1e9;
    let mut m = vec![
        count("fleet.scenario.configs", t.scenario.calls),
        busy("fleet.scenario.busy_s", &t.scenario),
        count("fleet.calendar.blocks", t.blocks),
        count("fleet.calendar.silent_devices", t.silent_devices),
        count("fleet.calendar.silent_reused", t.silent_reused),
        metric(
            "fleet.calendar.reuse_ratio",
            "ratio",
            ratio(t.silent_reused as f64, devices as f64),
        ),
        count("os.boot.runtimes", t.runtime.calls),
        busy("os.boot.runtime_busy_s", &t.runtime),
        count("os.boot.legs", t.boot.calls),
        busy("os.boot.busy_s", &t.boot),
        busy("fleet.stats.busy_s", &t.stats),
        count("apps.traces.events", t.trace_events),
        busy("apps.traces.busy_s", &t.traces),
        count("os.deliver.events", t.posted_events),
        busy("os.deliver.busy_s", &t.deliver),
        metric(
            "os.deliver.host_ns_per_event",
            "ns",
            ratio(t.deliver.ns as f64, t.posted_events as f64),
        ),
        count("os.deliver.full_switches", t.full_switches),
        count("os.deliver.batch_boundaries", t.batch_boundaries),
        count("mcu.cpu.instructions", t.instructions),
        metric(
            "mcu.cpu.minstr_per_s",
            "Minstr/s",
            minstr(
                t.deliver_instructions.iter().sum(),
                t.deliver_ns.iter().sum(),
            ),
        ),
    ];
    for method in IsolationMethod::ALL {
        let slot = method_slot(method);
        m.push(metric(
            format!("mcu.cpu.minstr_per_s.{}", method_key(method)),
            "Minstr/s",
            minstr(t.deliver_instructions[slot], t.deliver_ns[slot]),
        ));
    }
    m.extend([
        count("mcu.bus.data_accesses", t.data_accesses),
        count("mcu.bus.exec_checks", t.exec_checks),
        count("mcu.bus.denied", t.denied),
        count("fleet.store.lookups", lookups),
        count("fleet.store.builds", t.store_stats.builds),
        metric(
            "fleet.store.hit_ratio",
            "ratio",
            ratio(t.store_stats.hits as f64, lookups as f64),
        ),
        busy("fleet.store.busy_s", &t.store),
        count("aft.images", t.images),
        count("aft.units", t.units),
        count("aft.distinct_units", t.distinct_units),
        metric(
            "aft.unit_reuse_ratio",
            "ratio",
            ratio(t.distinct_units as f64, t.units as f64),
        ),
        busy("aft.frontend.busy_s", &t.frontend),
        busy("aft.codegen.busy_s", &t.codegen),
        busy("aft.link.busy_s", &t.link),
        metric(
            "aft.ms_per_image.p50",
            "ms",
            percentile(&t.image_ns, 0.50) as f64 / 1e6,
        ),
        metric(
            "aft.ms_per_image.p99",
            "ms",
            percentile(&t.image_ns, 0.99) as f64 / 1e6,
        ),
        count("fleet.faults.probes", t.probes),
        busy("fleet.faults.probe_busy_s", &t.probe),
        count("fleet.faults.ota_attempts", t.ota_attempts),
        busy("fleet.faults.ota_busy_s", &t.ota),
        count("bench.render.bytes", t.render_bytes),
        busy("bench.render.busy_s", &t.render),
        metric(
            "fleet.device.host_us.p50",
            "us",
            percentile(&t.device_ns, 0.50) as f64 / 1e3,
        ),
        metric(
            "fleet.device.host_us.p99",
            "us",
            percentile(&t.device_ns, 0.99) as f64 / 1e3,
        ),
        count("fleet.device.samples", t.device_ns.len() as u64),
        metric("trace.layers_s", "s", layers_s),
        metric("trace.remainder_s", "s", untraced_s - layers_s),
        metric(
            "trace.overhead",
            "ratio",
            ratio(t.wall_ns as f64 / 1e9, untraced_s),
        ),
    ]);
    m
}

/// The simulator's Table 1 beside the paper's, with the largest absolute
/// cycle error of the measured and the analytic columns.
pub fn table1_reference() -> Vec<String> {
    let rows = amulet_bench::table1::measure(50);
    let mut measured_err: f64 = 0.0;
    let mut analytic_err: u64 = 0;
    for r in &rows {
        measured_err = measured_err
            .max((r.memory_access_cycles - r.paper_memory_access as f64).abs())
            .max((r.context_switch_cycles - r.paper_context_switch as f64).abs());
        analytic_err = analytic_err
            .max(r.analytic_memory_access.abs_diff(r.paper_memory_access))
            .max(r.analytic_context_switch.abs_diff(r.paper_context_switch));
    }
    let mut lines: Vec<String> = amulet_bench::table1::render(&rows)
        .lines()
        .map(str::to_string)
        .collect();
    lines.push(format!(
        "Table 1 max |simulator - paper|: measured {measured_err:.1} cycles, analytic {analytic_err} cycles. \
         Table 1 is the repository's only hardware reference; the fleet numbers are unvalidated against hardware."
    ));
    lines
}

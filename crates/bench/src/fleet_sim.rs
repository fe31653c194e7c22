//! The fleet-simulation bench: runs a [`amulet_fleet::FleetScenario`] and renders the
//! aggregate report — including the per-event vs batched switch-overhead
//! comparison — as `BENCH_fleet.json`.
//!
//! The deterministic part of the document (everything under `"scenario"`
//! and `"aggregate"`) is a pure function of the scenario seed, regardless
//! of worker count; wall-clock timing fields live in a separate
//! `"timing"` object that the binary fills in.
//!
//! An arrival-order report renders **exactly** the fields it always has;
//! the time-stepped fields (`time_mode`, idle energy, duty cycle,
//! delivery-latency percentiles, the battery-lifetime projection and the
//! per-event-vs-batched latency comparison) appear only under
//! [`TimeMode::Stepped`], so arrival-order documents stay byte-compatible
//! with every earlier consumer.
//!
//! [`TimeMode::Stepped`]: amulet_fleet::TimeMode::Stepped

use crate::json::Json;
use crate::lint::FleetVerifySummary;
use amulet_fleet::{FleetAggregate, FleetScenario, TimeMode};

/// Renders the deterministic part of a fleet report as a JSON document;
/// `wall_seconds` (when known) adds the non-deterministic timing object.
/// `store` and `scaling` (when present) are
/// rendered as trailing `firmware_store` and `scaling` sections, in that
/// order, after `timing`; every caller passes `None` for both.
pub fn render_document(
    s: &FleetScenario,
    workers: usize,
    agg: &FleetAggregate,
    wall_seconds: Option<f64>,
    scaling: Option<Json>,
    store: Option<Json>,
) -> String {
    let extras = store
        .map(|json| ("firmware_store", json))
        .into_iter()
        .chain(scaling.map(|json| ("scaling", json)))
        .collect();
    render_document_with(s, workers, agg, wall_seconds, extras)
}

/// [`render_document`] plus arbitrary trailing document-level sections —
/// how `fleet_sim --verify` attaches its `verifier` section without
/// disturbing any earlier field.
pub fn render_document_with(
    s: &FleetScenario,
    workers: usize,
    agg: &FleetAggregate,
    wall_seconds: Option<f64>,
    extras: Vec<(&'static str, Json)>,
) -> String {
    let stepped = s.time_mode == TimeMode::Stepped;
    let mut scenario = Json::obj()
        .field("name", s.name.as_str())
        .field("seed", s.seed)
        .field("devices", s.devices)
        .field("events_per_device", s.events_per_device)
        .field("max_apps_per_device", s.max_apps_per_device)
        .field("max_batch", s.max_batch)
        .field("max_latency_events", s.max_latency_events);
    if stepped {
        scenario = scenario.field("time_mode", s.time_mode.label());
        if let Some(na) = s.lpm_current_override_na {
            scenario = scenario.field("lpm_current_override_na", u64::from(na));
        }
    }
    // Scaling-campaign knobs render only when set, so every historical
    // document (and its consumers) stays byte-compatible.
    if s.silent_permille > 0 {
        scenario = scenario.field("silent_permille", u64::from(s.silent_permille));
    }
    if let Some((start, len)) = s.catalog_window {
        scenario = scenario.field(
            "catalog_window",
            Json::obj().field("start", start).field("len", len),
        );
    }
    // Fault-campaign knobs, same rule: armed scenarios only.
    if s.fault_permille > 0 {
        scenario = scenario.field("fault_permille", u64::from(s.fault_permille));
    }
    if let Some(budget) = s.step_budget {
        scenario = scenario.field("step_budget", budget);
    }
    if s.watchdog_max_strikes > 0 {
        scenario = scenario.field(
            "watchdog",
            Json::obj()
                .field("base_backoff", u64::from(s.watchdog_base_backoff))
                .field("max_strikes", u64::from(s.watchdog_max_strikes)),
        );
    }
    if s.ota_permille > 0 {
        scenario = scenario
            .field("ota_permille", u64::from(s.ota_permille))
            .field("ota_corrupt_permille", u64::from(s.ota_corrupt_permille))
            .field("ota_max_retries", u64::from(s.ota_max_retries));
    }
    // Static-verification knob, same armed-only rule.
    if s.verify {
        scenario = scenario.field("verify", Json::Bool(true));
    }

    let policy = |p: &amulet_fleet::PolicyAggregate| {
        let mut o = Json::obj()
            .field("total_cycles", p.total_cycles)
            .field("switch_cycles", p.switch_cycles)
            .field("switch_overhead_share", p.switch_overhead_share)
            .field("switch_cycles_per_event", p.switch_cycles_per_event)
            .field("events_delivered", p.events_delivered)
            .field("faults", p.faults)
            .field("full_switches", p.full_switches)
            .field("batch_boundaries", p.batch_boundaries)
            .field(
                "energy_joules",
                Json::obj()
                    .field("total", p.energy.total_joules)
                    .field("mean", p.energy.mean_joules)
                    .field("p50", p.energy.p50_joules)
                    .field("p99", p.energy.p99_joules),
            );
        if stepped {
            o = o
                .field("idle_joules", p.idle_joules)
                .field("idle_energy_share", p.idle_energy_share)
                .field("duty_cycle", p.duty_cycle)
                .field(
                    "delivery_latency_ms",
                    Json::obj()
                        .field("events", p.delivery_latency.events)
                        .field("mean", p.delivery_latency.mean_ms)
                        .field("p50", p.delivery_latency.p50_ms)
                        .field("p99", p.delivery_latency.p99_ms)
                        .field("max", p.delivery_latency.max_ms)
                        .field("truncated_events", p.truncated_events),
                )
                .field("battery_weeks_p50", p.battery_weeks_p50);
        }
        o
    };
    let count_list = |items: &[(String, u64)]| {
        items
            .iter()
            .map(|(name, n)| {
                Json::obj()
                    .field("name", name.as_str())
                    .field("devices", *n)
            })
            .collect::<Vec<Json>>()
    };
    let histograms: Vec<Json> = agg
        .battery_histograms
        .iter()
        .map(|h| {
            Json::obj()
                .field("profile", h.profile.as_str())
                .field("instances", h.instances)
                .field("max_impact_percent", h.max_impact_percent)
                .field(
                    "bucket_edges_percent",
                    amulet_fleet::BATTERY_IMPACT_BUCKET_EDGES
                        .iter()
                        .map(|e| Json::F64(*e))
                        .collect::<Vec<_>>(),
                )
                .field(
                    "counts",
                    h.buckets.iter().map(|c| Json::U64(*c)).collect::<Vec<_>>(),
                )
        })
        .collect();

    let mut aggregate = Json::obj()
        .field("devices", agg.devices)
        .field(
            "devices_per_platform",
            count_list(&agg.devices_per_platform),
        )
        .field("devices_per_method", count_list(&agg.devices_per_method))
        .field("per_event", policy(&agg.per_event))
        .field("batched", policy(&agg.batched))
        .field(
            "switch_cycles_saved_percent",
            agg.switch_cycles_saved_percent,
        )
        .field(
            "switch_cycles_saved_per_event_percent",
            agg.switch_cycles_saved_per_event_percent,
        );
    if stepped {
        // What batching *costs* in delivery latency, next to what it
        // saves in switch cycles: the measured form of the DESIGN §6
        // latency trade.
        let (pe, ba) = (
            &agg.per_event.delivery_latency,
            &agg.batched.delivery_latency,
        );
        aggregate = aggregate.field(
            "latency_vs_batching",
            Json::obj()
                .field("per_event_p50_ms", pe.p50_ms)
                .field("per_event_p99_ms", pe.p99_ms)
                .field("batched_p50_ms", ba.p50_ms)
                .field("batched_p99_ms", ba.p99_ms)
                .field("batching_added_p50_ms", ba.p50_ms - pe.p50_ms)
                .field("batching_added_p99_ms", ba.p99_ms - pe.p99_ms),
        );
    }
    // The containment matrix and OTA-wave tallies exist only when the
    // scenario armed faults or waves — absent otherwise, like every
    // campaign field.
    if !agg.containment.is_empty() {
        aggregate = aggregate.field("containment", containment_json(&agg.containment));
    }
    if agg.ota_wave.devices > 0 {
        aggregate = aggregate.field("ota_wave", ota_wave_json(&agg.ota_wave));
    }
    let aggregate = aggregate.field("battery_impact_histograms", histograms);

    let mut doc = Json::obj()
        .field("bench", "fleet_sim")
        .field("scenario", scenario)
        .field("aggregate", aggregate);
    if let Some(secs) = wall_seconds {
        // Events/second is the scaling headline: a mostly-silent
        // 10⁵-device fleet does far less work per device than a dense one,
        // and devices/second alone would hide that.
        let events = agg.per_event.events_delivered + agg.batched.events_delivered;
        let rate = |n: f64| if secs > 0.0 { n / secs } else { 0.0 };
        doc = doc.field(
            "timing",
            Json::obj()
                .field("workers", workers)
                .field("wall_seconds", secs)
                .field("devices_per_second", rate(s.devices as f64))
                .field("events_per_second", rate(events as f64)),
        );
    }
    for (name, value) in extras {
        doc = doc.field(name, value);
    }
    doc.render()
}

/// Renders the per-(platform, method, fault) containment matrix as an
/// array of verdict-count rows, in the aggregate's deterministic
/// name-sorted order.
pub(crate) fn containment_json(rows: &[amulet_fleet::ContainmentRow]) -> Vec<Json> {
    rows.iter()
        .map(|r| {
            Json::obj()
                .field("platform", r.platform.as_str())
                .field("method", r.method.as_str())
                .field("fault", r.fault.as_str())
                .field("devices", r.devices)
                .field("caught_by_mpu", r.caught_by_mpu)
                .field("caught_by_software", r.caught_by_software)
                .field("escaped", r.escaped)
                .field("hung", r.hung)
                .field("crashed", r.crashed)
        })
        .collect()
}

/// Renders the fleet-wide OTA-wave tallies as one JSON object.
pub(crate) fn ota_wave_json(w: &amulet_fleet::OtaWaveStats) -> Json {
    Json::obj()
        .field("devices", w.devices)
        .field("installed", w.installed)
        .field("rolled_back", w.rolled_back)
        .field("bricked", w.bricked)
        .field("retried_devices", w.retried_devices)
        .field("attempts", w.attempts)
        .field("corrupt_attempts", w.corrupt_attempts)
        .field("backoff_ms", w.backoff_ms)
}

/// The `fleet_sim --verify` gate, run once before the campaign: `Ok`
/// when every image passes, otherwise the exit code 1, after one line
/// per failing firmware key on `err`.
pub fn verify_gate(v: &FleetVerifySummary, err: &mut dyn std::io::Write) -> Result<(), i32> {
    if v.passes_gate() {
        return Ok(());
    }
    for key in &v.gate_failures {
        let _ = writeln!(err, "fleet_sim: verify gate refused firmware {key}");
    }
    Err(1)
}

/// Renders a [`FleetVerifySummary`] as one JSON object — the `verifier`
/// section a `--verify` run attaches to its document.  Deterministic:
/// every field is a pure function of the scenario.
pub fn verify_summary_json(v: &FleetVerifySummary) -> Json {
    Json::obj()
        .field("images", v.images)
        .field("apps", v.apps)
        .field("proven_safe", v.proven_safe)
        .field("proven_escape", v.proven_escape)
        .field("unknown", v.unknown)
        .field("elidable_sites", v.elidable_sites)
        .field("elidable_candidates", v.elidable_candidates)
        .field("passes_gate", Json::Bool(v.passes_gate()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore, FleetReport};

    fn render(r: &FleetReport, wall_seconds: Option<f64>) -> String {
        render_document(
            &r.scenario,
            r.workers,
            &r.aggregate,
            wall_seconds,
            None,
            None,
        )
    }

    fn run(scenario: &FleetScenario, workers: usize) -> FleetReport {
        simulate_in(scenario, workers, &FirmwareStore::for_scenario(scenario))
    }

    /// The streaming summary's document: the renderer reads only the
    /// scenario, the worker count and the aggregate, which a summary and a
    /// materialised report share.
    fn summary_json(scenario: &FleetScenario, workers: usize) -> String {
        let s = simulate_summary_in(scenario, workers, &FirmwareStore::for_scenario(scenario));
        render_document(&s.scenario, s.workers, &s.aggregate, None, None, None)
    }

    fn tiny() -> FleetScenario {
        FleetScenario {
            devices: 16,
            events_per_device: 24,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn json_contains_the_headline_fields_and_balances() {
        let report = run(&tiny(), 2);
        let text = render(&report, Some(0.5));
        for needle in [
            "\"bench\": \"fleet_sim\"",
            "\"scenario\"",
            "\"aggregate\"",
            "\"per_event\"",
            "\"batched\"",
            "\"switch_cycles_saved_percent\"",
            "\"battery_impact_histograms\"",
            "\"devices_per_second\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn aggregate_json_is_identical_across_worker_counts() {
        // The fleet-determinism acceptance criterion, end to end: the
        // rendered aggregate document (timing omitted) must match byte for
        // byte between a serial and a parallel run of the same seed.
        let serial = render(&run(&tiny(), 1), None);
        let parallel = render(&run(&tiny(), 8), None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batching_saves_switch_cycles_in_the_rendered_report() {
        let report = run(&tiny(), 4);
        assert!(report.aggregate.batched.switch_cycles < report.aggregate.per_event.switch_cycles);
        let text = render(&report, None);
        assert!(!text.contains("\"timing\""), "timing only when measured");
    }

    #[test]
    fn arrival_order_reports_contain_no_stepped_fields() {
        let text = render(&run(&tiny(), 2), None);
        for absent in [
            "time_mode",
            "idle_joules",
            "idle_energy_share",
            "duty_cycle",
            "delivery_latency_ms",
            "battery_weeks_p50",
            "latency_vs_batching",
            "lpm_current_override_na",
            "silent_permille",
            "catalog_window",
            "truncated_events",
            "scaling",
            "firmware_store",
            "fault_permille",
            "step_budget",
            "watchdog",
            "ota_permille",
            "containment",
            "ota_wave",
            "\"verify\"",
            "elide_checks",
            "\"verifier\"",
        ] {
            assert!(!text.contains(absent), "{absent} leaked into arrival-order");
        }
    }

    #[test]
    fn verifier_knobs_and_section_render_only_when_armed() {
        let scenario = FleetScenario {
            verify: true,
            ..tiny()
        };
        let report = run(&scenario, 2);
        let summary = crate::lint::verify_fleet(&scenario, 2);
        assert_eq!(verify_gate(&summary, &mut Vec::new()), Ok(()));
        let text = render_document_with(
            &report.scenario,
            report.workers,
            &report.aggregate,
            None,
            vec![("verifier", verify_summary_json(&summary))],
        );
        for needle in [
            "\"verify\": true",
            "\"verifier\"",
            "\"passes_gate\": true",
            "\"proven_escape\": 0",
            "\"elidable_sites\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn a_failing_image_makes_the_verify_gate_exit_1_naming_its_key() {
        let summary = FleetVerifySummary {
            images: 3,
            apps: 4,
            proven_safe: 10,
            proven_escape: 2,
            unknown: 1,
            elidable_sites: 0,
            elidable_candidates: 5,
            gate_failures: vec!["cortex-m33|MPU|A+B".into(), "riscv-pmp|MPU|C".into()],
        };
        let mut err = Vec::new();
        assert_eq!(verify_gate(&summary, &mut err), Err(1));
        let err = String::from_utf8(err).unwrap();
        assert_eq!(
            err,
            "fleet_sim: verify gate refused firmware cortex-m33|MPU|A+B\n\
             fleet_sim: verify gate refused firmware riscv-pmp|MPU|C\n"
        );
    }

    #[test]
    fn storm_reports_render_the_containment_matrix_and_ota_wave() {
        let scenario = FleetScenario::storm(600);
        let text = summary_json(&scenario, 1);
        for needle in [
            "\"fault_permille\": 400",
            "\"step_budget\": 20000",
            "\"watchdog\"",
            "\"max_strikes\": 3",
            "\"ota_permille\": 250",
            "\"ota_corrupt_permille\": 200",
            "\"ota_max_retries\": 3",
            "\"containment\"",
            "\"caught_by_mpu\"",
            "\"escaped\"",
            "\"ota_wave\"",
            "\"bricked\": 0",
            "\"rolled_back\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        let parallel = summary_json(&scenario, 8);
        assert_eq!(text, parallel, "storm reports are worker-count-free");
    }

    #[test]
    fn summary_renders_the_same_document_as_the_materialised_report() {
        let scenario = FleetScenario {
            time_mode: amulet_fleet::TimeMode::Stepped,
            silent_permille: 400,
            catalog_window: Some((2, 4)),
            ..tiny()
        };
        let report = render(&run(&scenario, 2), None);
        let summary = summary_json(&scenario, 2);
        assert_eq!(report, summary);
        for needle in [
            "\"silent_permille\": 400",
            "\"catalog_window\"",
            "\"truncated_events\"",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn store_and_scaling_sections_render_after_timing_when_provided() {
        let report = run(&tiny(), 1);
        let text = render_document(
            &report.scenario,
            report.workers,
            &report.aggregate,
            Some(1.0),
            Some(Json::obj().field("top_devices", 100_000usize)),
            Some(Json::obj().field("builds", 3usize)),
        );
        assert!(text.contains("\"events_per_second\""));
        assert!(text.contains("\"top_devices\": 100000"));
        let at = |section: &str| text.find(&format!("\"{section}\"")).unwrap();
        assert!(at("timing") < at("firmware_store") && at("firmware_store") < at("scaling"));
    }

    #[test]
    fn stepped_reports_add_the_time_fields_and_stay_deterministic() {
        let scenario = FleetScenario {
            time_mode: amulet_fleet::TimeMode::Stepped,
            ..tiny()
        };
        let text = render(&run(&scenario, 2), None);
        for needle in [
            "\"time_mode\": \"stepped\"",
            "\"idle_joules\"",
            "\"idle_energy_share\"",
            "\"duty_cycle\"",
            "\"delivery_latency_ms\"",
            "\"battery_weeks_p50\"",
            "\"latency_vs_batching\"",
            "\"batching_added_p50_ms\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        let parallel = render(&run(&scenario, 8), None);
        assert_eq!(text, parallel, "stepped reports are worker-count-free");
    }
}

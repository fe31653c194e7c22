//! The hot-path bench: how fast does the simulator execute instructions,
//! and how many fleet devices per second does that buy?
//!
//! Two measurements, both emitted as `BENCH_hotpath.json` so the repo
//! keeps a perf trajectory across PRs:
//!
//! * **Microbench** — a tight arithmetic/load/store loop executed on one
//!   device with the MPU enabled, measured once with the bus's access-
//!   attribute cache on (the shipping configuration) and once with it off
//!   (every access runs the region cascade + MPU backend directly).  The
//!   ratio isolates what the flat attribute table buys on the per-access
//!   path; instruction fetch is O(1) in both modes.
//! * **Fleet throughput** — wall-clock devices/second for a
//!   [`FleetScenario`] run, the number the ROADMAP's "as fast as the
//!   hardware allows" goal is tracked by.  The JSON also records the
//!   pre-optimisation baseline measured at the commit this bench was
//!   introduced, so the speedup is visible without digging through git
//!   history.

use crate::json::Json;
use amulet_aft::aft::Aft;
use amulet_core::energy::EnergyModel;
use amulet_core::method::IsolationMethod;
use amulet_core::perm::AccessKind;
use amulet_fleet::{simulate_in, FirmwareStore, FleetScenario};
use amulet_mcu::code::InstrStore;
use amulet_mcu::cpu::StepEvent;
use amulet_mcu::device::{Device, StopReason};
use amulet_mcu::firmware::Firmware;
use amulet_mcu::isa::{AluOp, Instr, Reg, Width};
use amulet_mcu::mpu::{MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use amulet_os::events::{Event, EventKind};
use amulet_os::os::AmuletOs;
use std::time::Instant;

/// The `fleet_sim` devices/second measured immediately **before** the
/// hot-path optimisation landed (BTreeMap instruction fetch, per-access
/// region cascade + MPU dispatch), on the reference dev container: 1000
/// devices, 120 events each, 1 worker, default scenario seed.  Kept as the
/// denominator of the speedup this bench reports.
pub const BASELINE_FLEET_DEVICES_PER_SECOND: f64 = 225.0;

/// Shape of the baseline measurement (what `fleet_sim` was invoked with).
pub const BASELINE_FLEET_SCENARIO: (usize, usize, usize) = (1000, 120, 1);

/// One microbench measurement.
#[derive(Clone, Copy, Debug)]
pub struct MicrobenchResult {
    /// Whether the access-attribute cache was enabled.
    pub attr_cache: bool,
    /// Instructions executed.
    pub instructions: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated instructions per wall-clock second.
    pub instr_per_second: f64,
}

/// One fleet-throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct FleetThroughput {
    /// Devices simulated.
    pub devices: usize,
    /// Events delivered per device (per delivery policy).
    pub events_per_device: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Devices simulated per wall-clock second.
    pub devices_per_second: f64,
}

/// Builds the microbench device: a counting loop in MPU segment 1
/// (execute-only) that stores and re-loads its counter through segment 2
/// (read/write), with the segmented MPU enabled — so every iteration pays
/// one instruction-fetch check and two data-access checks, exactly the
/// per-access work the attribute cache collapses to a table index.
fn microbench_device() -> (Device, InstrStore) {
    let mut dev = Device::msp430fr5969();
    // Segment boundaries 0x6000/0x8000; seg1 execute-only, seg2 RW.
    dev.bus.write(MPUSEGB1, 2, 0x600).expect("segb1");
    dev.bus.write(MPUSEGB2, 2, 0x800).expect("segb2");
    dev.bus.write(MPUSAM, 2, 0x0034).expect("sam");
    dev.bus.write(MPUCTL0, 2, 0xA501).expect("ctl0");

    let mut code = InstrStore::new();
    let base = 0x4400;
    let mut cursor = base;
    let body = [
        Instr::MovImm {
            dst: Reg::R4,
            imm: 0,
        },
        Instr::MovImm {
            dst: Reg::R5,
            imm: 0x6000,
        },
        // loop:
        Instr::AluImm {
            op: AluOp::Add,
            dst: Reg::R4,
            imm: 1,
        },
        Instr::Store {
            src: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        },
        Instr::Load {
            dst: Reg::R6,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        },
        Instr::Alu {
            op: AluOp::Xor,
            dst: Reg::R6,
            src: Reg::R4,
        },
        Instr::Jmp { target: 0x4408 },
    ];
    for i in &body {
        code.insert(cursor, *i);
        cursor += i.size_bytes();
    }
    debug_assert_eq!(cursor, 0x441A, "loop layout: Jmp target must be 0x4408");
    dev.cpu.set_pc(base);
    dev.cpu.set_sp(0x2400);
    (dev, code)
}

/// Runs the tight loop for `steps` instructions and reports the rate.
pub fn run_microbench(steps: u64, attr_cache: bool) -> MicrobenchResult {
    let (mut dev, code) = microbench_device();
    dev.bus.set_attr_cache_enabled(attr_cache);
    dev.code = std::sync::Arc::new(code);
    // No warm-up: the bus resolved the attribute table when the MPU was
    // configured and again in `set_attr_cache_enabled`, so the timed
    // region pays only for execution.
    let started = Instant::now();
    let exit = dev.run(steps);
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(exit.reason, StopReason::StepLimit, "loop must not fault");
    assert_eq!(exit.steps, steps);
    MicrobenchResult {
        attr_cache,
        instructions: steps,
        wall_seconds: wall,
        instr_per_second: steps as f64 / wall.max(1e-9),
    }
}

/// Sanity-checks that the cached and direct paths agree on the microbench
/// device before any measurement is trusted: same decisions for a sweep of
/// reads/writes/fetches, and the same loop register state after `steps`
/// instructions.
pub fn verify_equivalence(steps: u64) -> bool {
    let (mut cached, code) = microbench_device();
    let (mut direct, code2) = microbench_device();
    direct.bus.set_attr_cache_enabled(false);
    cached.code = std::sync::Arc::new(code);
    direct.code = std::sync::Arc::new(code2);
    for addr in (0u32..0x1_0000).step_by(64) {
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            let a = match kind {
                AccessKind::Read => cached.bus.read(addr, 1).is_ok(),
                AccessKind::Write => cached.bus.write(addr & !1, 2, 0).is_ok(),
                AccessKind::Execute => cached.bus.check_execute(addr & !1).is_ok(),
            };
            let b = match kind {
                AccessKind::Read => direct.bus.read(addr, 1).is_ok(),
                AccessKind::Write => direct.bus.write(addr & !1, 2, 0).is_ok(),
                AccessKind::Execute => direct.bus.check_execute(addr & !1).is_ok(),
            };
            if a != b {
                return false;
            }
        }
    }
    // The sweep may have scribbled on the loop's data word; both devices
    // saw identical traffic, so the paired runs still must agree.
    for dev in [&mut cached, &mut direct] {
        dev.cpu.set_pc(0x4400);
        while let StepEvent::Continue = dev.step() {
            if dev.cpu.stats.instructions >= steps {
                break;
            }
        }
    }
    cached.cpu.reg(Reg::R4) == direct.cpu.reg(Reg::R4)
        && cached.cpu.cycles == direct.cpu.cycles
        && cached.bus.stats == direct.bus.stats
}

/// Elision counts for one isolation method on the paper's platform.
#[derive(Clone, Debug)]
pub struct ElisionCount {
    /// Isolation method label.
    pub method: String,
    /// Checks the verifier certified redundant and elided.
    pub elided: usize,
    /// Elidable-kind checks the compiler emitted.
    pub candidates: usize,
}

/// One measured run of the check-heavy catalogue workload.
#[derive(Clone, Copy, Debug)]
pub struct ElisionRun {
    /// Instructions the simulated CPU retired.
    pub instructions: u64,
    /// Simulated cycles consumed (identical across elided/unelided by
    /// construction — elision fillers are cycle-neutral).
    pub total_cycles: u64,
    /// Energy in joules (a pure function of cycles).
    pub energy_joules: f64,
    /// Faults raised.
    pub faults: u64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
    /// Retired instructions per wall-clock second.
    pub instr_per_second: f64,
    /// Simulated cycles per wall-clock second — the comparable
    /// throughput metric, since both images consume identical cycles.
    pub cycles_per_second: f64,
}

/// The check-elision measurement: per-method elision counts plus the
/// Software-Only catalogue driven with and without elision.
#[derive(Clone, Debug)]
pub struct ElisionBench {
    /// Elided/candidate counts per isolation method (fr5969 catalogue).
    pub profiles: Vec<ElisionCount>,
    /// Event rounds driven through each image (one event per app per
    /// round).
    pub rounds: usize,
    /// The unelided (oracle) run.
    pub unelided: ElisionRun,
    /// The elided run.
    pub elided: ElisionRun,
    /// Whether cycles, energy, faults and log agreed between the runs —
    /// the elision soundness bit, asserted before the numbers are
    /// trusted.
    pub outcomes_identical: bool,
}

impl ElisionBench {
    /// Share of retired instructions elision removed, in percent.
    pub fn instr_retired_drop_percent(&self) -> f64 {
        let (b, e) = (self.unelided.instructions, self.elided.instructions);
        if b == 0 {
            0.0
        } else {
            100.0 * (b.saturating_sub(e)) as f64 / b as f64
        }
    }

    /// Wall-clock speedup of the elided image on the same workload.
    pub fn workload_speedup(&self) -> f64 {
        self.unelided.wall_seconds / self.elided.wall_seconds.max(1e-9)
    }
}

/// Drives `rounds` rounds of one event per catalogue app (each app's
/// dominant handler, varying payloads) through a booted image and
/// reports the run's counters.  Returns the run plus the service-log
/// length used for the outcome comparison.
fn drive_catalogue(firmware: &Firmware, rounds: usize) -> (ElisionRun, usize) {
    let apps = amulet_apps::catalog();
    let energy = EnergyModel::msp430fr5969();
    let mut os = AmuletOs::new(firmware.clone());
    let started = Instant::now();
    os.boot();
    for round in 0..rounds {
        for (index, app) in apps.iter().enumerate() {
            let payload = ((round * 37 + index * 11) % 97) as u16;
            os.post_event(Event::new(
                index,
                app.dominant_handler().0,
                payload,
                EventKind::User,
            ));
            os.pump();
        }
    }
    os.flush();
    let wall = started.elapsed().as_secs_f64();
    let stats = os.cpu_stats();
    let cycles = os.total_cycles();
    (
        ElisionRun {
            instructions: stats.instructions,
            total_cycles: cycles,
            energy_joules: energy.cycles_to_joules(cycles),
            faults: stats.faults,
            wall_seconds: wall,
            instr_per_second: stats.instructions as f64 / wall.max(1e-9),
            cycles_per_second: cycles as f64 / wall.max(1e-9),
        },
        os.services.log.len(),
    )
}

/// Runs the check-elision bench: counts elided checks per isolation
/// method, then drives the check-heavy Software-Only catalogue for
/// `rounds` event rounds on the unelided and the elided image.
pub fn run_check_elision(rounds: usize) -> ElisionBench {
    let build = |method: IsolationMethod| {
        let mut aft = Aft::new(method);
        for app in amulet_apps::catalog() {
            aft = aft.add_app(app.app_source());
        }
        aft.build()
            .unwrap_or_else(|e| panic!("catalogue build {method}: {e}"))
    };
    let mut profiles = Vec::new();
    let mut software_only = None;
    for method in [
        IsolationMethod::NoIsolation,
        IsolationMethod::FeatureLimited,
        IsolationMethod::Mpu,
        IsolationMethod::SoftwareOnly,
    ] {
        let out = build(method);
        let outcome = amulet_verify::elide_checks(&out);
        profiles.push(ElisionCount {
            method: method.to_string(),
            elided: outcome.elided,
            candidates: outcome.candidates,
        });
        if method == IsolationMethod::SoftwareOnly {
            software_only = Some((out.firmware, outcome.firmware));
        }
    }
    let (unelided_fw, elided_fw) = software_only.expect("Software-Only profile measured");
    let (unelided, base_log) = drive_catalogue(&unelided_fw, rounds);
    let (elided, fast_log) = drive_catalogue(&elided_fw, rounds);
    let outcomes_identical = unelided.total_cycles == elided.total_cycles
        && unelided.energy_joules == elided.energy_joules
        && unelided.faults == elided.faults
        && base_log == fast_log;
    ElisionBench {
        profiles,
        rounds,
        unelided,
        elided,
        outcomes_identical,
    }
}

/// Runs a fleet scenario and reports wall-clock throughput.
pub fn run_fleet(devices: usize, events_per_device: usize, workers: usize) -> FleetThroughput {
    let scenario = FleetScenario {
        devices,
        events_per_device,
        ..FleetScenario::default()
    };
    let started = Instant::now();
    let report = simulate_in(&scenario, workers, &FirmwareStore::for_scenario(&scenario));
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(report.devices.len(), devices);
    FleetThroughput {
        devices,
        events_per_device,
        workers,
        wall_seconds: wall,
        devices_per_second: devices as f64 / wall.max(1e-9),
    }
}

/// Renders the whole document.
pub fn render_json(
    micro_cached: &MicrobenchResult,
    micro_direct: &MicrobenchResult,
    fleet: &FleetThroughput,
    elision: &ElisionBench,
) -> String {
    let elision_run = |r: &ElisionRun| {
        Json::obj()
            .field("instructions", r.instructions)
            .field("total_cycles", r.total_cycles)
            .field("energy_joules", r.energy_joules)
            .field("faults", r.faults)
            .field("wall_seconds", r.wall_seconds)
            .field("instr_per_second", r.instr_per_second)
            .field("cycles_per_second", r.cycles_per_second)
    };
    let micro = |m: &MicrobenchResult| {
        Json::obj()
            .field("attr_cache", m.attr_cache)
            .field("instructions", m.instructions)
            .field("wall_seconds", m.wall_seconds)
            .field("instr_per_second", m.instr_per_second)
    };
    let (b_devices, b_events, b_workers) = BASELINE_FLEET_SCENARIO;
    Json::obj()
        .field("bench", "hotpath")
        .field(
            "baseline",
            Json::obj()
                .field(
                    "label",
                    "pre-optimisation fleet_sim (BTreeMap fetch, per-access MPU cascade)",
                )
                .field("devices", b_devices as u64)
                .field("events_per_device", b_events as u64)
                .field("workers", b_workers as u64)
                .field("devices_per_second", BASELINE_FLEET_DEVICES_PER_SECOND),
        )
        .field("current", {
            let mut current = Json::obj()
                .field("devices", fleet.devices as u64)
                .field("events_per_device", fleet.events_per_device as u64)
                .field("workers", fleet.workers as u64)
                .field("wall_seconds", fleet.wall_seconds)
                .field("devices_per_second", fleet.devices_per_second);
            // A speedup is only meaningful against the baseline's own
            // scenario shape — a smaller fleet or more workers would
            // inflate the ratio for reasons unrelated to the hot path.
            if (fleet.devices, fleet.events_per_device, fleet.workers) == BASELINE_FLEET_SCENARIO {
                current = current.field(
                    "speedup_vs_baseline",
                    fleet.devices_per_second / BASELINE_FLEET_DEVICES_PER_SECOND,
                );
            } else {
                current = current.field(
                    "speedup_vs_baseline_note",
                    "scenario shape differs from the baseline; ratio omitted",
                );
            }
            current
        })
        .field(
            "microbench",
            Json::obj()
                .field("attr_cache_on", micro(micro_cached))
                .field("attr_cache_off", micro(micro_direct))
                .field(
                    "access_path_speedup",
                    micro_cached.instr_per_second / micro_direct.instr_per_second.max(1e-9),
                ),
        )
        .field(
            "check_elision",
            Json::obj()
                .field(
                    "elided_checks_per_profile",
                    elision
                        .profiles
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("method", p.method.as_str())
                                .field("elided", p.elided)
                                .field("candidates", p.candidates)
                        })
                        .collect::<Vec<_>>(),
                )
                .field("workload", "Software-Only catalogue, dominant handlers")
                .field("rounds", elision.rounds)
                .field("unelided", elision_run(&elision.unelided))
                .field("elided", elision_run(&elision.elided))
                .field(
                    "instr_retired_drop_percent",
                    elision.instr_retired_drop_percent(),
                )
                .field("workload_speedup", elision.workload_speedup())
                .field("outcomes_identical", elision.outcomes_identical),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_loop_runs_and_reports_a_rate() {
        let r = run_microbench(10_000, true);
        assert_eq!(r.instructions, 10_000);
        assert!(r.instr_per_second > 0.0);
        let d = run_microbench(10_000, false);
        assert_eq!(d.instructions, 10_000);
    }

    #[test]
    fn cached_and_direct_paths_agree() {
        assert!(verify_equivalence(5_000));
    }

    #[test]
    fn fleet_throughput_smoke_and_json_shape() {
        let micro = run_microbench(1_000, true);
        let direct = run_microbench(1_000, false);
        let fleet = run_fleet(8, 10, 1);
        let elision = run_check_elision(3);
        let text = render_json(&micro, &direct, &fleet, &elision);
        for needle in [
            "\"bench\": \"hotpath\"",
            "\"baseline\"",
            "\"devices_per_second\"",
            "\"access_path_speedup\"",
            "\"check_elision\"",
            "\"elided_checks_per_profile\"",
            "\"instr_retired_drop_percent\"",
            "\"outcomes_identical\": true",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        // This fleet shape differs from the baseline's, so the speedup
        // ratio must be omitted in favour of the explanatory note.
        assert!(text.contains("\"speedup_vs_baseline_note\""));
        assert!(!text.contains("\"speedup_vs_baseline\":"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());

        // A baseline-shaped measurement reports the ratio (synthesised
        // here; running the full baseline fleet is too slow for a test).
        let (devices, events_per_device, workers) = BASELINE_FLEET_SCENARIO;
        let baseline_shaped = FleetThroughput {
            devices,
            events_per_device,
            workers,
            wall_seconds: 1.0,
            devices_per_second: devices as f64,
        };
        let text = render_json(&micro, &direct, &baseline_shaped, &elision);
        assert!(text.contains("\"speedup_vs_baseline\":"));
    }

    #[test]
    fn check_elision_is_sound_and_retires_fewer_instructions() {
        let bench = run_check_elision(4);
        assert!(bench.outcomes_identical, "elision changed an outcome");
        // Software Only is check-heavy: it must both emit candidates and
        // certify a real fraction of them.
        let sw = bench
            .profiles
            .iter()
            .find(|p| p.method == IsolationMethod::SoftwareOnly.to_string())
            .expect("Software-Only profile counted");
        assert!(sw.candidates > 0 && sw.elided > 0);
        let none = bench
            .profiles
            .iter()
            .find(|p| p.method == IsolationMethod::NoIsolation.to_string())
            .expect("No-Isolation profile counted");
        assert_eq!((none.elided, none.candidates), (0, 0));
        assert!(
            bench.elided.instructions < bench.unelided.instructions,
            "elided image must retire fewer instructions"
        );
        assert_eq!(bench.elided.total_cycles, bench.unelided.total_cycles);
        assert_eq!(bench.elided.energy_joules, bench.unelided.energy_joules);
        assert!(bench.instr_retired_drop_percent() > 0.0);
    }
}

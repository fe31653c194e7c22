//! Static verification of a fleet's firmware images, and the
//! `firmware_lint` document that renders it.
//!
//! The fleet runner builds and runs images and never verifies them; the
//! harness verifies.  [`verify_fleet_reports`] builds every distinct image
//! a scenario deploys through the AFT and runs `amulet-verify` on each,
//! and [`verify_fleet`] folds the reports into one
//! [`FleetVerifySummary`].  `fleet_sim --verify` gates on that summary
//! once, before its campaign, and `firmware_lint` prints the per-image
//! reports.
//!
//! The document is a pure function of the scenario (worker count changes
//! nothing — the reports come back in derivation order), which is what
//! lets CI keep a golden fixture of it: any change to the verifier's
//! verdicts on the committed catalogue shows up as a byte diff, reviewed
//! like any other behaviour change and re-blessed with `BLESS_GOLDEN=1`.

use amulet_aft::{Aft, UnitMemo};
use amulet_fleet::{DeviceConfig, FleetScenario};
use amulet_verify::{verify_build, AccessVerdict, VerifyReport};
use std::fmt::Write as _;

/// Verdict counters from statically verifying every distinct firmware
/// image a scenario would build.
///
/// This is a pure function of the scenario — the images are built fresh
/// through the AFT, so the counters cannot depend on what a campaign left
/// in a firmware store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetVerifySummary {
    /// Distinct firmware images the fleet derivation produces.
    pub images: usize,
    /// Application instances verified across those images.
    pub apps: usize,
    /// Reachable memory accesses proven inside the app's isolation plan.
    pub proven_safe: usize,
    /// Reachable memory accesses proven to escape the plan.  Any
    /// non-zero count fails the gate.
    pub proven_escape: usize,
    /// Reachable memory accesses the abstract domain cannot decide.
    pub unknown: usize,
    /// Software bound checks certified redundant (lint findings).
    pub elidable_sites: usize,
    /// Software bound checks the redundancy lint considered.
    pub elidable_candidates: usize,
    /// Firmware keys whose report failed [`VerifyReport::passes_gate`],
    /// in derivation order.
    pub gate_failures: Vec<String>,
}

impl FleetVerifySummary {
    /// Whether every image in the fleet passed the verify gate.
    pub fn passes_gate(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Folds keyed per-image reports (as [`verify_fleet_reports`]
    /// returns them) into the fleet-wide counters.
    pub fn from_reports(reports: &[(String, VerifyReport)]) -> Self {
        let mut summary = FleetVerifySummary {
            images: reports.len(),
            apps: 0,
            proven_safe: 0,
            proven_escape: 0,
            unknown: 0,
            elidable_sites: 0,
            elidable_candidates: 0,
            gate_failures: Vec::new(),
        };
        for (key, report) in reports {
            summary.apps += report.apps.len();
            summary.proven_safe += report.proven_safe();
            summary.proven_escape += report.proven_escape();
            summary.unknown += report.unknown();
            summary.elidable_sites += report.elidable_sites();
            summary.elidable_candidates += report
                .apps
                .iter()
                .map(|a| a.elidable_candidates)
                .sum::<usize>();
            if !report.passes_gate() {
                summary.gate_failures.push(key.clone());
            }
        }
        summary
    }
}

/// Statically verifies every distinct firmware image `scenario` would
/// deploy on `workers` threads and folds the per-image [`VerifyReport`]s
/// into one [`FleetVerifySummary`].  The gate judges exactly the image
/// the compiler emitted, which is the image the fleet deploys.
pub fn verify_fleet(scenario: &FleetScenario, workers: usize) -> FleetVerifySummary {
    FleetVerifySummary::from_reports(&verify_fleet_reports(scenario, workers))
}

/// The per-image half of [`verify_fleet`]: statically verifies every
/// distinct firmware image `scenario` would deploy and returns the keyed
/// [`VerifyReport`]s in derivation order (the order
/// [`FleetScenario::distinct_configs_by_first_use`] first meets each
/// image).  Each of `workers` threads verifies one contiguous run of the
/// images, and every build compiles each distinct app once through one
/// shared memo.
pub fn verify_fleet_reports(
    scenario: &FleetScenario,
    workers: usize,
) -> Vec<(String, VerifyReport)> {
    let distinct = scenario.distinct_configs_by_first_use(workers);
    let memo = &UnitMemo::default();
    let run = distinct.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(run)
            .map(|images| {
                scope.spawn(move || {
                    images
                        .iter()
                        .map(|(key, cfg)| (key.clone(), verify_image(key, cfg, memo)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify worker panicked"))
            .collect()
    })
}

/// Builds device `cfg`'s image with its build report, compiling each
/// distinct app once per `memo`, and verifies it.
fn verify_image(key: &str, cfg: &DeviceConfig, memo: &UnitMemo) -> VerifyReport {
    let mut aft = Aft::for_platform(cfg.method, &cfg.platform);
    for app in &cfg.apps {
        aft = aft.add_app(app.app_source());
    }
    let out = aft
        .build_with(memo)
        .unwrap_or_else(|e| panic!("fleet firmware build failed for {key}: {e}"));
    verify_build(&out)
}

/// Renders the lint document for `scenario` and returns it with the
/// folded fleet-wide counters (whose `passes_gate()` decides the lint's
/// exit code).
pub fn lint_document(scenario: &FleetScenario, workers: usize) -> (String, FleetVerifySummary) {
    let reports = verify_fleet_reports(scenario, workers);
    let summary = FleetVerifySummary::from_reports(&reports);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "firmware_lint: scenario {:?} seed {:#x} — {} distinct images",
        scenario.name, scenario.seed, summary.images
    );
    // Compact per-image form: counters, structural findings and the
    // *undecided* accesses — the lines a reviewer needs to act on.  The
    // full proven-safe listing (one line per access) lives in the
    // report's `Display` and would swamp a committed fixture.
    for (key, report) in &reports {
        let _ = writeln!(out, "== {key}");
        let _ = writeln!(
            out,
            "  {} safe, {} unknown, {} escape, {} elidable",
            report.proven_safe(),
            report.unknown(),
            report.proven_escape(),
            report.elidable_sites(),
        );
        for app in &report.apps {
            let _ = writeln!(
                out,
                "  {}: {} reachable, {} dead, elidable {}/{}",
                app.app,
                app.reachable_instrs,
                app.dead_instrs,
                app.elidable_sites.len(),
                app.elidable_candidates,
            );
            for finding in &app.findings {
                let _ = writeln!(out, "    {finding}");
            }
            for access in &app.accesses {
                if access.verdict == AccessVerdict::Unknown {
                    let _ = writeln!(
                        out,
                        "    unknown: {:#06x} {} targets [{:#06x}, {:#06x}]",
                        access.at, access.instr, access.lo, access.hi
                    );
                }
                if access.verdict == AccessVerdict::ProvenEscape {
                    let _ = writeln!(
                        out,
                        "    ESCAPE: {:#06x} {} targets [{:#06x}, {:#06x}]",
                        access.at, access.instr, access.lo, access.hi
                    );
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "firmware_lint: {} images, {} apps — {} safe, {} unknown, {} escape, {}/{} elidable — {}",
        summary.images,
        summary.apps,
        summary.proven_safe,
        summary.unknown,
        summary.proven_escape,
        summary.elidable_sites,
        summary.elidable_candidates,
        if summary.passes_gate() {
            "GATE PASS"
        } else {
            "GATE FAIL"
        },
    );
    for key in &summary.gate_failures {
        let _ = writeln!(out, "firmware_lint: proven escape in {key}");
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_document_is_deterministic_and_passes_on_the_benign_mix() {
        let scenario = FleetScenario::scaling(40);
        let (a, summary) = lint_document(&scenario, 1);
        let (b, _) = lint_document(&scenario, 8);
        assert_eq!(a, b, "worker count must not reorder the document");
        assert!(summary.passes_gate(), "benign mix must pass");
        assert!(a.contains("GATE PASS"));
        assert!(a.contains("== "), "per-image sections present");
        assert!(!a.contains("proven escape in"));
    }
}

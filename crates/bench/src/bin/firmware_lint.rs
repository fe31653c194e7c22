//! Static firmware verifier over a fleet catalogue: builds every distinct
//! firmware image the given scenario would deploy, runs the `amulet-verify`
//! CFG + abstract-interpretation passes on each, and prints one
//! deterministic text document — per-image verdicts plus fleet-wide
//! counters.
//!
//! Usage:
//! `firmware_lint [--devices N] [--seed N] [--preset scaling|storm]
//!  [--workers N] [--out FILE]`
//! (defaults: the scaling preset at 1000 devices, one worker per host
//! core).
//!
//! Exit codes: 0 when every image passes the verify gate (no reachable
//! access proven to escape its isolation plan), 1 when any image fails
//! the gate, 2 on a usage error (an empty fleet, `--devices 0`, is one:
//! it would pass the gate on nothing).  CI runs the benign scaling catalogue
//! and requires exit 0; the document itself is pinned by a golden
//! fixture (`BLESS_GOLDEN=1` re-blesses it after a reviewed verifier
//! change).

use amulet_bench::lint::lint_document;
use amulet_fleet::FleetScenario;
use std::path::PathBuf;

const USAGE: &str = "usage: firmware_lint [--devices N] [--seed N] \
     [--preset scaling|storm] [--workers N] [--out FILE]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut devices: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut preset = "scaling".to_string();
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    let num = |flag: &str, s: &str| -> usize {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("{flag}: not a number: {s:?}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--devices" => devices = Some(num("--devices", &value("--devices", &mut it))),
            "--seed" => seed = Some(num("--seed", &value("--seed", &mut it)) as u64),
            "--workers" => workers = Some(num("--workers", &value("--workers", &mut it))),
            "--preset" => preset = value("--preset", &mut it),
            "--out" => out = Some(PathBuf::from(value("--out", &mut it))),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let n = devices.unwrap_or(1000);
    if n == 0 {
        // Zero images would pass the gate on nothing.
        fail("--devices must be at least 1");
    }
    let mut scenario = match preset.as_str() {
        "scaling" => FleetScenario::scaling(n),
        "storm" => FleetScenario::storm(n),
        other => fail(&format!("unknown preset {other:?}")),
    };
    if let Some(s) = seed {
        scenario.seed = s;
    }
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });

    let (doc, summary) = lint_document(&scenario, workers);
    print!("{doc}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &doc) {
            fail(&format!("could not write {}: {e}", path.display()));
        }
        eprintln!("wrote {}", path.display());
    }
    std::process::exit(if summary.passes_gate() { 0 } else { 1 });
}

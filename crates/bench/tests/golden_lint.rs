//! Golden fixture for the `firmware_lint` document.
//!
//! The lint document is a pure function of the scenario, so this test can
//! pin it byte for byte: any change to the verifier's verdicts on the
//! committed catalogue — a new finding, a lost elision, a verdict flip —
//! shows up as a fixture diff that must be reviewed and re-blessed
//! deliberately, never silently.
//!
//! To re-bless after an intentional verifier change:
//! `BLESS_GOLDEN=1 cargo test -p amulet-bench --test golden_lint`

use amulet_bench::lint::lint_document;
use amulet_fleet::FleetScenario;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/firmware_lint_scaling60.txt")
}

#[test]
fn lint_document_matches_the_golden_fixture() {
    let scenario = FleetScenario::scaling(60);
    let (doc, summary) = lint_document(&scenario, 4);
    assert!(
        summary.passes_gate(),
        "the benign scaling catalogue must pass the verify gate"
    );
    // The per-image reports are claimed across workers from a shared
    // counter, yet the document keeps the derivation order: any worker
    // count must render the same bytes.
    for workers in [1, 3, 8] {
        let (other, _) = lint_document(&scenario, workers);
        assert!(other == doc, "{workers} workers diverged from 4 workers");
    }

    let path = fixture_path();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with BLESS_GOLDEN=1",
            path.display()
        )
    });
    if doc != golden {
        // Find the first diverging line so the failure is actionable
        // without diffing 25 KB by hand.
        let mismatch = doc
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a:?} != {b:?}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ: {} vs {} lines",
                    doc.lines().count(),
                    golden.lines().count()
                )
            });
        panic!(
            "firmware_lint document diverged from the golden fixture \
             ({mismatch}); if the verifier change is intentional, re-bless \
             with BLESS_GOLDEN=1"
        );
    }
}

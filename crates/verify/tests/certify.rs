//! End-to-end certification tests: the verifier over real AFT builds,
//! cross-validated against the *dynamic* containment matrix pinned in
//! `crates/fleet/tests/containment.rs`.
//!
//! The dynamic matrix establishes, per (platform, method, fault kind),
//! what a controlled probe actually does: `Escaped` (fr5994 MPU
//! wild-write-peripheral/vector, fr5969 wild-write-vector, No Isolation
//! wild-write-os-ram), `CaughtByMpu`, `CaughtBySoftware` or `Hung`.
//! The static soundness criterion is the complement:
//!
//! * **benign** apps must never produce a proven-escape on any profile
//!   (the gate the fleet build refuses on);
//! * an **adversarial** app whose probe dynamically escaped or was
//!   caught must never be certified clean *by the pass that matters*:
//!   under No Isolation and MPU its attack access must stay
//!   non-proven-safe (the verdict the dynamic `Escaped`/`CaughtByMpu`
//!   cells correspond to), and under the software-check methods the
//!   checks that dynamically catch it (`CaughtBySoftware`) must never
//!   be certified redundant.  (Under Software Only the *checked* store
//!   itself may legitimately prove safe — the guarding checks clamp the
//!   pointer on the fall-through path, which is exactly why they are
//!   needed.)

use amulet_aft::aft::{Aft, AppSource, BuildOutput};
use amulet_apps::adversarial::FaultKind;
use amulet_apps::catalog;
use amulet_core::method::IsolationMethod;
use amulet_core::platform::builtin_platforms;
use amulet_verify::{verify_build, AccessVerdict, Finding};
use std::collections::BTreeSet;

const METHODS: [IsolationMethod; 4] = [
    IsolationMethod::NoIsolation,
    IsolationMethod::FeatureLimited,
    IsolationMethod::Mpu,
    IsolationMethod::SoftwareOnly,
];

fn build_catalogue(
    method: IsolationMethod,
    platform: &amulet_core::layout::PlatformSpec,
) -> BuildOutput {
    let mut aft = Aft::for_platform(method, platform);
    for app in catalog() {
        aft = aft.add_app(app.app_source());
    }
    aft.build()
        .unwrap_or_else(|e| panic!("catalogue build {method}: {e}"))
}

/// The benign catalogue certifies containment on every platform ×
/// method: zero proven-escape accesses (the fleet gate), every app
/// reachable from its handlers, and a substantial proven-safe majority.
#[test]
fn benign_catalogue_certifies_containment_everywhere() {
    for platform in builtin_platforms() {
        for method in METHODS {
            let out = build_catalogue(method, &platform);
            let report = verify_build(&out);
            let ctx = format!("{}/{}", report.platform, method);
            assert!(report.passes_gate(), "{ctx}: gate refused:\n{report}");
            assert_eq!(report.proven_escape(), 0, "{ctx}");
            assert!(report.proven_safe() > 0, "{ctx}: nothing proven safe");
            for app in &report.apps {
                assert!(app.entry_points > 0, "{ctx}/{}", app.app);
                assert!(app.reachable_instrs > 0, "{ctx}/{}", app.app);
                assert!(
                    !app.findings.iter().any(|f| matches!(
                        f,
                        Finding::OddTarget { .. } | Finding::OutOfImage { .. }
                    )),
                    "{ctx}/{}: structural finding in benign app",
                    app.app
                );
            }
        }
    }
}

/// Software Only is the check-heavy profile: the verifier certifies a
/// real fraction of the compiler's bound checks as redundant (the lint
/// finding), and the build still passes the gate.
#[test]
fn software_only_catalogue_elides_redundant_checks() {
    let platform = builtin_platforms().remove(2); // msp430fr5994
    let out = build_catalogue(IsolationMethod::SoftwareOnly, &platform);
    let report = verify_build(&out);
    let candidates: usize = report.apps.iter().map(|a| a.elidable_candidates).sum();
    assert!(candidates > 0, "no elidable-kind checks emitted");
    assert!(
        report.elidable_sites() > 0,
        "verifier certified nothing on the benign catalogue ({candidates} candidates)"
    );
    assert!(report.elidable_sites() <= candidates);
    assert!(report.passes_gate(), "gate refused:\n{report}");
    assert_eq!(report.proven_escape(), 0);
}

/// No Isolation emits no software checks at all, so the redundancy lint
/// has nothing to consider there.  (MPU is *not* in this set: on MSP430
/// the three-segment MPU cannot police every boundary, so its builds
/// carry a residual software check list with genuine candidates.)
#[test]
fn elision_is_identity_without_software_checks() {
    let out = Aft::new(IsolationMethod::NoIsolation)
        .add_app(catalog()[0].app_source())
        .build()
        .unwrap();
    let report = verify_build(&out);
    let candidates: usize = report.apps.iter().map(|a| a.elidable_candidates).sum();
    assert_eq!(candidates, 0);
    assert_eq!(report.elidable_sites(), 0);
}

/// The interval domain models remainders (DESIGN §9): `x % N` for a
/// provably-positive divisor bounds the result to `[0, N-1]`, so a
/// modular-index array store certifies — but only when the dividend is
/// provably non-negative, because the CPU's remainder is *signed* and a
/// negative dividend wraps to a large unsigned remainder.  The
/// unconstrained variant of the same access must therefore stay Unknown.
#[test]
fn modular_index_access_certifies_with_nonnegative_dividend() {
    const MODULAR_SAFE: &str = r#"
        int buf[8];
        void main(void) { }
        int go(int x) {
            int i;
            i = (x & 1023) % 8;
            buf[i] = x;
            return i;
        }
    "#;
    // Identical shape, but the payload-controlled dividend may be
    // negative: (-3) % 8 == -3 on this CPU, i.e. 0xFFFD as an index.
    const MODULAR_SIGNED: &str = r#"
        int buf[8];
        void main(void) { }
        int go(int x) {
            int i;
            i = x % 8;
            buf[i] = x;
            return i;
        }
    "#;
    let verify = |src| {
        verify_build(
            &Aft::new(IsolationMethod::NoIsolation)
                .add_app(AppSource::new("Modular", src, &["main", "go"]))
                .build()
                .unwrap(),
        )
    };
    let safe = verify(MODULAR_SAFE);
    let app = &safe.apps[0];
    assert_eq!(
        app.count(AccessVerdict::Unknown),
        0,
        "the clamped modular index must certify:\n{safe}"
    );
    assert_eq!(app.count(AccessVerdict::ProvenEscape), 0);
    assert!(app.count(AccessVerdict::ProvenSafe) > 0);

    let signed = verify(MODULAR_SIGNED);
    let app = &signed.apps[0];
    assert!(
        app.count(AccessVerdict::Unknown) > 0,
        "a possibly-negative dividend must not certify:\n{signed}"
    );
}

/// Every adversarial variant of the PR 8 fault campaign, on every
/// platform × method profile, cross-checked against its dynamic verdict
/// (see module docs): the attack is never statically certified away.
#[test]
fn adversarial_variants_are_never_certified_clean() {
    for platform in builtin_platforms() {
        for method in METHODS {
            // Kinds sharing one app share one image; build each app once.
            let mut done: BTreeSet<&'static str> = BTreeSet::new();
            for kind in FaultKind::ALL {
                let adapted = kind.adapted_for(method);
                let adv = adapted.app();
                if !done.insert(adv.name) {
                    continue;
                }
                let out = Aft::for_platform(method, &platform)
                    .add_app(catalog()[0].app_source())
                    .add_app(adv.app_source())
                    .build()
                    .unwrap_or_else(|e| panic!("{method}/{}: {e}", adv.name));
                let report = verify_build(&out);
                let app = report
                    .apps
                    .iter()
                    .find(|a| a.app == adv.name)
                    .expect("adversarial app verified");
                let ctx = format!("{}/{}/{}", report.platform, method, adv.name);

                match adapted {
                    // Liveness attack: contained by the watchdog, not by
                    // memory policing — nothing for the verifier to pin.
                    FaultKind::RunawayLoop => {}
                    // Control-flow attack: the indirect call is surfaced
                    // as a finding (and its function-pointer checks, when
                    // the method emits them, survive — asserted above).
                    FaultKind::WildCallPeripheral => {
                        assert!(
                            app.findings
                                .iter()
                                .any(|f| matches!(f, Finding::IndirectFlow { call: true, .. })),
                            "{ctx}: indirect call not surfaced"
                        );
                    }
                    // Memory attacks: under the methods without software
                    // checks the payload-controlled access must stay
                    // non-proven-safe — matching the dynamic Escaped /
                    // CaughtByMpu verdicts.  Under the software methods
                    // the checks clamp the access (CaughtBySoftware), so
                    // the surviving checks asserted above are the pin.
                    _ => {
                        if matches!(method, IsolationMethod::NoIsolation | IsolationMethod::Mpu) {
                            assert!(
                                app.count(AccessVerdict::Unknown)
                                    + app.count(AccessVerdict::ProvenEscape)
                                    > 0,
                                "{ctx}: payload-controlled access certified safe"
                            );
                        }
                    }
                }

                // Guard survival: whenever the build emits checks for
                // this app, the ones policing the payload-controlled
                // access can never certify (its pointer is statically
                // unknown), so *some* candidate must stay unproven.
                // Constant-index checks of the same app (ArrayOob's
                // `a[0]` read-back) may legitimately prove redundant — the pin is
                // "strictly fewer than all", not "none".
                if adapted != FaultKind::RunawayLoop && app.elidable_candidates > 0 {
                    assert!(
                        app.elidable_sites.len() < app.elidable_candidates,
                        "{ctx}: every attack-guarding check certified redundant ({}/{})",
                        app.elidable_sites.len(),
                        app.elidable_candidates
                    );
                }
            }
        }
    }
}

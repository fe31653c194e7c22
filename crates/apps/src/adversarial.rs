//! Adversarial application variants for fault-injection campaigns.
//!
//! The paper's central claim is that MPU-backed isolation *contains*
//! misbehaving applications; this module supplies the misbehaviour.  Each
//! [`FaultKind`] names one attack the fleet's seeded `FaultInjector` can
//! draw for a device: wild data-pointer writes into OS RAM, peripheral
//! space, boot ROM, a neighbouring app's data or the interrupt vector
//! table; a wild indirect call into peripheral space; a runaway loop; a
//! stack smasher; and an out-of-bounds array write.
//!
//! The attack *target address* always arrives as the handler payload, so a
//! single static source serves every target space — the fleet layer
//! computes the concrete address from the platform memory map and the
//! firmware's real app placements.  Kinds that need language features an
//! isolation method forbids (pointers, recursion under Feature Limited)
//! are [adapted](FaultKind::adapted_for) to an equivalent attack the
//! method's front end accepts, mirroring how a real adversary is limited
//! to the deployed toolchain.

use crate::catalog::CatalogApp;
use amulet_arp::profile::{AppProfile, HandlerProfile};
use amulet_core::method::IsolationMethod;

/// One attack the fault injector can arm on a device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FaultKind {
    /// Wild data-pointer write into the OS stack in SRAM.
    WildWriteOsRam,
    /// Wild data-pointer write into memory-mapped peripheral space.
    WildWritePeripheral,
    /// Wild data-pointer write into the bootstrap-loader ROM.
    WildWriteBootRom,
    /// Wild data-pointer write into another app's data region.
    WildWriteNeighbor,
    /// Wild data-pointer write into the interrupt vector table.
    WildWriteVector,
    /// Wild indirect call through a corrupted function pointer into
    /// peripheral space.
    WildCallPeripheral,
    /// A handler that never returns (bounded only by the OS watchdog).
    RunawayLoop,
    /// Unbounded recursion marching the stack pointer out of the app's
    /// allocation.
    StackSmash,
    /// Out-of-bounds array write (the attack that survives the Feature
    /// Limited front end, which rejects pointers and recursion).
    ArrayOob,
}

impl FaultKind {
    /// Every fault kind, in the order the injector draws them.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::WildWriteOsRam,
        FaultKind::WildWritePeripheral,
        FaultKind::WildWriteBootRom,
        FaultKind::WildWriteNeighbor,
        FaultKind::WildWriteVector,
        FaultKind::WildCallPeripheral,
        FaultKind::RunawayLoop,
        FaultKind::StackSmash,
        FaultKind::ArrayOob,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WildWriteOsRam => "wild-write-os-ram",
            FaultKind::WildWritePeripheral => "wild-write-peripheral",
            FaultKind::WildWriteBootRom => "wild-write-boot-rom",
            FaultKind::WildWriteNeighbor => "wild-write-neighbor",
            FaultKind::WildWriteVector => "wild-write-vector",
            FaultKind::WildCallPeripheral => "wild-call-peripheral",
            FaultKind::RunawayLoop => "runaway-loop",
            FaultKind::StackSmash => "stack-smash",
            FaultKind::ArrayOob => "array-oob",
        }
    }

    /// The kind actually armed on a device compiled with `method`: the
    /// Feature Limited front end rejects pointers and recursion, so every
    /// pointer- or recursion-based attack degrades to the out-of-bounds
    /// array write (its `ArrayBounds` check is exactly the defence the
    /// method stakes its claim on).  Other methods run every kind as-is.
    pub fn adapted_for(self, method: IsolationMethod) -> FaultKind {
        if method == IsolationMethod::FeatureLimited && self != FaultKind::RunawayLoop {
            FaultKind::ArrayOob
        } else {
            self
        }
    }

    /// The adversarial application implementing this kind.  Kinds that
    /// share a source share the app (and therefore the firmware image):
    /// every wild write is the same program aimed at a different payload
    /// address.
    pub fn app(self) -> CatalogApp {
        match self {
            FaultKind::WildWriteOsRam
            | FaultKind::WildWritePeripheral
            | FaultKind::WildWriteBootRom
            | FaultKind::WildWriteNeighbor
            | FaultKind::WildWriteVector => wild_writer(),
            FaultKind::WildCallPeripheral => wild_caller(),
            FaultKind::RunawayLoop => runaway(),
            FaultKind::StackSmash => smasher(),
            FaultKind::ArrayOob => array_oob(),
        }
    }

    /// A payload for trace-driven repeat attacks when the fleet has no
    /// computed target (the controlled probe supplies the real address).
    pub fn default_payload(self) -> u16 {
        match self {
            FaultKind::RunawayLoop => 1,
            FaultKind::StackSmash => 0x4000,
            FaultKind::ArrayOob => 0x3000,
            _ => 0x0020,
        }
    }
}

/// The adversarial apps, one per distinct source (for catalogue listings
/// and exhaustive build tests).
pub fn adversarial_catalog() -> Vec<CatalogApp> {
    vec![
        wild_writer(),
        wild_caller(),
        runaway(),
        smasher(),
        array_oob(),
    ]
}

fn wild_writer() -> CatalogApp {
    CatalogApp {
        name: "WildWrite",
        source: r#"
            void main(void) { }
            int attack(int where) {
                int *p;
                p = where;
                *p = 4660;
                return 1;
            }
        "#,
        handlers: &["main", "attack"],
        profile: AppProfile::new(
            "WildWrite",
            vec![HandlerProfile::new("attack", 1, 0, 120.0)],
        ),
    }
}

fn wild_caller() -> CatalogApp {
    CatalogApp {
        name: "WildCall",
        source: r#"
            void main(void) { }
            int attack(int where) {
                fnptr f;
                f = where;
                return f(7);
            }
        "#,
        handlers: &["main", "attack"],
        profile: AppProfile::new("WildCall", vec![HandlerProfile::new("attack", 1, 0, 120.0)]),
    }
}

fn runaway() -> CatalogApp {
    CatalogApp {
        name: "Runaway",
        source: r#"
            void main(void) { }
            int attack(int go) {
                int x = 0;
                while (go != 0) { x = x + go; }
                return x;
            }
        "#,
        handlers: &["main", "attack"],
        profile: AppProfile::new("Runaway", vec![HandlerProfile::new("attack", 1, 0, 60.0)]),
    }
}

fn smasher() -> CatalogApp {
    CatalogApp {
        name: "Smash",
        source: r#"
            void main(void) { }
            int attack(int depth) {
                if (depth == 0) { return 0; }
                return 1 + attack(depth - 1);
            }
        "#,
        handlers: &["main", "attack"],
        profile: AppProfile::new("Smash", vec![HandlerProfile::new("attack", 1, 0, 60.0)]),
    }
}

fn array_oob() -> CatalogApp {
    CatalogApp {
        name: "ArrayOob",
        source: r#"
            int a[4];
            void main(void) { }
            int attack(int i) {
                a[i] = 4660;
                return a[0];
            }
        "#,
        handlers: &["main", "attack"],
        profile: AppProfile::new("ArrayOob", vec![HandlerProfile::new("attack", 2, 0, 120.0)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_aft::aft::Aft;

    #[test]
    fn every_kind_has_a_distinct_label() {
        let mut seen = std::collections::HashSet::new();
        for k in FaultKind::ALL {
            assert!(seen.insert(k.label()));
        }
        assert_eq!(seen.len(), FaultKind::ALL.len());
    }

    #[test]
    fn adversarial_apps_compile_under_pointerful_methods() {
        for method in [
            IsolationMethod::NoIsolation,
            IsolationMethod::Mpu,
            IsolationMethod::SoftwareOnly,
        ] {
            for app in adversarial_catalog() {
                let aft = Aft::new(method).add_app(app.app_source());
                aft.build()
                    .unwrap_or_else(|e| panic!("{method}/{}: {e}", app.name));
            }
        }
    }

    #[test]
    fn feature_limited_adaptation_builds_for_every_kind() {
        for kind in FaultKind::ALL {
            let adapted = kind.adapted_for(IsolationMethod::FeatureLimited);
            let app = adapted.app();
            let aft = Aft::new(IsolationMethod::FeatureLimited).add_app(app.app_source());
            aft.build()
                .unwrap_or_else(|e| panic!("{:?} -> {:?}: {e}", kind, adapted));
        }
    }

    #[test]
    fn non_feature_limited_methods_run_kinds_unadapted() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.adapted_for(IsolationMethod::Mpu), kind);
            assert_eq!(kind.adapted_for(IsolationMethod::NoIsolation), kind);
        }
        assert_eq!(
            FaultKind::WildWriteVector.adapted_for(IsolationMethod::FeatureLimited),
            FaultKind::ArrayOob
        );
        assert_eq!(
            FaultKind::RunawayLoop.adapted_for(IsolationMethod::FeatureLimited),
            FaultKind::RunawayLoop
        );
    }

    #[test]
    fn adversarial_names_do_not_collide_with_the_catalog() {
        let names: Vec<&str> = crate::catalog().iter().map(|a| a.name).collect();
        for app in adversarial_catalog() {
            assert!(!names.contains(&app.name), "{} collides", app.name);
        }
    }
}

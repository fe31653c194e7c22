//! The fleet's fault injector: containment verdicts for seeded
//! adversarial probes, and the OTA verify-retry-rollback transaction.
//!
//! The paper's central claim is qualitative — MPU-backed isolation
//! *contains* misbehaving applications.  The fleet layer makes it
//! quantitative: scenarios with [`FleetScenario::fault_permille`] set
//! draw an [`amulet_apps::adversarial`] attack per affected device (like
//! any other scenario dimension), deliver one controlled probe whose
//! payload is the concrete target address computed from the device's
//! real memory map ([`attack_payload`]), and classify what the platform
//! did about it ([`classify`]).  Folding the verdicts per (platform,
//! method, attack) yields the containment matrix — where the five
//! `RegionConstraints` profiles measurably differ, because their
//! MPU jurisdictions differ.
//!
//! The same scenarios can drive an **OTA wave**
//! ([`FleetScenario::ota_permille`]): affected devices re-install their
//! firmware mid-campaign through the versioned envelope of
//! [`amulet_mcu::serial`] — the exact encoding the on-disk
//! [`crate::store::FirmwareStore`] trusts.  Each delivery attempt may be
//! corrupted by a seeded bit flip; [`verify_envelope`] catches every such
//! flip, the device retries under a seeded exponential backoff, and when
//! the retries run out it **rolls back** to the image it is already
//! running.  A device can therefore end an OTA in exactly two states —
//! updated or rolled back — never bricked, and the fold counts all three
//! so CI can assert the third stays zero.
//!
//! [`FleetScenario::fault_permille`]: crate::scenario::FleetScenario::fault_permille
//! [`FleetScenario::ota_permille`]: crate::scenario::FleetScenario::ota_permille

use crate::scenario::splitmix64;
use amulet_apps::adversarial::FaultKind;
use amulet_core::fault::FaultClass;
use amulet_mcu::firmware::Firmware;
use amulet_mcu::serial::{encode_firmware, verify_envelope};
use amulet_os::os::DeliveryOutcome;
use amulet_os::policy::backoff_delay;

/// What a platform did about one injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Verdict {
    /// The access trapped in memory-protection hardware (MPU / PMP /
    /// stack guard) before touching the target.
    CaughtByMpu,
    /// A compiled-in software check (pointer bound, array bound) refused
    /// the access before it was attempted.
    CaughtBySoftware,
    /// The probe ran to completion: the attack landed unopposed.  The
    /// paper's escape case — nonzero only where a profile's MPU
    /// jurisdiction has holes (e.g. the FR5994's unpoliced peripheral
    /// window).
    Escaped,
    /// The OS watchdog declared the handler runaway and cut it off.
    Hung,
    /// The handler crashed on *non-protection* hardware — a write refused
    /// by ROM write-protect, a fetch from an unmapped or undecodable
    /// address — rather than being policed.  The damage is contained, but
    /// by accident of the memory map, not by the isolation method.
    Crashed,
}

impl Verdict {
    /// Every verdict, in fold/report order.
    pub const ALL: [Verdict; 5] = [
        Verdict::CaughtByMpu,
        Verdict::CaughtBySoftware,
        Verdict::Escaped,
        Verdict::Hung,
        Verdict::Crashed,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::CaughtByMpu => "caught_by_mpu",
            Verdict::CaughtBySoftware => "caught_by_software",
            Verdict::Escaped => "escaped",
            Verdict::Hung => "hung",
            Verdict::Crashed => "crashed",
        }
    }

    /// Position in [`Verdict::ALL`] (the containment-cell index).
    pub fn index(self) -> usize {
        Verdict::ALL
            .iter()
            .position(|v| *v == self)
            .expect("verdict listed in ALL")
    }
}

/// The armed attack and its verdict, as recorded on a device result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProbe {
    /// The attack that was armed (already adapted to the device's
    /// isolation method).
    pub kind: FaultKind,
    /// What the platform did about it.
    pub verdict: Verdict,
}

/// Classifies a probe delivery outcome into a containment verdict.
///
/// `Completed` (and the never-expected `Skipped`) means nothing stopped
/// the attack.  Among faults, the hardware-containment classes
/// ([`FaultClass::MpuViolation`], [`FaultClass::StackOverflow`]) are the
/// MPU's; [`FaultClass::WatchdogBudget`] is the OS watchdog's;
/// [`FaultClass::IllegalInstruction`] is a crash on non-protection
/// hardware (ROM write-protect, unmapped bus, undecodable fetch); every
/// remaining class is a compiled-in software check.
pub fn classify(outcome: DeliveryOutcome) -> Verdict {
    match outcome {
        DeliveryOutcome::Completed | DeliveryOutcome::Skipped => Verdict::Escaped,
        DeliveryOutcome::Faulted(FaultClass::MpuViolation | FaultClass::StackOverflow) => {
            Verdict::CaughtByMpu
        }
        DeliveryOutcome::Faulted(FaultClass::WatchdogBudget) => Verdict::Hung,
        DeliveryOutcome::Faulted(FaultClass::IllegalInstruction) => Verdict::Crashed,
        DeliveryOutcome::Faulted(_) => Verdict::CaughtBySoftware,
    }
}

/// The concrete attack payload for a probe on this firmware: the target
/// address, computed from the platform memory map and the image's real
/// placements.  The adversarial app is always installed *last*, so
/// `apps[0]` is a normal neighbour.
pub fn attack_payload(kind: FaultKind, firmware: &Firmware) -> u16 {
    let p = &firmware.memory_map.platform;
    match kind {
        FaultKind::WildWriteOsRam => firmware.memory_map.os_stack.start as u16,
        FaultKind::WildWritePeripheral | FaultKind::WildCallPeripheral => {
            (p.peripherals.start + 0x20) as u16
        }
        FaultKind::WildWriteBootRom => (p.bootstrap_loader.start + 4) as u16,
        FaultKind::WildWriteNeighbor => firmware.apps[0].placement.data.start as u16,
        FaultKind::WildWriteVector => (p.interrupt_vectors.start + 2) as u16,
        _ => kind.default_payload(),
    }
}

/// How one device's OTA re-install ended.
///
/// Structurally a device finishes an OTA `installed` **xor**
/// `rolled_back`; [`OtaOutcome::bricked`] exists so the fold (and CI) can
/// assert the impossible state stays impossible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtaOutcome {
    /// Virtual campaign time the wave reached this device, staggered by
    /// the OTA seed across the trace span.
    pub install_at_ms: u64,
    /// Delivery attempts made (first try plus retries).
    pub attempts: u32,
    /// Attempts the envelope verification rejected.
    pub corrupt_attempts: u32,
    /// The re-installed image verified and was accepted.
    pub installed: bool,
    /// Retries ran out; the device kept the image it was running.
    pub rolled_back: bool,
    /// Total seeded retry backoff the device waited, in milliseconds.
    pub backoff_ms: u64,
}

impl OtaOutcome {
    /// A device that neither installed nor rolled back — unreachable by
    /// construction, counted so reports can prove it.
    pub fn bricked(&self) -> bool {
        !self.installed && !self.rolled_back
    }
}

/// Base of the seeded exponential OTA retry backoff, in milliseconds.
const OTA_RETRY_BASE_MS: u32 = 250;

/// Runs one device's OTA transaction: encode the image into the
/// versioned envelope, deliver it (each attempt independently subject to
/// a seeded single-bit flip at `corrupt_permille`), verify with
/// [`verify_envelope`], retry up to `max_retries` times under seeded
/// exponential backoff, and roll back when the retries run out.  A pure
/// function of its arguments — the wave is byte-identical for every
/// worker count.
pub fn run_ota(
    firmware: &Firmware,
    key: &str,
    seed: u64,
    span_ms: u64,
    corrupt_permille: u16,
    max_retries: u32,
    device_index: usize,
) -> OtaOutcome {
    let image = encode_firmware(key, firmware);
    let mut state = seed;
    let mut out = OtaOutcome {
        install_at_ms: seed % span_ms.max(1),
        attempts: 0,
        corrupt_attempts: 0,
        installed: false,
        rolled_back: false,
        backoff_ms: 0,
    };
    while out.attempts <= max_retries {
        out.attempts += 1;
        let mut received = image.clone();
        if corrupt_permille > 0 && splitmix64(&mut state) % 1000 < u64::from(corrupt_permille) {
            // The PR-7 corruption model: one seeded bit flip anywhere in
            // the envelope.  Magic, version, length, content hash and the
            // embedded key are all covered, so verification must fail.
            let pos = (splitmix64(&mut state) % received.len() as u64) as usize;
            let bit = splitmix64(&mut state) % 8;
            received[pos] ^= 1 << bit;
        }
        match verify_envelope(&received) {
            Ok(embedded) if embedded == key => {
                out.installed = true;
                return out;
            }
            _ => {
                out.corrupt_attempts += 1;
                if out.attempts <= max_retries {
                    out.backoff_ms += u64::from(backoff_delay(
                        OTA_RETRY_BASE_MS,
                        seed,
                        device_index,
                        out.attempts,
                    ));
                }
            }
        }
    }
    out.rolled_back = true;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FleetScenario;

    fn some_firmware() -> std::sync::Arc<Firmware> {
        let s = FleetScenario::default();
        let cfg = s.device_config(0);
        crate::run::build_firmware(&cfg.firmware_key(), &cfg, &Default::default())
    }

    #[test]
    fn verdicts_have_distinct_labels_and_stable_indices() {
        let labels: std::collections::BTreeSet<_> =
            Verdict::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), Verdict::ALL.len());
        for (i, v) in Verdict::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn classification_covers_the_matrix_buckets() {
        assert_eq!(classify(DeliveryOutcome::Completed), Verdict::Escaped);
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::MpuViolation)),
            Verdict::CaughtByMpu
        );
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::StackOverflow)),
            Verdict::CaughtByMpu
        );
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::WatchdogBudget)),
            Verdict::Hung
        );
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::IllegalInstruction)),
            Verdict::Crashed
        );
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::DataPointerLowerBound)),
            Verdict::CaughtBySoftware
        );
        assert_eq!(
            classify(DeliveryOutcome::Faulted(FaultClass::ArrayBounds)),
            Verdict::CaughtBySoftware
        );
    }

    #[test]
    fn attack_payloads_target_the_advertised_spaces() {
        let fw = some_firmware();
        let p = &fw.memory_map.platform;
        let peri = attack_payload(FaultKind::WildWritePeripheral, &fw);
        assert!(p.peripherals.contains(u32::from(peri)));
        let rom = attack_payload(FaultKind::WildWriteBootRom, &fw);
        assert!(p.bootstrap_loader.contains(u32::from(rom)));
        let vec = attack_payload(FaultKind::WildWriteVector, &fw);
        assert!(p.interrupt_vectors.contains(u32::from(vec)));
        let osram = attack_payload(FaultKind::WildWriteOsRam, &fw);
        assert!(fw.memory_map.os_stack.contains(u32::from(osram)));
        let neighbor = attack_payload(FaultKind::WildWriteNeighbor, &fw);
        assert_eq!(u32::from(neighbor), fw.apps[0].placement.data.start);
    }

    #[test]
    fn clean_ota_installs_on_the_first_attempt() {
        let fw = some_firmware();
        let out = run_ota(&fw, "key", 7, 1000, 0, 3, 0);
        assert!(out.installed && !out.rolled_back && !out.bricked());
        assert_eq!((out.attempts, out.corrupt_attempts), (1, 0));
        assert_eq!(out.backoff_ms, 0);
        assert!(out.install_at_ms < 1000);
    }

    #[test]
    fn always_corrupt_ota_retries_with_backoff_then_rolls_back() {
        let fw = some_firmware();
        let out = run_ota(&fw, "key", 99, 1000, 1000, 3, 4);
        assert!(out.rolled_back && !out.installed && !out.bricked());
        assert_eq!(out.attempts, 4, "first try plus three retries");
        assert_eq!(out.corrupt_attempts, 4, "every attempt was flipped");
        // Three retries, exponentially backed off from the 250 ms base.
        assert!(out.backoff_ms >= 250 + 500 + 1000);
    }

    #[test]
    fn ota_transactions_are_pure_functions_of_their_seed() {
        let fw = some_firmware();
        let a = run_ota(&fw, "key", 42, 500, 300, 3, 17);
        let b = run_ota(&fw, "key", 42, 500, 300, 3, 17);
        assert_eq!(a, b);
        let c = run_ota(&fw, "key", 43, 500, 300, 3, 17);
        // Different seeds stagger differently (install times differ with
        // overwhelming probability for adjacent seeds over a 500 ms span).
        assert!(a.install_at_ms != c.install_at_ms || a.attempts != c.attempts || a == c);
    }

    #[test]
    fn every_ota_ends_installed_or_rolled_back_never_bricked() {
        let fw = some_firmware();
        for seed in 0..200u64 {
            let out = run_ota(&fw, "key", seed, 250, 500, 2, seed as usize);
            assert!(out.installed ^ out.rolled_back, "seed {seed}");
            assert!(!out.bricked(), "seed {seed}");
            assert!(out.attempts <= 3);
        }
    }
}

//! Fault handling and restart policies.
//!
//! When an application attempts an invalid memory access it "jumps to a
//! FAULT function to log app-specific information about the fault" (§3).
//! The paper's discussion section proposes richer error handling, such as
//! restart policies, as future work; this module implements those policies
//! so they can be evaluated.

use amulet_core::fault::FaultClass;
use amulet_mcu::cpu::FaultInfo;

/// What the OS does with an application after it faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RestartPolicy {
    /// Disable the application until the firmware is reinstalled (the
    /// paper's baseline behaviour).
    #[default]
    Kill,
    /// Reinitialise the app's data and keep delivering events to it.
    Restart,
    /// Restart, but give up after the app has faulted `max_restarts` times.
    RestartWithLimit {
        /// Maximum restarts before the app is killed.
        max_restarts: u32,
    },
    /// The watchdog policy for fault-injection campaigns: after each fault
    /// the app is restarted but *held back* for a number of deliveries that
    /// doubles per strike (`base_backoff << (strike-1)`, plus seeded
    /// jitter), and once it accumulates `max_strikes` faults it is
    /// quarantined — never delivered to again within the run.  The schedule
    /// is a pure function of `(jitter_seed, app index, strike)`, so storms
    /// terminate deterministically regardless of worker count.
    RestartWithBackoff {
        /// Deliveries skipped after the first strike; doubles per strike.
        base_backoff: u32,
        /// Faults tolerated before the app is quarantined.
        max_strikes: u32,
        /// Seed for the backoff jitter.
        jitter_seed: u64,
    },
}

/// The backoff delay (in skipped deliveries) the
/// [`RestartPolicy::RestartWithBackoff`] policy imposes after an app's
/// `strike`-th fault (1-based).  Exposed so property tests can pin the
/// schedule: it is a pure function of its arguments.
pub fn backoff_delay(base_backoff: u32, jitter_seed: u64, app_index: usize, strike: u32) -> u32 {
    let exp = strike.saturating_sub(1).min(16);
    let base = base_backoff.saturating_mul(1 << exp);
    // SplitMix64 finaliser over the (seed, app, strike) tuple: jitter is
    // deterministic per seed but decorrelated across apps and strikes.
    let mut z = jitter_seed
        ^ ((app_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        ^ ((strike as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    base.saturating_add((z % u64::from(base_backoff.max(1)).max(1)) as u32)
}

/// The lifecycle state of an installed application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppState {
    /// Running normally.
    Active,
    /// Disabled after a fault.
    Killed,
    /// Permanently disabled after exhausting its
    /// [`RestartPolicy::RestartWithBackoff`] strikes.  Unlike
    /// [`AppState::Killed`] (which [`RestartPolicy::Restart`]-family
    /// policies may revive on the next fault cycle), quarantine is
    /// irreversible within a run.
    Quarantined,
}

/// One logged fault, as recorded by the OS FAULT handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the faulting application.
    pub app_index: usize,
    /// Application name.
    pub app_name: String,
    /// Classification of the fault.
    pub class: FaultClass,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// Data address involved, if any.
    pub addr: Option<u32>,
    /// Cycle count when the fault was handled.
    pub at_cycle: u64,
    /// What the policy decided.
    pub action: FaultAction,
}

/// The action the restart policy chose for a fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// The app was disabled.
    Killed,
    /// The app was restarted (data reinitialised).
    Restarted,
    /// The app was quarantined: restarts are over for good.
    Quarantined,
}

/// Tracks fault counts and applies the restart policy.
#[derive(Debug, Default)]
pub struct FaultHandler {
    /// The configured policy.
    pub policy: RestartPolicy,
    /// All recorded faults, in order.
    pub records: Vec<FaultRecord>,
    /// Per-app fault counts.
    pub per_app_faults: Vec<u32>,
    /// Per-app deliveries still to be skipped (backoff after a restart).
    pub backoff_remaining: Vec<u32>,
}

impl Clone for FaultHandler {
    fn clone(&self) -> Self {
        FaultHandler {
            policy: self.policy,
            records: self.records.clone(),
            per_app_faults: self.per_app_faults.clone(),
            backoff_remaining: self.backoff_remaining.clone(),
        }
    }

    /// Reuses `self`'s buffers.
    fn clone_from(&mut self, source: &Self) {
        self.policy = source.policy;
        self.records.clone_from(&source.records);
        self.per_app_faults.clone_from(&source.per_app_faults);
        self.backoff_remaining.clone_from(&source.backoff_remaining);
    }
}

impl FaultHandler {
    /// Creates a handler for `app_count` applications under `policy`.
    pub fn new(policy: RestartPolicy, app_count: usize) -> Self {
        FaultHandler {
            policy,
            records: Vec::new(),
            per_app_faults: vec![0; app_count],
            backoff_remaining: vec![0; app_count],
        }
    }

    /// Returns the handler to the state [`FaultHandler::new`] builds for
    /// `policy` and `app_count`, keeping its buffers.
    pub fn reset(&mut self, policy: RestartPolicy, app_count: usize) {
        self.policy = policy;
        self.records.clear();
        for counts in [&mut self.per_app_faults, &mut self.backoff_remaining] {
            counts.clear();
            counts.resize(app_count, 0);
        }
    }

    /// Consumes one unit of an app's restart backoff: returns `true` (and
    /// decrements the counter) when the delivery must be skipped because
    /// the app is still being held back after a restart.
    pub fn consume_backoff(&mut self, app_index: usize) -> bool {
        match self.backoff_remaining.get_mut(app_index) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }

    /// Records a fault and decides what to do with the app.
    pub fn handle(
        &mut self,
        app_index: usize,
        app_name: &str,
        info: FaultInfo,
        at_cycle: u64,
    ) -> FaultAction {
        if app_index >= self.per_app_faults.len() {
            self.per_app_faults.resize(app_index + 1, 0);
            self.backoff_remaining.resize(app_index + 1, 0);
        }
        self.per_app_faults[app_index] += 1;
        let action = match self.policy {
            RestartPolicy::Kill => FaultAction::Killed,
            RestartPolicy::Restart => FaultAction::Restarted,
            RestartPolicy::RestartWithLimit { max_restarts } => {
                if self.per_app_faults[app_index] > max_restarts {
                    FaultAction::Killed
                } else {
                    FaultAction::Restarted
                }
            }
            RestartPolicy::RestartWithBackoff {
                base_backoff,
                max_strikes,
                jitter_seed,
            } => {
                let strike = self.per_app_faults[app_index];
                if strike >= max_strikes.max(1) {
                    FaultAction::Quarantined
                } else {
                    self.backoff_remaining[app_index] =
                        backoff_delay(base_backoff, jitter_seed, app_index, strike);
                    FaultAction::Restarted
                }
            }
        };
        self.records.push(FaultRecord {
            app_index,
            app_name: app_name.to_string(),
            class: info.class,
            pc: info.pc,
            addr: info.addr,
            at_cycle,
            action,
        });
        action
    }

    /// Faults recorded for one app.
    pub fn faults_for(&self, app_index: usize) -> u32 {
        self.per_app_faults.get(app_index).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault() -> FaultInfo {
        FaultInfo {
            class: FaultClass::DataPointerLowerBound,
            pc: 0x8000,
            addr: Some(0x4400),
        }
    }

    #[test]
    fn kill_policy_always_kills() {
        let mut h = FaultHandler::new(RestartPolicy::Kill, 2);
        assert_eq!(h.handle(0, "A", fault(), 1), FaultAction::Killed);
        assert_eq!(h.handle(0, "A", fault(), 2), FaultAction::Killed);
        assert_eq!(h.faults_for(0), 2);
        assert_eq!(h.faults_for(1), 0);
    }

    #[test]
    fn restart_policy_always_restarts() {
        let mut h = FaultHandler::new(RestartPolicy::Restart, 1);
        for i in 0..5 {
            assert_eq!(h.handle(0, "A", fault(), i), FaultAction::Restarted);
        }
    }

    #[test]
    fn limited_restarts_eventually_kill() {
        let mut h = FaultHandler::new(RestartPolicy::RestartWithLimit { max_restarts: 2 }, 1);
        assert_eq!(h.handle(0, "A", fault(), 1), FaultAction::Restarted);
        assert_eq!(h.handle(0, "A", fault(), 2), FaultAction::Restarted);
        assert_eq!(h.handle(0, "A", fault(), 3), FaultAction::Killed);
    }

    #[test]
    fn backoff_policy_restarts_then_quarantines() {
        let policy = RestartPolicy::RestartWithBackoff {
            base_backoff: 4,
            max_strikes: 3,
            jitter_seed: 7,
        };
        let mut h = FaultHandler::new(policy, 1);
        assert_eq!(h.handle(0, "A", fault(), 1), FaultAction::Restarted);
        let first_backoff = h.backoff_remaining[0];
        assert_eq!(first_backoff, backoff_delay(4, 7, 0, 1));
        assert!(first_backoff >= 4, "strike 1 waits at least the base");
        assert_eq!(h.handle(0, "A", fault(), 2), FaultAction::Restarted);
        assert!(
            h.backoff_remaining[0] >= 8,
            "strike 2 at least doubles the base"
        );
        assert_eq!(h.handle(0, "A", fault(), 3), FaultAction::Quarantined);
    }

    #[test]
    fn consume_backoff_skips_exactly_the_scheduled_deliveries() {
        let policy = RestartPolicy::RestartWithBackoff {
            base_backoff: 2,
            max_strikes: 10,
            jitter_seed: 0xD00D,
        };
        let mut h = FaultHandler::new(policy, 1);
        h.handle(0, "A", fault(), 1);
        let wait = h.backoff_remaining[0];
        for _ in 0..wait {
            assert!(h.consume_backoff(0));
        }
        assert!(!h.consume_backoff(0));
        assert!(!h.consume_backoff(0));
    }

    #[test]
    fn backoff_delay_is_deterministic_and_seed_sensitive() {
        assert_eq!(backoff_delay(4, 99, 2, 3), backoff_delay(4, 99, 2, 3));
        let a: Vec<u32> = (1..6).map(|s| backoff_delay(4, 1, 0, s)).collect();
        let b: Vec<u32> = (1..6).map(|s| backoff_delay(4, 2, 0, s)).collect();
        assert_ne!(a, b, "different seeds must jitter differently");
        // Exponential floor regardless of jitter.
        for (i, d) in a.iter().enumerate() {
            assert!(*d >= 4 << i);
        }
    }

    #[test]
    fn records_carry_fault_details() {
        let mut h = FaultHandler::new(RestartPolicy::Kill, 1);
        h.handle(0, "HeartRate", fault(), 99);
        let r = &h.records[0];
        assert_eq!(r.app_name, "HeartRate");
        assert_eq!(r.class, FaultClass::DataPointerLowerBound);
        assert_eq!(r.at_cycle, 99);
        assert_eq!(r.addr, Some(0x4400));
    }
}

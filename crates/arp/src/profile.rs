//! Application resource profiles.
//!
//! The Amulet Resource Profiler (ARP) counts the number of memory accesses
//! and context switches per state and transition of each application, and
//! ARP-view combines those counts with the developer-declared rates of
//! environmental, user and timer events.  A [`AppProfile`] is exactly that
//! information for one application.

use amulet_core::overhead::OpCounts;

/// Resource counts for one event handler (one state-machine transition).
#[derive(Clone, Debug, PartialEq)]
pub struct HandlerProfile {
    /// Handler (transition) name.
    pub name: String,
    /// Application data-memory accesses per invocation (pointer dereferences
    /// or array accesses — the accesses the isolation machinery polices).
    pub memory_accesses: u64,
    /// OS API calls per invocation.
    pub api_calls: u64,
    /// Invocations per hour (event rate from ARP-view's rate model).
    pub invocations_per_hour: f64,
}

impl HandlerProfile {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        memory_accesses: u64,
        api_calls: u64,
        invocations_per_hour: f64,
    ) -> Self {
        HandlerProfile {
            name: name.into(),
            memory_accesses,
            api_calls,
            invocations_per_hour,
        }
    }

    /// Context switches per invocation: the event delivery itself plus one
    /// round trip per API call.
    pub(crate) fn context_switches(&self) -> u64 {
        1 + self.api_calls
    }

    /// Invocations in one week.
    pub(crate) fn invocations_per_week(&self) -> u64 {
        (self.invocations_per_hour * 24.0 * 7.0).round() as u64
    }

    /// Operation counts accumulated over one week.
    pub(crate) fn weekly_counts(&self) -> OpCounts {
        let inv = self.invocations_per_week();
        OpCounts::new(self.memory_accesses * inv, self.context_switches() * inv)
    }
}

/// The complete resource profile of one application.
#[derive(Clone, Debug, PartialEq)]
pub struct AppProfile {
    /// Application name (as shown on the Figure 2 x-axis).
    pub name: String,
    /// Per-handler profiles.
    pub handlers: Vec<HandlerProfile>,
}

impl AppProfile {
    /// Creates a profile.
    pub fn new(name: impl Into<String>, handlers: Vec<HandlerProfile>) -> Self {
        AppProfile {
            name: name.into(),
            handlers,
        }
    }

    /// Total operation counts over one week.
    pub(crate) fn weekly_counts(&self) -> OpCounts {
        self.handlers.iter().fold(OpCounts::default(), |acc, h| {
            acc.saturating_add(h.weekly_counts())
        })
    }

    /// Ratio of memory accesses to context switches — the quantity that
    /// decides whether the MPU method or the Software Only method wins for
    /// this app (§4.2).
    pub fn access_to_switch_ratio(&self) -> f64 {
        let counts = self.weekly_counts();
        if counts.context_switches == 0 {
            f64::INFINITY
        } else {
            counts.memory_accesses as f64 / counts.context_switches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_counts_scale_with_rate_and_per_event_cost() {
        let h = HandlerProfile::new("tick", 10, 2, 60.0); // once a minute
        assert_eq!(h.context_switches(), 3);
        assert_eq!(h.invocations_per_week(), 60 * 24 * 7);
        let counts = h.weekly_counts();
        assert_eq!(counts.memory_accesses, 10 * 60 * 24 * 7);
        assert_eq!(counts.context_switches, 3 * 60 * 24 * 7);
    }

    #[test]
    fn app_profile_sums_handlers() {
        let app = AppProfile::new(
            "HR",
            vec![
                HandlerProfile::new("sample", 40, 1, 3600.0),
                HandlerProfile::new("report", 200, 5, 60.0),
            ],
        );
        let total = app.weekly_counts();
        let a = HandlerProfile::new("sample", 40, 1, 3600.0).weekly_counts();
        let b = HandlerProfile::new("report", 200, 5, 60.0).weekly_counts();
        assert_eq!(total.memory_accesses, a.memory_accesses + b.memory_accesses);
        assert_eq!(
            total.context_switches,
            a.context_switches + b.context_switches
        );
    }

    #[test]
    fn ratio_distinguishes_compute_heavy_from_os_heavy_apps() {
        let compute = AppProfile::new("Quick", vec![HandlerProfile::new("run", 10_000, 0, 10.0)]);
        let osy = AppProfile::new("Chatty", vec![HandlerProfile::new("run", 5, 20, 10.0)]);
        assert!(compute.access_to_switch_ratio() > 1000.0);
        assert!(osy.access_to_switch_ratio() < 1.0);
    }
}

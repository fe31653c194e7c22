//! The nine Amulet applications used in Figure 2.
//!
//! Each entry carries both an AmuletC implementation (pointer-free, so that
//! it builds under every memory model including Feature Limited) and the
//! resource profile ARP-view uses for the weekly extrapolation: guarded
//! memory accesses per handler invocation, OS API calls per invocation, and
//! the handler's event rate.  The real applications were deployed in user
//! studies; here the rates follow each app's documented sampling behaviour
//! (accelerometer batches at 20–25 Hz, heart rate at 1 Hz, periodic timers
//! for the display apps).

use amulet_aft::aft::{AppRef, AppSource};
use amulet_arp::profile::{AppProfile, HandlerProfile};

/// One catalogued application: source, handlers, and ARP profile.
#[derive(Clone, Debug)]
pub struct CatalogApp {
    /// Application name (Figure 2 x-axis label).
    pub name: &'static str,
    /// AmuletC source.
    pub source: &'static str,
    /// Handler functions the OS may invoke.
    pub handlers: &'static [&'static str],
    /// The ARP profile used for the Figure 2 extrapolation.
    pub profile: AppProfile,
}

impl CatalogApp {
    /// The app as toolchain input.
    pub fn app_source(&self) -> AppSource {
        AppSource::new(self.name, self.source, self.handlers)
    }

    /// The app as borrowed toolchain input: its static text, not copied.
    pub fn app_ref(&self) -> AppRef<'static> {
        AppRef {
            name: self.name,
            source: self.source,
            handlers: self.handlers,
            stack_override: None,
        }
    }

    /// The handler driven by this app's dominant event source, with its
    /// per-hour rate: [`crate::traces::generate`] fires it at that rate,
    /// and `tests/end_to_end.rs` drives each app's hot handler through it.
    pub fn dominant_handler(&self) -> (&str, f64) {
        let h = self
            .profile
            .handlers
            .iter()
            .max_by(|a, b| {
                (a.invocations_per_hour * a.memory_accesses as f64)
                    .total_cmp(&(b.invocations_per_hour * b.memory_accesses as f64))
            })
            .expect("profiles have at least one handler");
        (&h.name, h.invocations_per_hour)
    }
}

/// Returns all nine applications, in the order Figure 2 lists them.
pub fn catalog() -> Vec<CatalogApp> {
    vec![
        battery_meter(),
        clock(),
        fall_detection(),
        heart_rate(),
        heart_rate_logger(),
        pedometer(),
        rest(),
        sun_exposure(),
        temperature(),
    ]
}

fn battery_meter() -> CatalogApp {
    CatalogApp {
        name: "BatteryMeter",
        source: r#"
            int history[8];
            int head = 0;
            void main(void) { amulet_set_timer(300); }
            int on_timer(int ms) {
                int level = amulet_get_battery();
                history[head % 8] = level;
                head = head + 1;
                int sum = 0;
                for (int i = 0; i < 8; i++) { sum += history[i]; }
                amulet_display_value(sum / 8);
                amulet_set_timer(300);
                return level;
            }
        "#,
        handlers: &["main", "on_timer"],
        profile: AppProfile::new(
            "BatteryMeter",
            vec![HandlerProfile::new("on_timer", 46, 2, 12.0)],
        ),
    }
}

fn clock() -> CatalogApp {
    CatalogApp {
        name: "Clock",
        source: r#"
            int face[4];
            void main(void) { amulet_set_timer(60); }
            int on_timer(int ms) {
                int t = amulet_get_time();
                face[0] = t / 3600;
                face[1] = (t / 60) % 60;
                face[2] = t % 60;
                face[3] = face[0] * 100 + face[1];
                amulet_display_value(face[3]);
                amulet_set_timer(60);
                return face[3];
            }
        "#,
        handlers: &["main", "on_timer"],
        profile: AppProfile::new("Clock", vec![HandlerProfile::new("on_timer", 46, 2, 60.0)]),
    }
}

fn fall_detection() -> CatalogApp {
    CatalogApp {
        name: "FallDetection",
        source: r#"
            int window[16];
            int head = 0;
            int falls = 0;
            void main(void) { amulet_subscribe(1); }
            int on_accel(int sample) {
                window[head % 16] = sample;
                head = head + 1;
                int peak = 0;
                for (int i = 0; i < 16; i++) {
                    if (window[i] > peak) { peak = window[i]; }
                }
                if (peak > 850) {
                    falls = falls + 1;
                    amulet_log_value(falls);
                }
                return falls;
            }
        "#,
        handlers: &["main", "on_accel"],
        // Accelerometer batches at ~7 Hz; the window scan dominates each batch.
        profile: AppProfile::new(
            "FallDetection",
            vec![HandlerProfile::new("on_accel", 40, 1, 7.0 * 3600.0)],
        ),
    }
}

fn heart_rate() -> CatalogApp {
    CatalogApp {
        name: "HR",
        source: r#"
            int samples[32];
            int head = 0;
            void main(void) { amulet_subscribe(2); }
            int on_hr(int unused) {
                int hr = amulet_get_heart_rate();
                samples[head % 32] = hr;
                head = head + 1;
                if (head % 32 == 0) {
                    int sum = 0;
                    for (int i = 0; i < 32; i++) { sum += samples[i]; }
                    amulet_display_value(sum / 32);
                }
                return hr;
            }
        "#,
        handlers: &["main", "on_hr"],
        // 1 Hz heart-rate sampling with a periodic averaging pass.
        profile: AppProfile::new("HR", vec![HandlerProfile::new("on_hr", 50, 2, 3600.0)]),
    }
}

fn heart_rate_logger() -> CatalogApp {
    CatalogApp {
        name: "HRLog",
        source: r#"
            int buffer[8];
            int fill = 0;
            void main(void) { amulet_subscribe(2); }
            int on_hr(int unused) {
                int hr = amulet_get_heart_rate();
                buffer[fill % 8] = hr;
                fill = fill + 1;
                amulet_log_value(hr);
                amulet_log_value(amulet_get_time());
                if (fill % 2 == 0) {
                    amulet_log_value(buffer[0] + buffer[1]);
                    amulet_log_value(fill);
                }
                return hr;
            }
        "#,
        handlers: &["main", "on_hr"],
        // Few guarded accesses, many API calls per event: the app class the
        // paper says the MPU method does *not* help.
        profile: AppProfile::new("HRLog", vec![HandlerProfile::new("on_hr", 10, 10, 3600.0)]),
    }
}

fn pedometer() -> CatalogApp {
    CatalogApp {
        name: "Pedometer",
        source: r#"
            int window[8];
            int head = 0;
            int steps = 0;
            int rising = 0;
            void main(void) { amulet_subscribe(1); }
            int on_accel(int sample) {
                window[head % 8] = sample;
                head = head + 1;
                int prev = window[(head + 6) % 8];
                if (sample > 600 && prev <= 600) { rising = 1; }
                if (rising == 1 && sample < 300) {
                    steps = steps + 1;
                    rising = 0;
                }
                if (steps % 100 == 0 && steps != 0) { amulet_display_value(steps); }
                return steps;
            }
        "#,
        handlers: &["main", "on_accel"],
        // Accelerometer batches at 5 Hz with a peak-detection pass per batch.
        profile: AppProfile::new(
            "Pedometer",
            vec![HandlerProfile::new("on_accel", 35, 1, 5.0 * 3600.0)],
        ),
    }
}

fn rest() -> CatalogApp {
    CatalogApp {
        name: "Rest",
        source: r#"
            int activity[16];
            int head = 0;
            int resting = 0;
            void main(void) { amulet_set_timer(30); }
            int on_timer(int ms) {
                int light = amulet_get_light();
                int motion = amulet_get_accel(0);
                activity[head % 16] = motion;
                head = head + 1;
                int var = 0;
                for (int i = 0; i < 16; i++) {
                    int d = activity[i] - 300;
                    var += d * d / 256;
                }
                if (var < 20 && light < 50) { resting = resting + 1; } else { resting = 0; }
                if (resting == 10) { amulet_log_value(1); }
                amulet_set_timer(30);
                return resting;
            }
        "#,
        handlers: &["main", "on_timer"],
        profile: AppProfile::new("Rest", vec![HandlerProfile::new("on_timer", 80, 3, 120.0)]),
    }
}

fn sun_exposure() -> CatalogApp {
    CatalogApp {
        name: "Sun",
        source: r#"
            int exposure[24];
            int minutes = 0;
            void main(void) { amulet_set_timer(60); }
            int on_timer(int ms) {
                int light = amulet_get_light();
                int hour = (minutes / 60) % 24;
                if (light > 600) { exposure[hour] = exposure[hour] + 1; }
                minutes = minutes + 1;
                int total = 0;
                for (int i = 0; i < 24; i++) { total += exposure[i]; }
                if (total > 120) { amulet_log_value(total); }
                amulet_set_timer(60);
                return total;
            }
        "#,
        handlers: &["main", "on_timer"],
        profile: AppProfile::new("Sun", vec![HandlerProfile::new("on_timer", 50, 2, 60.0)]),
    }
}

fn temperature() -> CatalogApp {
    CatalogApp {
        name: "Temperature",
        source: r#"
            int readings[8];
            int head = 0;
            void main(void) { amulet_set_timer(120); }
            int on_timer(int ms) {
                int t = amulet_get_temperature();
                readings[head % 8] = t;
                head = head + 1;
                int smooth = 0;
                for (int i = 0; i < 8; i++) { smooth += readings[i]; }
                amulet_display_value(smooth / 8);
                amulet_set_timer(120);
                return smooth / 8;
            }
        "#,
        handlers: &["main", "on_timer"],
        profile: AppProfile::new(
            "Temperature",
            vec![HandlerProfile::new("on_timer", 48, 2, 30.0)],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_aft::aft::Aft;
    use amulet_core::method::IsolationMethod;

    #[test]
    fn all_nine_figure2_apps_are_present_in_order() {
        let names: Vec<&str> = catalog().iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec![
                "BatteryMeter",
                "Clock",
                "FallDetection",
                "HR",
                "HRLog",
                "Pedometer",
                "Rest",
                "Sun",
                "Temperature"
            ]
        );
    }

    #[test]
    fn every_app_compiles_under_every_memory_model() {
        for method in IsolationMethod::ALL {
            let mut aft = Aft::new(method);
            for app in catalog() {
                aft = aft.add_app(app.app_source());
            }
            let out = aft.build().unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(out.firmware.apps.len(), 9, "{method}");
        }
    }

    #[test]
    fn profiles_span_compute_heavy_and_os_heavy_apps() {
        let apps = catalog();
        let ratios: Vec<f64> = apps
            .iter()
            .map(|a| a.profile.access_to_switch_ratio())
            .collect();
        assert!(ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 5.0);
        assert!(ratios.iter().cloned().fold(f64::INFINITY, f64::min) < 2.0);
    }

    #[test]
    fn dominant_handler_is_the_hot_one() {
        let ped = pedometer();
        let (name, rate) = ped.dominant_handler();
        assert_eq!(name, "on_accel");
        assert!(rate > 1000.0);
    }
}

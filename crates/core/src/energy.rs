//! Energy and battery-lifetime model.
//!
//! Figure 2 of the paper converts weekly isolation-overhead cycles into a
//! battery-lifetime impact percentage.  The conversion is:
//!
//! ```text
//! overhead seconds = overhead cycles / CPU frequency
//! overhead energy  = overhead seconds × active power
//! impact %         = overhead energy / weekly energy budget × 100
//! ```
//!
//! The electrical constants come from the platform's spec
//! ([`EnergyModel::for_platform`]); the paper's MSP430FR5969 runs at 16 MHz
//! from a 3 V supply (≈100 µA/MHz active current per the datasheet), with an
//! Amulet-like 100 mAh battery and a one-week baseline lifetime.  The absolute figures
//! depend on these constants, but the paper's headline claim — every
//! application stays **below 0.5 % battery impact** under either isolation
//! method — is robust to any reasonable choice, and the benches print both
//! the constants and the result so the comparison is explicit.
//!
//! Ultra-low-power devices spend almost all of their life asleep, so the
//! model also carries the **low-power-mode (LPM) current** — the draw
//! between events, with the CPU stopped and only the RTC/wakeup logic
//! running (≈0.7 µA in LPM3 on the FR5969).  The time-stepped fleet mode
//! charges `active energy = cycles × joules/cycle` while handlers run and
//! `idle energy = LPM power × gap seconds` across inter-event gaps, which
//! is what turns per-event overhead cycles into a battery-lifetime number.

use crate::layout::PlatformSpec;

/// CPU frequency and active/sleep power model of the MCU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// CPU clock frequency in Hz.
    pub frequency_hz: f64,
    /// Active-mode supply current in amperes at that frequency.
    pub active_current_a: f64,
    /// Low-power-mode (sleep) supply current in amperes — what the device
    /// draws between events while waiting for the next wakeup.
    pub lpm_current_a: f64,
    /// Supply voltage in volts.
    pub supply_voltage_v: f64,
}

impl EnergyModel {
    /// The energy model for a platform, derived from the electrical
    /// parameters its spec carries — every profile, including future ones,
    /// gets its own numbers rather than a silent FR5969 fallback.
    pub fn for_platform(platform: &PlatformSpec) -> Self {
        EnergyModel {
            frequency_hz: platform.energy.frequency_hz as f64,
            active_current_a: platform.energy.active_current_ua as f64 / 1e6,
            lpm_current_a: platform.energy.lpm_current_na as f64 / 1e9,
            supply_voltage_v: platform.energy.supply_millivolts as f64 / 1000.0,
        }
    }

    /// Active power draw in watts.
    pub(crate) fn active_power_w(&self) -> f64 {
        self.active_current_a * self.supply_voltage_v
    }

    /// Low-power-mode (sleep) power draw in watts.
    pub(crate) fn lpm_power_w(&self) -> f64 {
        self.lpm_current_a * self.supply_voltage_v
    }

    /// Energy consumed by `seconds` of low-power-mode idling, in joules.
    pub fn idle_joules(&self, seconds: f64) -> f64 {
        self.lpm_power_w() * seconds.max(0.0)
    }

    /// Energy consumed per active CPU cycle, in joules.
    pub(crate) fn joules_per_cycle(&self) -> f64 {
        self.active_power_w() / self.frequency_hz
    }

    /// Converts a cycle count to active execution time in seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz
    }

    /// Converts a cycle count to energy in joules.
    pub fn cycles_to_joules(&self, cycles: u64) -> f64 {
        cycles as f64 * self.joules_per_cycle()
    }
}

/// Battery capacity and baseline lifetime of the wearable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryModel {
    /// Battery capacity in milliamp-hours.
    pub capacity_mah: f64,
    /// Nominal battery voltage in volts.
    pub voltage_v: f64,
    /// Baseline battery lifetime, in weeks, with no isolation overhead.  The
    /// Amulet platform targets multi-week lifetimes; we use one week so the
    /// weekly energy budget equals the full battery capacity, which is the
    /// most conservative (largest-impact) assumption.
    pub baseline_lifetime_weeks: f64,
}

impl BatteryModel {
    /// Amulet-like battery: 100 mAh at 3 V with a one-week baseline lifetime.
    pub fn amulet() -> Self {
        BatteryModel {
            capacity_mah: 100.0,
            voltage_v: 3.0,
            baseline_lifetime_weeks: 1.0,
        }
    }

    /// Total energy stored in the battery, in joules.
    pub(crate) fn capacity_joules(&self) -> f64 {
        self.capacity_mah / 1000.0 * 3600.0 * self.voltage_v
    }

    /// Energy budget consumed per week at the baseline lifetime, in joules.
    pub(crate) fn weekly_budget_joules(&self) -> f64 {
        self.capacity_joules() / self.baseline_lifetime_weeks
    }

    /// Battery-lifetime impact (in percent) of spending `overhead_joules`
    /// extra per week.
    pub fn impact_percent(&self, overhead_joules_per_week: f64) -> f64 {
        overhead_joules_per_week / self.weekly_budget_joules() * 100.0
    }

    /// Battery lifetime, in weeks, of a device whose long-run average power
    /// draw is `average_power_w` watts — the end-to-end projection the
    /// time-stepped fleet mode uses: average power = (active + idle energy)
    /// over the simulated virtual time, and the battery lasts
    /// `capacity / power` seconds.  A non-positive power yields infinity
    /// (the device never drains the battery in this model).
    pub fn lifetime_weeks_at_power(&self, average_power_w: f64) -> f64 {
        if average_power_w <= 0.0 {
            return f64::INFINITY;
        }
        self.capacity_joules() / average_power_w / (7.0 * 86_400.0)
    }
}

impl Default for BatteryModel {
    fn default() -> Self {
        Self::amulet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr5969() -> EnergyModel {
        EnergyModel::for_platform(&PlatformSpec::msp430fr5969())
    }

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-12)
    }

    #[test]
    fn msp430_power_is_a_few_milliwatts() {
        let e = fr5969();
        assert!(
            close(e.active_power_w(), 4.8e-3, 1e-9),
            "{}",
            e.active_power_w()
        );
        assert!(e.joules_per_cycle() < 1e-9, "sub-nanojoule per cycle");
    }

    #[test]
    fn cycles_convert_to_time_and_energy() {
        let e = fr5969();
        assert!(close(e.cycles_to_seconds(16_000_000), 1.0, 1e-12));
        assert!(close(
            e.cycles_to_joules(16_000_000),
            e.active_power_w(),
            1e-12
        ));
    }

    #[test]
    fn battery_capacity_math() {
        let b = BatteryModel::amulet();
        // 100 mAh * 3 V = 0.1 * 3600 * 3 = 1080 J.
        assert!(close(b.capacity_joules(), 1080.0, 1e-12));
        assert!(close(b.weekly_budget_joules(), 1080.0, 1e-12));
    }

    #[test]
    fn figure2_scale_overheads_stay_below_half_percent() {
        // The largest per-app overhead in Figure 2 is on the order of a few
        // billion cycles per week; that must land below the paper's 0.5 %
        // battery-impact bound under the default models.
        let e = fr5969();
        let b = BatteryModel::amulet();
        for cycles in [0_u64, 100_000_000, 1_000_000_000, 3_000_000_000] {
            let impact = b.impact_percent(e.cycles_to_joules(cycles));
            assert!(impact < 0.5, "{cycles} cycles => {impact}%");
        }
    }

    #[test]
    fn impact_is_monotone_in_cycles() {
        let e = fr5969();
        let b = BatteryModel::amulet();
        let mut prev = -1.0;
        for cycles in [0_u64, 1_000, 1_000_000, 1_000_000_000, 10_000_000_000] {
            let impact = b.impact_percent(e.cycles_to_joules(cycles));
            assert!(impact >= prev);
            prev = impact;
        }
    }

    #[test]
    fn lpm_power_is_orders_of_magnitude_below_active() {
        let e = fr5969();
        assert!(close(e.lpm_power_w(), 2.1e-6, 1e-9), "{}", e.lpm_power_w());
        assert!(e.lpm_power_w() < e.active_power_w() / 1000.0);
        // A week of LPM3 idling costs ~1.27 J — about 0.1 % of the battery.
        let week = e.idle_joules(7.0 * 86_400.0);
        assert!(week > 1.0 && week < 2.0, "{week}");
        assert_eq!(e.idle_joules(-5.0), 0.0, "negative time clamps to zero");
    }

    #[test]
    fn lifetime_at_power_inverts_capacity() {
        let b = BatteryModel::amulet();
        // 1080 J at ≈1.79 mW lasts exactly one week… scale-check both ends.
        let one_week_w = b.capacity_joules() / (7.0 * 86_400.0);
        assert!(close(b.lifetime_weeks_at_power(one_week_w), 1.0, 1e-12));
        assert!(close(
            b.lifetime_weeks_at_power(one_week_w / 4.0),
            4.0,
            1e-12
        ));
        assert!(b.lifetime_weeks_at_power(0.0).is_infinite());
        // A pure-LPM3 device (2.1 µW) projects to a multi-year lifetime:
        // 1080 J / 2.1 µW ≈ 850 weeks.
        let e = fr5969();
        let weeks = b.lifetime_weeks_at_power(e.lpm_power_w());
        assert!(weeks > 500.0 && weeks < 1500.0, "{weeks}");
    }
}

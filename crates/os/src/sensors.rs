//! Deterministic synthetic sensors.
//!
//! The real Amulet reads a heart-rate sensor, an accelerometer, a
//! thermometer, an ambient-light sensor and the battery gauge.  The
//! reproduction has no hardware, so the OS serves system calls from this
//! deterministic model instead; the waveforms are simple but exercise the
//! same code paths (sampling loops, thresholding, windowed statistics) the
//! real applications run.

/// Deterministic synthetic sensor state.
#[derive(Clone, Debug)]
pub struct SensorModel {
    /// Monotonic tick counter (advanced on every time read and every sensor
    /// sample).
    pub ticks: u64,
    /// Linear-congruential state for sensor noise (deterministic).
    lcg: u32,
    /// Battery level in percent (drains very slowly).
    pub battery_percent: u16,
}

impl Default for SensorModel {
    fn default() -> Self {
        Self::new(0x1234_5678)
    }
}

impl SensorModel {
    /// Creates a sensor model with the given noise seed.
    pub(crate) fn new(seed: u32) -> Self {
        SensorModel {
            ticks: 0,
            lcg: seed.max(1),
            battery_percent: 100,
        }
    }

    fn noise(&mut self, span: u16) -> i16 {
        // Numerical Recipes LCG; deterministic and cheap.
        self.lcg = self.lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        if span == 0 {
            return 0;
        }
        ((self.lcg >> 16) % (2 * span as u32 + 1)) as i16 - span as i16
    }

    /// Current time in ticks (advances by one per read).
    pub(crate) fn time(&mut self) -> u16 {
        self.ticks += 1;
        (self.ticks & 0xFFFF) as u16
    }

    /// Heart rate in beats per minute: a slow sinusoid-ish wander around 72
    /// plus noise.
    pub(crate) fn heart_rate(&mut self) -> u16 {
        self.ticks += 1;
        let phase = (self.ticks / 16 % 20) as i16 - 10;
        (72 + phase + self.noise(3)).clamp(40, 180) as u16
    }

    /// One accelerometer axis in milli-g: a periodic step-like waveform plus
    /// noise, so pedometer/activity algorithms see plausible peaks.
    pub(crate) fn accel(&mut self, axis: u16) -> i16 {
        self.ticks += 1;
        let stride = (self.ticks % 20) as i16;
        let swing = if stride < 4 { 900 } else { 100 };
        let axis_bias = (axis as i16 % 3) * 30;
        swing + axis_bias + self.noise(50)
    }

    /// Skin temperature in tenths of a degree Celsius.
    pub(crate) fn temperature(&mut self) -> i16 {
        self.ticks += 1;
        330 + self.noise(5)
    }

    /// Ambient light in lux-ish units (day/night square wave).
    pub(crate) fn light(&mut self) -> u16 {
        self.ticks += 1;
        if (self.ticks / 512).is_multiple_of(2) {
            (800 + self.noise(100)) as u16
        } else {
            (20 + self.noise(10)).max(0) as u16
        }
    }

    /// Battery level in percent (drains one percent every 4096 reads).
    pub(crate) fn battery(&mut self) -> u16 {
        self.ticks += 1;
        if self.ticks.is_multiple_of(4096) && self.battery_percent > 0 {
            self.battery_percent -= 1;
        }
        self.battery_percent
    }

    /// Raw sensor channel multiplexer used by `amulet_read_sensor`.
    pub(crate) fn raw_channel(&mut self, channel: u16) -> i16 {
        match channel % 5 {
            0 => self.heart_rate() as i16,
            1 => self.accel(0),
            2 => self.temperature(),
            3 => self.light() as i16,
            _ => self.battery() as i16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SensorModel::new(7);
        let mut b = SensorModel::new(7);
        let seq_a: Vec<i16> = (0..32).map(|_| a.accel(0)).collect();
        let seq_b: Vec<i16> = (0..32).map(|_| b.accel(0)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn heart_rate_stays_physiological() {
        let mut s = SensorModel::default();
        for _ in 0..1000 {
            let hr = s.heart_rate();
            assert!((40..=180).contains(&hr), "{hr}");
        }
    }

    #[test]
    fn accel_shows_periodic_peaks() {
        let mut s = SensorModel::default();
        let samples: Vec<i16> = (0..200).map(|_| s.accel(0)).collect();
        let peaks = samples.iter().filter(|&&v| v > 500).count();
        let troughs = samples.iter().filter(|&&v| v < 300).count();
        assert!(peaks > 10, "periodic high-g peaks present ({peaks})");
        assert!(troughs > 50, "quiet samples dominate ({troughs})");
    }

    #[test]
    fn battery_drains_monotonically() {
        let mut s = SensorModel::default();
        let start = s.battery();
        for _ in 0..20_000 {
            s.battery();
        }
        assert!(s.battery() < start);
    }

    #[test]
    fn time_advances() {
        let mut s = SensorModel::default();
        let t1 = s.time();
        let t2 = s.time();
        assert!(t2 > t1);
    }
}

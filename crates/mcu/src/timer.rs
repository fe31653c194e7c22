//! The hardware timer used by the paper's measurements.
//!
//! §4.2 of the paper: "a hardware timer on the MSP430FR5969 MCU was used to
//! measure the time of each iteration (with a precision of 16 cycles)".  The
//! timer here is a free-running cycle counter whose memory-mapped read-out is
//! quantised to 16-cycle ticks, so benchmark code observes exactly the same
//! granularity.

use amulet_core::addr::Addr;

/// Memory-mapped address of the timer counter register (`TA0R`).
pub const TIMER_COUNTER: Addr = 0x0350;
/// Memory-mapped address of the timer control register (`TA0CTL`).
pub const TIMER_CONTROL: Addr = 0x0340;

/// Precision of a timer read, in CPU cycles.
pub(crate) const TIMER_PRECISION_CYCLES: u64 = 16;

/// A free-running, cycle-driven timer.
#[derive(Clone, Debug, Default)]
pub struct Timer {
    /// Total cycles observed since the last reset.
    cycles: u64,
    /// Whether the timer is running.
    pub running: bool,
}

impl Timer {
    /// Creates a stopped timer.
    pub(crate) fn new() -> Self {
        Timer {
            cycles: 0,
            running: false,
        }
    }

    /// Advances the timer by `cycles` CPU cycles (no-op when stopped).
    pub fn tick(&mut self, cycles: u64) {
        if self.running {
            self.cycles = self.cycles.wrapping_add(cycles);
        }
    }

    /// Starts (or resumes) the timer.
    pub fn start(&mut self) {
        self.running = true;
    }

    /// Clears the counter.
    pub(crate) fn clear(&mut self) {
        self.cycles = 0;
    }

    /// Raw cycle count (full precision, for the host-side harness only).
    pub fn raw_cycles(&self) -> u64 {
        self.cycles
    }

    /// The value firmware reads from `TA0R`: the cycle count quantised to
    /// [`TIMER_PRECISION_CYCLES`] and truncated to 16 bits, exactly the
    /// precision the paper reports.
    pub(crate) fn read_counter(&self) -> u16 {
        (self.cycles & !(TIMER_PRECISION_CYCLES - 1)) as u16
    }

    /// True when `addr` is one of the timer's memory-mapped registers.
    pub(crate) fn owns_register(addr: Addr) -> bool {
        let a = addr & !1;
        a == TIMER_COUNTER || a == TIMER_CONTROL
    }

    /// Handles a firmware read of a timer register.
    pub(crate) fn read_register(&self, addr: Addr) -> u16 {
        match addr & !1 {
            TIMER_COUNTER => self.read_counter(),
            TIMER_CONTROL if self.running => {
                0x0020 // MC = continuous mode
            }
            _ => 0,
        }
    }

    /// Handles a firmware write of a timer register.
    pub(crate) fn write_register(&mut self, addr: Addr, value: u16) {
        match addr & !1 {
            TIMER_COUNTER => self.cycles = value as u64,
            TIMER_CONTROL => {
                // Bit 5 (MC0 continuous) starts the timer; TACLR (bit 2)
                // clears it.
                if value & 0x0004 != 0 {
                    self.clear();
                }
                self.running = value & 0x0030 != 0;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopped_timer_does_not_advance() {
        let mut t = Timer::new();
        t.tick(100);
        assert_eq!(t.raw_cycles(), 0);
        t.start();
        t.tick(100);
        assert_eq!(t.raw_cycles(), 100);
        // Firmware stops it by clearing the mode bits.
        t.write_register(TIMER_CONTROL, 0);
        t.tick(100);
        assert_eq!(t.raw_cycles(), 100);
    }

    #[test]
    fn reads_are_quantised_to_sixteen_cycles() {
        let mut t = Timer::new();
        t.start();
        t.tick(47);
        assert_eq!(t.read_counter(), 32);
        t.tick(1);
        assert_eq!(t.read_counter(), 48);
        assert_eq!(t.raw_cycles(), 48);
    }

    #[test]
    fn control_register_starts_clears_and_stops() {
        let mut t = Timer::new();
        t.write_register(TIMER_CONTROL, 0x0020);
        assert!(t.running);
        t.tick(64);
        t.write_register(TIMER_CONTROL, 0x0024); // clear + keep running
        assert_eq!(t.raw_cycles(), 0);
        assert!(t.running);
        t.write_register(TIMER_CONTROL, 0x0000);
        assert!(!t.running);
    }

    #[test]
    fn register_ownership() {
        assert!(Timer::owns_register(TIMER_COUNTER));
        assert!(Timer::owns_register(TIMER_CONTROL));
        assert!(
            Timer::owns_register(TIMER_COUNTER + 1),
            "odd byte of the register"
        );
        assert!(!Timer::owns_register(0x0360));
    }

    #[test]
    fn counter_write_sets_value() {
        let mut t = Timer::new();
        t.write_register(TIMER_COUNTER, 1234);
        assert_eq!(t.raw_cycles(), 1234);
    }
}

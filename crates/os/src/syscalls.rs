//! System-call services.
//!
//! Applications reach the OS only through the approved API enumerated in
//! `amulet_aft::api`; the AFT guarantees (at compile time) that no other
//! entry points exist.  Each service here returns its result plus the cycle
//! cost of the service body (the context-switch cost around it is charged by
//! the switching machinery, not here).

use crate::sensors::SensorModel;
use amulet_aft::api::{sysno, ApiSpec};
use amulet_core::addr::Addr;

/// A log entry written by `amulet_log_value` / `amulet_log_buffer`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Which application logged it.
    pub app_index: usize,
    /// Logged value (for buffer logs, the number of words copied).
    pub value: i16,
    /// Cycle timestamp.
    pub at_cycle: u64,
}

/// Arguments passed from the application to a system call (marshalled from
/// registers `R14`/`R15` by the trap path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SyscallArgs {
    /// First argument register.
    pub arg0: u16,
    /// Second argument register.
    pub arg1: u16,
}

/// The outcome of servicing a system call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SyscallOutcome {
    /// Value returned to the application in `R14`.
    pub ret: u16,
    /// Cycles consumed by the service body.
    pub service_cycles: u64,
    /// A timer the application armed, in milliseconds (delivered by the
    /// scheduler as a future event).
    pub timer_armed_ms: Option<u16>,
    /// An event-stream subscription the application requested.
    pub subscribed_stream: Option<u16>,
    /// The application yielded (`amulet_yield`).  A scheduling hint: under
    /// batched delivery the OS ends the current batch after this event and
    /// restores its own configuration, bounding how long the app retains
    /// the CPU without a full switch.
    pub yielded: bool,
}

/// What the trap path needs of system call `num`, from one lookup in
/// `api`: its pointer-argument count and its service body's cycles (8 for
/// a number `api` does not list).
pub(crate) fn service_costs(api: &ApiSpec, num: u16) -> (u32, u64) {
    api.by_num(num)
        .map_or((0, 8), |f| (f.pointer_arg_count(), f.service_cycles))
}

/// Persistent OS service state (sensors, log, display).
#[derive(Debug, Default)]
pub struct Services {
    /// The synthetic sensors.
    pub sensors: SensorModel,
    /// The system log.
    pub log: Vec<LogEntry>,
    /// Last value drawn on the display, per app.
    pub display: Vec<(usize, i16)>,
}

impl Clone for Services {
    fn clone(&self) -> Self {
        Services {
            sensors: self.sensors.clone(),
            log: self.log.clone(),
            display: self.display.clone(),
        }
    }

    /// Reuses `self`'s log and display buffers.
    fn clone_from(&mut self, source: &Self) {
        self.sensors.clone_from(&source.sensors);
        self.log.clone_from(&source.log);
        self.display.clone_from(&source.display);
    }
}

impl Services {
    /// Returns the services to their initial state with sensor seed
    /// `seed`, keeping the log and display buffers.
    pub(crate) fn reset(&mut self, seed: u32) {
        self.sensors = SensorModel::new(seed);
        self.log.clear();
        self.display.clear();
    }

    /// Dispatches one system call.
    ///
    /// `service_cycles` is the service body's cost from the call's
    /// [`ApiSpec`] entry, which the trap path looks up once per call (see
    /// [`service_costs`]).  `read_word` lets buffer-taking services read
    /// application memory that the trap path has already bounds-checked.
    pub(crate) fn dispatch(
        &mut self,
        service_cycles: u64,
        app_index: usize,
        num: u16,
        args: SyscallArgs,
        at_cycle: u64,
        read_word: &mut dyn FnMut(Addr) -> u16,
    ) -> SyscallOutcome {
        let mut out = SyscallOutcome {
            ret: 0,
            service_cycles,
            timer_armed_ms: None,
            subscribed_stream: None,
            yielded: false,
        };
        match num {
            sysno::YIELD => out.yielded = true,
            sysno::GET_TIME => out.ret = self.sensors.time(),
            sysno::READ_SENSOR => out.ret = self.sensors.raw_channel(args.arg0) as u16,
            sysno::LOG_VALUE => {
                self.log.push(LogEntry {
                    app_index,
                    value: args.arg0 as i16,
                    at_cycle,
                });
            }
            sysno::SET_TIMER => out.timer_armed_ms = Some(args.arg0),
            sysno::GET_BATTERY => out.ret = self.sensors.battery(),
            sysno::GET_HEART_RATE => out.ret = self.sensors.heart_rate(),
            sysno::GET_ACCEL => out.ret = self.sensors.accel(args.arg0) as u16,
            sysno::GET_TEMPERATURE => out.ret = self.sensors.temperature() as u16,
            sysno::DISPLAY_VALUE => self.display.push((app_index, args.arg0 as i16)),
            sysno::LOG_BUFFER => {
                // Copy up to arg1 words from the (already validated) app
                // buffer into the log; the copy itself costs extra cycles.
                let words = (args.arg1 as u64).min(64);
                let mut sum = 0i32;
                for i in 0..words {
                    sum += read_word(args.arg0 as Addr + (i as Addr) * 2) as i16 as i32;
                }
                self.log.push(LogEntry {
                    app_index,
                    value: (sum.clamp(i16::MIN as i32, i16::MAX as i32)) as i16,
                    at_cycle,
                });
                out.service_cycles += 4 * words;
                out.ret = words as u16;
            }
            sysno::GET_LIGHT => out.ret = self.sensors.light(),
            sysno::SUBSCRIBE => out.subscribed_stream = Some(args.arg0),
            _ => {
                // Unknown numbers cannot be produced by AFT-compiled code
                // (the compiler rejects unapproved calls); treat a stray one
                // as a no-op returning zero.
                out.service_cycles = 4;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn services(seed: u32) -> Services {
        let mut s = Services::default();
        s.reset(seed);
        s
    }

    fn no_mem() -> impl FnMut(Addr) -> u16 {
        |_| 0
    }

    #[test]
    fn logging_and_display_record_per_app() {
        let api = ApiSpec::amulet();
        let mut s = services(1);
        s.dispatch(
            service_costs(&api, sysno::LOG_VALUE).1,
            0,
            sysno::LOG_VALUE,
            SyscallArgs { arg0: 42, arg1: 0 },
            10,
            &mut no_mem(),
        );
        s.dispatch(
            service_costs(&api, sysno::DISPLAY_VALUE).1,
            1,
            sysno::DISPLAY_VALUE,
            SyscallArgs { arg0: 7, arg1: 0 },
            20,
            &mut no_mem(),
        );
        assert_eq!(s.log.len(), 1);
        assert_eq!(s.log[0].app_index, 0);
        assert_eq!(s.log[0].value, 42);
        assert_eq!(s.display, vec![(1, 7)]);
    }

    #[test]
    fn timers_and_subscriptions_are_reported_to_the_scheduler() {
        let api = ApiSpec::amulet();
        let mut s = services(1);
        let out = s.dispatch(
            service_costs(&api, sysno::SET_TIMER).1,
            0,
            sysno::SET_TIMER,
            SyscallArgs { arg0: 500, arg1: 0 },
            0,
            &mut no_mem(),
        );
        assert_eq!(out.timer_armed_ms, Some(500));
        let out = s.dispatch(
            service_costs(&api, sysno::SUBSCRIBE).1,
            0,
            sysno::SUBSCRIBE,
            SyscallArgs { arg0: 3, arg1: 0 },
            0,
            &mut no_mem(),
        );
        assert_eq!(out.subscribed_stream, Some(3));
    }

    #[test]
    fn buffer_log_reads_app_memory_through_the_callback() {
        let api = ApiSpec::amulet();
        let mut s = services(1);
        let mem = [5u16, 6, 7, 8];
        let mut read = |addr: Addr| mem[((addr - 0x8000) / 2) as usize];
        let out = s.dispatch(
            service_costs(&api, sysno::LOG_BUFFER).1,
            0,
            sysno::LOG_BUFFER,
            SyscallArgs {
                arg0: 0x8000,
                arg1: 4,
            },
            0,
            &mut read,
        );
        assert_eq!(out.ret, 4);
        assert_eq!(s.log[0].value, 26);
        assert_eq!(service_costs(&api, sysno::LOG_BUFFER).0, 1);
        assert!(out.service_cycles > api.by_num(sysno::LOG_BUFFER).unwrap().service_cycles);
    }

    #[test]
    fn sensor_calls_return_plausible_values_and_sample_once_each() {
        let api = ApiSpec::amulet();
        let mut s = services(9);
        let hr = s
            .dispatch(
                service_costs(&api, sysno::GET_HEART_RATE).1,
                0,
                sysno::GET_HEART_RATE,
                SyscallArgs::default(),
                0,
                &mut no_mem(),
            )
            .ret;
        assert!((40..=180).contains(&hr));
        let batt = s
            .dispatch(
                service_costs(&api, sysno::GET_BATTERY).1,
                0,
                sysno::GET_BATTERY,
                SyscallArgs::default(),
                0,
                &mut no_mem(),
            )
            .ret;
        assert!(batt <= 100);
        // Each call sampled its sensor exactly once, in order.
        let mut reference = SensorModel::new(9);
        assert_eq!(hr, reference.heart_rate());
        assert_eq!(batt, reference.battery());
        assert_eq!(s.sensors.ticks, reference.ticks);
    }

    #[test]
    fn yield_sets_the_batching_hint() {
        let api = ApiSpec::amulet();
        let mut s = services(1);
        let out = s.dispatch(
            service_costs(&api, sysno::YIELD).1,
            0,
            sysno::YIELD,
            SyscallArgs::default(),
            0,
            &mut no_mem(),
        );
        assert!(out.yielded);
        let out = s.dispatch(
            service_costs(&api, sysno::GET_TIME).1,
            0,
            sysno::GET_TIME,
            SyscallArgs::default(),
            0,
            &mut no_mem(),
        );
        assert!(!out.yielded);
    }

    #[test]
    fn unknown_syscall_is_a_cheap_no_op() {
        let api = ApiSpec::amulet();
        let mut s = services(1);
        let out = s.dispatch(
            service_costs(&api, 999).1,
            0,
            999,
            SyscallArgs::default(),
            0,
            &mut no_mem(),
        );
        assert_eq!(out.ret, 0);
        assert!(out.service_cycles <= 8);
    }
}

//! Context-switch plans.
//!
//! Every transition between the OS and an application (an event delivery or a
//! system-API call) has a method-dependent cost:
//!
//! * under **No Isolation** and **Feature Limited** the OS and the app share
//!   one stack and the MPU is unused, so a switch is just the trap / dispatch
//!   / save / restore machinery;
//! * under **Software Only** each app has its own stack, so the stack pointer
//!   must additionally be swapped in each direction;
//! * under **MPU** the stack pointer is swapped *and* the MPU is reprogrammed
//!   (boundary, access and control registers) in each direction — this is why
//!   Table 1 reports the MPU method's context switch as the most expensive
//!   (142 cycles vs. 90 for the baseline).
//!
//! [`ContextSwitchPlan`] lists the steps the OS performs; `amulet-os`
//! executes exactly these steps (charging their cycle costs and actually
//! writing the MPU registers through the simulated bus), and the analytic
//! overhead model sums them.

use crate::layout::PlatformSpec;
use crate::method::IsolationMethod;
use crate::mpu_plan::MpuRegisterValues;
use std::fmt;

/// Direction of a transition between the OS and an application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SwitchDirection {
    /// The OS hands the CPU to an application (event delivery, or returning
    /// from a system call back into app code).
    OsToApp,
    /// An application enters the OS (system-API call or fault).
    AppToOs,
}

/// One step of a context switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchStep {
    /// Enter the trap/dispatch stub (call into the OS API veneer).
    TrapEntry,
    /// Save the caller's registers.
    SaveCallerState,
    /// Look up the event handler / service routine to invoke.
    DispatchHandler,
    /// Marshal call arguments between the app and the OS.
    MarshalArguments,
    /// Validate an application-supplied pointer argument against the app's
    /// bounds before the OS dereferences it (only charged when the call
    /// actually passes pointers).
    ValidatePointerArg,
    /// Switch the stack pointer to the OS stack in SRAM.
    SwitchStackToOs,
    /// Switch the stack pointer to the application's own stack.
    SwitchStackToApp,
    /// Reprogram the MPU (boundary registers, access bits, control register).
    ConfigureMpu,
    /// Restore the caller's registers.
    RestoreCallerState,
    /// Return to the caller.
    ReturnToCaller,
}

impl SwitchStep {
    /// Cycle cost of the step, using MSP430-flavoured costs (each MPU
    /// configuration is [`MpuRegisterValues::WRITE_COUNT`] peripheral-register
    /// writes at 5 cycles each plus the unlock sequence).
    pub(crate) fn cycle_cost(&self) -> u64 {
        match self {
            SwitchStep::TrapEntry => 10,
            SwitchStep::SaveCallerState => 22,
            SwitchStep::DispatchHandler => 16,
            SwitchStep::MarshalArguments => 12,
            SwitchStep::ValidatePointerArg => 10,
            SwitchStep::SwitchStackToOs => 4,
            SwitchStep::SwitchStackToApp => 4,
            SwitchStep::ConfigureMpu => 5 * MpuRegisterValues::WRITE_COUNT as u64 + 2,
            SwitchStep::RestoreCallerState => 22,
            SwitchStep::ReturnToCaller => 8,
        }
    }
}

impl fmt::Display for SwitchStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SwitchStep::TrapEntry => "trap entry",
            SwitchStep::SaveCallerState => "save caller state",
            SwitchStep::DispatchHandler => "dispatch handler",
            SwitchStep::MarshalArguments => "marshal arguments",
            SwitchStep::ValidatePointerArg => "validate pointer argument",
            SwitchStep::SwitchStackToOs => "switch to OS stack",
            SwitchStep::SwitchStackToApp => "switch to app stack",
            SwitchStep::ConfigureMpu => "reprogram MPU",
            SwitchStep::RestoreCallerState => "restore caller state",
            SwitchStep::ReturnToCaller => "return to caller",
        };
        f.write_str(s)
    }
}

/// The steps of one directed transition under a given isolation method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContextSwitchPlan {
    /// Isolation method the plan belongs to.
    pub method: IsolationMethod,
    /// Direction of the transition.
    pub direction: SwitchDirection,
    /// Steps, in execution order.
    pub steps: Vec<SwitchStep>,
    /// Number of application-supplied pointer arguments that must be
    /// validated on entry to the OS (0 for the synthetic benchmark).
    pub pointer_args: u32,
    /// Cycles charged for the [`SwitchStep::ConfigureMpu`] step: the
    /// platform's cost of installing the OS configuration (entering the OS)
    /// or the app's (returning to it), which depends on how many MPU
    /// registers the platform's MPU model writes.
    pub mpu_config_cycles: u64,
}

impl ContextSwitchPlan {
    /// Builds the plan for one directed transition on a platform: the step
    /// sequence is method-defined, the MPU-reconfiguration cost comes from
    /// the platform's MPU model and cost table.
    ///
    /// `pointer_args` is the number of pointer arguments the call passes to
    /// the OS; the OS must bounds-check each of them before dereferencing
    /// (only relevant for methods that allow pointers at all).
    pub fn new_for(
        platform: &PlatformSpec,
        method: IsolationMethod,
        direction: SwitchDirection,
        pointer_args: u32,
    ) -> Self {
        use SwitchDirection::*;
        use SwitchStep::*;
        let mut steps = Vec::new();
        let mpu_config_cycles = match direction {
            AppToOs => {
                steps.push(TrapEntry);
                steps.push(SaveCallerState);
                if method.uses_per_app_stacks() {
                    steps.push(SwitchStackToOs);
                }
                if method.uses_mpu() {
                    steps.push(ConfigureMpu);
                }
                steps.push(DispatchHandler);
                steps.push(MarshalArguments);
                if method.allows_pointers() && method.inserts_checks() {
                    for _ in 0..pointer_args {
                        steps.push(ValidatePointerArg);
                    }
                }
                platform.costs.mpu_config_cycles_for_os(&platform.mpu)
            }
            OsToApp => {
                if method.uses_mpu() {
                    steps.push(ConfigureMpu);
                }
                if method.uses_per_app_stacks() {
                    steps.push(SwitchStackToApp);
                }
                steps.push(RestoreCallerState);
                steps.push(ReturnToCaller);
                platform.costs.mpu_config_cycles_for_app(&platform.mpu)
            }
        };
        ContextSwitchPlan {
            method,
            direction,
            steps,
            pointer_args,
            mpu_config_cycles,
        }
    }

    /// Total cycle cost of this directed transition.
    pub fn cycles(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| match s {
                SwitchStep::ConfigureMpu => self.mpu_config_cycles,
                _ => s.cycle_cost(),
            })
            .sum()
    }

    /// Builds both halves of a full API-call round trip (app → OS → app)
    /// on a platform.
    pub(crate) fn round_trip_for(
        platform: &PlatformSpec,
        method: IsolationMethod,
        pointer_args: u32,
    ) -> (Self, Self) {
        (
            Self::new_for(platform, method, SwitchDirection::AppToOs, pointer_args),
            Self::new_for(platform, method, SwitchDirection::OsToApp, pointer_args),
        )
    }

    /// Cycles of a full round trip with no pointer arguments on a platform —
    /// the quantity reported in Table 1's "Context Switch" row.
    pub fn round_trip_cycles_for(platform: &PlatformSpec, method: IsolationMethod) -> u64 {
        let (enter, leave) = Self::round_trip_for(platform, method, 0);
        enter.cycles() + leave.cycles()
    }

    /// Cycles of one **intra-batch delivery boundary** under batched event
    /// delivery: the handler-return trap plus the dispatch and argument
    /// marshalling of the next event of the same batch.
    ///
    /// Between two events of a batch the running application does not
    /// change, so the OS dispatch trampoline performs no register
    /// save/restore, no stack-pointer swap and no MPU reconfiguration —
    /// which is exactly the method- and platform-dependent part of a
    /// context switch.  The boundary cost is therefore the same for every
    /// isolation method and platform, and the per-event saving grows with
    /// the method's switch cost (largest for the MPU method on region-MPU
    /// platforms).
    pub fn batched_boundary_cycles() -> u64 {
        [
            SwitchStep::TrapEntry,
            SwitchStep::DispatchHandler,
            SwitchStep::MarshalArguments,
            SwitchStep::ReturnToCaller,
        ]
        .iter()
        .map(SwitchStep::cycle_cost)
        .sum()
    }
}

impl fmt::Display for ContextSwitchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} context switch ({:?}), {} cycles:",
            self.method,
            self.direction,
            self.cycles()
        )?;
        for step in &self.steps {
            writeln!(f, "  - {step} ({} cycles)", step.cycle_cost())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr5969() -> PlatformSpec {
        PlatformSpec::msp430fr5969()
    }

    fn both_halves(method: IsolationMethod) -> (ContextSwitchPlan, ContextSwitchPlan) {
        ContextSwitchPlan::round_trip_for(&fr5969(), method, 0)
    }

    fn plan(method: IsolationMethod, pointer_args: u32) -> ContextSwitchPlan {
        ContextSwitchPlan::new_for(&fr5969(), method, SwitchDirection::AppToOs, pointer_args)
    }

    #[test]
    fn table1_context_switch_costs() {
        // Table 1: No Isolation 90, Feature Limited 90, MPU 142, SW Only 98.
        assert_eq!(
            ContextSwitchPlan::round_trip_cycles_for(&fr5969(), IsolationMethod::NoIsolation),
            90
        );
        assert_eq!(
            ContextSwitchPlan::round_trip_cycles_for(&fr5969(), IsolationMethod::FeatureLimited),
            90
        );
        assert_eq!(
            ContextSwitchPlan::round_trip_cycles_for(&fr5969(), IsolationMethod::Mpu),
            142
        );
        assert_eq!(
            ContextSwitchPlan::round_trip_cycles_for(&fr5969(), IsolationMethod::SoftwareOnly),
            98
        );
    }

    #[test]
    fn mpu_switch_reconfigures_in_both_directions() {
        let (enter, leave) = both_halves(IsolationMethod::Mpu);
        assert!(enter.steps.contains(&SwitchStep::ConfigureMpu));
        assert!(leave.steps.contains(&SwitchStep::ConfigureMpu));
        assert!(enter.steps.contains(&SwitchStep::SwitchStackToOs));
        assert!(leave.steps.contains(&SwitchStep::SwitchStackToApp));
    }

    #[test]
    fn software_only_switches_stacks_but_not_mpu() {
        let (enter, leave) = both_halves(IsolationMethod::SoftwareOnly);
        assert!(!enter.steps.contains(&SwitchStep::ConfigureMpu));
        assert!(!leave.steps.contains(&SwitchStep::ConfigureMpu));
        assert!(enter.steps.contains(&SwitchStep::SwitchStackToOs));
        assert!(leave.steps.contains(&SwitchStep::SwitchStackToApp));
    }

    #[test]
    fn baseline_methods_share_a_stack() {
        for m in [
            IsolationMethod::NoIsolation,
            IsolationMethod::FeatureLimited,
        ] {
            let (enter, leave) = both_halves(m);
            assert!(!enter.steps.contains(&SwitchStep::SwitchStackToOs));
            assert!(!leave.steps.contains(&SwitchStep::SwitchStackToApp));
            assert!(!enter.steps.contains(&SwitchStep::ConfigureMpu));
        }
    }

    #[test]
    fn pointer_arguments_add_validation_only_for_pointer_methods() {
        let with_args = plan(IsolationMethod::Mpu, 2);
        let without = plan(IsolationMethod::Mpu, 0);
        assert_eq!(
            with_args.cycles(),
            without.cycles() + 2 * SwitchStep::ValidatePointerArg.cycle_cost()
        );
        // Feature Limited apps cannot pass pointers at all.
        let fl = plan(IsolationMethod::FeatureLimited, 2);
        assert!(!fl.steps.contains(&SwitchStep::ValidatePointerArg));
    }

    #[test]
    fn mpu_reconfig_cost_reflects_register_writes() {
        assert_eq!(
            SwitchStep::ConfigureMpu.cycle_cost(),
            5 * MpuRegisterValues::WRITE_COUNT as u64 + 2
        );
    }

    #[test]
    fn batched_boundary_is_cheaper_than_every_full_switch() {
        let boundary = ContextSwitchPlan::batched_boundary_cycles();
        assert_eq!(boundary, 10 + 16 + 12 + 8);
        for m in IsolationMethod::ALL {
            assert!(
                boundary < ContextSwitchPlan::round_trip_cycles_for(&fr5969(), m),
                "{m}"
            );
        }
    }

    #[test]
    fn display_lists_steps() {
        let s = plan(IsolationMethod::Mpu, 1).to_string();
        assert!(s.contains("reprogram MPU"));
        assert!(s.contains("validate pointer argument"));
    }
}

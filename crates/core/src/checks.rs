//! Compiler-inserted run-time checks.
//!
//! Every check the AFT inserts is, as the paper notes, "a simple comparison
//! against a constant, followed by a conditional branch (jump) to the
//! fault-handling code".  This module describes *which* checks each isolation
//! method requires and what each costs in instructions and cycles, so that
//! both the compiler (`amulet-aft::codegen`) and the analytic overhead
//! model ([`crate::overhead`]) agree on the policy.

use crate::method::IsolationMethod;
use std::fmt;

/// A kind of compiler-inserted run-time check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CheckKind {
    /// `if (address < D_i) FAULT()` before a data-pointer dereference.
    DataPointerLower,
    /// `if (address >= top_i) FAULT()` before a data-pointer dereference
    /// (only needed when the MPU is not protecting the region above the app).
    DataPointerUpper,
    /// `if (address < C_i) FAULT()` before an indirect call through a
    /// function pointer.
    FunctionPointerLower,
    /// `if (address >= D_i) FAULT()` before an indirect call through a
    /// function pointer (Software Only).
    FunctionPointerUpper,
    /// `if (index >= length) FAULT()` around an array access
    /// (Feature Limited; indexes are unsigned so a single compare suffices).
    ArrayBounds,
    /// `if (return_address < C_i || return_address >= D_i) FAULT()` before a
    /// function return, defending against stack smashing.
    ReturnAddress,
}

impl CheckKind {
    /// Cycle cost of the inserted sequence when the check passes (the hot
    /// path), using MSP430-flavoured costs.
    ///
    /// The *lower*-bound checks materialise the pointer value before
    /// comparing (compare-with-extension-word + not-taken jump, 6 cycles);
    /// when an *upper*-bound check follows it reuses the already-loaded
    /// register, so it only adds the compare and jump (3 cycles).  These
    /// constants make the analytic model reproduce Table 1 exactly
    /// (23 → 29 for MPU, 23 → 32 for Software Only).
    pub(crate) fn cycle_cost(&self) -> u64 {
        match self {
            // Array bounds checks in the Feature Limited tool additionally
            // reload the (possibly just computed) index and the array length
            // from the array descriptor in memory before comparing, which is
            // why the paper's Table 1 shows the Feature Limited memory access
            // costing noticeably more than the pointer checks (41 vs 29/32).
            CheckKind::ArrayBounds => 9,
            CheckKind::ReturnAddress => 10,
            CheckKind::DataPointerLower | CheckKind::FunctionPointerLower => 6,
            CheckKind::DataPointerUpper | CheckKind::FunctionPointerUpper => 3,
        }
    }
}

impl CheckKind {
    /// Whether the static verifier reports this check as redundant (a
    /// lint finding) when the guarded access is proven in-bounds.
    ///
    /// Only the four *bound* checks qualify: each is a self-contained
    /// `CmpImm` + `Jcc` pair whose compare immediate **is** the linked
    /// bound, so the verifier can read the bound straight off the image.
    /// The return-address check is excluded because its shape is
    /// path-dependent (cheap sentinel exit vs full two-sided compare), and
    /// the array-bounds check because its bound lives in a runtime array
    /// descriptor, not in the instruction stream.
    pub fn is_elidable(&self) -> bool {
        matches!(
            self,
            CheckKind::DataPointerLower
                | CheckKind::DataPointerUpper
                | CheckKind::FunctionPointerLower
                | CheckKind::FunctionPointerUpper
        )
    }
}

/// One compiler-inserted check sequence, located in the linked image.
///
/// The AFT records a `CheckSite` for every check it emits; the linker
/// rebases the address.  The static verifier consumes these to decide,
/// per site, whether the guarded branch can ever be taken, and report
/// the provably-redundant sites as lint findings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckSite {
    /// Which check this site implements.
    pub kind: CheckKind,
    /// Absolute address of the first instruction of the sequence (the
    /// `CmpImm` of a bound check).
    pub addr: u32,
    /// Number of machine instructions in the sequence.
    pub len: u32,
}

impl fmt::Display for CheckSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {:#06x} ({} instrs)",
            self.kind, self.addr, self.len
        )
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::DataPointerLower => "data-pointer lower-bound check",
            CheckKind::DataPointerUpper => "data-pointer upper-bound check",
            CheckKind::FunctionPointerLower => "function-pointer lower-bound check",
            CheckKind::FunctionPointerUpper => "function-pointer upper-bound check",
            CheckKind::ArrayBounds => "array bounds check",
            CheckKind::ReturnAddress => "return-address check",
        };
        f.write_str(s)
    }
}

/// The set of checks an isolation method requires the compiler to insert.
///
/// This is the single source of truth consulted by the AFT passes and by the
/// analytic overhead model, so the simulation and the extrapolation cannot
/// drift apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CheckPolicy {
    /// The isolation method this policy belongs to.
    pub method: IsolationMethod,
    /// Check inserted before every data-pointer dereference against the app's
    /// lower data bound `D_i`.
    pub data_pointer_lower: bool,
    /// Check inserted before every data-pointer dereference against the app's
    /// upper bound.
    pub data_pointer_upper: bool,
    /// Check inserted before every indirect call against the app's code
    /// lower bound `C_i`.
    pub function_pointer_lower: bool,
    /// Check inserted before every indirect call against the app's code upper
    /// bound.
    pub function_pointer_upper: bool,
    /// Check inserted around every array access (Feature Limited).
    pub array_bounds: bool,
    /// Check inserted before every function return.
    pub return_address: bool,
}

impl CheckPolicy {
    /// The check policy for a given isolation method **on specific MPU
    /// hardware**, derived from the backend's
    /// [`crate::platform::RegionConstraints`].
    ///
    /// The paper's §3 policy (the base table below) assumes the
    /// FR5969's segmented MPU, which cannot bound the running app from
    /// below and polices neither SRAM nor peripherals — hence the
    /// compiler-inserted lower-bound checks under the MPU method.  A region
    /// MPU with deny-by-default coverage of FRAM *and* SRAM bounds the app
    /// on both sides and shields the OS stack, so the data-pointer
    /// lower-bound check becomes redundant — exactly the §5 projection the
    /// paper makes for more capable MPUs.  Function-pointer checks are
    /// kept on backends like the FR5994 profile's, whose jurisdiction
    /// stops at peripheral space (a corrupted code pointer could still
    /// escape into unpoliced peripheral, boot-ROM or vector memory); on
    /// backends that police the **full platform space** (`cortex-m33`,
    /// `riscv-pmp` — peripherals, boot ROM and vectors are all inside the
    /// deny-by-default jurisdiction) a stray indirect call faults in
    /// hardware everywhere outside the app's execute-only code region, so
    /// the function-pointer check is dropped as well.  Return-address
    /// checks are retained on every profile: they catch *intra-app* stack
    /// smashing — a return diverted to the wrong address inside the app's
    /// own executable region — which no app-granularity MPU can see.
    ///
    /// A *segmented* MPU with four segments could also bound an app from
    /// below, but it still leaves SRAM open, so its check policy is
    /// unchanged.  The `msp430fr5969-advanced-mpu` profile is simulated
    /// with the FR5969's Figure-1 plan
    /// ([`crate::mpu_plan::MpuPlan::for_app_on`]); what a fourth segment
    /// would save is projected analytically by the bench crate's
    /// `ablation::advanced_mpu_ablation`.
    pub fn for_method_on(method: IsolationMethod, mpu: &crate::platform::MpuModel) -> Self {
        let mut policy = Self::for_method(method);
        if method == IsolationMethod::Mpu && mpu.is_region_based() {
            policy.data_pointer_lower = false;
            if mpu.covers_peripherals() {
                policy.function_pointer_lower = false;
            }
        }
        policy
    }

    /// The base table behind [`CheckPolicy::for_method_on`]: the policy for
    /// a given isolation method, exactly as described in §3 of the paper.
    fn for_method(method: IsolationMethod) -> Self {
        match method {
            IsolationMethod::NoIsolation => CheckPolicy {
                method,
                data_pointer_lower: false,
                data_pointer_upper: false,
                function_pointer_lower: false,
                function_pointer_upper: false,
                array_bounds: false,
                return_address: false,
            },
            // The native Amulet approach: no pointers exist in the language,
            // so only array accesses need guarding.
            IsolationMethod::FeatureLimited => CheckPolicy {
                method,
                data_pointer_lower: false,
                data_pointer_upper: false,
                function_pointer_lower: false,
                function_pointer_upper: false,
                array_bounds: true,
                return_address: false,
            },
            // MPU method: the hardware faults on accesses above the app, so
            // only the lower bounds need software checks.
            IsolationMethod::Mpu => CheckPolicy {
                method,
                data_pointer_lower: true,
                data_pointer_upper: false,
                function_pointer_lower: true,
                function_pointer_upper: false,
                array_bounds: false,
                return_address: true,
            },
            // Software Only: both bounds of every pointer dereference are
            // checked in software.
            IsolationMethod::SoftwareOnly => CheckPolicy {
                method,
                data_pointer_lower: true,
                data_pointer_upper: true,
                function_pointer_lower: true,
                function_pointer_upper: true,
                array_bounds: false,
                return_address: true,
            },
        }
    }

    /// The checks inserted before a *data pointer* dereference.
    pub(crate) fn data_pointer_checks(&self) -> Vec<CheckKind> {
        let mut v = Vec::new();
        if self.data_pointer_lower {
            v.push(CheckKind::DataPointerLower);
        }
        if self.data_pointer_upper {
            v.push(CheckKind::DataPointerUpper);
        }
        v
    }

    /// The checks inserted around an array access.
    pub(crate) fn array_checks(&self) -> Vec<CheckKind> {
        if self.array_bounds {
            vec![CheckKind::ArrayBounds]
        } else {
            Vec::new()
        }
    }

    /// Extra cycles added to a single data-memory access (pointer dereference
    /// under the pointer-enabled methods, array access under Feature
    /// Limited).  This is the per-access component of the analytic model.
    pub(crate) fn memory_access_overhead_cycles(&self) -> u64 {
        match self.method {
            IsolationMethod::FeatureLimited => {
                self
                .array_checks()
                .iter()
                .map(|c| c.cycle_cost())
                .sum::<u64>()
                // The Feature Limited tool also re-materialises the bound from
                // the array descriptor it keeps in memory (two extra memory
                // operands), which the paper's 41-cycle figure includes.
                + 9
            }
            _ => self
                .data_pointer_checks()
                .iter()
                .map(|c| c.cycle_cost())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PlatformSpec;

    fn on_fr5969(method: IsolationMethod) -> CheckPolicy {
        CheckPolicy::for_method_on(method, &PlatformSpec::msp430fr5969().mpu)
    }

    #[test]
    fn no_isolation_inserts_nothing() {
        let p = on_fr5969(IsolationMethod::NoIsolation);
        assert!(p.data_pointer_checks().is_empty());
        assert!(!p.function_pointer_lower && !p.function_pointer_upper);
        assert!(p.array_checks().is_empty());
        assert!(!p.return_address);
        assert_eq!(p.memory_access_overhead_cycles(), 0);
    }

    #[test]
    fn mpu_method_needs_half_the_pointer_checks_of_software_only() {
        let mpu = on_fr5969(IsolationMethod::Mpu);
        let sw = on_fr5969(IsolationMethod::SoftwareOnly);
        assert_eq!(mpu.data_pointer_checks().len(), 1);
        assert_eq!(sw.data_pointer_checks().len(), 2);
    }

    #[test]
    fn feature_limited_guards_arrays_only() {
        let p = on_fr5969(IsolationMethod::FeatureLimited);
        assert!(p.array_bounds);
        assert!(!p.data_pointer_lower && !p.data_pointer_upper);
        assert!(!p.function_pointer_lower && !p.function_pointer_upper);
    }

    #[test]
    fn table1_memory_access_overhead_ordering() {
        // Table 1: 23 (none) < 29 (MPU) < 32 (SW only) < 41 (feature limited).
        let none = on_fr5969(IsolationMethod::NoIsolation).memory_access_overhead_cycles();
        let mpu = on_fr5969(IsolationMethod::Mpu).memory_access_overhead_cycles();
        let sw = on_fr5969(IsolationMethod::SoftwareOnly).memory_access_overhead_cycles();
        let fl = on_fr5969(IsolationMethod::FeatureLimited).memory_access_overhead_cycles();
        assert!(none < mpu, "{none} < {mpu}");
        assert!(mpu < sw, "{mpu} < {sw}");
        assert!(sw < fl, "{sw} < {fl}");
    }

    const ALL_KINDS: [CheckKind; 6] = [
        CheckKind::DataPointerLower,
        CheckKind::DataPointerUpper,
        CheckKind::FunctionPointerLower,
        CheckKind::FunctionPointerUpper,
        CheckKind::ArrayBounds,
        CheckKind::ReturnAddress,
    ];

    #[test]
    fn every_check_is_a_compare_and_branch() {
        for k in ALL_KINDS {
            assert!(k.cycle_cost() >= 3, "{k} suspiciously cheap");
            assert!(k.cycle_cost() <= 12, "{k} suspiciously expensive");
        }
    }

    #[test]
    fn only_bound_checks_are_elidable() {
        for k in ALL_KINDS {
            assert_eq!(
                k.is_elidable(),
                !matches!(k, CheckKind::ArrayBounds | CheckKind::ReturnAddress),
                "{k}"
            );
        }
    }
}

//! The benchmark applications from §4.2 of the paper: the Synthetic App
//! (Table 1), the Activity Detection App (Figure 3, cases 1 and 2) and the
//! Quicksort App (Figure 3).
//!
//! The pointer-capable memory models (No Isolation, MPU, Software Only)
//! compile the natural C versions; Feature Limited compiles a ported
//! variant with no pointers and no recursion — exactly the porting burden
//! the paper's approach removes.

use amulet_aft::aft::AppSource;
use amulet_core::method::IsolationMethod;

/// A benchmark application with per-method source variants.
#[derive(Clone, Debug)]
pub struct BenchmarkApp {
    /// Application name.
    pub name: &'static str,
    /// Handlers the harness invokes.
    pub handlers: &'static [&'static str],
    /// Natural (pointer/recursion) source.
    pub pointer_source: &'static str,
    /// Feature Limited port (arrays only, no recursion).
    pub feature_limited_source: &'static str,
    /// Extra stack to reserve (recursion makes the AFT estimate impossible).
    pub stack_override: Option<u32>,
}

impl BenchmarkApp {
    /// The source used for a given memory model.
    pub(crate) fn source_for(&self, method: IsolationMethod) -> &'static str {
        if method == IsolationMethod::FeatureLimited {
            self.feature_limited_source
        } else {
            self.pointer_source
        }
    }

    /// The app as toolchain input for a given memory model.
    pub fn app_source(&self, method: IsolationMethod) -> AppSource {
        let mut src = AppSource::new(self.name, self.source_for(method), self.handlers);
        if let Some(stack) = self.stack_override {
            src = src.with_stack(stack);
        }
        src
    }
}

/// The Synthetic App: one handler performing a run of guarded memory
/// accesses, one handler performing a run of OS API calls.  Table 1 divides
/// the measured cycles by the operation count to get per-operation costs.
///
/// The synthetic app must compile under *every* memory model — including
/// Feature Limited — so it is written in the pointer-free common subset;
/// the same source is used for all four builds, which is exactly what makes
/// the per-operation comparison apples-to-apples (only the inserted checks
/// differ between builds).
pub fn synthetic() -> BenchmarkApp {
    const SYNTHETIC_SOURCE: &str = r#"
        int buf[64];
        void main(void) { }
        int mem_ops(int rounds) {
            int total = 0;
            for (int r = 0; r < rounds; r++) {
                for (int i = 0; i < 64; i++) {
                    buf[i] = i;
                    total += buf[i];
                }
            }
            return total;
        }
        int switch_ops(int rounds) {
            for (int r = 0; r < rounds; r++) { amulet_yield(); }
            return rounds;
        }
    "#;
    BenchmarkApp {
        name: "Synthetic",
        handlers: &["main", "mem_ops", "switch_ops"],
        pointer_source: SYNTHETIC_SOURCE,
        feature_limited_source: SYNTHETIC_SOURCE,
        stack_override: None,
    }
}

/// The Activity Detection App.  Case 1 (`case1`) computes windowed
/// mean/variance features over an accelerometer buffer; case 2 (`case2`)
/// runs the activity classifier over the feature history.  Both are
/// memory-access heavy with almost no API calls, which is where the MPU
/// method shines.
pub fn activity_detection() -> BenchmarkApp {
    BenchmarkApp {
        name: "Activity",
        handlers: &["main", "fill", "case1", "case2"],
        pointer_source: r#"
            int samples[64];
            int features[16];
            int history[32];
            int classified = 0;

            void main(void) { }

            int fill(int seed) {
                int v = seed;
                for (int i = 0; i < 64; i++) {
                    v = (v * 13 + 7) % 1024;
                    samples[i] = v;
                }
                return v;
            }

            int case1(int unused) {
                int *p;
                int mean = 0;
                p = &samples[0];
                for (int i = 0; i < 64; i++) { mean += *p; p = p + 2; }
                mean = mean / 64;
                int var = 0;
                p = &samples[0];
                for (int i = 0; i < 64; i++) {
                    int d = *p - mean;
                    var += d * d / 64;
                    p = p + 2;
                }
                features[0] = mean;
                features[1] = var;
                for (int k = 2; k < 16; k++) {
                    features[k] = (features[k - 1] + features[k - 2]) / 2;
                }
                return var;
            }

            int case2(int unused) {
                int *f;
                int score = 0;
                for (int w = 0; w < 8; w++) {
                    f = &features[0];
                    for (int i = 0; i < 16; i++) {
                        score += *f * (i + w);
                        f = f + 2;
                    }
                    history[(w * 4) % 32] = score;
                }
                if (score > 2000) { classified = 1; } else { classified = 0; }
                return classified;
            }
        "#,
        feature_limited_source: r#"
            int samples[64];
            int features[16];
            int history[32];
            int classified = 0;

            void main(void) { }

            int fill(int seed) {
                int v = seed;
                for (int i = 0; i < 64; i++) {
                    v = (v * 13 + 7) % 1024;
                    samples[i] = v;
                }
                return v;
            }

            int case1(int unused) {
                int mean = 0;
                for (int i = 0; i < 64; i++) { mean += samples[i]; }
                mean = mean / 64;
                int var = 0;
                for (int i = 0; i < 64; i++) {
                    int d = samples[i] - mean;
                    var += d * d / 64;
                }
                features[0] = mean;
                features[1] = var;
                for (int k = 2; k < 16; k++) {
                    features[k] = (features[k - 1] + features[k - 2]) / 2;
                }
                return var;
            }

            int case2(int unused) {
                int score = 0;
                for (int w = 0; w < 8; w++) {
                    for (int i = 0; i < 16; i++) {
                        score += features[i] * (i + w);
                    }
                    history[(w * 4) % 32] = score;
                }
                if (score > 2000) { classified = 1; } else { classified = 0; }
                return classified;
            }
        "#,
        stack_override: None,
    }
}

/// The Quicksort App: fills a 64-element array deterministically and sorts
/// it.  Many memory accesses, zero API calls.  The natural version is the
/// classic recursive pointer quicksort; the Feature Limited port is an
/// iterative, array-only variant with an explicit bounds stack.
pub fn quicksort() -> BenchmarkApp {
    BenchmarkApp {
        name: "Quicksort",
        handlers: &["main", "run", "verify"],
        pointer_source: r#"
            int data[64];

            void main(void) { }

            void fill(int seed) {
                int v = seed;
                for (int i = 0; i < 64; i++) {
                    v = (v * 31 + 17) % 997;
                    data[i] = v;
                }
            }

            void swap(int *a, int *b) {
                int t = *a;
                *a = *b;
                *b = t;
            }

            int partition(int *arr, int low, int high) {
                int pivot = arr[high];
                int i = low - 1;
                for (int j = low; j < high; j++) {
                    if (arr[j] <= pivot) {
                        i++;
                        swap(&arr[i], &arr[j]);
                    }
                }
                swap(&arr[i + 1], &arr[high]);
                return i + 1;
            }

            void qsort_range(int *arr, int low, int high) {
                if (low < high) {
                    int p = partition(arr, low, high);
                    qsort_range(arr, low, p - 1);
                    qsort_range(arr, p + 1, high);
                }
            }

            int run(int seed) {
                fill(seed);
                qsort_range(&data[0], 0, 63);
                return data[63];
            }

            int verify(int unused) {
                for (int i = 1; i < 64; i++) {
                    if (data[i - 1] > data[i]) { return 0; }
                }
                return 1;
            }
        "#,
        feature_limited_source: r#"
            int data[64];
            int stack_lo[32];
            int stack_hi[32];

            void main(void) { }

            void fill(int seed) {
                int v = seed;
                for (int i = 0; i < 64; i++) {
                    v = (v * 31 + 17) % 997;
                    data[i] = v;
                }
            }

            int run(int seed) {
                fill(seed);
                int top = 0;
                stack_lo[0] = 0;
                stack_hi[0] = 63;
                top = 1;
                while (top > 0) {
                    top = top - 1;
                    int low = stack_lo[top];
                    int high = stack_hi[top];
                    if (low < high) {
                        int pivot = data[high];
                        int i = low - 1;
                        for (int j = low; j < high; j++) {
                            if (data[j] <= pivot) {
                                i++;
                                int t = data[i];
                                data[i] = data[j];
                                data[j] = t;
                            }
                        }
                        int t = data[i + 1];
                        data[i + 1] = data[high];
                        data[high] = t;
                        int p = i + 1;
                        stack_lo[top] = low;
                        stack_hi[top] = p - 1;
                        top = top + 1;
                        stack_lo[top] = p + 1;
                        stack_hi[top] = high;
                        top = top + 1;
                    }
                }
                return data[63];
            }

            int verify(int unused) {
                for (int i = 1; i < 64; i++) {
                    if (data[i - 1] > data[i]) { return 0; }
                }
                return 1;
            }
        "#,
        stack_override: Some(1024),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_aft::aft::Aft;
    use amulet_mcu::isa::Reg;
    use amulet_os::os::{AmuletOs, DeliveryOutcome};

    fn run_one(
        app: &BenchmarkApp,
        method: IsolationMethod,
        calls: &[(&str, u16)],
    ) -> (AmuletOs, Vec<u16>) {
        let out = Aft::new(method)
            .add_app(app.app_source(method))
            .build()
            .unwrap();
        let mut os = AmuletOs::new(out.firmware);
        os.boot();
        let mut results = Vec::new();
        for (handler, payload) in calls {
            let (outcome, _) = os.call_handler(0, handler, *payload);
            assert_eq!(outcome, DeliveryOutcome::Completed, "{method}: {handler}");
            results.push(os.device.cpu.reg(Reg::R14));
        }
        (os, results)
    }

    #[test]
    fn synthetic_app_builds_and_runs_under_every_method() {
        for method in IsolationMethod::ALL {
            let app = synthetic();
            let (_, results) = run_one(&app, method, &[("mem_ops", 2), ("switch_ops", 4)]);
            // 2 rounds of sum(0..64) = 2 * 2016 = 4032.
            assert_eq!(results[0], 4032, "{method}");
            assert_eq!(results[1], 4, "{method}");
        }
    }

    #[test]
    fn quicksort_sorts_under_every_method_and_results_agree() {
        let mut finals = Vec::new();
        for method in IsolationMethod::ALL {
            let app = quicksort();
            let (_, results) = run_one(&app, method, &[("run", 3), ("verify", 0)]);
            assert_eq!(results[1], 1, "{method}: sorted");
            finals.push(results[0]);
        }
        // The maximum element is identical regardless of the memory model or
        // of which source variant (recursive vs iterative) was compiled.
        assert!(finals.windows(2).all(|w| w[0] == w[1]), "{finals:?}");
    }

    #[test]
    fn activity_cases_compute_identical_features_across_methods() {
        let mut case1 = Vec::new();
        let mut case2 = Vec::new();
        for method in IsolationMethod::ALL {
            let app = activity_detection();
            let (_, results) = run_one(&app, method, &[("fill", 11), ("case1", 0), ("case2", 0)]);
            case1.push(results[1]);
            case2.push(results[2]);
        }
        assert!(
            case1.windows(2).all(|w| w[0] == w[1]),
            "case1 variance agrees: {case1:?}"
        );
        assert!(
            case2.windows(2).all(|w| w[0] == w[1]),
            "case2 class agrees: {case2:?}"
        );
    }

    #[test]
    fn benchmarks_have_no_api_calls_in_their_hot_handlers() {
        // Figure 3's point: these are memory-access-dominated workloads.
        for method in [IsolationMethod::Mpu, IsolationMethod::SoftwareOnly] {
            for app in [activity_detection(), quicksort()] {
                let out = Aft::new(method)
                    .add_app(app.app_source(method))
                    .build()
                    .unwrap();
                assert_eq!(out.report.apps[0].api_calls, 0, "{}", app.name);
            }
        }
    }

    #[test]
    fn slowdown_ordering_matches_figure3_for_quicksort() {
        // Quicksort has no context switches, so MPU (one check per access)
        // must beat Software Only (two checks), and Feature Limited's
        // heavier array checks must be the slowest.
        let mut cycles = std::collections::BTreeMap::new();
        for method in IsolationMethod::ALL {
            let app = quicksort();
            let out = Aft::new(method)
                .add_app(app.app_source(method))
                .build()
                .unwrap();
            let mut os = AmuletOs::new(out.firmware);
            os.boot();
            let (outcome, spent) = os.call_handler(0, "run", 3);
            assert_eq!(outcome, DeliveryOutcome::Completed);
            cycles.insert(method, spent);
        }
        let none = cycles[&IsolationMethod::NoIsolation];
        let mpu = cycles[&IsolationMethod::Mpu];
        let sw = cycles[&IsolationMethod::SoftwareOnly];
        assert!(none < mpu, "{none} < {mpu}");
        assert!(mpu < sw, "{mpu} < {sw}");
    }
}

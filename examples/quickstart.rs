//! Quickstart: compile an application with the Amulet Firmware Toolchain,
//! boot AmuletOS on the simulated MSP430FR5969, deliver events, and watch the
//! MPU + compiler-inserted checks stop a stray pointer.
//!
//! Run with `cargo run --example quickstart`.

use amulet_iso::aft::aft::{Aft, AppSource};
use amulet_iso::core::method::IsolationMethod;
use amulet_iso::os::os::{AmuletOs, DeliveryOutcome};

const STEP_COUNTER: &str = r#"
    int steps = 0;
    int window[8];

    void main(void) {
        amulet_subscribe(1);
    }

    int on_accel(int sample) {
        // Keep a small window of samples and count threshold crossings.
        window[steps % 8] = sample;
        if (sample > 600) {
            steps = steps + 1;
            amulet_log_value(steps);
        }
        return steps;
    }

    int oops(int addr) {
        // A buggy handler: dereferences an attacker-controlled address.
        int *p;
        p = addr;
        return *p;
    }
"#;

fn main() {
    // 1. Build a firmware image with the paper's hybrid MPU isolation method.
    let build = Aft::new(IsolationMethod::Mpu)
        .add_app(AppSource::new(
            "StepCounter",
            STEP_COUNTER,
            &["main", "on_accel", "oops"],
        ))
        .build()
        .expect("firmware build");
    println!("{}", build.report);
    println!("{}", build.firmware.memory_map);

    // 2. Boot the OS on the simulated device.
    let mut os = AmuletOs::new(build.firmware);
    os.boot();

    // 3. Deliver some accelerometer events.
    for sample in [200, 700, 650, 100, 800] {
        let (outcome, cycles) = os.call_handler(0, "on_accel", sample);
        println!("on_accel({sample:4}) -> {outcome:?} in {cycles} cycles");
    }
    println!(
        "log = {:?}",
        os.services.log.iter().map(|e| e.value).collect::<Vec<_>>()
    );

    // 4. Now the buggy handler tries to read OS memory at 0x4400.  The
    //    compiler-inserted lower-bound check catches it and the OS fault
    //    handler kills the app.
    let (outcome, _) = os.call_handler(0, "oops", 0x4400);
    println!("oops(0x4400) -> {outcome:?}");
    assert!(matches!(outcome, DeliveryOutcome::Faulted(_)));
    println!("fault log: {:?}", os.faults.records.last().unwrap().class);
    println!("app state: {:?}", os.app_state(0));
}

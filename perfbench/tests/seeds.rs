//! Seed handling: one seed always makes the same inputs and the same
//! revocation work; different seeds make different inputs.

use perfbench::drive;
use perfbench::heapdrive::Heaps;
use perfbench::inputs::{self, FleetShape};
use perfbench::replay::{self, ReplaySpec};
use perfbench::report::pinned_policy;

/// A small xalancbmk replay, so the test runs in a debug build.
const SMALL: ReplaySpec = ReplaySpec {
    profile: "xalancbmk",
    scale: 1.0 / 512.0,
    events: 40_000,
};

#[test]
fn one_seed_repeats_its_counts_exactly() {
    let input = replay::input(&SMALL, 7, pinned_policy());
    let (_, model) = replay::model_pass(&input).unwrap();
    let configs = [input.config];
    let build = || Heaps::new(&configs, input.stream.objects);
    let (first, _) = drive::phase(build, &input.stream, false).unwrap();
    let (second, _) = drive::phase(build, &input.stream, true).unwrap();
    assert!(model.sweeps > 0, "the input must run epochs: {model:?}");
    assert_eq!(first.calls.failed, 0);
    assert_eq!(first.after, model, "timed phase vs the model pass");
    assert_eq!(second.after, model, "traced phase vs the model pass");
    assert_eq!(
        first.after.since(&first.before),
        second.after.since(&second.before)
    );

    let again = replay::input(&SMALL, 7, pinned_policy());
    assert_eq!(again.stream.steps, input.stream.steps);
}

#[test]
fn seeds_change_the_inputs() {
    let a = replay::input(&SMALL, 7, pinned_policy());
    let b = replay::input(&SMALL, 8, pinned_policy());
    assert_ne!(a.stream.steps, b.stream.steps);

    let shape = FleetShape {
        calls: 5_000,
        ..perfbench::fleet::SHAPE
    };
    let f7 = inputs::fleet_input(&shape, 7).stream;
    assert_eq!(f7.steps, inputs::fleet_input(&shape, 7).stream.steps);
    assert_ne!(f7.steps, inputs::fleet_input(&shape, 8).stream.steps);
}

#[test]
fn the_declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // Built outside the repository checkout.
    };
    for name in perfbench::END_TO_END.iter().chain(&perfbench::PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    for workload in perfbench::WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{workload}\"")));
    }
}

//! The CHERIvoke reproduction's benchmark: three workloads driven through
//! the public APIs of `CherivokeHeap`, `ConcurrentHeap` and `HeapService`,
//! with the layers under them (`cvkalloc`'s quarantining allocator,
//! `revoker`'s shadow map and sweep engine) timed from outside.
//!
//! Run `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`; `NOTES.md` describes the workloads and metrics.

pub mod drive;
pub mod fleet;
pub mod heapdrive;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod replay;
pub mod report;
pub mod report_layers;
pub mod service;

use measure::Report;
use replay::ReplaySpec;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of every tuning run, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 20_191_012;

/// The pointer-dense, small-object replay.
pub const XALANCBMK: ReplaySpec = ReplaySpec {
    profile: "xalancbmk",
    scale: 1.0 / 64.0,
    events: 1_000_000,
};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["replay-xalancbmk", "service-omnetpp", "fleet-zipf"];

/// Every end-to-end metric, as an untraced run reports them.
pub const END_TO_END: [&str; 10] = [
    "ops_per_s",
    "cpu_ns_per_op",
    "op_p50_us",
    "op_p99_us",
    "pause_p50_us",
    "pause_p90_us",
    "mem_overhead",
    "model_overhead",
    "success_frac",
    "setup_s",
];

/// Every per-layer metric, as a traced run reports them.
pub const PER_LAYER: [&str; 34] = [
    "cherivoke.frontend.malloc_ns",
    "cherivoke.frontend.free_ns",
    "cherivoke.frontend.store_cap_ns",
    "cherivoke.frontend.load_cap_ns",
    "cherivoke.frontend.epochs",
    "cherivoke.frontend.background_cpu_share",
    "cherivoke.heap.malloc_ns",
    "cherivoke.heap.free_ns",
    "cherivoke.heap.store_cap_ns",
    "cherivoke.heap.epoch_ns",
    "cherivoke.heap.epoch_share",
    "cherivoke.heap.epochs",
    "cherivoke.heap.epoch_attributed",
    "cvkalloc.malloc_ns",
    "cvkalloc.free_ns",
    "cvkalloc.drain_us",
    "cvkalloc.internal_frees",
    "cvkalloc.peak_quarantine_frac",
    "revoker.shadow.paint_clear_us",
    "revoker.shadow.painted_mib",
    "revoker.engine.walk_us",
    "revoker.engine.kernel_mib_s",
    "revoker.engine.swept_mib",
    "revoker.engine.swept_per_freed",
    "revoker.engine.caps_inspected",
    "revoker.engine.caps_revoked",
    "revoker.engine.pages_skipped",
    "cherivoke.service.foreign_sweeps",
    "cherivoke.service.foreign_caps_revoked",
    "cherivoke.fleet.throttle_retries",
    "cherivoke.fleet.emergency_sweeps",
    "cherivoke.fleet.steals",
    "cherivoke.fleet.max_budget_fraction",
    "trace.overhead_frac",
];

/// The effective configuration of `workload` (the pinned policy and
/// the front end's shape), or `None` for an unknown workload.
pub fn describe(workload: &str) -> Option<String> {
    let front = match workload {
        "replay-xalancbmk" => "front_end=CherivokeHeap epochs=stop-the-world".to_string(),
        "service-omnetpp" => service::describe(),
        "fleet-zipf" => fleet::describe(),
        _ => return None,
    };
    Some(format!(
        "{} {front}",
        report::describe(&report::pinned_policy())
    ))
}

/// Runs `workload` with `seed` for at least `seconds` of measured phases.
///
/// # Errors
///
/// An unknown workload, or a failure that left no result.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    match workload {
        "replay-xalancbmk" => replay::run(&XALANCBMK, seed, seconds, traced),
        "service-omnetpp" => service::run(seed, seconds, traced),
        "fleet-zipf" => fleet::run(seed, seconds, traced),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

//! The replay workloads: one Table 2 trace, replayed single-threaded in
//! a closed loop through `CherivokeHeap` with stop-the-world epochs.

use std::time::Instant;

use cherivoke::{CherivokeHeap, HeapConfig, RevocationPolicy};
use workloads::{CherivokeUnderTest, CostModel, Stage, Trace};

use crate::drive;
use crate::heapdrive::{Counts, Heaps};
use crate::inputs::{self, Stream};
use crate::measure::{mean, ns_since, Report};
use crate::report::{pinned_policy, surviving_stores, Checks};
use crate::report_layers;

/// One replay workload: a profile, its heap scale and its trace length.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Table 2 profile name.
    pub profile: &'static str,
    /// Heap scale passed to `TraceGenerator`.
    pub scale: f64,
    /// Trace length in events.
    pub events: usize,
}

/// A replay input: the trace, its call stream and the heap they run on.
pub struct ReplayInput {
    /// The generated trace.
    pub trace: Trace,
    /// The trace as a call stream.
    pub stream: Stream,
    /// The heap every phase (and the model pass) builds.
    pub config: HeapConfig,
}

/// Generates the input of `spec` for `seed`.
pub fn input(spec: &ReplaySpec, seed: u64, policy: RevocationPolicy) -> ReplayInput {
    let trace = inputs::profile_trace(spec.profile, spec.scale, seed, spec.events);
    let stream = inputs::stream_of_trace(&trace);
    let config = inputs::trace_heap_config(&trace, policy);
    ReplayInput {
        trace,
        stream,
        config,
    }
}

/// The untimed `workloads` cost-model pass over the same trace and
/// policy: fig. 5a normalised time, and the heap counters it ended with.
///
/// # Errors
///
/// The adapter's or the replay's error, as text.
pub fn model_pass(input: &ReplayInput) -> Result<(f64, Counts), String> {
    let mut sut = CherivokeUnderTest::new(
        &input.trace,
        input.config.policy,
        CostModel::x86_default(),
        Stage::Full,
    )?;
    let report = workloads::run_trace(&mut sut, &input.trace).map_err(|e| format!("{e:?}"))?;
    Ok((report.normalized_time, Counts::of(&sut.heap().stats())))
}

/// Checks that hold on the heap a run ends with: the stored capabilities
/// of live objects load back intact (timing each `load_cap`), the
/// full-heap audit is clean, and a capability to a freed object stored
/// in memory is untagged after the next epoch.
pub fn end_checks(heaps: &mut Heaps, stream: &Stream, checks: &mut Checks) -> f64 {
    let mut load_ns = Vec::new();
    for (h, from, slot, to) in surviving_stores(stream) {
        let (Some(holder), target) = (heaps.caps[from as usize], heaps.caps[to as usize]) else {
            continue;
        };
        let heap = &heaps.heaps[usize::from(h)];
        let t = Instant::now();
        let loaded = heap.load_cap(&holder, slot);
        load_ns.push(ns_since(t));
        if let Some(target) = target {
            checks.expect(
                loaded.is_ok_and(|c| c.tag() && c.base() == target.base()),
                || format!("heap {h}: capability stored in object {from}+{slot} did not load back"),
            );
        }
    }
    for (h, heap) in heaps.heaps.iter_mut().enumerate() {
        let audit = heap.audit();
        checks.expect(audit.clean(), || format!("heap {h}: audit found {audit:?}"));
        checks.expect(uaf_probe(heap), || {
            format!("heap {h}: a stored capability to a freed object survived an epoch")
        });
    }
    mean(&load_ns)
}

/// Stores a capability to an object in memory, frees the object, runs
/// the next epoch and reads the stored copy back: it must be untagged.
fn uaf_probe(heap: &mut CherivokeHeap) -> bool {
    let (Ok(victim), Ok(holder)) = (heap.malloc(64), heap.malloc(16)) else {
        return false;
    };
    if heap.store_cap(&holder, 0, &victim).is_err() || heap.free(victim).is_err() {
        return false;
    }
    heap.revoke_now();
    let dangling = heap.load_cap(&holder, 0);
    let ok = dangling.is_ok_and(|c| !c.tag());
    ok && heap.free(holder).is_ok()
}

/// Runs a replay workload for at least `seconds` of measured phases.
/// Every phase's counters must equal the model pass's: the same calls
/// on the same heap do exactly the same revocation work.
///
/// # Errors
///
/// Heap construction or model-pass failure, as text.
pub fn run(spec: &ReplaySpec, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let policy = pinned_policy();
    let t0 = Instant::now();
    let input = input(spec, seed, policy);
    let (model_overhead, model) = model_pass(&input)?;
    eprintln!("input and model pass: {:.2} s", t0.elapsed().as_secs_f64());
    let configs = [input.config];
    let stream = &input.stream;
    let mut checks = Checks::default();
    let mut run = drive::run(
        || Heaps::new(&configs, stream.objects),
        stream,
        seconds,
        traced,
        |p| {
            let timed = &p.after;
            checks.expect(
                timed.sweeps == model.sweeps
                    && timed.bytes_swept == model.bytes_swept
                    && timed.bytes_painted == model.bytes_painted
                    && timed.caps_revoked == model.caps_revoked
                    && timed.caps_inspected == model.caps_inspected
                    && timed.pages_skipped == model.pages_skipped,
                || format!("timed counters {timed:?} differ from the model pass {model:?}"),
            );
        },
    )?;
    run.e2e.model_overhead = model_overhead;
    let load_cap_ns = end_checks(&mut run.last, stream, &mut checks);

    let mut report = Report::default();
    if traced {
        report_layers::heap_layers(
            &mut report,
            &configs,
            stream,
            &run.traced,
            &mut run.last,
            &mut checks,
        );
        report_layers::front_end(
            &mut report,
            &run.traced,
            &run.untraced_ns_per_op,
            Some(load_cap_ns),
            |c| c.sweeps,
        );
        report_layers::absent_front_ends(&mut report, false, false);
        report.attempted = run.traced.iter().map(|p| p.calls.count).sum();
        report.failed = run.e2e.failed;
    } else {
        run.e2e.write(&mut report);
    }
    report.correct = checks.passed() && report.failed == 0;
    for failure in checks.failures() {
        eprintln!("check failed: {failure}");
    }
    Ok(report)
}

//! The per-layer metrics of a traced run.

use cherivoke::HeapConfig;

use crate::drive::{self, Kind, Phase};
use crate::heapdrive::{Counts, Heaps};
use crate::inputs::Stream;
use crate::layers::{self, AllocPass, EnginePass};
use crate::measure::{mean, median, Report};
use crate::report::{Checks, KERNEL};

const MIB: f64 = (1u64 << 20) as f64;

/// Median of `f` over `phases`.
pub fn per_phase<S>(phases: &[Phase<S>], f: impl Fn(&Phase<S>) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// Median over `phases` of the measured-phase change of counter `f`.
pub fn delta<S>(phases: &[Phase<S>], f: impl Fn(&S) -> u64) -> f64 {
    per_phase(phases, |p| (f(&p.after) - f(&p.before)) as f64)
}

/// `cherivoke.frontend.*` and `trace.overhead_frac` from the traced
/// phases of a workload's own front end: mean latency per call kind,
/// epochs per phase, the share of process CPU spent off the driver
/// thread, and how much slower per call the traced phases ran than the
/// untraced ones. `load_cap_ns` replaces the traced `load_cap` mean of a
/// front end whose stream makes no `load_cap` call.
pub fn front_end<S>(
    report: &mut Report,
    phases: &[Phase<S>],
    untraced_ns_per_op: &[f64],
    load_cap_ns: Option<f64>,
    epochs: impl Fn(&S) -> u64,
) {
    let kind = |k: Kind| per_phase(phases, |p| p.calls.mean(k));
    report.metric("cherivoke.frontend.malloc_ns", kind(Kind::Malloc), "ns");
    report.metric("cherivoke.frontend.free_ns", kind(Kind::Free), "ns");
    report.metric(
        "cherivoke.frontend.store_cap_ns",
        kind(Kind::StoreCap),
        "ns",
    );
    report.metric(
        "cherivoke.frontend.load_cap_ns",
        load_cap_ns.unwrap_or_else(|| kind(Kind::LoadCap)),
        "ns",
    );
    report.metric("cherivoke.frontend.epochs", delta(phases, epochs), "count");
    let cpu: u64 = phases.iter().map(|p| p.cpu_ns).sum();
    let driver: u64 = phases.iter().map(|p| p.thread_cpu_ns).sum();
    report.metric(
        "cherivoke.frontend.background_cpu_share",
        cpu.saturating_sub(driver) as f64 / cpu.max(1) as f64,
        "frac",
    );
    report.metric(
        "trace.overhead_frac",
        per_phase(phases, Phase::ns_per_op) / median(untraced_ns_per_op) - 1.0,
        "frac",
    );
}

/// The layers under a front end that plain `CherivokeHeap`s built from
/// `configs` replay: one traced phase of `stream` on those heaps, then
/// [`heap_layers`].
///
/// # Errors
///
/// A heap constructor's error.
pub fn heaps_under(
    report: &mut Report,
    configs: &[HeapConfig],
    stream: &Stream,
    checks: &mut Checks,
) -> Result<(), String> {
    let (phase, mut heaps) = drive::phase(|| Heaps::new(configs, stream.objects), stream, true)?;
    checks.expect(phase.calls.failed == 0, || {
        format!("the heap layer failed {} calls", phase.calls.failed)
    });
    heap_layers(report, configs, stream, &[phase], &mut heaps, checks);
    Ok(())
}

/// `cherivoke.heap.*`, `cvkalloc.*`, `revoker.shadow.*` and
/// `revoker.engine.*`: the traced `phases` of `CherivokeHeap`s built
/// from `configs`, the allocator and shadow-map pass over `stream`, and
/// the engine walk of `heaps`' end-of-run image. The allocator pass must
/// drain exactly as often as the heaps swept, and the walk must revoke
/// nothing.
pub fn heap_layers(
    report: &mut Report,
    configs: &[HeapConfig],
    stream: &Stream,
    phases: &[Phase<Counts>],
    heaps: &mut Heaps,
    checks: &mut Checks,
) {
    let alloc = layers::alloc_pass(configs, stream);
    let engine = layers::engine_pass(&mut heaps.heaps, KERNEL, 5);
    let sweeps = phases.first().map_or(0, |p| p.after.sweeps);
    checks.expect(alloc.drains == sweeps && alloc.failed == 0, || {
        format!(
            "allocator pass drained {} times with {} failures; the heaps swept {sweeps} times",
            alloc.drains, alloc.failed
        )
    });
    checks.expect(engine.caps_revoked == 0, || {
        "the engine walk revoked a capability".to_string()
    });
    heap_layer(report, phases, &alloc, &engine);
    sublayers(report, phases, &alloc, &engine);
}

/// `cherivoke.heap.*`: `CherivokeHeap` calls from the traced phases,
/// split into calls that ran an epoch and calls that did not, plus the
/// share of an epoch the outside-in split attributes to the allocator
/// drain, the shadow paint and clear, and the engine walk.
fn heap_layer(
    report: &mut Report,
    phases: &[Phase<Counts>],
    alloc: &AllocPass,
    engine: &EnginePass,
) {
    let epoch: Vec<u64> = phases
        .iter()
        .flat_map(|p| p.calls.pauses.iter().copied())
        .collect();
    let epoch_ns = mean(&epoch);
    let wall: u64 = phases.iter().map(|p| p.wall_ns).sum();
    let plain = |k: Kind| {
        let pooled: Vec<u64> = phases
            .iter()
            .flat_map(|p| p.calls.plain[k as usize].iter().copied())
            .collect();
        mean(&pooled)
    };
    report.metric("cherivoke.heap.malloc_ns", plain(Kind::Malloc), "ns");
    report.metric("cherivoke.heap.free_ns", plain(Kind::Free), "ns");
    report.metric("cherivoke.heap.store_cap_ns", plain(Kind::StoreCap), "ns");
    report.metric("cherivoke.heap.epoch_ns", epoch_ns, "ns");
    report.metric(
        "cherivoke.heap.epoch_share",
        epoch.iter().sum::<u64>() as f64 / wall.max(1) as f64,
        "frac",
    );
    report.metric(
        "cherivoke.heap.epochs",
        delta(phases, |c| c.sweeps),
        "count",
    );
    let attributed_us = alloc.drain_us + alloc.paint_clear_us + engine.walk_us;
    report.metric(
        "cherivoke.heap.epoch_attributed",
        attributed_us * 1e3 / epoch_ns.max(1.0),
        "frac",
    );
}

/// `cvkalloc.*`, `revoker.shadow.*` and `revoker.engine.*`. The engine
/// counts are the heaps' own sweep counters over one measured phase.
fn sublayers(
    report: &mut Report,
    phases: &[Phase<Counts>],
    alloc: &AllocPass,
    engine: &EnginePass,
) {
    report.metric("cvkalloc.malloc_ns", alloc.malloc_ns, "ns");
    report.metric("cvkalloc.free_ns", alloc.free_ns, "ns");
    report.metric("cvkalloc.drain_us", alloc.drain_us, "us");
    report.metric(
        "cvkalloc.internal_frees",
        alloc.internal_frees as f64,
        "count",
    );
    report.metric(
        "cvkalloc.peak_quarantine_frac",
        alloc.peak_quarantine_frac,
        "frac",
    );
    report.metric("revoker.shadow.paint_clear_us", alloc.paint_clear_us, "us");
    report.metric(
        "revoker.shadow.painted_mib",
        alloc.painted_bytes as f64 / MIB,
        "MiB",
    );
    report.metric("revoker.engine.walk_us", engine.walk_us, "us");
    report.metric("revoker.engine.kernel_mib_s", engine.kernel_mib_s, "MiB/s");
    let steady = phases
        .first()
        .map(|p| p.after.since(&p.before))
        .unwrap_or_default();
    report.metric(
        "revoker.engine.swept_mib",
        steady.bytes_swept as f64 / MIB,
        "MiB",
    );
    report.metric(
        "revoker.engine.swept_per_freed",
        steady.bytes_swept as f64 / steady.freed_bytes.max(1) as f64,
        "x",
    );
    report.metric(
        "revoker.engine.caps_inspected",
        steady.caps_inspected as f64,
        "count",
    );
    report.metric(
        "revoker.engine.caps_revoked",
        steady.caps_revoked as f64,
        "count",
    );
    report.metric(
        "revoker.engine.pages_skipped",
        steady.pages_skipped as f64,
        "count",
    );
}

/// Zeroes the counters of the front ends a workload does not run, so
/// every traced run reports the same metric set.
pub fn absent_front_ends(report: &mut Report, service: bool, fleet: bool) {
    if !service {
        for name in [
            "cherivoke.service.foreign_sweeps",
            "cherivoke.service.foreign_caps_revoked",
        ] {
            report.metric(name, 0.0, "count");
        }
    }
    if !fleet {
        for (name, unit) in [
            ("cherivoke.fleet.throttle_retries", "count"),
            ("cherivoke.fleet.emergency_sweeps", "count"),
            ("cherivoke.fleet.steals", "count"),
            ("cherivoke.fleet.max_budget_fraction", "frac"),
        ] {
            report.metric(name, 0.0, unit);
        }
    }
}

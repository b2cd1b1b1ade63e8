//! The service workload: the omnetpp trace through a two-shard
//! `ConcurrentHeap`, one driver thread beside the background revoker.

use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::fault::FaultInjector;
use cherivoke::{ConcurrentHeap, HeapError, ServiceConfig, ServiceStats, SweepPacer};

use crate::drive::{self, Calls, FrontEnd, Kind};
use crate::inputs::{Op, Step, Stream};
use crate::measure::{ns_since, Report};
use crate::replay::{self, ReplaySpec};
use crate::report::{pinned_policy, surviving_stores, Checks};
use crate::{layers, report_layers};

/// The omnetpp input.
pub const OMNETPP: ReplaySpec = ReplaySpec {
    profile: "omnetpp",
    scale: 1.0 / 32.0,
    events: 1_000_000,
};

/// Shards of the service: one per CPU.
const SHARDS: usize = 2;

/// A call slower than this ran an epoch slice or waited on the revoker:
/// an uncontended service call takes 1–3 µs on the reference host, while
/// the smallest slice a mutator pumps (64 KiB) or a revoker lock hold
/// takes tens of microseconds. Nearly all such calls take over 200 µs, so
/// the threshold does not cut through a population.
const PAUSE_THRESHOLD_NS: u64 = 25_000;

fn config(shard_heap_size: u64) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        shard_heap_size,
        policy: pinned_policy(),
        pacer: SweepPacer {
            min_slice_bytes: 64 << 10,
            max_slice_bytes: 4 << 20,
            headroom: 1.5,
        },
        revoker_interval: Duration::from_millis(1),
        revoker_watchdog: Duration::from_secs(1),
        telemetry: false,
    }
}

/// The service's threads, for the configuration line.
pub fn describe() -> String {
    let cfg = config(0);
    format!(
        "front_end=ConcurrentHeap shards={} background_revoker=1 min_slice_bytes={}",
        cfg.shards, cfg.pacer.min_slice_bytes
    )
}

/// A `ConcurrentHeap` and the capabilities of the stream's objects.
/// Objects alternate between the shards.
struct Service {
    heap: ConcurrentHeap,
    caps: Vec<Option<Capability>>,
    shard_heap_size: u64,
}

impl Service {
    fn new(cfg: ServiceConfig, objects: usize) -> Result<Service, String> {
        Ok(Service {
            heap: ConcurrentHeap::with_journal_dir(cfg, FaultInjector::disabled(), None)
                .map_err(|e| format!("service construction: {e}"))?,
            caps: vec![None; objects],
            shard_heap_size: cfg.shard_heap_size,
        })
    }

    fn apply(&mut self, op: Op) -> Result<(), HeapError> {
        const MISSING: HeapError = HeapError::NotAnAllocation { base: 0 };
        match op {
            Op::Malloc { obj, size } => {
                self.caps[obj as usize] = Some(self.heap.malloc_on(obj as usize % SHARDS, size)?);
            }
            Op::Free { obj } => self
                .heap
                .free(self.caps[obj as usize].take().ok_or(MISSING)?)?,
            Op::StoreCap { from, slot, to } => {
                let holder = self.caps[from as usize].ok_or(MISSING)?;
                let target = self.caps[to as usize].ok_or(MISSING)?;
                self.heap.store_cap(&holder, slot, &target)?;
            }
        }
        Ok(())
    }
}

impl FrontEnd for Service {
    type Stats = ServiceStats;

    /// One call, timed; every `store_cap` is followed by a timed
    /// `load_cap` of the same slot, which fails unless it returns the
    /// stored capability.
    fn step(&mut self, step: &Step, calls: &mut Calls) {
        let t = Instant::now();
        let ok = self.apply(step.op).is_ok();
        let ns = ns_since(t);
        calls.record(Kind::of(step.op), ns, ns > PAUSE_THRESHOLD_NS, ok);
        let Op::StoreCap { from, slot, to } = step.op else {
            return;
        };
        let holder = self.caps[from as usize];
        let t = Instant::now();
        let loaded = holder.map(|h| self.heap.load_cap(&h, slot));
        let ns = ns_since(t);
        let expected = self.caps[to as usize].map(|c| c.base());
        let ok = matches!((loaded, expected), (Some(Ok(c)), Some(b)) if c.tag() && c.base() == b);
        calls.record(Kind::LoadCap, ns, ns > PAUSE_THRESHOLD_NS, ok);
    }

    fn stats(&self) -> ServiceStats {
        self.heap.stats()
    }

    /// Peak footprint plus shadow over peak live, with per-shard peaks
    /// summed. Each shard's shadow map is 1/128 of its heap.
    fn mem_overhead(&self) -> f64 {
        let stats = self.heap.stats();
        let shadow = cheri::granule_round_up(layers::mapped_len(self.shard_heap_size) / 128);
        let footprint: u64 = stats
            .shards
            .iter()
            .map(|s| s.heap.alloc.peak_footprint_bytes + shadow)
            .sum();
        let live: u64 = stats
            .shards
            .iter()
            .map(|s| s.heap.alloc.peak_live_bytes)
            .sum();
        footprint as f64 / live.max(1) as f64
    }
}

/// End-of-run checks: the stored capabilities of live objects load
/// back, every shard's audit is clean, and a capability to a freed
/// object on one shard, stored in the other, is untagged after the next
/// epoch.
fn end_checks(front: &Service, stream: &Stream, checks: &mut Checks) {
    let (service, caps) = (&front.heap, &front.caps);
    for (_, from, slot, to) in surviving_stores(stream) {
        let (Some(holder), Some(target)) = (caps[from as usize], caps[to as usize]) else {
            continue;
        };
        let loaded = service.load_cap(&holder, slot);
        checks.expect(
            loaded.is_ok_and(|c| c.tag() && c.base() == target.base()),
            || format!("capability stored in object {from}+{slot} did not load back"),
        );
    }
    for (i, audit) in service.audit_all().iter().enumerate() {
        checks.expect(audit.clean(), || {
            format!("shard {i}: audit found {audit:?}")
        });
    }
    let probe = (|| -> Result<bool, HeapError> {
        let victim = service.malloc_on(0, 64)?;
        let holder = service.malloc_on(1, 16)?;
        service.store_cap(&holder, 0, &victim)?;
        service.free(victim)?;
        service.revoke_all_now();
        let dangling = service.load_cap(&holder, 0)?;
        service.free(holder)?;
        Ok(!dangling.tag())
    })();
    checks.expect(probe == Ok(true), || {
        format!("cross-shard use-after-free probe: {probe:?}")
    });
}

/// Runs the service workload for at least `seconds` of measured phases.
///
/// # Errors
///
/// Service construction or model-pass failure, as text.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let policy = pinned_policy();
    let t0 = Instant::now();
    let input = replay::input(&OMNETPP, seed, policy);
    let (model_overhead, _) = replay::model_pass(&input)?;
    eprintln!("input and model pass: {:.2} s", t0.elapsed().as_secs_f64());
    let cfg = config(input.config.heap_size);
    let stream = &input.stream;
    let mut checks = Checks::default();
    let mut run = drive::run(
        || Service::new(cfg, stream.objects),
        stream,
        seconds,
        traced,
        |_| {},
    )?;
    run.e2e.model_overhead = model_overhead;
    end_checks(&run.last, stream, &mut checks);
    drop(run.last);

    let mut report = Report::default();
    if traced {
        // The layers under the service, fed the same call stream: one
        // `CherivokeHeap` with the service's policy, then its allocator,
        // shadow map and sweep engine.
        report_layers::heaps_under(&mut report, &[input.config], stream, &mut checks)?;
        report_layers::front_end(
            &mut report,
            &run.traced,
            &run.untraced_ns_per_op,
            None,
            |s| s.epochs,
        );
        report.metric(
            "cherivoke.service.foreign_sweeps",
            report_layers::delta(&run.traced, |s| s.foreign_sweeps),
            "count",
        );
        report.metric(
            "cherivoke.service.foreign_caps_revoked",
            report_layers::delta(&run.traced, |s| s.foreign_caps_revoked),
            "count",
        );
        report_layers::absent_front_ends(&mut report, true, false);
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

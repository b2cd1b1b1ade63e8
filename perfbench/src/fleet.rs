//! The fleet workload: Zipf-skewed traffic over 64 tenants of a
//! `HeapService` with one pool worker. A throttled `malloc` is retried
//! after `kick()` until admitted, so every call completes and the
//! admission stall is part of its latency.

use std::time::{Duration, Instant};

use cheri::Capability;
use cherivoke::fault::FaultInjector;
use cherivoke::fleet::{FleetConfig, FleetError, FleetStats, HeapService, TenantPolicy};
use cherivoke::HeapConfig;
use workloads::{CherivokeUnderTest, CostModel, Stage};

use crate::drive::{self, Calls, FrontEnd, Kind};
use crate::inputs::{self, FleetInput, FleetShape, Op, Step, Stream};
use crate::measure::{mean, ns_since, Report};
use crate::report::{pinned_policy, surviving_stores, Checks};
use crate::report_layers;

/// The fleet's traffic.
pub const SHAPE: FleetShape = FleetShape {
    tenants: 64,
    skew: 1.2,
    deal_seed: 42,
    trace_heap_mib: 0.25,
    calls: 1_000_000,
};

const TENANT_HEAP: u64 = 1 << 20;
/// Each tenant's quarantine quota: about 4.5 times its live set, so a
/// `malloc` is refused for throttling about twice per thousand calls.
/// At half this quota the driver met about 0.4 refusals per call and
/// spun until the pool worker caught up, so the fleet's throughput and
/// pause tail followed how much CPU the host left that worker.
const QUOTA: u64 = 512 << 10;

fn config() -> FleetConfig {
    FleetConfig {
        tenants: SHAPE.tenants,
        tenant_heap_size: TENANT_HEAP,
        global_ceiling: SHAPE.tenants as u64 * QUOTA,
        workers: 1,
        policy: pinned_policy(),
        tenant_policy: TenantPolicy {
            quarantine_quota: QUOTA,
            priority: 1,
            max_pause: Duration::from_millis(5),
        },
        scheduler_interval: Duration::from_micros(200),
        telemetry: false,
    }
}

/// The fleet's tenants and workers, for the configuration line.
pub fn describe() -> String {
    let cfg = config();
    format!(
        "front_end=HeapService tenants={} pool_workers={} quota_bytes={}",
        cfg.tenants, cfg.workers, cfg.tenant_policy.quarantine_quota
    )
}

/// The tenant heaps as plain `CherivokeHeap`s (the fleet's layout:
/// tenant `i` at `0x1000_0000 + i · 1 MiB`) with the pinned
/// stop-the-world policy: the heap layer under the fleet.
fn tenant_heaps() -> Vec<HeapConfig> {
    (0..SHAPE.tenants as u64)
        .map(|i| HeapConfig {
            heap_base: 0x1000_0000 + i * TENANT_HEAP,
            heap_size: TENANT_HEAP,
            stack_size: 256 << 10,
            globals_size: 256 << 10,
            policy: pinned_policy(),
        })
        .collect()
}

/// Fig. 5a normalised time of the fleet's traffic: each tenant's trace
/// (the one the timed stream interleaves) through the cost-model driver
/// with the pinned policy, weighted by the tenant's share of the events.
fn model_overhead(input: &FleetInput) -> Result<f64, String> {
    let total: usize = input.traces.iter().map(|t| t.events.len()).sum();
    let mut overhead = 0.0;
    for trace in &input.traces {
        let mut sut = CherivokeUnderTest::new(
            trace,
            pinned_policy(),
            CostModel::x86_default(),
            Stage::Full,
        )?;
        let report = workloads::run_trace(&mut sut, trace).map_err(|e| format!("{e:?}"))?;
        overhead += trace.events.len() as f64 / total as f64 * report.normalized_time;
    }
    Ok(overhead)
}

/// The fleet's counters plus the largest quarantine/quota ratio the
/// driver sampled.
#[derive(Debug)]
struct Sample {
    fleet: FleetStats,
    peak_budget: f64,
}

/// A `HeapService`, the capabilities of the stream's objects, and the
/// live and footprint peaks the driver tracks.
struct Fleet<'a> {
    service: HeapService,
    caps: Vec<Option<Capability>>,
    /// Granule-rounded size of each object.
    sizes: &'a [u64],
    live: u64,
    peak_live: u64,
    peak_footprint: u64,
    peak_budget: f64,
    steps: u64,
}

impl Fleet<'_> {
    fn new(sizes: &[u64]) -> Result<Fleet<'_>, String> {
        Ok(Fleet {
            service: HeapService::with_journal_dir(config(), FaultInjector::disabled(), None)
                .map_err(|e| format!("fleet construction: {e}"))?,
            caps: vec![None; sizes.len()],
            sizes,
            live: 0,
            peak_live: 0,
            peak_footprint: 0,
            peak_budget: 0.0,
            steps: 0,
        })
    }

    /// Executes one call; a throttled `malloc` is retried after `kick()`
    /// until admitted.
    fn apply(&mut self, heap: u16, op: Op) -> Result<(), FleetError> {
        const MISSING: FleetError =
            FleetError::Heap(cherivoke::HeapError::NotAnAllocation { base: 0 });
        match op {
            Op::Malloc { obj, size } => loop {
                match self.service.malloc(usize::from(heap), size) {
                    Ok(cap) => {
                        self.caps[obj as usize] = Some(cap);
                        return Ok(());
                    }
                    Err(FleetError::TenantThrottled { .. }) => {
                        self.service.kick();
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(e),
                }
            },
            Op::Free { obj } => self
                .service
                .free(self.caps[obj as usize].take().ok_or(MISSING)?)?,
            Op::StoreCap { from, slot, to } => {
                let holder = self.caps[from as usize].ok_or(MISSING)?;
                let target = self.caps[to as usize].ok_or(MISSING)?;
                self.service.store_cap(&holder, slot, &target)?;
            }
        }
        Ok(())
    }
}

impl FrontEnd for Fleet<'_> {
    type Stats = Sample;

    /// The fleet's slow calls have no population of their own: they are
    /// the tail of the waits for a tenant lock the pool worker holds,
    /// which runs on from a few microseconds to about 30, so a fixed
    /// threshold would cut through it. The slowest 1% of calls (about
    /// 5,700 a phase) are its pauses; a rarer share would reach the
    /// calls a busy host preempted, which vary from run to run.
    const SLOWEST_AS_PAUSES: f64 = 0.01;

    /// One call, timed, then (untimed) the live and footprint peaks and,
    /// in a traced phase every 64th step, the tenant's budget use.
    fn step(&mut self, step: &Step, calls: &mut Calls) {
        let t = Instant::now();
        let ok = self.apply(step.heap, step.op).is_ok();
        let ns = ns_since(t);
        calls.record(Kind::of(step.op), ns, false, ok);
        match step.op {
            Op::Malloc { obj, .. } if ok => self.live += self.sizes[obj as usize],
            Op::Free { obj } if ok => self.live -= self.sizes[obj as usize],
            _ => {}
        }
        self.peak_live = self.peak_live.max(self.live);
        self.peak_footprint = self
            .peak_footprint
            .max(self.live + self.service.global_quarantined());
        self.steps += 1;
        if calls.traced() && self.steps.is_multiple_of(64) {
            let q = self
                .service
                .quarantined_bytes(usize::from(step.heap))
                .unwrap_or(0);
            self.peak_budget = self.peak_budget.max(q as f64 / QUOTA as f64);
        }
    }

    fn stats(&self) -> Sample {
        let fleet = self.service.stats();
        let peak_budget = self.peak_budget.max(fleet.max_budget_fraction());
        Sample { fleet, peak_budget }
    }

    /// `(peak live + peak quarantine + shadow) / peak live`; each
    /// tenant's shadow map is 1/128 of its heap.
    fn mem_overhead(&self) -> f64 {
        let shadow = SHAPE.tenants as u64 * TENANT_HEAP / 128;
        (self.peak_footprint + shadow) as f64 / self.peak_live.max(1) as f64
    }
}

/// End-of-run checks: stored capabilities of live objects load back
/// (timing each `load_cap`), every tenant's audit is clean, and a
/// capability to a freed object stored in the same tenant is untagged
/// after that tenant's next epoch.
fn end_checks(front: &Fleet<'_>, stream: &Stream, checks: &mut Checks) -> f64 {
    let (service, caps) = (&front.service, &front.caps);
    let mut load_ns = Vec::new();
    for (_, from, slot, to) in surviving_stores(stream) {
        let (Some(holder), target) = (caps[from as usize], caps[to as usize]) else {
            continue;
        };
        let t = Instant::now();
        let loaded = service.load_cap(&holder, slot);
        load_ns.push(ns_since(t));
        if let Some(target) = target {
            checks.expect(
                loaded.is_ok_and(|c| c.tag() && c.base() == target.base()),
                || format!("capability stored in object {from}+{slot} did not load back"),
            );
        }
    }
    for (i, audit) in service.audit_all().iter().enumerate() {
        checks.expect(audit.clean(), || {
            format!("tenant {i}: audit found {audit:?}")
        });
    }
    let probe = (|| -> Result<bool, FleetError> {
        let victim = service.malloc(0, 64)?;
        let holder = service.malloc(0, 16)?;
        service.store_cap(&holder, 0, &victim)?;
        service.free(victim)?;
        service.drain_tenant(0)?;
        let dangling = service.load_cap(&holder, 0)?;
        service.free(holder)?;
        Ok(!dangling.tag())
    })();
    checks.expect(probe == Ok(true), || {
        format!("use-after-free probe: {probe:?}")
    });
    mean(&load_ns)
}

/// Runs the fleet workload for at least `seconds` of measured phases.
///
/// # Errors
///
/// Fleet construction or model-pass failure, as text.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let t0 = Instant::now();
    let input = inputs::fleet_input(&SHAPE, seed);
    let stream = &input.stream;
    let mut sizes = vec![0u64; stream.objects];
    for step in &stream.steps {
        if let Op::Malloc { obj, size } = step.op {
            sizes[obj as usize] = cheri::granule_round_up(size);
        }
    }
    let model_overhead = model_overhead(&input)?;
    eprintln!("input and model pass: {:.2} s", t0.elapsed().as_secs_f64());
    let mut checks = Checks::default();
    let mut run = drive::run(|| Fleet::new(&sizes), stream, seconds, traced, |_| {})?;
    run.e2e.model_overhead = model_overhead;
    let load_cap_ns = end_checks(&run.last, stream, &mut checks);
    drop(run.last);

    let mut report = Report::default();
    if traced {
        report_layers::heaps_under(&mut report, &tenant_heaps(), stream, &mut checks)?;
        report_layers::front_end(
            &mut report,
            &run.traced,
            &run.untraced_ns_per_op,
            Some(load_cap_ns),
            |s| s.fleet.epochs,
        );
        let phases = &run.traced;
        report.metric(
            "cherivoke.fleet.throttle_retries",
            report_layers::delta(phases, |s| s.fleet.throttled),
            "count",
        );
        report.metric(
            "cherivoke.fleet.emergency_sweeps",
            report_layers::delta(phases, |s| s.fleet.emergency_sweeps),
            "count",
        );
        report.metric(
            "cherivoke.fleet.steals",
            report_layers::delta(phases, |s| s.fleet.steals),
            "count",
        );
        report.metric(
            "cherivoke.fleet.max_budget_fraction",
            report_layers::per_phase(phases, |p| p.after.peak_budget),
            "frac",
        );
        report_layers::absent_front_ends(&mut report, false, true);
        report.attempted = phases.iter().map(|p| p.calls.count).sum();
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

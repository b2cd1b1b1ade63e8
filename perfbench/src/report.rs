//! Shared pieces of every workload: the pinned policy, the end-to-end
//! metric set, and the correctness checks run after the measured phase.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cherivoke::{BackendKind, Kernel, QuarantineConfig, RevocationPolicy};

use crate::drive::Phase;
use crate::inputs::{Op, Stream};
use crate::measure::{median, percentile, Report};

/// The sweep kernel every workload runs.
pub const KERNEL: Kernel = Kernel::Fast;
/// Sweep workers per heap: the host has two CPUs, and the service and
/// fleet need the second one for their background thread.
pub const SWEEP_WORKERS: usize = 1;
/// The revocation backend every workload runs.
pub const BACKEND: BackendKind = BackendKind::Stock;

/// The paper's policy with every field pinned: 25% quarantine with
/// aggregation, no floor, buffered (non-strict) stop-the-world epochs,
/// CapDirty page skipping, and a sweep on out-of-memory.
pub fn pinned_policy() -> RevocationPolicy {
    RevocationPolicy {
        quarantine: QuarantineConfig {
            fraction: 0.25,
            min_bytes: 0,
            aggregate: true,
        },
        strict: false,
        kernel: KERNEL,
        use_capdirty: true,
        sweep_on_oom: true,
        incremental_slice_bytes: None,
        sweep_workers: SWEEP_WORKERS,
        backend: BACKEND,
    }
}

/// The effective policy, as the first line of a run prints it.
pub fn describe(policy: &RevocationPolicy) -> String {
    format!(
        "kernel={:?} backend={:?} sweep_workers={} quarantine_fraction={} incremental_slice={:?}",
        policy.kernel,
        policy.backend,
        policy.sweep_workers,
        policy.quarantine.fraction,
        policy.incremental_slice_bytes
    )
}

/// Samples gathered over the measured phases of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Calls per wall second, one per measured phase.
    pub ops_per_s: Vec<f64>,
    /// Process CPU nanoseconds per call, one per measured phase.
    pub cpu_ns_per_op: Vec<f64>,
    /// Median call latency (ns), one per measured phase (reported as
    /// their mean: a median of whole nanoseconds can repeat exactly).
    pub op_p50_ns: Vec<f64>,
    /// 99th-percentile call latency (ns), one per measured phase.
    pub op_p99_ns: Vec<f64>,
    /// Median pause (ns), one per measured phase.
    pub pause_p50_ns: Vec<f64>,
    /// 90th-percentile pause (ns), one per measured phase.
    pub pause_p90_ns: Vec<f64>,
    /// Pauses over all measured phases.
    pub pauses: usize,
    /// Set-up seconds, one per measured phase.
    pub setup_s: Vec<f64>,
    /// Memory overhead, one per measured phase.
    pub mem_overhead: Vec<f64>,
    /// The cost model's normalised time for the run's input.
    pub model_overhead: f64,
    /// Calls attempted over all measured phases.
    pub attempted: u64,
    /// Calls failed over all phases.
    pub failed: u64,
}

impl EndToEnd {
    /// Folds in one measured phase: its wall and CPU time, call count,
    /// set-up time, memory overhead, call latencies and pauses.
    pub fn phase<S>(&mut self, p: &mut Phase<S>) {
        let calls = p.calls.count.max(1) as f64;
        self.ops_per_s.push(calls / (p.wall_ns as f64 / 1e9));
        self.cpu_ns_per_op.push(p.cpu_ns as f64 / calls);
        self.op_p50_ns.push(percentile(&mut p.calls.latency, 50.0));
        self.op_p99_ns.push(percentile(&mut p.calls.latency, 99.0));
        self.pause_p50_ns
            .push(percentile(&mut p.calls.pauses, 50.0));
        self.pause_p90_ns
            .push(percentile(&mut p.calls.pauses, 90.0));
        self.pauses += p.calls.pauses.len();
        self.setup_s.push(p.setup_ns as f64 / 1e9);
        self.mem_overhead.push(p.mem_overhead);
        self.attempted += p.calls.count;
    }

    /// Writes the end-to-end metrics: medians over phases (means for the
    /// call-latency percentiles).
    pub fn write(self, report: &mut Report) {
        eprintln!(
            "measured phases: {}, pauses: {}, ops/s by phase: {:.0?}",
            self.ops_per_s.len(),
            self.pauses,
            self.ops_per_s
        );
        report.attempted = self.attempted;
        report.failed = self.failed;
        report.metric("ops_per_s", median(&self.ops_per_s), "1/s");
        report.metric("cpu_ns_per_op", median(&self.cpu_ns_per_op), "ns");
        report.metric("op_p50_us", mean_f(&self.op_p50_ns) / 1e3, "us");
        report.metric("op_p99_us", mean_f(&self.op_p99_ns) / 1e3, "us");
        report.metric("pause_p50_us", median(&self.pause_p50_ns) / 1e3, "us");
        report.metric("pause_p90_us", median(&self.pause_p90_ns) / 1e3, "us");
        report.metric("mem_overhead", median(&self.mem_overhead), "x");
        report.metric("model_overhead", self.model_overhead, "x");
        report.metric(
            "success_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
        );
        report.metric("setup_s", median(&self.setup_s), "s");
    }
}

/// The capabilities the stream leaves stored in live objects:
/// `(heap, holder, slot, target)` for the last store to each slot whose
/// holder is still live at the end.
pub fn surviving_stores(stream: &Stream) -> Vec<(u16, u32, u64, u32)> {
    let mut slots: BTreeMap<(u32, u64), (u16, u32)> = BTreeMap::new();
    let mut live = vec![false; stream.objects];
    for step in &stream.steps {
        match step.op {
            Op::Malloc { obj, .. } => live[obj as usize] = true,
            Op::Free { obj } => live[obj as usize] = false,
            Op::StoreCap { from, slot, to } => {
                slots.insert((from, slot), (step.heap, to));
            }
        }
    }
    slots
        .into_iter()
        .filter(|&((from, _), _)| live[from as usize])
        .map(|((from, slot), (heap, to))| (heap, from, slot, to))
        .collect()
}

/// Outcome of the correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks, one per line.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

fn mean_f(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// What a phase of a run is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Not recorded: the first phase faults in fresh memory and runs
    /// measurably slower than every later one.
    Warmup,
    /// Measures the end-to-end metrics.
    Untraced,
    /// Measures the per-layer spans.
    Traced,
}

/// The phases of a run: a warm-up, then untraced phases (alternating
/// with traced ones in a traced run, so both see the same host state)
/// until `budget` has passed and at least three phases are recorded.
#[derive(Debug)]
pub struct Schedule {
    start: Instant,
    budget: Duration,
    traced: bool,
    n: usize,
}

impl Schedule {
    /// A schedule measuring for `seconds`.
    pub fn new(seconds: f64, traced: bool) -> Schedule {
        Schedule {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            traced,
            n: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = PhaseKind;

    fn next(&mut self) -> Option<PhaseKind> {
        let n = self.n;
        self.n += 1;
        if n > 3 && self.start.elapsed() >= self.budget {
            return None;
        }
        Some(match n {
            0 => PhaseKind::Warmup,
            _ if self.traced && n.is_multiple_of(2) => PhaseKind::Traced,
            _ => PhaseKind::Untraced,
        })
    }
}

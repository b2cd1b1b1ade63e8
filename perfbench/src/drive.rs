//! The phase loop every workload shares: a fresh front end per phase,
//! its construction and the ramp-up timed as set-up, then every measured
//! call timed on its own.

use std::time::Instant;

use crate::inputs::{Op, Step, Stream};
use crate::measure::{ns_since, process_cpu_ns, thread_cpu_ns};
use crate::report::{EndToEnd, PhaseKind, Schedule};

/// A front end's public calls, as traced phases split them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `malloc`.
    Malloc,
    /// `free`.
    Free,
    /// `store_cap`.
    StoreCap,
    /// `load_cap`.
    LoadCap,
}

impl Kind {
    /// The call a stream operation makes.
    pub fn of(op: Op) -> Kind {
        match op {
            Op::Malloc { .. } => Kind::Malloc,
            Op::Free { .. } => Kind::Free,
            Op::StoreCap { .. } => Kind::StoreCap,
        }
    }
}

/// The calls of one phase. Set-up calls count only when they fail.
#[derive(Debug, Default)]
pub struct Calls {
    measuring: bool,
    traced: bool,
    /// Calls made in the measured part.
    pub count: u64,
    /// Calls that failed, in set-up or in the measured part.
    pub failed: u64,
    /// Latency of every measured call (untraced phases).
    pub latency: Vec<u64>,
    /// Latency of every measured pause.
    pub pauses: Vec<u64>,
    /// Latency of the measured calls that were no pause, by kind
    /// (traced phases).
    pub plain: [Vec<u64>; 4],
    /// Total nanoseconds and count of the measured pauses of each kind
    /// (traced phases).
    pub pause_by_kind: [(u64, u64); 4],
}

impl Calls {
    /// Records one call of `kind` that took `ns`: whether it was a
    /// pause, and whether it succeeded.
    #[inline]
    pub fn record(&mut self, kind: Kind, ns: u64, pause: bool, ok: bool) {
        self.failed += u64::from(!ok);
        if !self.measuring {
            return;
        }
        self.count += 1;
        if pause {
            self.pauses.push(ns);
        }
        if !self.traced {
            self.latency.push(ns);
        } else if pause {
            let (total, n) = &mut self.pause_by_kind[kind as usize];
            *total += ns;
            *n += 1;
        } else {
            self.plain[kind as usize].push(ns);
        }
    }

    /// `true` in a traced phase.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Mean latency of the measured calls of `kind`, pauses included
    /// (traced phases).
    pub fn mean(&self, kind: Kind) -> f64 {
        let plain = &self.plain[kind as usize];
        let (pause_ns, pauses) = self.pause_by_kind[kind as usize];
        (plain.iter().sum::<u64>() + pause_ns) as f64 / (plain.len() as u64 + pauses).max(1) as f64
    }
}

/// A workload's front end, driven one stream step at a time.
pub trait FrontEnd {
    /// Counters read before and after the measured calls.
    type Stats;
    /// Executes `step`, timing and recording every call it makes.
    fn step(&mut self, step: &Step, calls: &mut Calls);
    /// The counters now.
    fn stats(&self) -> Self::Stats;
    /// `(peak live + peak quarantine + shadow) / peak live` so far.
    fn mem_overhead(&self) -> f64;

    /// For a front end whose calls mark no pauses: the share of an
    /// untraced phase's slowest calls that count as its pauses.
    const SLOWEST_AS_PAUSES: f64 = 0.0;
}

/// One set-up and measured phase.
#[derive(Debug)]
pub struct Phase<S> {
    /// Front-end construction plus the ramp-up.
    pub setup_ns: u64,
    /// Wall time of the measured calls.
    pub wall_ns: u64,
    /// Process CPU time (all threads) of the measured calls.
    pub cpu_ns: u64,
    /// CPU time of the driving thread over the measured calls.
    pub thread_cpu_ns: u64,
    /// The calls made.
    pub calls: Calls,
    /// Counters before the measured calls.
    pub before: S,
    /// Counters after them.
    pub after: S,
    /// Memory overhead at the end of the phase.
    pub mem_overhead: f64,
}

impl<S> Phase<S> {
    /// Wall nanoseconds per measured call.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.calls.count.max(1) as f64
    }
}

/// Builds a front end with `build` and replays the stream's ramp-up
/// (both timed as set-up), then its measured calls.
///
/// # Errors
///
/// `build`'s error.
pub fn phase<F: FrontEnd>(
    build: impl FnOnce() -> Result<F, String>,
    stream: &Stream,
    traced: bool,
) -> Result<(Phase<F::Stats>, F), String> {
    let mut calls = Calls {
        traced,
        ..Calls::default()
    };
    let t0 = Instant::now();
    let mut front = build()?;
    for step in &stream.steps[..stream.ramp] {
        front.step(step, &mut calls);
    }
    let setup_ns = ns_since(t0);

    let steady = stream.steady();
    if traced {
        calls.plain[Kind::Malloc as usize].reserve(steady.len() / 2);
        calls.plain[Kind::Free as usize].reserve(steady.len() / 2);
    } else {
        calls.latency.reserve(steady.len() * 5 / 4);
    }
    calls.measuring = true;
    let before = front.stats();
    let cpu0 = process_cpu_ns();
    let thread0 = thread_cpu_ns();
    let t0 = Instant::now();
    for step in steady {
        front.step(step, &mut calls);
    }
    let wall_ns = ns_since(t0);
    let cpu_ns = process_cpu_ns() - cpu0;
    let thread_cpu_ns = thread_cpu_ns() - thread0;
    if F::SLOWEST_AS_PAUSES > 0.0 && !calls.latency.is_empty() {
        let mut slowest = calls.latency.clone();
        let n = slowest.len();
        let first = n - ((n as f64 * F::SLOWEST_AS_PAUSES).ceil() as usize).min(n);
        slowest.select_nth_unstable(first);
        calls.pauses = slowest.split_off(first);
    }
    let phase = Phase {
        setup_ns,
        wall_ns,
        cpu_ns,
        thread_cpu_ns,
        calls,
        before,
        after: front.stats(),
        mem_overhead: front.mem_overhead(),
    };
    Ok((phase, front))
}

/// What the phases of one run produced.
pub struct Run<F: FrontEnd> {
    /// The end-to-end samples of the untraced phases.
    pub e2e: EndToEnd,
    /// Wall nanoseconds per call of each untraced phase.
    pub untraced_ns_per_op: Vec<f64>,
    /// The traced phases.
    pub traced: Vec<Phase<F::Stats>>,
    /// The front end of the last phase.
    pub last: F,
}

/// Runs the phases of [`Schedule`]: a fresh front end from `build` for
/// each, `each` called on every phase (the warm-up too).
///
/// # Errors
///
/// `build`'s error.
pub fn run<F: FrontEnd>(
    mut build: impl FnMut() -> Result<F, String>,
    stream: &Stream,
    seconds: f64,
    traced: bool,
    mut each: impl FnMut(&Phase<F::Stats>),
) -> Result<Run<F>, String> {
    let mut e2e = EndToEnd::default();
    let mut untraced_ns_per_op = Vec::new();
    let mut traced_phases = Vec::new();
    let mut last = None;
    for kind in Schedule::new(seconds, traced) {
        let (mut p, front) = phase(&mut build, stream, kind == PhaseKind::Traced)?;
        each(&p);
        e2e.failed += p.calls.failed;
        match kind {
            PhaseKind::Warmup => {}
            PhaseKind::Untraced => {
                untraced_ns_per_op.push(p.ns_per_op());
                e2e.phase(&mut p);
            }
            PhaseKind::Traced => traced_phases.push(p),
        }
        last = Some(front);
    }
    Ok(Run {
        e2e,
        untraced_ns_per_op,
        traced: traced_phases,
        last: last.expect("a schedule runs at least one phase"),
    })
}

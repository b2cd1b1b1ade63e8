//! Input generation: every workload's call stream, made from Table 2
//! profiles and the run's seed before any clock starts.

use cherivoke::{HeapConfig, RevocationPolicy};
use workloads::profiles::{self, FleetProfile};
use workloads::{Trace, TraceGenerator, TraceOp};

/// One call into a front end's public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Allocate object `obj` of `size` bytes.
    Malloc {
        /// Dense object index (unique per stream).
        obj: u32,
        /// Requested bytes.
        size: u64,
    },
    /// Free object `obj`.
    Free {
        /// Dense object index.
        obj: u32,
    },
    /// Store a capability to `to` into `from` at byte offset `slot`.
    StoreCap {
        /// Holder object.
        from: u32,
        /// 16-byte-aligned offset within the holder.
        slot: u64,
        /// Target object.
        to: u32,
    },
}

/// A call and the heap (tenant) it targets; single-heap streams use 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Heap or tenant index.
    pub heap: u16,
    /// The call.
    pub op: Op,
}

/// A workload's input: a call stream whose first `ramp` steps build the
/// live set (set-up) and whose remainder is the measured phase.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every call, in order.
    pub steps: Vec<Step>,
    /// Length of the ramp-up prefix.
    pub ramp: usize,
    /// One past the largest object index.
    pub objects: usize,
}

impl Stream {
    /// The measured phase.
    pub fn steady(&self) -> &[Step] {
        &self.steps[self.ramp..]
    }
}

/// Converts a generated trace into a single-heap stream. The ramp ends at
/// the trace's first free: the generator builds its live set first.
pub fn stream_of_trace(trace: &Trace) -> Stream {
    let mut objects = 0u64;
    let steps: Vec<Step> = trace
        .events
        .iter()
        .map(|e| {
            let op = match e.op {
                TraceOp::Malloc { id, size } => {
                    objects = objects.max(id + 1);
                    Op::Malloc {
                        obj: obj_index(id),
                        size,
                    }
                }
                TraceOp::Free { id } => Op::Free { obj: obj_index(id) },
                TraceOp::WritePtr { from, slot, to } => Op::StoreCap {
                    from: obj_index(from),
                    slot,
                    to: obj_index(to),
                },
            };
            Step { heap: 0, op }
        })
        .collect();
    let ramp = steps
        .iter()
        .position(|s| matches!(s.op, Op::Free { .. }))
        .unwrap_or(steps.len());
    Stream {
        steps,
        ramp,
        objects: objects as usize,
    }
}

fn obj_index(id: u64) -> u32 {
    u32::try_from(id).expect("trace object ids fit in u32")
}

/// A Table 2 profile's trace: `max_events` events at heap scale `scale`.
/// The duration is set long enough that the event cap, not the
/// generator's automatic few-cycle duration, ends the trace.
pub fn profile_trace(name: &str, scale: f64, seed: u64, max_events: usize) -> Trace {
    let profile = profiles::by_name(name).expect("a Table 2 profile");
    TraceGenerator::new(profile, scale, seed)
        .with_duration(3600.0)
        .with_max_events(max_events)
        .generate()
}

/// The single-heap configuration the `workloads` driver builds for
/// `trace` (`CherivokeUnderTest::new`), spelled out so the timed heap and
/// the model pass are the same heap.
pub fn trace_heap_config(trace: &Trace, policy: RevocationPolicy) -> HeapConfig {
    let slack = 1.5 + policy.quarantine.fraction.min(4.0);
    HeapConfig {
        heap_base: 0x1000_0000,
        heap_size: cheri::granule_round_up((trace.heap_bytes as f64 * slack) as u64),
        stack_size: 256 << 10,
        globals_size: 256 << 10,
        policy,
    }
}

/// Shape of the fleet workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Tenants dealt.
    pub tenants: usize,
    /// Zipf exponent of tenant intensity.
    pub skew: f64,
    /// Seed of the tenant → profile deal. Fixed, so the workload is one
    /// fleet whose traffic the run seed varies: a fresh deal per seed
    /// would hand the heaviest tenant (~30% of calls) a different
    /// profile, and allocation sizes with it, on every run.
    pub deal_seed: u64,
    /// Simulated heap of each tenant's trace, in MiB.
    pub trace_heap_mib: f64,
    /// Calls in the measured phase, shared between tenants by weight.
    pub calls: usize,
}

/// The fleet's Zipfian deal (tenant weights and Table 2 profiles).
pub fn fleet_deal(shape: &FleetShape) -> FleetProfile {
    profiles::zipfian_fleet(shape.tenants, shape.skew, shape.deal_seed)
}

/// The fleet's input: one Table 2 trace per tenant, and the call stream
/// that interleaves them.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// Tenant `i`'s trace, tenant 0 first.
    pub traces: Vec<Trace>,
    /// Every tenant's ramp-up in tenant order, then their measured
    /// calls interleaved by Zipfian weight.
    pub stream: Stream,
}

/// Generates each tenant's trace with `TraceGenerator` (its dealt
/// profile, a seed mixed from the run seed and the tenant's, an explicit
/// long duration and an event cap of its ramp-up plus its weight's share
/// of `shape.calls`), then merges them into one stream. The measured
/// calls are interleaved deterministically: each tenant's `k`-th of `n`
/// calls sits at position `(k + ½) / n` of the phase, so every tenant's
/// traffic is spread evenly at its Zipfian rate.
pub fn fleet_input(shape: &FleetShape, seed: u64) -> FleetInput {
    let deal = fleet_deal(shape);
    let traces: Vec<Trace> = deal
        .tenants()
        .iter()
        .map(|load| {
            let generator = |max_events: usize| {
                TraceGenerator::new(
                    load.profile,
                    shape.trace_heap_mib / load.profile.heap_mib,
                    load.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )
                .with_duration(3600.0)
                .with_max_events(max_events)
                .generate()
            };
            // With no event budget the generator stops after its ramp-up,
            // which the budget does not cap.
            let ramp = generator(0).events.len();
            let share = (load.weight * shape.calls as f64).round() as usize;
            generator(ramp + share + 4)
        })
        .collect();

    let mut steps = Vec::new();
    let mut steady = Vec::new();
    let mut objects = 0usize;
    for (tenant, trace) in traces.iter().enumerate() {
        let heap = u16::try_from(tenant).expect("tenant index fits in u16");
        let own = stream_of_trace(trace);
        let offset = u32::try_from(objects).expect("object ids fit in u32");
        let remap = |step: &Step| Step {
            heap,
            op: match step.op {
                Op::Malloc { obj, size } => Op::Malloc {
                    obj: obj + offset,
                    size,
                },
                Op::Free { obj } => Op::Free { obj: obj + offset },
                Op::StoreCap { from, slot, to } => Op::StoreCap {
                    from: from + offset,
                    slot,
                    to: to + offset,
                },
            },
        };
        steps.extend(own.steps[..own.ramp].iter().map(remap));
        let n = own.steady().len() as f64;
        steady.extend(
            own.steady()
                .iter()
                .enumerate()
                .map(|(k, s)| ((k as f64 + 0.5) / n, tenant, remap(s))),
        );
        objects += own.objects;
    }
    steady.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let ramp = steps.len();
    steps.extend(steady.into_iter().map(|(_, _, step)| step));
    FleetInput {
        traces,
        stream: Stream {
            steps,
            ramp,
            objects,
        },
    }
}

//! The layers under `CherivokeHeap`, timed from outside through their
//! public functions: the quarantining allocator, the shadow map and the
//! sweep engine.

use std::time::Instant;

use cherivoke::{CherivokeHeap, HeapConfig, Kernel};
use cvkalloc::{CherivokeAllocator, ChunkState, DlAllocator};
use revoker::{CapDirtyPages, ParallelSweepEngine, ShadowMap, SpaceSource, SweepScratch};

use crate::inputs::{Op, Stream};
use crate::measure::{mean, median, ns_since};

/// The allocator and shadow-map pass over one call stream.
#[derive(Debug, Default)]
pub struct AllocPass {
    /// Mean `CherivokeAllocator::malloc` time.
    pub malloc_ns: f64,
    /// Mean `CherivokeAllocator::free_binned` time.
    pub free_ns: f64,
    /// Mean `drain_sealed_into` time per drain.
    pub drain_us: f64,
    /// Drains performed (one per stop-the-world epoch of the heap).
    pub drains: u64,
    /// Internal frees the drains issued.
    pub internal_frees: u64,
    /// Largest quarantine / live ratio seen when a sweep came due.
    pub peak_quarantine_frac: f64,
    /// Mean `ShadowMap::paint` + `clear` time per drained range set.
    pub paint_clear_us: f64,
    /// Bytes painted over the pass.
    pub painted_bytes: u64,
    /// Allocator calls that failed.
    pub failed: u64,
}

/// Replays the stream's mallocs and frees straight into one
/// `CherivokeAllocator` per heap with the heaps' quarantine policy. When
/// `needs_sweep` says an epoch is due, the quarantine is sealed, its
/// ranges painted into a `ShadowMap`, drained, and cleared again — the
/// allocator and shadow work of a stop-the-world epoch without the
/// sweep between them.
pub fn alloc_pass(configs: &[HeapConfig], stream: &Stream) -> AllocPass {
    let mut allocs: Vec<CherivokeAllocator> = configs
        .iter()
        .map(|c| {
            CherivokeAllocator::with_config(
                DlAllocator::new(c.heap_base, mapped_len(c.heap_size)),
                c.policy.quarantine,
            )
        })
        .collect();
    let mut shadows: Vec<ShadowMap> = configs
        .iter()
        .map(|c| ShadowMap::new(c.heap_base, mapped_len(c.heap_size)))
        .collect();
    let mut addr = vec![0u64; stream.objects];
    let mut pass = AllocPass::default();
    let (mut malloc_ns, mut free_ns, mut drain_ns, mut shadow_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ranges = Vec::new();
    let mut drained = Vec::new();
    for (i, step) in stream.steps.iter().enumerate() {
        let h = usize::from(step.heap);
        let alloc = &mut allocs[h];
        let timed = i >= stream.ramp;
        match step.op {
            Op::Malloc { obj, size } => {
                let t = Instant::now();
                let r = alloc.malloc(size);
                let dt = ns_since(t);
                match r {
                    Ok(block) => addr[obj as usize] = block.addr,
                    Err(_) => pass.failed += 1,
                }
                if timed {
                    malloc_ns.push(dt);
                }
            }
            Op::Free { obj } => {
                let t = Instant::now();
                let r = alloc.free_binned(addr[obj as usize], 0);
                let dt = ns_since(t);
                pass.failed += u64::from(r.is_err());
                if timed {
                    free_ns.push(dt);
                }
                if alloc.needs_sweep() {
                    let frac = alloc.quarantined_bytes() as f64 / alloc.live_bytes().max(1) as f64;
                    pass.peak_quarantine_frac = pass.peak_quarantine_frac.max(frac);
                    ranges.clear();
                    alloc.seal_bins_into(u64::MAX, &mut ranges);
                    let shadow = &mut shadows[h];
                    let t = Instant::now();
                    for &(a, len) in &ranges {
                        shadow.paint(a, len);
                    }
                    let paint = ns_since(t);
                    drained.clear();
                    let t = Instant::now();
                    alloc.drain_sealed_into(&mut drained);
                    drain_ns.push(ns_since(t));
                    let t = Instant::now();
                    for &(a, len) in &drained {
                        shadow.clear(a, len);
                    }
                    shadow_ns.push(paint + ns_since(t));
                    pass.painted_bytes += ranges.iter().map(|&(_, len)| len).sum::<u64>();
                }
            }
            Op::StoreCap { .. } => {}
        }
    }
    pass.malloc_ns = mean(&malloc_ns);
    pass.free_ns = mean(&free_ns);
    pass.drain_us = mean(&drain_ns) / 1e3;
    pass.paint_clear_us = mean(&shadow_ns) / 1e3;
    pass.drains = drain_ns.len() as u64;
    pass.internal_frees = allocs.iter().map(|a| a.stats().internal_frees).sum();
    pass
}

/// The heap length `CherivokeHeap::new` maps for a `heap_size` request.
pub fn mapped_len(heap_size: u64) -> u64 {
    cheri::CompressedBounds::representable_length(cheri::granule_round_up(heap_size))
}

/// One sweep-engine walk over a memory image.
#[derive(Debug, Default)]
pub struct EnginePass {
    /// Median time of one walk over one heap's image (the mean over
    /// heaps when there are several: one epoch sweeps one heap).
    pub walk_us: f64,
    /// Bytes the kernel walked per second of that time.
    pub kernel_mib_s: f64,
    /// Capabilities revoked by the walk (must be 0: nothing it points
    /// to is painted).
    pub caps_revoked: u64,
}

/// Sweeps each heap's end-of-run image `repeats` times with
/// `ParallelSweepEngine` (the run's kernel, one worker) under
/// `CapDirtyPages`. Only the first granule of the top (never
/// allocated) chunk is painted: an empty shadow map would let the kernel skip its
/// per-capability probe entirely, which no real epoch does.
pub fn engine_pass(heaps: &mut [CherivokeHeap], kernel: Kernel, repeats: usize) -> EnginePass {
    let engine = ParallelSweepEngine::new(kernel, 1);
    let mut scratch = SweepScratch::new();
    let mut times = Vec::with_capacity(repeats);
    let mut pass = EnginePass::default();
    let mut bytes = 0u64;
    for _ in 0..repeats.max(1) {
        bytes = 0;
        let mut elapsed = 0u64;
        for heap in heaps.iter_mut() {
            let inner = heap.allocator().inner();
            let (base, size) = (inner.base(), inner.size());
            let top = inner
                .chunks()
                .iter()
                .find(|&(_, _, state)| state == ChunkState::Top)
                .map(|(addr, _, _)| addr);
            let mut shadow = ShadowMap::new(base, size);
            if let Some(free_granule) = top {
                shadow.paint(free_granule, 16);
            }
            let (source, table) = SpaceSource::split(heap.space_mut());
            let t = Instant::now();
            let stats =
                engine.sweep_scratched(source, CapDirtyPages::new(table), &shadow, &mut scratch);
            elapsed += ns_since(t);
            bytes += stats.bytes_swept;
            pass.caps_revoked += stats.caps_revoked;
        }
        times.push(elapsed as f64);
    }
    let walk_ns = median(&times);
    pass.walk_us = walk_ns / 1e3 / heaps.len().max(1) as f64;
    pass.kernel_mib_s = bytes as f64 / (1 << 20) as f64 / (walk_ns / 1e9).max(1e-12);
    pass
}

//! Drives a call stream straight into `CherivokeHeap`s: the replay
//! workload's front end, and the heap layer under the service and fleet.

use std::time::Instant;

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig, HeapError, HeapStats};

use crate::drive::{Calls, FrontEnd, Kind};
use crate::inputs::{Op, Step};
use crate::measure::ns_since;

/// Heap-wide counters summed over every heap of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Revocation sweeps (one per stop-the-world epoch).
    pub sweeps: u64,
    /// Bytes the sweeps walked.
    pub bytes_swept: u64,
    /// Bytes painted into shadow maps.
    pub bytes_painted: u64,
    /// Capabilities the sweeps inspected.
    pub caps_inspected: u64,
    /// Capabilities the sweeps revoked.
    pub caps_revoked: u64,
    /// Pages CapDirty filtering skipped.
    pub pages_skipped: u64,
    /// Bytes freed by the program.
    pub freed_bytes: u64,
    /// Internal frees issued by quarantine drains.
    pub internal_frees: u64,
}

impl Counts {
    fn add(&mut self, s: &HeapStats) {
        self.sweeps += s.sweeps;
        self.bytes_swept += s.bytes_swept;
        self.bytes_painted += s.bytes_painted;
        self.caps_inspected += s.caps_inspected;
        self.caps_revoked += s.caps_revoked;
        self.pages_skipped += s.pages_skipped;
        self.freed_bytes += s.alloc.freed_bytes_total;
        self.internal_frees += s.alloc.internal_frees;
    }

    /// The counters of one heap.
    pub fn of(s: &HeapStats) -> Counts {
        let mut c = Counts::default();
        c.add(s);
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            sweeps: self.sweeps - earlier.sweeps,
            bytes_swept: self.bytes_swept - earlier.bytes_swept,
            bytes_painted: self.bytes_painted - earlier.bytes_painted,
            caps_inspected: self.caps_inspected - earlier.caps_inspected,
            caps_revoked: self.caps_revoked - earlier.caps_revoked,
            pages_skipped: self.pages_skipped - earlier.pages_skipped,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
            internal_frees: self.internal_frees - earlier.internal_frees,
        }
    }
}

/// A set of heaps and the capabilities the stream's objects live in.
pub struct Heaps {
    /// One heap per stream heap index.
    pub heaps: Vec<CherivokeHeap>,
    /// The capability of each live object (`None` once freed).
    pub caps: Vec<Option<Capability>>,
}

impl Heaps {
    /// Builds one heap per configuration.
    ///
    /// # Errors
    ///
    /// A heap constructor's error, as text.
    pub fn new(configs: &[HeapConfig], objects: usize) -> Result<Heaps, String> {
        Ok(Heaps {
            heaps: configs
                .iter()
                .map(|c| CherivokeHeap::new(*c))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("heap construction: {e}"))?,
            caps: vec![None; objects],
        })
    }

    /// Executes one call. A call on an object whose allocation failed
    /// fails too.
    #[inline]
    fn apply(&mut self, step: &Step) -> Result<(), HeapError> {
        let heap = &mut self.heaps[usize::from(step.heap)];
        match step.op {
            Op::Malloc { obj, size } => {
                self.caps[obj as usize] = Some(heap.malloc(size)?);
            }
            Op::Free { obj } => {
                let cap = self.caps[obj as usize].take().ok_or(MISSING)?;
                heap.free(cap)?;
            }
            Op::StoreCap { from, slot, to } => {
                let holder = self.caps[from as usize].ok_or(MISSING)?;
                let target = self.caps[to as usize].ok_or(MISSING)?;
                heap.store_cap(&holder, slot, &target)?;
            }
        }
        Ok(())
    }

    /// The sweeps counter of heap `h`: it moves exactly when a call ran a
    /// stop-the-world epoch.
    #[inline]
    fn sweeps(&self, h: u16) -> u64 {
        self.heaps[usize::from(h)].stats().sweeps
    }
}

/// The error of a call on an object whose allocation failed (or that
/// was already freed): it names no allocation.
const MISSING: HeapError = HeapError::NotAnAllocation { base: 0 };

impl FrontEnd for Heaps {
    type Stats = Counts;

    /// One call, timed; a pause is a call that ran a stop-the-world
    /// epoch, which moves the heap's sweeps counter.
    #[inline]
    fn step(&mut self, step: &Step, calls: &mut Calls) {
        let sweeps = self.sweeps(step.heap);
        let t = Instant::now();
        let ok = self.apply(step).is_ok();
        let ns = ns_since(t);
        let epoch = self.sweeps(step.heap) != sweeps;
        calls.record(Kind::of(step.op), ns, epoch, ok);
    }

    /// Counters summed over all heaps.
    fn stats(&self) -> Counts {
        let mut c = Counts::default();
        for h in &self.heaps {
            c.add(&h.stats());
        }
        c
    }

    /// `(peak live + peak quarantine + shadow) / peak live`, with each
    /// peak summed over heaps.
    fn mem_overhead(&self) -> f64 {
        let (mut footprint, mut live) = (0u64, 0u64);
        for h in &self.heaps {
            let s = h.stats().alloc;
            footprint += s.peak_footprint_bytes + h.shadow_bytes();
            live += s.peak_live_bytes;
        }
        footprint as f64 / live.max(1) as f64
    }
}

//! Sweep kernels, stats, and the legacy [`Sweeper`] facade (§3.3, §6.2).
//!
//! The walk logic lives in [`crate::engine`]; this module contributes the
//! Figure 7 kernel tiers (the inner loops) and keeps [`Sweeper`] as a thin
//! facade whose methods are one-line compositions over
//! [`SweepEngine`](crate::engine::SweepEngine).

use cheri::CapWord;
use tagmem::{AddressSpace, RegisterFile, TaggedMemory, GRANULE_SIZE};

use crate::engine::{
    sweep_register_file, CLoadTagsLines, CapDirtyPages, NoFilter, RangeSource, SegmentSource,
    SpaceSource, SweepCost, SweepEngine,
};
use crate::ShadowMap;

/// Which inner-loop implementation to use.
///
/// `Simple`, `Unrolled` and `Wide` are the paper's Figure 7 loop tiers;
/// its parallel column is [`ParallelSweepEngine`](crate::ParallelSweepEngine)
/// running `Wide` on several workers (§3.5), which works with any kernel.
/// `Fast` is the production default. DESIGN.md §19 records why there is no
/// vector tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The naïve per-granule loop of §3.3: check the tag, decode, branch.
    Simple,
    /// Loop over 64-granule tag words, skipping all-zero words; per-bit
    /// scan of nonzero words (the paper's "unrolling + manual pipelining"
    /// tier).
    Unrolled,
    /// Bit-parallel scan: only *set* tag bits are visited (via
    /// count-trailing-zeros), with a branch-minimised revocation write —
    /// the role AVX2 plays in the paper.
    #[default]
    Wide,
    /// The word-at-a-time fast path: like [`Kernel::Wide`], but each
    /// capability is read as two 8-byte loads (no `u128` round trip), only
    /// its **base** is decoded (the partial 64-bit decode,
    /// [`cheri::CompressedBounds::decode_base_partial`]), and the decoded
    /// base is first tested against the whole 64-granule shadow word
    /// covering it — one `u64` compare rejects unpainted bases without a
    /// bit extraction. The production default (see
    /// [`crate::kernel_from_env`]).
    Fast,
}

impl Kernel {
    /// Every kernel: the Figure 7 tiers, then the production default.
    pub const ALL: [Kernel; 4] = [Kernel::Simple, Kernel::Unrolled, Kernel::Wide, Kernel::Fast];

    /// A short stable name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Simple => "simple",
            Kernel::Unrolled => "unrolled",
            Kernel::Wide => "wide",
            Kernel::Fast => "fast",
        }
    }

    /// The kernel called `name` (trimmed, case-insensitive): any
    /// [`Kernel::name`], plus `reference` for [`Kernel::Simple`], the
    /// naïve §3.3 loop the fast kernel's speedup is measured against.
    /// `None` for anything else.
    pub fn from_name(name: &str) -> Option<Kernel> {
        let name = name.trim();
        if name.eq_ignore_ascii_case("reference") {
            return Some(Kernel::Simple);
        }
        Kernel::ALL
            .into_iter()
            .find(|k| name.eq_ignore_ascii_case(k.name()))
    }

    /// The default sweep kernel honouring `CHERIVOKE_KERNEL`, defaulting
    /// to [`Kernel::Fast`] (see [`crate::kernel_from_env`] for the full
    /// clamp+warn semantics).
    pub fn from_env() -> Kernel {
        crate::engine::kernel_from_env()
    }
}

/// Counters from one revocation sweep.
///
/// All accumulation is **saturating**: merging worker partials or summing
/// across epochs can never wrap (see [`SweepStats::merge_parallel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Segments visited.
    pub segments_swept: u64,
    /// Bytes of memory the kernel walked over.
    pub bytes_swept: u64,
    /// Tagged words inspected (capabilities found).
    pub caps_inspected: u64,
    /// Capabilities revoked (tag cleared, word zeroed).
    pub caps_revoked: u64,
    /// Register-file capabilities revoked.
    pub regs_revoked: u64,
    /// Pages skipped by PTE CapDirty filtering (when enabled).
    pub pages_skipped: u64,
    /// Cache lines skipped by CLoadTags filtering (when enabled).
    pub lines_skipped: u64,
    /// Chunks whose kernel panicked and were retried on the sequential
    /// `Wide` kernel (only ever non-zero with fault injection armed or
    /// a genuinely buggy kernel; see `ParallelSweepEngine`).
    pub chunks_retried: u64,
}

impl SweepStats {
    /// Merges per-worker partial stats from one parallel sweep.
    ///
    /// Only the per-granule *work* counters (`bytes_swept`,
    /// `caps_inspected`, `caps_revoked`, `regs_revoked`) are summed
    /// (saturating). The *plan-level* counters (`segments_swept`,
    /// `pages_skipped`, `lines_skipped`) belong to the single planning
    /// pass that produced the workers' chunks, so they are left at zero —
    /// summing them per worker would double-count skipped work.
    pub fn merge_parallel(parts: impl IntoIterator<Item = SweepStats>) -> SweepStats {
        let mut out = SweepStats::default();
        for p in parts {
            out.bytes_swept = out.bytes_swept.saturating_add(p.bytes_swept);
            out.caps_inspected = out.caps_inspected.saturating_add(p.caps_inspected);
            out.caps_revoked = out.caps_revoked.saturating_add(p.caps_revoked);
            out.regs_revoked = out.regs_revoked.saturating_add(p.regs_revoked);
            out.chunks_retried = out.chunks_retried.saturating_add(p.chunks_retried);
        }
        out
    }
}

impl core::ops::AddAssign for SweepStats {
    fn add_assign(&mut self, rhs: SweepStats) {
        self.segments_swept = self.segments_swept.saturating_add(rhs.segments_swept);
        self.bytes_swept = self.bytes_swept.saturating_add(rhs.bytes_swept);
        self.caps_inspected = self.caps_inspected.saturating_add(rhs.caps_inspected);
        self.caps_revoked = self.caps_revoked.saturating_add(rhs.caps_revoked);
        self.regs_revoked = self.regs_revoked.saturating_add(rhs.regs_revoked);
        self.pages_skipped = self.pages_skipped.saturating_add(rhs.pages_skipped);
        self.lines_skipped = self.lines_skipped.saturating_add(rhs.lines_skipped);
        self.chunks_retried = self.chunks_retried.saturating_add(rhs.chunks_retried);
    }
}

/// Executes revocation sweeps with a chosen [`Kernel`].
///
/// A thin facade over [`SweepEngine`]: each method is one fixed
/// `source × filter` composition, kept for callers that don't need the
/// engine's generality. See the crate-level example for typical use.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweeper {
    kernel: Kernel,
}

impl Sweeper {
    /// A sweeper using `kernel`.
    pub fn new(kernel: Kernel) -> Sweeper {
        Sweeper { kernel }
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Sweeps every sweepable segment and the register file: the full §3.3
    /// root set.
    pub fn sweep_space(&self, space: &mut AddressSpace, shadow: &ShadowMap) -> SweepStats {
        let (source, _) = SpaceSource::split(space);
        SweepEngine::new(self.kernel).sweep(source, NoFilter, shadow)
    }

    /// Sweeps with PTE CapDirty filtering (§3.4.2): clean pages are skipped
    /// entirely, and pages found capability-free are re-cleaned (clearing
    /// CapDirty false positives).
    pub fn sweep_space_skipping(&self, space: &mut AddressSpace, shadow: &ShadowMap) -> SweepStats {
        let (source, page_table) = SpaceSource::split(space);
        SweepEngine::new(self.kernel).sweep(source, CapDirtyPages::new(page_table), shadow)
    }

    /// Sweeps with both hardware assists (§3.4): PTE CapDirty skips clean
    /// pages, and within dirty pages `CLoadTags` skips capability-free
    /// cache lines — "both coarse-grained and fine-grained optimisations
    /// are necessary for optimal work reduction" (§6.3).
    pub fn sweep_space_skipping_lines(
        &self,
        space: &mut AddressSpace,
        shadow: &ShadowMap,
    ) -> SweepStats {
        let (source, page_table) = SpaceSource::split(space);
        SweepEngine::new(self.kernel).sweep(
            source,
            (CapDirtyPages::new(page_table), CLoadTagsLines::new()),
            shadow,
        )
    }

    /// Sweeps one whole segment.
    pub fn sweep_segment(&self, mem: &mut TaggedMemory, shadow: &ShadowMap) -> SweepStats {
        SweepEngine::new(self.kernel).sweep(SegmentSource::new(mem), NoFilter, shadow)
    }

    /// Sweeps `[start, start + len)` of a segment (must be granule-aligned
    /// and inside the segment).
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or outside the segment.
    pub fn sweep_range(
        &self,
        mem: &mut TaggedMemory,
        shadow: &ShadowMap,
        start: u64,
        len: u64,
    ) -> SweepStats {
        let mut stats = SweepEngine::new(self.kernel).sweep(
            RangeSource::new(mem, start, len),
            NoFilter,
            shadow,
        );
        // Historical contract: a partial-range sweep reports no completed
        // segments (callers tally segment completion themselves).
        stats.segments_swept = 0;
        stats
    }

    /// Sweeps the capability register file.
    pub fn sweep_registers(regs: &mut RegisterFile, shadow: &ShadowMap) -> SweepStats {
        sweep_register_file(regs, shadow)
    }
}

/// Dispatches `kernel` over granules `[g0, g1)` of a data/tag slice pair.
/// `base` is the address of granule 0 (for cost hooks). The engine's
/// single entry point into the inner loops.
#[allow(clippy::too_many_arguments)] // kernel ABI: slices + window + hooks
pub(crate) fn run_kernel<C: SweepCost>(
    kernel: Kernel,
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    match kernel {
        Kernel::Simple => kernel_simple(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Unrolled => kernel_unrolled(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Wide => kernel_wide(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Fast => kernel_fast(data, tags, g0, g1, shadow, base, cost, stats),
    }
}

/// Revokes granule `g`: clears the tag bit and zeroes the 16 data bytes
/// (the paper's `*x = 0`).
#[inline]
fn revoke(data: &mut [u8], tags: &mut [u64], g: usize) {
    tags[g / 64] &= !(1 << (g % 64));
    data[g * 16..g * 16 + 16].fill(0);
}

#[inline]
fn word_base(data: &[u8], g: usize) -> u64 {
    let bytes: [u8; 16] = data[g * 16..g * 16 + 16].try_into().expect("granule slice");
    CapWord::from(bytes).base()
}

/// §3.3's naïve loop: visit every granule, test its tag, branch.
#[allow(clippy::too_many_arguments)] // kernel ABI: slices + window + hooks
fn kernel_simple<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    for g in g0..g1 {
        let tagged = tags[g / 64] >> (g % 64) & 1 == 1;
        if tagged {
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            if shadow.is_painted(cap_base) {
                revoke(data, tags, g);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
        // The naïve kernel still "reads" every granule; callers charge
        // bandwidth for the full range via bytes_swept.
        core::hint::black_box(&data[g * 16]);
    }
}

/// Word-skipping loop: all-zero tag words (64 granules = 1 KiB) fall
/// through in one test.
#[allow(clippy::too_many_arguments)]
fn kernel_unrolled<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let mut g = g0;
    while g < g1 {
        let w = g / 64;
        if g.is_multiple_of(64) && g + 64 <= g1 && tags[w] == 0 {
            g += 64;
            continue;
        }
        let tagged = tags[w] >> (g % 64) & 1 == 1;
        if tagged {
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            if shadow.is_painted(cap_base) {
                revoke(data, tags, g);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
        g += 1;
    }
}

/// Bit-parallel loop: visit only set bits via count-trailing-zeros, build
/// the revocation mask, and write the tag word back once.
#[allow(clippy::too_many_arguments)]
fn kernel_wide<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let w0 = g0 / 64;
    let w1 = g1.div_ceil(64);
    #[allow(clippy::needless_range_loop)] // `w` also derives `lo`; indexing is the clear form
    for w in w0..w1 {
        // Mask the word to the requested granule range (ragged edges).
        let lo = w * 64;
        let mut live = tags[w];
        if lo < g0 {
            live &= u64::MAX << (g0 - lo);
        }
        if lo + 64 > g1 {
            live &= u64::MAX >> (lo + 64 - g1);
        }
        if live == 0 {
            continue;
        }
        let mut kill = 0u64;
        let mut bits = live;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let g = lo + b;
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            // Branch-minimised: accumulate the kill mask.
            kill |= u64::from(shadow.is_painted(cap_base)) << b;
        }
        if kill != 0 {
            tags[w] &= !kill;
            let mut bits = kill;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                data[g * 16..g * 16 + 16].fill(0);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
    }
}

/// The tentpole fast path: [`kernel_wide`]'s visitation order and exact
/// statistics, with three per-capability savings.
///
/// * The word is read as two `u64` halves straight out of the data slice —
///   no 16-byte slice → `u128` widen/narrow round trip.
/// * Only the base is decoded, with the partial 64-bit bounds decode
///   ([`CapWord::base_from_halves`]); the unused `top` is never
///   reconstructed and no 128-bit arithmetic runs.
/// * The decoded base probes the shadow through the branch-free
///   [`ShadowMap::painted_bit`]: one load of the `u64` covering its
///   64-granule window, folded into the kill mask with shifts and masks
///   only — no data-dependent branch for random pointees to mispredict.
///
/// When no cost model is attached (`C::IS_FREE`) and the shadow map is
/// entirely empty, whole tag words fall through without decoding at all:
/// every live bit is counted as inspected (the result an empty shadow
/// forces) and nothing else happens. Cost-charging sweeps never take this
/// shortcut, so timed replays observe the full access stream.
#[allow(clippy::too_many_arguments)]
fn kernel_fast<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let empty_shadow = C::IS_FREE && shadow.painted_bytes() == 0;
    let w0 = g0 / 64;
    let w1 = g1.div_ceil(64);
    #[allow(clippy::needless_range_loop)] // `w` also derives `lo`; indexing is the clear form
    for w in w0..w1 {
        // Mask the word to the requested granule range (ragged edges).
        let lo = w * 64;
        let mut live = tags[w];
        if lo < g0 {
            live &= u64::MAX << (g0 - lo);
        }
        if lo + 64 > g1 {
            live &= u64::MAX >> (lo + 64 - g1);
        }
        if live == 0 {
            continue;
        }
        if empty_shadow {
            // Nothing is painted: every tagged word survives. Count the
            // inspections (identical stats to the decoding path) and move
            // on without touching the data array.
            stats.caps_inspected += u64::from(live.count_ones());
            continue;
        }
        let mut kill = 0u64;
        let mut bits = live;
        {
            // Reborrow the data as aligned 8-byte halves: each capability
            // word is two direct u64 loads, no 16-byte slice → u128 round
            // trip and no per-load range construction.
            let (halves, _) = data.as_chunks::<8>();
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                stats.caps_inspected += 1;
                let half_lo = u64::from_le_bytes(halves[2 * g]);
                let half_hi = u64::from_le_bytes(halves[2 * g + 1]);
                let cap_base = CapWord::base_from_halves(half_lo, half_hi);
                cost.shadow_lookup(cap_base);
                kill |= shadow.painted_bit(cap_base) << b;
            }
        }
        if kill != 0 {
            tags[w] &= !kill;
            let mut bits = kill;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                data[g * 16..g * 16 + 16].fill(0);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 18;

    /// Builds a segment with `n` capabilities, half pointing at painted
    /// granules. Returns (memory, shadow, expected revocations).
    fn scenario(n: u64) -> (TaggedMemory, ShadowMap, u64) {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let mut shadow = ShadowMap::new(HEAP, LEN);
        let mut expect = 0;
        for i in 0..n {
            let obj_base = HEAP + 0x8000 + i * 64;
            let cap = Capability::root_rw(obj_base, 64);
            mem.write_cap(HEAP + i * 16, &cap).unwrap();
            if i % 2 == 0 {
                shadow.paint(obj_base, 64);
                expect += 1;
            }
        }
        (mem, shadow, expect)
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Simple.name(), "simple");
        assert_eq!(Kernel::Unrolled.name(), "unrolled");
        assert_eq!(Kernel::Wide.name(), "wide");
        assert_eq!(Kernel::Fast.name(), "fast");
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
            let shouted = kernel.name().to_ascii_uppercase();
            assert_eq!(Kernel::from_name(&format!(" {shouted} ")), Some(kernel));
        }
        assert_eq!(Kernel::from_name("reference"), Some(Kernel::Simple));
        for unknown in ["", "parallel", "simd", "banana"] {
            assert_eq!(Kernel::from_name(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn fast_kernel_sweeps_empty_shadow_with_identical_stats() {
        // The C::IS_FREE bulk path must report the same stats the decoding
        // path would: every tagged word inspected, none revoked.
        let (mut mem, _, _) = scenario(100);
        let empty = ShadowMap::new(HEAP, LEN);
        let fast = Sweeper::new(Kernel::Fast).sweep_segment(&mut mem, &empty);
        let (mut mem2, _, _) = scenario(100);
        let wide = Sweeper::new(Kernel::Wide).sweep_segment(&mut mem2, &empty);
        assert_eq!(fast, wide);
        assert_eq!(fast.caps_inspected, 100);
        assert_eq!(fast.caps_revoked, 0);
        assert_eq!(mem, mem2);
    }

    #[test]
    fn stats_addassign_saturates() {
        let mut a = SweepStats {
            bytes_swept: u64::MAX - 1,
            caps_inspected: u64::MAX,
            ..SweepStats::default()
        };
        let b = SweepStats {
            bytes_swept: 100,
            caps_inspected: 7,
            lines_skipped: 3,
            ..SweepStats::default()
        };
        a += b;
        assert_eq!(a.bytes_swept, u64::MAX, "saturates instead of wrapping");
        assert_eq!(a.caps_inspected, u64::MAX);
        assert_eq!(a.lines_skipped, 3);
    }

    #[test]
    fn merge_parallel_sums_work_but_not_plan_counters() {
        let worker = SweepStats {
            segments_swept: 1,
            bytes_swept: 1000,
            caps_inspected: 10,
            caps_revoked: 4,
            regs_revoked: 1,
            pages_skipped: 5,
            lines_skipped: 9,
            chunks_retried: 1,
        };
        let merged = SweepStats::merge_parallel([worker, worker]);
        assert_eq!(merged.bytes_swept, 2000);
        assert_eq!(merged.caps_inspected, 20);
        assert_eq!(merged.caps_revoked, 8);
        assert_eq!(merged.regs_revoked, 2);
        // Retries are work-level: each worker's own retries count.
        assert_eq!(merged.chunks_retried, 2);
        // Plan-level counters are not double-counted across workers.
        assert_eq!(merged.segments_swept, 0);
        assert_eq!(merged.pages_skipped, 0);
        assert_eq!(merged.lines_skipped, 0);
    }

    #[test]
    fn merge_parallel_saturates() {
        let big = SweepStats {
            caps_revoked: u64::MAX / 2 + 1,
            ..SweepStats::default()
        };
        let merged = SweepStats::merge_parallel([big, big, big]);
        assert_eq!(merged.caps_revoked, u64::MAX);
    }

    #[test]
    fn all_kernels_agree_on_revocations() {
        for kernel in Kernel::ALL {
            let (mut mem, shadow, expect) = scenario(100);
            let stats = Sweeper::new(kernel).sweep_segment(&mut mem, &shadow);
            assert_eq!(stats.caps_inspected, 100, "{kernel:?}");
            assert_eq!(stats.caps_revoked, expect, "{kernel:?}");
            assert_eq!(stats.bytes_swept, LEN);
            // Surviving capabilities: odd indices.
            for i in 0..100u64 {
                let c = mem.read_cap(HEAP + i * 16).unwrap();
                assert_eq!(c.tag(), i % 2 == 1, "{kernel:?} granule {i}");
            }
        }
    }

    #[test]
    fn revoked_words_are_zeroed() {
        let (mut mem, shadow, _) = scenario(10);
        Sweeper::new(Kernel::Wide).sweep_segment(&mut mem, &shadow);
        let (word, tag) = mem.read_cap_word(HEAP).unwrap();
        assert!(!tag);
        assert_eq!(
            word.bits(),
            0,
            "paper's loop stores zero over dangling pointers"
        );
    }

    #[test]
    fn untagged_data_is_never_touched() {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        // Plant data that *looks* like a capability to painted memory.
        let fake = Capability::root_rw(HEAP + 0x40, 64);
        mem.write_cap(HEAP, &fake.cleared()).unwrap(); // untagged!
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 64);
        for kernel in Kernel::ALL {
            let stats = Sweeper::new(kernel).sweep_segment(&mut mem, &shadow);
            assert_eq!(stats.caps_inspected, 0);
            assert_eq!(stats.caps_revoked, 0);
        }
        // The data survives (it is not a pointer, just data).
        let (word, _) = mem.read_cap_word(HEAP).unwrap();
        assert_ne!(word.bits(), 0);
    }

    #[test]
    fn interior_pointers_are_revoked_via_base() {
        // A capability whose *address* has wandered past the object still
        // dangles: revocation keys on the base (§3.2 footnote 2).
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let obj = Capability::root_rw(HEAP + 0x100, 64);
        let wandered = obj.incremented(64).unwrap(); // one past the end
        mem.write_cap(HEAP, &wandered).unwrap();
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x100, 64);
        let stats = Sweeper::new(Kernel::Wide).sweep_segment(&mut mem, &shadow);
        assert_eq!(stats.caps_revoked, 1);
    }

    #[test]
    fn capabilities_to_unpainted_memory_survive() {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let obj = Capability::root_rw(HEAP + 0x100, 64);
        mem.write_cap(HEAP, &obj).unwrap();
        let shadow = ShadowMap::new(HEAP, LEN);
        let stats = Sweeper::new(Kernel::Wide).sweep_segment(&mut mem, &shadow);
        assert_eq!(stats.caps_inspected, 1);
        assert_eq!(stats.caps_revoked, 0);
        assert!(mem.read_cap(HEAP).unwrap().tag());
    }

    #[test]
    fn register_file_is_swept() {
        let mut regs = RegisterFile::new();
        regs.set(0, Capability::root_rw(HEAP + 0x40, 64));
        regs.set(1, Capability::root_rw(HEAP + 0x1000, 64));
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 64);
        let stats = Sweeper::sweep_registers(&mut regs, &shadow);
        assert_eq!(stats.regs_revoked, 1);
        assert!(!regs.get(0).tag());
        assert!(regs.get(1).tag());
    }

    #[test]
    fn sweep_space_covers_all_root_segments() {
        use tagmem::SegmentKind;
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .segment(SegmentKind::Stack, 0x7fff_0000, 1 << 16)
            .segment(SegmentKind::Globals, 0x60_0000, 1 << 16)
            .build();
        let obj = Capability::root_rw(HEAP + 0x40, 64);
        // Dangling references scattered across all segments + a register.
        space.store_cap(HEAP + 0x1000, &obj).unwrap();
        space.store_cap(0x7fff_0100, &obj).unwrap();
        space.store_cap(0x60_0040, &obj).unwrap();
        space.registers_mut().set(5, obj);
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        let stats = Sweeper::new(Kernel::Wide).sweep_space(&mut space, &shadow);
        assert_eq!(stats.caps_revoked, 4);
        assert_eq!(stats.segments_swept, 3);
        assert_eq!(space.tag_count(), 0);
    }

    #[test]
    fn capdirty_skipping_finds_everything_and_recleans() {
        use tagmem::SegmentKind;
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16) // 16 pages
            .build();
        let obj = Capability::root_rw(HEAP + 0x40, 64);
        space.store_cap(HEAP + 0x2000, &obj).unwrap();
        // Overwrite with data: page stays CapDirty (false positive).
        space.store_cap(HEAP + 0x5000, &obj).unwrap();
        space.store_u64(HEAP + 0x5000, 0).unwrap();
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        let stats = Sweeper::new(Kernel::Wide).sweep_space_skipping(&mut space, &shadow);
        assert_eq!(stats.caps_revoked, 1);
        assert_eq!(stats.pages_skipped, 14, "14 never-dirty pages skipped");
        // The false-positive page was re-cleaned.
        assert!(!space.page_table().is_cap_dirty(HEAP + 0x5000));
        // And the genuinely swept page stays dirty (it held a cap, now
        // revoked — next sweep may re-clean it).
        assert!(space.page_table().is_cap_dirty(HEAP + 0x2000));
    }

    #[test]
    fn skipping_sweep_equals_full_sweep() {
        use tagmem::SegmentKind;
        for seed in 0..5u64 {
            let build = || {
                let mut space = AddressSpace::builder()
                    .segment(SegmentKind::Heap, HEAP, 1 << 16)
                    .build();
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                for _ in 0..40 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let slot = HEAP + (x >> 20) % ((1 << 16) - 16) / 16 * 16;
                    let obj = HEAP + ((x >> 40) % 4096) * 16;
                    let cap = Capability::root_rw(obj, 16);
                    space.store_cap(slot, &cap).unwrap();
                }
                space
            };
            let mut shadow = ShadowMap::new(HEAP, 1 << 16);
            for g in 0..4096u64 {
                if g % 3 == 0 {
                    shadow.paint(HEAP + g * 16, 16);
                }
            }
            let mut full = build();
            let mut skip = build();
            let a = Sweeper::new(Kernel::Wide).sweep_space(&mut full, &shadow);
            let b = Sweeper::new(Kernel::Wide).sweep_space_skipping(&mut skip, &shadow);
            assert_eq!(a.caps_revoked, b.caps_revoked, "seed {seed}");
            assert_eq!(full.tag_count(), skip.tag_count(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_engine_handles_odd_partitions() {
        for workers in [1, 2, 3, 7, 16] {
            let (mut mem, shadow, expect) = scenario(333);
            let stats = crate::ParallelSweepEngine::new(Kernel::Wide, workers).sweep(
                SegmentSource::new(&mut mem),
                NoFilter,
                &shadow,
            );
            assert_eq!(stats.caps_revoked, expect, "workers={workers}");
        }
    }

    #[test]
    fn sweep_range_respects_bounds() {
        let (mut mem, shadow, _) = scenario(100);
        // Sweep only the first 32 granules (two tag words): 16 caps live
        // there (i = 0..32 at 16-byte spacing → granules 0..32).
        let stats = Sweeper::new(Kernel::Wide).sweep_range(&mut mem, &shadow, HEAP, 32 * 16);
        assert_eq!(stats.caps_inspected, 32);
        // Capabilities outside the range are untouched even if dangling:
        // granule 40 holds a cap to a painted object (i=40 is even).
        assert!(mem.read_cap(HEAP + 40 * 16).unwrap().tag());
        assert_eq!(stats.bytes_swept, 32 * 16);
    }
}

#[cfg(test)]
mod line_skip_tests {
    use super::*;
    use cheri::Capability;
    use tagmem::SegmentKind;

    const HEAP: u64 = 0x1000_0000;

    fn seeded_space() -> (AddressSpace, ShadowMap) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .build();
        let doomed = Capability::root_rw(HEAP + 0x40, 64);
        let live = Capability::root_rw(HEAP + 0x200, 64);
        space.store_cap(HEAP + 0x1000, &doomed).unwrap();
        space.store_cap(HEAP + 0x1080, &live).unwrap(); // next line, same page
        space.store_cap(HEAP + 0x7000, &doomed).unwrap(); // other page
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        (space, shadow)
    }

    #[test]
    fn line_skipping_agrees_with_full_sweep() {
        let (mut a, shadow) = seeded_space();
        let (mut b, _) = seeded_space();
        let full = Sweeper::new(Kernel::Wide).sweep_space(&mut a, &shadow);
        let skip = Sweeper::new(Kernel::Wide).sweep_space_skipping_lines(&mut b, &shadow);
        assert_eq!(full.caps_revoked, skip.caps_revoked);
        assert_eq!(a.tag_count(), b.tag_count());
        assert_eq!(skip.caps_revoked, 2);
    }

    #[test]
    fn line_skipping_skips_both_granularities() {
        let (mut space, shadow) = seeded_space();
        let stats = Sweeper::new(Kernel::Wide).sweep_space_skipping_lines(&mut space, &shadow);
        // 16 pages total, 2 dirty, 14 skipped at page level.
        assert_eq!(stats.pages_skipped, 14);
        // Dirty pages hold 2×32 = 64 lines; only 3 hold tags.
        assert_eq!(stats.lines_skipped, 61);
        // Bytes actually walked: three lines.
        assert_eq!(stats.bytes_swept, 3 * tagmem::LINE_SIZE);
    }

    #[test]
    fn line_skipping_recleans_false_positive_pages() {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .build();
        let cap = Capability::root_rw(HEAP + 0x40, 64);
        space.store_cap(HEAP + 0x2000, &cap).unwrap();
        space.store_u64(HEAP + 0x2000, 0).unwrap(); // tag gone, page still dirty
        let shadow = ShadowMap::new(HEAP, 1 << 16);
        Sweeper::new(Kernel::Wide).sweep_space_skipping_lines(&mut space, &shadow);
        assert!(!space.page_table().is_cap_dirty(HEAP + 0x2000));
    }
}

//! The concurrent revocation service (paper §3.5 at deployment scale).
//!
//! [`ConcurrentHeap`] shards one logical heap across `N` independent
//! [`CherivokeHeap`]s, each owning a **disjoint address range**, so that
//! `malloc`/`free` from different threads proceed in parallel on
//! uncontended per-shard locks while a dedicated **background revoker
//! thread** drives incremental revocation epochs
//! ([`CherivokeHeap::begin_revocation`] → [`CherivokeHeap::revoke_step`] →
//! completion) in bounded slices — the paper's observation that "sweeping
//! revocation … can run alongside the execution of the program" made
//! concrete.
//!
//! # Sharding
//!
//! Shard `i` owns heap addresses `[base + i·stride, base + i·stride +
//! size)`. Every capability the service hands out is bounded inside
//! exactly one shard, so `free`, loads and stores route by the
//! capability's *base address* with no shared state on the hot path.
//! [`ConcurrentHeap::handle`] pins each client to a shard round-robin, so
//! `threads ≤ shards` keeps allocation entirely uncontended.
//!
//! # The cross-shard revocation handshake
//!
//! A capability into shard A's heap may be *stored in* shard B's memory.
//! Shard A's own sweep never visits shard B, so the service adds two
//! mechanisms, together making quarantine drains sound service-wide:
//!
//! 1. **Foreign sweeps** — after shard A opens an epoch (sealing and
//!    painting its quarantine), the revoker sweeps every *other* shard's
//!    full root set against A's shadow map ([`CherivokeHeap::sweep_foreign`]).
//!    Addresses outside A's heap are never painted, so foreign sweeps
//!    clear exactly the dangling copies.
//! 2. **A global revocation barrier** — painted ranges are published to a
//!    service-wide index for the epoch's duration, and every capability
//!    moved through [`ConcurrentHeap::load_cap`] / `store_cap` is checked
//!    against it *after* the destination shard's lock is acquired. The
//!    lock acquisition orders the check after the epoch's publication, so
//!    a mutator can never copy a dangling capability into a shard that
//!    foreign sweeps have already cleaned.
//!
//! The epoch is **held open** ([`CherivokeHeap::set_epoch_hold`]) until
//! the foreign sweeps finish: mutators pumping the epoch as a side effect
//! of their own `malloc`/`free` make progress on the sweep but cannot
//! race the quarantine drain past the handshake.
//!
//! Like [`CherivokeHeap::free`], Rust-side [`Capability`] values model CPU
//! registers the simulator does not track as sweep roots: architectural
//! copies (in shard memory) are revoked, but a client retaining a freed
//! capability in a local variable models a register the real hardware
//! sweep *would* have cleared.
//!
//! # Example
//!
//! ```
//! use cherivoke::{ConcurrentHeap, ServiceConfig};
//!
//! let heap = ConcurrentHeap::new(ServiceConfig::small()).unwrap();
//! let client = heap.handle();
//! let obj = client.malloc(64).unwrap();
//! let stash = client.malloc(16).unwrap();
//! client.store_cap(&stash, 0, &obj).unwrap();
//! client.free(obj).unwrap();
//! heap.revoke_all_now();
//! assert!(!client.load_cap(&stash, 0).unwrap().tag());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cheri::Capability;
use faultinject::{FaultInjector, FaultPoint};
use journal::Journal;
use revoker::SweepStats;
use telemetry::{Counter, EventKind, MetricsSnapshot, PeriodicExporter, Registry};

use crate::recovery::{journal_dir_from_env, warn_once};
use crate::stats::{PauseHistogram, ServiceStats, ShardStats};
use crate::{CherivokeHeap, HeapConfig, HeapError, RevocationPolicy, SweepPacer};

/// Configuration for a [`ConcurrentHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards (= maximally parallel allocation streams).
    pub shards: usize,
    /// Heap bytes per shard (rounded up to CHERI-representable bounds).
    pub shard_heap_size: u64,
    /// Revocation policy. The quarantine fraction decides when the
    /// *service* opens an epoch on a shard; kernel, CapDirty and
    /// `sweep_workers` settings flow through to each shard's sweep engine
    /// (epoch slices and the cross-shard foreign sweeps all run on it).
    pub policy: RevocationPolicy,
    /// Sweep pacing for the background revoker.
    pub pacer: SweepPacer,
    /// How often the background revoker wakes to check shard quarantines.
    pub revoker_interval: Duration,
    /// Watchdog deadline for the background revoker: if its heartbeat goes
    /// silent for longer than this, the supervisor declares it stalled,
    /// supersedes it, and spawns a replacement (with exponential backoff).
    /// A dead revoker (thread exited) is detected immediately at the next
    /// supervisor tick regardless of this deadline.
    pub revoker_watchdog: Duration,
    /// Enables the telemetry subsystem: every shard heap, allocator and
    /// sweep engine reports into one shared [`telemetry::Registry`]
    /// (reachable via [`ConcurrentHeap::telemetry`]), and lifecycle events
    /// are traced. Disabled (the default), instrumented sites cost one
    /// branch each.
    pub telemetry: bool,
}

impl Default for ServiceConfig {
    /// 4 shards × 16 MiB, paper-default policy, 1 ms revoker cadence.
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            shard_heap_size: 16 << 20,
            policy: RevocationPolicy::paper_default(),
            pacer: SweepPacer::paper_default(),
            revoker_interval: Duration::from_millis(1),
            revoker_watchdog: Duration::from_secs(1),
            telemetry: false,
        }
    }
}

impl ServiceConfig {
    /// A small configuration for tests and examples: 4 shards × 1 MiB,
    /// 200 µs revoker cadence.
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            shard_heap_size: 1 << 20,
            revoker_interval: Duration::from_micros(200),
            ..ServiceConfig::default()
        }
    }

    /// Same, with an explicit shard count.
    pub fn with_shards(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        }
    }

    /// Validates and normalises the whole service configuration (see
    /// [`RevocationPolicy::validated`] for the error/clamp philosophy):
    /// unrepairable values are typed [`HeapError::InvalidConfig`] errors,
    /// repairable ones (zero shards, zero intervals, a watchdog shorter
    /// than the revoker cadence) are clamped with a warning. Constructors
    /// call this and print the warnings to stderr.
    pub fn validated(mut self) -> Result<(ServiceConfig, Vec<String>), HeapError> {
        let mut warnings = Vec::new();
        if self.shards == 0 {
            warnings.push("shards 0 cannot hold a heap; clamping to 1".to_string());
            self.shards = 1;
        }
        if self.shard_heap_size < (1 << 16) {
            warnings.push(format!(
                "shard_heap_size {} is below the 64 KiB floor; clamping",
                self.shard_heap_size
            ));
            self.shard_heap_size = 1 << 16;
        }
        if self.revoker_interval.is_zero() {
            warnings
                .push("revoker_interval 0 busy-spins the revoker; clamping to 50 µs".to_string());
            self.revoker_interval = Duration::from_micros(50);
        }
        let watchdog_floor = (self.revoker_interval * 4).max(Duration::from_millis(1));
        if self.revoker_watchdog < watchdog_floor {
            warnings.push(format!(
                "revoker_watchdog {:?} is shorter than 4 revoker wakeups; clamping to {:?} \
                 (a healthy revoker heartbeats once per wakeup)",
                self.revoker_watchdog, watchdog_floor
            ));
            self.revoker_watchdog = watchdog_floor;
        }
        let (policy, policy_warnings) = self.policy.validated()?;
        self.policy = policy;
        warnings.extend(policy_warnings);
        let (pacer, pacer_warnings) = self.pacer.validated()?;
        self.pacer = pacer;
        warnings.extend(pacer_warnings);
        Ok((self, warnings))
    }
}

/// The per-shard policy: shard-internal triggering is disabled (the
/// service's revoker owns *when* to sweep; the shard owns *how*), and
/// mutator-side epoch pumping is bounded by the pacer's pause ceiling.
fn shard_policy(service: &RevocationPolicy, pacer: &SweepPacer) -> RevocationPolicy {
    RevocationPolicy {
        quarantine: cvkalloc::QuarantineConfig {
            // Never self-trigger: infinite fraction means `needs_sweep`
            // (and the outpaced-sweeper fallback in `free`) stay false.
            fraction: f64::INFINITY,
            ..service.quarantine
        },
        strict: false,
        // OOM inside a shard must not drain its quarantine behind the
        // service's back — the service runs the full cross-shard
        // handshake instead (see `Inner::malloc`).
        sweep_on_oom: false,
        // Mutators pumping an epoch from their own malloc/free take the
        // *floor* slice: enough to help, small enough not to stall them.
        incremental_slice_bytes: Some(pacer.min_slice_bytes),
        ..*service
    }
}

/// Exponential restart backoff for the revoker supervisor: starts at
/// `floor`, doubles on every respawn, caps at `ceiling`, and resets to
/// the floor as soon as a healthy heartbeat is observed. Factored out of
/// `supervisor_loop` as a pure state machine so the schedule is pinned by
/// unit tests without threads or clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RestartBackoff {
    floor: Duration,
    ceiling: Duration,
    current: Duration,
}

impl RestartBackoff {
    pub(crate) fn new(floor: Duration, ceiling: Duration) -> RestartBackoff {
        let floor = floor.min(ceiling);
        RestartBackoff {
            floor,
            ceiling,
            current: floor,
        }
    }

    /// How long a restart must trail the last heartbeat.
    pub(crate) fn delay(&self) -> Duration {
        self.current
    }

    /// A live, heartbeating revoker was observed: the next failure's
    /// backoff starts over from the floor.
    pub(crate) fn on_healthy(&mut self) {
        self.current = self.floor;
    }

    /// A replacement revoker was spawned: double the next delay, capped
    /// at the ceiling.
    pub(crate) fn on_restart(&mut self) {
        self.current = (self.current * 2).min(self.ceiling);
    }
}

struct Shard {
    heap: Mutex<CherivokeHeap>,
    base: u64,
    size: u64,
    mallocs: AtomicU64,
    frees: AtomicU64,
    freed_bytes: AtomicU64,
}

struct Inner {
    shards: Vec<Shard>,
    config: ServiceConfig,
    /// Global revocation barrier: painted `(addr, len)` ranges of every
    /// active epoch, sorted by address.
    painted: RwLock<Vec<(u64, u64)>>,
    /// Number of active epochs — the barrier's fast-path gate.
    active_epochs: AtomicUsize,
    /// Capabilities the service barrier filtered in flight.
    barrier_revocations: AtomicU64,
    /// Fresh frees since the revoker's last wakeup (pacer input).
    freed_since_wakeup: AtomicU64,
    /// Revoker accounting.
    epochs: AtomicU64,
    foreign_sweeps: AtomicU64,
    foreign_caps_revoked: AtomicU64,
    oom_revocations: AtomicU64,
    bytes_swept: AtomicU64,
    sweep_ns: AtomicU64,
    pauses: PauseHistogram,
    /// Deterministic fault injection (disabled in production: one branch
    /// per instrumented site). Shared with every shard heap so allocator
    /// and sweep faults draw from the same plan.
    faults: FaultInjector,
    /// Supervision state. `heartbeat_ns` is stamped by the live revoker
    /// each wakeup (nanoseconds since `started`); `alive_gen` holds the
    /// generation of the currently-running revoker thread (0 = none — a
    /// generation-tagged drop guard clears it, so a superseded thread
    /// exiting late cannot erase its replacement's liveness);
    /// `revoker_gen` is the latest generation the supervisor issued, and a
    /// revoker that observes a newer generation retires itself.
    heartbeat_ns: AtomicU64,
    alive_gen: AtomicU64,
    revoker_gen: AtomicU64,
    revoker_restarts: AtomicU64,
    emergency_sweeps: AtomicU64,
    /// Service-level telemetry: the registry shared by every shard heap,
    /// allocator and sweep engine, plus the service's own counters
    /// (`cvk_service_*`). Disabled handles when `config.telemetry` is off.
    registry: Registry,
    svc_epochs: Counter,
    svc_foreign_sweeps: Counter,
    svc_oom_revocations: Counter,
    svc_barrier_revocations: Counter,
    svc_revoker_restarts: Counter,
    svc_emergency_sweeps: Counter,
    svc_faults_injected: Counter,
    /// Revoker parking and shutdown.
    stop: AtomicBool,
    park: Mutex<bool>,
    wake: Condvar,
    started: Instant,
}

impl Inner {
    fn lock(&self, idx: usize) -> MutexGuard<'_, CherivokeHeap> {
        // A panic while holding a shard lock (e.g. a failing assertion in
        // a test mutator) must not wedge the service; the heap's state is
        // consistent between &mut calls.
        match self.shards[idx].heap.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The service-level barrier. MUST be called while holding the lock of
    /// the shard being read from / written to: the lock acquisition
    /// happens-after the revoker's publication of the painted index, so a
    /// store into an already-foreign-swept shard always sees the index.
    fn filter(&self, cap: Capability) -> Capability {
        if !cap.tag() || self.active_epochs.load(Ordering::SeqCst) == 0 {
            return cap;
        }
        let painted = match self.painted.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let base = cap.base();
        let hit = painted
            .iter()
            .any(|&(addr, len)| base >= addr && base < addr + len);
        if hit {
            self.barrier_revocations.fetch_add(1, Ordering::Relaxed);
            self.svc_barrier_revocations.inc();
            cap.cleared()
        } else {
            cap
        }
    }

    fn publish(&self, ranges: &[(u64, u64)]) {
        let mut painted = match self.painted.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        painted.extend_from_slice(ranges);
        painted.sort_unstable();
        drop(painted);
        self.active_epochs.fetch_add(1, Ordering::SeqCst);
    }

    fn unpublish(&self, ranges: &[(u64, u64)]) {
        let mut painted = match self.painted.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        painted.retain(|r| !ranges.contains(r));
        drop(painted);
        self.active_epochs.fetch_sub(1, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Whether a background revoker thread is currently running. `false`
    /// covers thread death, spawn failure and the window before the
    /// supervisor's first (or next) spawn — in all of which mutators route
    /// revocation inline (see `free`).
    fn revoker_alive(&self) -> bool {
        self.alive_gen.load(Ordering::SeqCst) != 0
    }

    fn note_fault(&self, point: FaultPoint, shard: usize) {
        self.svc_faults_injected.inc();
        self.registry.event(EventKind::FaultInjected {
            point: point.name(),
            shard,
        });
    }

    /// Records an emergency synchronous sweep: the graceful-degradation
    /// path taken under memory pressure (allocation failure with a
    /// non-empty quarantine, or quarantine overflow past the hard cap).
    fn note_emergency(&self, shard: usize) {
        self.emergency_sweeps.fetch_add(1, Ordering::Relaxed);
        self.svc_emergency_sweeps.inc();
        self.registry.event(EventKind::EmergencySweep { shard });
    }

    // --- Mutator-facing operations ---------------------------------------

    fn malloc(self: &Arc<Self>, shard_idx: usize, size: u64) -> Result<Capability, HeapError> {
        let result = self.lock(shard_idx).malloc(size);
        match result {
            Ok(cap) => {
                self.shards[shard_idx]
                    .mallocs
                    .fetch_add(1, Ordering::Relaxed);
                Ok(cap)
            }
            Err(HeapError::OutOfMemory { .. })
                if self.config.policy.sweep_on_oom && self.total_quarantined() > 0 =>
            {
                // Quarantined memory could satisfy this request, but a
                // shard-local drain would skip the cross-shard handshake.
                // Run the full synchronous revocation and retry once; if
                // the heap is genuinely full even after every reclaimable
                // byte came back, the typed error propagates — memory
                // pressure never panics.
                self.oom_revocations.fetch_add(1, Ordering::Relaxed);
                self.svc_oom_revocations.inc();
                self.registry
                    .event(EventKind::OomRevocation { shard: shard_idx });
                self.note_emergency(shard_idx);
                self.revoke_all_now();
                let cap = self.lock(shard_idx).malloc(size)?;
                self.shards[shard_idx]
                    .mallocs
                    .fetch_add(1, Ordering::Relaxed);
                Ok(cap)
            }
            Err(e) => Err(e),
        }
    }

    fn free(&self, cap: Capability) -> Result<(), HeapError> {
        let base = cap.base();
        let (idx, shard) = self
            .shards
            .iter()
            .enumerate()
            .find(|(_, s)| base >= s.base && base < s.base + s.size)
            .ok_or(HeapError::NotAnAllocation { base })?;
        let size = cap.length();
        let (quarantined, live) = {
            let mut heap = self.lock(idx);
            heap.free(cap)?;
            (heap.quarantined_bytes(), heap.live_bytes())
        };
        shard.frees.fetch_add(1, Ordering::Relaxed);
        shard.freed_bytes.fetch_add(size, Ordering::Relaxed);
        self.freed_since_wakeup.fetch_add(size, Ordering::Relaxed);
        // Backpressure: quarantine stays bounded *by construction*. A
        // mutator whose frees outrun the background revoker pays for the
        // sweep itself — exactly the paper's synchronous design, with the
        // background thread merely moving the common case off the mutator.
        if quarantined >= self.quarantine_hard_cap(idx) {
            // Quarantine overflow: emergency synchronous drain.
            self.note_emergency(idx);
            self.revoke_shard_now(idx);
        } else if !self.revoker_alive() && self.inline_due(quarantined, live) {
            // Graceful degradation: with the background revoker down (dead,
            // restarting, or never spawned), mutators run the paper's
            // synchronous design themselves at the normal trigger instead
            // of letting quarantine climb to the hard cap.
            self.revoke_shard_now(idx);
        }
        Ok(())
    }

    /// The ordinary epoch trigger (policy fraction of live bytes), used by
    /// mutators to route revocation inline while no revoker thread runs.
    fn inline_due(&self, quarantined: u64, live: u64) -> bool {
        let q = self.config.policy.quarantine;
        quarantined >= q.min_bytes.max(1) && quarantined as f64 >= q.fraction * live.max(1) as f64
    }

    /// The per-shard quarantine bound: the policy fraction applied to the
    /// shard's heap *capacity* (the paper sizes quarantine against heap
    /// footprint), with headroom so concurrent freers who all cross the
    /// trigger together still land under the bound.
    fn quarantine_hard_cap(&self, idx: usize) -> u64 {
        let f = self.config.policy.quarantine.fraction;
        if !f.is_finite() {
            return u64::MAX;
        }
        ((f * self.shards[idx].size as f64) / 2.0) as u64
    }

    fn with_shard<R>(
        &self,
        cap: &Capability,
        f: impl FnOnce(&mut CherivokeHeap) -> Result<R, HeapError>,
    ) -> Result<R, HeapError> {
        let base = cap.base();
        let idx = self
            .shards
            .iter()
            .position(|s| base >= s.base && base < s.base + s.size)
            .ok_or(HeapError::NotAnAllocation { base })?;
        f(&mut self.lock(idx))
    }

    fn total_quarantined(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.lock(i).quarantined_bytes())
            .sum()
    }

    // --- Revocation orchestration ----------------------------------------

    /// Opens an epoch on shard `i` if its quarantine crossed the service
    /// trigger. Returns the painted ranges if an epoch was opened.
    fn maybe_begin(&self, i: usize) -> Option<Vec<(u64, u64)>> {
        let q = self.config.policy.quarantine;
        let mut heap = self.lock(i);
        if heap.revocation_active() {
            return None;
        }
        let quarantined = heap.quarantined_bytes();
        let live = heap.live_bytes().max(1);
        // Due either by the paper's live-heap fraction or by closing in on
        // the shard-capacity hard cap (stay ahead of mutator backpressure).
        let due = (quarantined as f64) >= q.fraction * live as f64
            || quarantined >= self.quarantine_hard_cap(i) / 2;
        if quarantined < q.min_bytes.max(1) || !due {
            return None;
        }
        heap.set_epoch_hold(true);
        if heap.begin_revocation() {
            Some(heap.epoch_ranges())
        } else {
            heap.set_epoch_hold(false);
            None
        }
    }

    /// The cross-shard half of shard `i`'s epoch: sweep every other
    /// shard's root set against `i`'s shadow map. Bounded lock holds: one
    /// foreign shard at a time (plus `i`'s lock for its shadow).
    fn foreign_sweeps(&self, i: usize) {
        for j in 0..self.shards.len() {
            if j == i {
                continue;
            }
            // Lock order: ascending index. Mutators only ever hold one
            // shard lock, and this is the only two-lock site.
            let (first, second) = (i.min(j), i.max(j));
            let t0 = Instant::now();
            let mut a = self.lock(first);
            let mut b = self.lock(second);
            let (painting, foreign) = if first == i {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            let stats = foreign.sweep_foreign(painting.shadow());
            drop(b);
            drop(a);
            self.note_sweep(&stats, t0.elapsed());
            self.foreign_sweeps.fetch_add(1, Ordering::Relaxed);
            self.foreign_caps_revoked
                .fetch_add(stats.caps_revoked, Ordering::Relaxed);
            self.svc_foreign_sweeps.inc();
            self.registry.event(EventKind::ForeignSweep {
                painting_shard: i,
                swept_shard: j,
                caps_revoked: stats.caps_revoked,
            });
        }
    }

    fn note_sweep(&self, stats: &SweepStats, pause: Duration) {
        self.bytes_swept
            .fetch_add(stats.bytes_swept, Ordering::Relaxed);
        self.sweep_ns
            .fetch_add(pause.as_nanos() as u64, Ordering::Relaxed);
        self.pauses.record_duration(pause);
    }

    /// Runs shard `i`'s epoch through the full handshake: foreign sweeps,
    /// barrier retirement, then paced slices until the quarantine drains.
    fn run_epoch(&self, i: usize, ranges: Vec<(u64, u64)>, budget: u64) {
        self.publish(&ranges);
        if self.faults.should_fire(FaultPoint::EpochBarrierDelay) {
            // Stretch the window between barrier publication and the
            // foreign sweeps: mutators moving capabilities meanwhile must
            // be filtered by the published index, not by sweep timing.
            self.note_fault(FaultPoint::EpochBarrierDelay, i);
            std::thread::sleep(Duration::from_millis(1));
        }
        self.foreign_sweeps(i);
        // All dangling copies outside shard `i` are gone, and shard `i`'s
        // own epoch barrier covers its unswept regions until completion —
        // the global barrier has done its job. Retiring it *before* the
        // drain means a fresh allocation of the recycled range can never
        // be filtered by a stale index entry.
        self.unpublish(&ranges);
        self.lock(i).set_epoch_hold(false);
        loop {
            let t0 = Instant::now();
            let mut heap = self.lock(i);
            if !heap.revocation_active() {
                // A mutator's epoch pump completed it for us.
                drop(heap);
                break;
            }
            let done = heap.revoke_step(budget);
            drop(heap);
            if let Some(stats) = &done {
                self.note_sweep(stats, t0.elapsed());
                break;
            }
            self.note_sweep(&SweepStats::default(), t0.elapsed());
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::yield_now();
        }
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.svc_epochs.inc();
    }

    /// One revoker wakeup: pace, then scan all shards for due epochs.
    fn revoker_pass(&self, elapsed: Duration) {
        let freed = self.freed_since_wakeup.swap(0, Ordering::Relaxed);
        let secs = elapsed.as_secs_f64().max(1e-6);
        let free_rate = freed as f64 / secs;
        let sweepable: u64 = self
            .shards
            .iter()
            .map(|s| s.size + (512 << 10)) // + stack and globals segments
            .sum();
        let live: u64 = (0..self.shards.len())
            .map(|i| self.lock(i).live_bytes())
            .sum();
        let capacity = ((self.config.policy.quarantine.fraction * live as f64) as u64).max(1);
        let budget = self
            .config
            .pacer
            .budget(free_rate, secs, sweepable, capacity);
        for i in 0..self.shards.len() {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            if let Some(ranges) = self.maybe_begin(i) {
                self.run_epoch(i, ranges, budget);
            }
        }
    }

    /// Synchronously drains shard `i`'s quarantine through the full
    /// cross-shard handshake. Callable from any thread; if another thread
    /// (the background revoker, or a different mutator under backpressure)
    /// already owns an epoch on this shard, this thread *helps* — pumping
    /// sweep slices until that epoch retires — rather than hijacking it,
    /// then seals and drains whatever quarantine accumulated since.
    fn revoke_shard_now(&self, i: usize) {
        loop {
            {
                let mut heap = self.lock(i);
                if !heap.revocation_active() {
                    // Epoch ownership goes to whoever's `begin_revocation`
                    // succeeds — exactly one thread runs the handshake.
                    heap.set_epoch_hold(true);
                    if heap.begin_revocation() {
                        let ranges = heap.epoch_ranges();
                        drop(heap);
                        self.run_epoch(i, ranges, self.config.pacer.max_slice_bytes);
                    } else {
                        heap.set_epoch_hold(false);
                    }
                    return;
                }
            }
            // Foreign-owned epoch: pump it to completion, then re-check —
            // the open generation may have refilled meanwhile.
            loop {
                let t0 = Instant::now();
                let mut heap = self.lock(i);
                if !heap.revocation_active() {
                    break;
                }
                let done = heap.revoke_step(self.config.pacer.max_slice_bytes);
                drop(heap);
                if let Some(stats) = &done {
                    self.note_sweep(stats, t0.elapsed());
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    /// Synchronous whole-service revocation (stop-the-world equivalent):
    /// every shard's quarantine is sealed, painted, foreign-swept and
    /// drained in one sound sequence. A sweep-avoidance backend may seal
    /// only part of a shard's quarantine per epoch (the colored backend
    /// picks the richest bins), so each shard loops until its quarantine
    /// is empty — every epoch retires at least half the quarantined
    /// bytes, so absent concurrent frees this terminates geometrically.
    fn revoke_all_now(&self) {
        for i in 0..self.shards.len() {
            loop {
                self.revoke_shard_now(i);
                if self.lock(i).quarantined_bytes() == 0 {
                    break;
                }
            }
        }
    }

    /// Whether the generation-`gen` revoker should keep running: a stop
    /// request or a newer generation (the supervisor declared this thread
    /// stalled and superseded it) retires it.
    fn revoker_retired(&self, gen: u64) -> bool {
        self.stop.load(Ordering::SeqCst) || self.revoker_gen.load(Ordering::SeqCst) != gen
    }

    /// The background revoker, generation `gen`. Claims the liveness flag
    /// on entry and releases it through a drop guard, so *any* exit —
    /// normal retirement, an injected death, or a genuine panic — is
    /// visible to the supervisor as `alive_gen == 0`.
    fn revoker_loop(&self, gen: u64) {
        struct AliveGuard<'a> {
            inner: &'a Inner,
            gen: u64,
        }
        impl Drop for AliveGuard<'_> {
            fn drop(&mut self) {
                // Only the generation that set the flag may clear it: a
                // superseded revoker exiting late must not erase its
                // replacement's liveness.
                let _ = self.inner.alive_gen.compare_exchange(
                    self.gen,
                    0,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
        }
        self.alive_gen.store(gen, Ordering::SeqCst);
        let _alive = AliveGuard { inner: self, gen };
        let mut last = Instant::now();
        while !self.revoker_retired(gen) {
            self.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
            let mut pending = match self.park.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if !*pending {
                let (g, _) = self
                    .wake
                    .wait_timeout(pending, self.config.revoker_interval)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                pending = g;
            }
            *pending = false;
            drop(pending);
            if self.revoker_retired(gen) {
                return;
            }
            if self.faults.should_fire(FaultPoint::RevokerDeath) {
                // Simulated revoker-thread death: exit without a pass. The
                // drop guard clears liveness; the supervisor restarts us.
                self.note_fault(FaultPoint::RevokerDeath, 0);
                return;
            }
            let now = Instant::now();
            self.revoker_pass(now - last);
            last = now;
        }
    }

    fn spawn_revoker(self: &Arc<Self>, gen: u64) -> Result<JoinHandle<()>, HeapError> {
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("cherivoke-revoker-{gen}"))
            .spawn(move || inner.revoker_loop(gen))
            .map_err(|_| HeapError::RevokerSpawn)
    }

    /// The revoker supervisor: spawns the first revoker, then watches for
    /// death (liveness flag cleared) and stalls (heartbeat older than the
    /// watchdog) and respawns with exponential backoff. While no revoker
    /// runs, mutators revoke inline (see `free`), so every failure mode
    /// degrades to the paper's synchronous design rather than unbounded
    /// quarantine growth.
    fn supervisor_loop(self: &Arc<Self>) {
        let watchdog = self.config.revoker_watchdog;
        let tick = (watchdog / 8)
            .max(Duration::from_micros(200))
            .min(Duration::from_millis(20));
        let mut backoff = RestartBackoff::new(
            self.config.revoker_interval.max(Duration::from_millis(1)),
            Duration::from_secs(1),
        );
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        self.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
        self.revoker_gen.store(1, Ordering::SeqCst);
        match self.spawn_revoker(1) {
            Ok(h) => handles.push(h),
            Err(e) => eprintln!("cherivoke: {e}; mutators will revoke inline until a retry"),
        }
        while !self.stop.load(Ordering::SeqCst) {
            // Sleep one tick on the shared condvar (woken early by
            // shutdown's notify_all) without consuming the revoker's
            // pending-kick flag.
            {
                let guard = match self.park.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let _ = self
                    .wake
                    .wait_timeout(guard, tick)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let gen = self.revoker_gen.load(Ordering::SeqCst);
            let alive = self.alive_gen.load(Ordering::SeqCst) == gen;
            let heartbeat_age_ns = self
                .now_ns()
                .saturating_sub(self.heartbeat_ns.load(Ordering::Relaxed));
            let stalled = alive && heartbeat_age_ns > watchdog.as_nanos() as u64;
            if alive && !stalled {
                backoff.on_healthy();
                continue;
            }
            let cause = if stalled { "stall" } else { "death" };
            // Exponential backoff between restart attempts: a crash-looping
            // revoker must not starve mutators (who are covering inline).
            if self
                .heartbeat_ns
                .load(Ordering::Relaxed)
                .saturating_add(backoff.delay().as_nanos() as u64)
                > self.now_ns()
                && cause == "death"
            {
                continue;
            }
            let next_gen = gen + 1;
            // Superseding first makes a stalled thread retire itself as
            // soon as it resumes; its drop guard cannot clear the new
            // generation's liveness flag.
            self.revoker_gen.store(next_gen, Ordering::SeqCst);
            self.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
            match self.spawn_revoker(next_gen) {
                Ok(h) => {
                    handles.push(h);
                    self.revoker_restarts.fetch_add(1, Ordering::Relaxed);
                    self.svc_revoker_restarts.inc();
                    self.registry.event(EventKind::RevokerRestarted {
                        generation: next_gen,
                        cause,
                    });
                }
                Err(e) => {
                    eprintln!("cherivoke: {e}; mutators will revoke inline until a retry");
                }
            }
            backoff.on_restart();
            // Retired threads eventually finish; reap without blocking the
            // watch loop on a stalled one.
            handles.retain(|h| !h.is_finished());
            while handles.len() > 8 {
                let h = handles.remove(0);
                let _ = h.join();
            }
        }
        for h in handles {
            let _ = h.join();
        }
    }

    fn stats(&self) -> ServiceStats {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let shards = (0..self.shards.len())
            .map(|i| {
                let heap = self.lock(i);
                let s = &self.shards[i];
                let mallocs = s.mallocs.load(Ordering::Relaxed);
                let frees = s.frees.load(Ordering::Relaxed);
                ShardStats {
                    mallocs,
                    frees,
                    freed_bytes: s.freed_bytes.load(Ordering::Relaxed),
                    mallocs_per_sec: mallocs as f64 / elapsed,
                    frees_per_sec: frees as f64 / elapsed,
                    live_bytes: heap.live_bytes(),
                    quarantined_bytes: heap.quarantined_bytes(),
                    heap: heap.stats(),
                }
            })
            .collect();
        ServiceStats {
            shards,
            epochs: self.epochs.load(Ordering::Relaxed),
            foreign_sweeps: self.foreign_sweeps.load(Ordering::Relaxed),
            foreign_caps_revoked: self.foreign_caps_revoked.load(Ordering::Relaxed),
            barrier_revocations: self.barrier_revocations.load(Ordering::Relaxed),
            oom_revocations: self.oom_revocations.load(Ordering::Relaxed),
            revoker_restarts: self.revoker_restarts.load(Ordering::Relaxed),
            emergency_sweeps: self.emergency_sweeps.load(Ordering::Relaxed),
            bytes_swept: self.bytes_swept.load(Ordering::Relaxed),
            sweep_secs: self.sweep_ns.load(Ordering::Relaxed) as f64 / 1e9,
            pauses: self.pauses.snapshot(),
            elapsed_secs: elapsed,
        }
    }
}

/// A sharded, thread-safe CHERIvoke heap with a background revoker.
///
/// See DESIGN.md §11 for the architecture. Create one, share
/// [`HeapClient`]s across threads, and drop it to stop the revoker.
pub struct ConcurrentHeap {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<()>>,
    next_handle: AtomicUsize,
}

impl ConcurrentHeap {
    /// Builds the shards and starts the revoker supervisor (which in turn
    /// runs the background revoker thread). Reads a fault plan from
    /// `CHERIVOKE_FAULT_PLAN` if set (see [`faultinject`]); use
    /// [`ConcurrentHeap::with_faults`] to pass one programmatically.
    ///
    /// This constructor never panics: configuration problems come back as
    /// typed [`HeapError`]s, and a failure to spawn the supervisor or
    /// revoker thread degrades the service to inline revocation on mutator
    /// threads instead of failing construction.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] for unrepairable configuration (see
    /// [`ServiceConfig::validated`]); [`HeapError`] if a shard heap cannot
    /// be constructed.
    pub fn new(config: ServiceConfig) -> Result<ConcurrentHeap, HeapError> {
        ConcurrentHeap::with_faults(config, FaultInjector::from_env())
    }

    /// As [`ConcurrentHeap::new`], with an explicit fault injector (the
    /// chaos tests construct plans programmatically; pass
    /// [`FaultInjector::disabled`] to ignore the environment).
    ///
    /// # Errors
    ///
    /// As [`ConcurrentHeap::new`].
    pub fn with_faults(
        config: ServiceConfig,
        faults: FaultInjector,
    ) -> Result<ConcurrentHeap, HeapError> {
        let dir = journal_dir_from_env();
        ConcurrentHeap::with_journal_dir(config, faults, dir.as_deref())
    }

    /// As [`ConcurrentHeap::with_faults`], with an explicit epoch-journal
    /// directory: each shard writes its crash-consistency journal to
    /// `dir/shard-{i}.cvj` (see [`crate::recovery`]). Pass `None` to run
    /// without journaling — the default; `with_faults` reads the
    /// `CHERIVOKE_JOURNAL` knob instead. A journal that cannot be created
    /// degrades that shard to unjournaled operation with a
    /// once-per-process warning; construction still succeeds.
    ///
    /// # Errors
    ///
    /// As [`ConcurrentHeap::new`].
    pub fn with_journal_dir(
        config: ServiceConfig,
        faults: FaultInjector,
        journal_dir: Option<&std::path::Path>,
    ) -> Result<ConcurrentHeap, HeapError> {
        let (config, warnings) = config.validated()?;
        for warning in &warnings {
            eprintln!("cherivoke: {warning}");
        }
        let shards = config.shards;
        let policy = shard_policy(&config.policy, &config.pacer);
        // Disjoint per-shard address ranges: shard i's heap starts at
        // base + i·stride. The stride over-provisions to the next power
        // of two so every base stays generously aligned for exact CHERI
        // bounds regardless of representable-length rounding.
        let rounded = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
            config.shard_heap_size,
        ));
        let stride = rounded.next_power_of_two();
        let first_base = stride.max(0x1000_0000);
        let registry = if config.telemetry {
            Registry::new(256)
        } else {
            Registry::disabled()
        };
        let mut shard_vec = Vec::with_capacity(shards);
        for i in 0..shards {
            let base = first_base + i as u64 * stride;
            let mut heap = CherivokeHeap::new(HeapConfig {
                heap_base: base,
                heap_size: rounded,
                policy,
                ..HeapConfig::default()
            })?;
            if config.telemetry {
                heap.set_telemetry_for_shard(&registry, i);
            }
            if faults.is_enabled() {
                heap.set_fault_injector(faults.clone());
            }
            if let Some(dir) = journal_dir {
                // Creation failure is degraded mode, not a constructor
                // error: the shard runs correct-but-unjournaled, exactly
                // like a mid-run journal write failure (DESIGN.md §20).
                let _ = std::fs::create_dir_all(dir);
                match Journal::create(dir.join(format!("shard-{i}.cvj"))) {
                    Ok(j) => heap.set_journal(j),
                    Err(e) => {
                        warn_once(&format!(
                            "cannot create shard {i} epoch journal in {}: {e}; \
                             shard runs unjournaled",
                            dir.display()
                        ));
                    }
                }
            }
            shard_vec.push(Shard {
                heap: Mutex::new(heap),
                base,
                size: rounded,
                mallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                freed_bytes: AtomicU64::new(0),
            });
        }
        let inner = Arc::new(Inner {
            shards: shard_vec,
            config,
            painted: RwLock::new(Vec::new()),
            active_epochs: AtomicUsize::new(0),
            barrier_revocations: AtomicU64::new(0),
            freed_since_wakeup: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            foreign_sweeps: AtomicU64::new(0),
            foreign_caps_revoked: AtomicU64::new(0),
            oom_revocations: AtomicU64::new(0),
            bytes_swept: AtomicU64::new(0),
            sweep_ns: AtomicU64::new(0),
            // Registry-backed when telemetry is on (the same distribution
            // feeds the exporters); a standalone histogram otherwise, so
            // `ServiceStats::pauses` is always populated.
            pauses: if config.telemetry {
                registry.histogram("cvk_service_pause_ns")
            } else {
                PauseHistogram::new()
            },
            faults,
            heartbeat_ns: AtomicU64::new(0),
            alive_gen: AtomicU64::new(0),
            revoker_gen: AtomicU64::new(0),
            revoker_restarts: AtomicU64::new(0),
            emergency_sweeps: AtomicU64::new(0),
            svc_epochs: registry.counter("cvk_service_epochs_total"),
            svc_foreign_sweeps: registry.counter("cvk_service_foreign_sweeps_total"),
            svc_oom_revocations: registry.counter("cvk_service_oom_revocations_total"),
            svc_barrier_revocations: registry.counter("cvk_service_barrier_revocations_total"),
            svc_revoker_restarts: registry.counter("cvk_service_revoker_restarts_total"),
            svc_emergency_sweeps: registry.counter("cvk_service_emergency_sweeps_total"),
            svc_faults_injected: registry.counter("cvk_service_faults_injected_total"),
            registry,
            stop: AtomicBool::new(false),
            park: Mutex::new(false),
            wake: Condvar::new(),
            started: Instant::now(),
        });
        let supervisor_inner = Arc::clone(&inner);
        let supervisor = match std::thread::Builder::new()
            .name("cherivoke-supervisor".into())
            .spawn(move || supervisor_inner.supervisor_loop())
        {
            Ok(handle) => Some(handle),
            Err(_) => {
                // Thread exhaustion must not fail construction: with no
                // supervisor (hence no revoker), `revoker_alive` stays
                // false and mutators revoke inline.
                eprintln!(
                    "cherivoke: {}; degrading to inline revocation on mutator threads",
                    HeapError::RevokerSpawn
                );
                None
            }
        };
        Ok(ConcurrentHeap {
            inner,
            supervisor,
            next_handle: AtomicUsize::new(0),
        })
    }

    /// A client pinned (round-robin) to one shard for allocation. Clients
    /// are cheap, `Send`, and independent — give each thread its own.
    pub fn handle(&self) -> HeapClient {
        let shard = self.next_handle.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len();
        HeapClient {
            inner: Arc::clone(&self.inner),
            shard,
        }
    }

    /// A client pinned to a specific shard (benchmarks pinning multiple
    /// clients to one shard to measure lock contention; normal callers use
    /// the round-robin [`ConcurrentHeap::handle`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn handle_on(&self, shard: usize) -> HeapClient {
        assert!(shard < self.inner.shards.len(), "shard out of range");
        HeapClient {
            inner: Arc::clone(&self.inner),
            shard,
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Allocates from a specific shard (tests and benchmarks; normal
    /// clients use [`ConcurrentHeap::handle`]).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::malloc`]; on out-of-memory the service first
    /// runs a full cross-shard revocation if policy allows.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn malloc_on(&self, shard: usize, size: u64) -> Result<Capability, HeapError> {
        assert!(shard < self.inner.shards.len(), "shard out of range");
        self.inner.malloc(shard, size)
    }

    /// Frees `cap`, routing to the owning shard by address.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::free`]; [`HeapError::NotAnAllocation`] if the
    /// capability does not point into any shard.
    pub fn free(&self, cap: Capability) -> Result<(), HeapError> {
        self.inner.free(cap)
    }

    /// Loads a `u64` through `cap` (routed by the capability's base).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, HeapError> {
        self.inner.with_shard(cap, |h| h.load_u64(cap, offset))
    }

    /// Stores a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), HeapError> {
        self.inner
            .with_shard(cap, |h| h.store_u64(cap, offset, value))
    }

    /// Loads a capability through `cap`, applying both the shard's epoch
    /// barrier and the service's cross-shard barrier.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, HeapError> {
        let inner = &self.inner;
        inner.with_shard(cap, |h| {
            let loaded = h.load_cap(cap, offset)?;
            Ok(inner.filter(loaded))
        })
    }

    /// Stores capability `value` through `cap`. The value is checked
    /// against the global revocation barrier *after* the destination
    /// shard's lock is held — the ordering that makes cross-shard
    /// quarantine drains sound (see the module docs).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_cap`].
    pub fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), HeapError> {
        let inner = &self.inner;
        inner.with_shard(cap, |h| {
            let filtered = inner.filter(*value);
            h.store_cap(cap, offset, &filtered)
        })
    }

    /// Runs a full, synchronous, cross-shard revocation: seals and paints
    /// every shard's quarantine, runs the foreign-sweep handshake, drains
    /// everything. The concurrent analogue of [`CherivokeHeap::revoke_now`].
    pub fn revoke_all_now(&self) {
        self.inner.revoke_all_now();
    }

    /// Runs the full-heap safety audit ([`CherivokeHeap::audit`]) on
    /// every shard and returns the per-shard reports. Valid at any time,
    /// including mid-epoch: the audit's invariant is that no tagged
    /// capability points into *reusable* (free) memory, which must hold
    /// in every epoch phase. The chaos harnesses run this after a
    /// fault-injected run as the final soundness check.
    pub fn audit_all(&self) -> Vec<revoker::AuditReport> {
        (0..self.inner.shards.len())
            .map(|i| self.inner.lock(i).audit())
            .collect()
    }

    /// Asks the background revoker to check quarantines now rather than
    /// at its next scheduled wakeup.
    pub fn kick_revoker(&self) {
        let mut pending = match self.inner.park.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *pending = true;
        // The supervisor shares the condvar (it must wake on shutdown), so
        // notify every waiter; it leaves the pending flag untouched.
        self.inner.wake.notify_all();
    }

    /// Whether a background revoker thread is currently running. `false`
    /// during restart windows (death or stall recovery) and in fully
    /// degraded inline mode — mutators cover revocation either way.
    pub fn revoker_alive(&self) -> bool {
        self.inner.revoker_alive()
    }

    /// The service's fault injector (disabled unless a plan was supplied
    /// via [`ConcurrentHeap::with_faults`] or `CHERIVOKE_FAULT_PLAN`).
    /// Chaos tests read its hit/fired counts to assert coverage.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.inner.faults
    }

    /// Bytes quarantined across all shards.
    pub fn quarantined_bytes(&self) -> u64 {
        self.inner.total_quarantined()
    }

    /// Bytes live across all shards.
    pub fn live_bytes(&self) -> u64 {
        (0..self.inner.shards.len())
            .map(|i| self.inner.lock(i).live_bytes())
            .sum()
    }

    /// A statistics snapshot across all shards and the revoker.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// The service's telemetry registry — the shared sink every shard
    /// heap, allocator and sweep engine reports into. A disabled registry
    /// (all reads zero, no events) unless [`ServiceConfig::telemetry`] is
    /// set.
    pub fn telemetry(&self) -> &Registry {
        &self.inner.registry
    }

    /// A point-in-time metrics snapshot (export with
    /// [`MetricsSnapshot::to_prometheus`] / [`MetricsSnapshot::to_json`],
    /// or diff two with [`MetricsSnapshot::delta`] for rates).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Spawns a background thread calling `emit` with a fresh snapshot
    /// every `interval` (and once more on shutdown). Drop the returned
    /// [`PeriodicExporter`] to stop it.
    pub fn spawn_exporter<F>(&self, interval: Duration, emit: F) -> PeriodicExporter
    where
        F: FnMut(MetricsSnapshot) + Send + 'static,
    {
        PeriodicExporter::spawn(self.inner.registry.clone(), interval, emit)
    }
}

impl Drop for ConcurrentHeap {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.kick_revoker();
        // Joining the supervisor joins every revoker generation it spawned.
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// A per-thread client of a [`ConcurrentHeap`], pinned to one shard for
/// allocation (frees and accesses route by address, so a capability may be
/// freed by any client).
#[derive(Clone)]
pub struct HeapClient {
    inner: Arc<Inner>,
    shard: usize,
}

impl HeapClient {
    /// The shard this client allocates from.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Allocates `size` bytes from the pinned shard.
    ///
    /// # Errors
    ///
    /// As [`ConcurrentHeap::malloc_on`].
    pub fn malloc(&self, size: u64) -> Result<Capability, HeapError> {
        self.inner.malloc(self.shard, size)
    }

    /// Frees `cap` (any shard's).
    ///
    /// # Errors
    ///
    /// As [`ConcurrentHeap::free`].
    pub fn free(&self, cap: Capability) -> Result<(), HeapError> {
        self.inner.free(cap)
    }

    /// Loads a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, HeapError> {
        self.inner.with_shard(cap, |h| h.load_u64(cap, offset))
    }

    /// Stores a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), HeapError> {
        self.inner
            .with_shard(cap, |h| h.store_u64(cap, offset, value))
    }

    /// Loads a capability through `cap` (barrier-filtered).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, HeapError> {
        let inner = &self.inner;
        inner.with_shard(cap, |h| {
            let loaded = h.load_cap(cap, offset)?;
            Ok(inner.filter(loaded))
        })
    }

    /// Stores capability `value` through `cap` (barrier-filtered).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_cap`].
    pub fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), HeapError> {
        let inner = &self.inner;
        inner.with_shard(cap, |h| {
            let filtered = inner.filter(*value);
            h.store_cap(cap, offset, &filtered)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> ConcurrentHeap {
        ConcurrentHeap::new(ServiceConfig::small()).unwrap()
    }

    #[test]
    fn restart_backoff_pins_the_exponential_sequence_and_cap() {
        // The supervisor's schedule for ServiceConfig::default's 1 ms
        // revoker cadence: 1, 2, 4, … doubling per respawn, capped at the
        // 1 s ceiling, and never growing past it.
        let mut b = RestartBackoff::new(Duration::from_millis(1), Duration::from_secs(1));
        let mut seen = Vec::new();
        for _ in 0..14 {
            seen.push(b.delay().as_millis() as u64);
            b.on_restart();
        }
        assert_eq!(
            seen,
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000, 1000, 1000, 1000],
            "doubling sequence with a 1 s cap"
        );
    }

    #[test]
    fn restart_backoff_resets_on_healthy_heartbeat() {
        let mut b = RestartBackoff::new(Duration::from_millis(1), Duration::from_secs(1));
        for _ in 0..6 {
            b.on_restart();
        }
        assert_eq!(b.delay(), Duration::from_millis(64));
        b.on_healthy();
        assert_eq!(b.delay(), Duration::from_millis(1), "reset to the floor");
        b.on_restart();
        assert_eq!(b.delay(), Duration::from_millis(2), "doubling starts over");
    }

    #[test]
    fn restart_backoff_floor_above_ceiling_is_clamped() {
        let mut b = RestartBackoff::new(Duration::from_secs(5), Duration::from_secs(1));
        assert_eq!(b.delay(), Duration::from_secs(1));
        b.on_restart();
        assert_eq!(b.delay(), Duration::from_secs(1));
        b.on_healthy();
        assert_eq!(b.delay(), Duration::from_secs(1));
    }

    #[test]
    fn journal_dir_attaches_a_journal_per_shard() {
        let dir = std::env::temp_dir().join(format!("cvk-svc-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let heap = ConcurrentHeap::with_journal_dir(
            ServiceConfig::small(),
            FaultInjector::disabled(),
            Some(&dir),
        )
        .unwrap();
        for i in 0..heap.shards() {
            assert!(
                heap.inner.lock(i).journal_active(),
                "shard {i} journal missing"
            );
            assert!(dir.join(format!("shard-{i}.cvj")).exists());
        }
        // Journaled shards still run full epochs end to end.
        let a = heap.malloc_on(0, 256).unwrap();
        heap.free(a).unwrap();
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
        drop(heap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_journal_dir_shards_run_unjournaled() {
        let heap = service();
        for i in 0..heap.shards() {
            assert!(!heap.inner.lock(i).journal_active());
        }
    }

    #[test]
    fn shards_own_disjoint_address_ranges() {
        let heap = service();
        let caps: Vec<_> = (0..heap.shards())
            .map(|i| heap.malloc_on(i, 64).unwrap())
            .collect();
        for (i, a) in caps.iter().enumerate() {
            for b in &caps[i + 1..] {
                assert_ne!(a.base(), b.base());
            }
        }
        // Every cap frees back through address routing.
        for c in caps {
            heap.free(c).unwrap();
        }
    }

    #[test]
    fn handles_pin_round_robin() {
        let heap = service();
        let shards: Vec<_> = (0..heap.shards() * 2)
            .map(|_| heap.handle().shard())
            .collect();
        assert_eq!(&shards[..heap.shards()], &shards[heap.shards()..]);
    }

    #[test]
    fn cross_shard_stash_is_revoked() {
        let heap = service();
        // Victim on shard 0, stash slot on shard 1.
        let victim = heap.malloc_on(0, 64).unwrap();
        let stash = heap.malloc_on(1, 16).unwrap();
        heap.store_u64(&victim, 0, 0xfeed).unwrap();
        heap.store_cap(&stash, 0, &victim).unwrap();
        heap.free(victim).unwrap();
        heap.revoke_all_now();
        let dangling = heap.load_cap(&stash, 0).unwrap();
        assert!(!dangling.tag(), "cross-shard copy survived revocation");
        assert_eq!(heap.quarantined_bytes(), 0, "quarantine drained");
    }

    #[test]
    fn same_shard_uaf_still_caught() {
        let heap = service();
        let victim = heap.malloc_on(2, 64).unwrap();
        let stash = heap.malloc_on(2, 16).unwrap();
        heap.store_cap(&stash, 0, &victim).unwrap();
        heap.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(!heap.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn revoked_memory_is_reusable_and_new_caps_live() {
        let heap = service();
        let a = heap.malloc_on(0, 256).unwrap();
        let stash = heap.malloc_on(1, 16).unwrap();
        heap.store_cap(&stash, 0, &a).unwrap();
        let old_base = a.base();
        heap.free(a).unwrap();
        heap.revoke_all_now();
        // The address range comes back…
        let b = heap.malloc_on(0, 256).unwrap();
        assert_eq!(b.base(), old_base, "drained memory is reusable");
        // …and a fresh capability to it is NOT filtered by stale barrier
        // state.
        heap.store_cap(&stash, 0, &b).unwrap();
        assert!(heap.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn oom_triggers_cross_shard_revocation() {
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = f64::INFINITY; // revoker never fires
        let heap = ConcurrentHeap::new(config).unwrap();
        let blocks: Vec<_> = (0..15)
            .map(|_| heap.malloc_on(0, 64 << 10).unwrap())
            .collect();
        for b in blocks {
            heap.free(b).unwrap();
        }
        assert!(heap.quarantined_bytes() > 0);
        let c = heap.malloc_on(0, 512 << 10).unwrap();
        assert!(c.tag());
        assert_eq!(heap.stats().oom_revocations, 1);
    }

    #[test]
    fn background_revoker_drains_quarantine() {
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = 0.25;
        let heap = ConcurrentHeap::new(config).unwrap();
        let client = heap.handle();
        let live: Vec<_> = (0..16).map(|_| client.malloc(4096).unwrap()).collect();
        for _ in 0..200 {
            let t = client.malloc(4096).unwrap();
            client.free(t).unwrap();
        }
        // An epoch is due once quarantine reaches a fraction of the live
        // bytes, so with live blocks left a remainder freed after the last
        // epoch sealed could stay below that trigger for good. With nothing
        // live every quarantined byte is due, whatever the interleaving.
        for c in live {
            client.free(c).unwrap();
        }
        heap.kick_revoker();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = heap.stats();
            if stats.epochs > 0 && heap.quarantined_bytes() == 0 {
                assert!(stats.foreign_sweeps > 0, "handshake ran");
                assert!(stats.pauses.count() > 0, "pauses recorded");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "revoker never drained quarantine"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn concurrent_mutators_allocate_and_free_safely() {
        let heap = service();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = heap.handle();
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..500u64 {
                        let c = client.malloc(64 + (i % 8) * 32).unwrap();
                        client.store_u64(&c, 0, i).unwrap();
                        held.push(c);
                        if held.len() > 8 {
                            let victim = held.swap_remove((i % 8) as usize);
                            let expect = client.load_u64(&victim, 0).unwrap();
                            assert!(expect < 500);
                            client.free(victim).unwrap();
                        }
                    }
                    for c in held {
                        client.free(c).unwrap();
                    }
                });
            }
        });
        let stats = heap.stats();
        let mallocs: u64 = stats.shards.iter().map(|s| s.mallocs).sum();
        let frees: u64 = stats.shards.iter().map(|s| s.frees).sum();
        assert_eq!(mallocs, 4 * 500);
        assert_eq!(frees, 4 * 500);
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
    }

    #[test]
    fn foreign_caps_register_in_stats() {
        let heap = service();
        let victim = heap.malloc_on(0, 64).unwrap();
        let stash = heap.malloc_on(1, 16).unwrap();
        heap.store_cap(&stash, 0, &victim).unwrap();
        heap.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(heap.stats().foreign_caps_revoked >= 1);
    }

    #[test]
    fn telemetry_registry_tracks_service_lifecycle() {
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        let heap = ConcurrentHeap::new(config).unwrap();
        let victim = heap.malloc_on(0, 64).unwrap();
        let stash = heap.malloc_on(1, 16).unwrap();
        heap.store_cap(&stash, 0, &victim).unwrap();
        heap.free(victim).unwrap();
        heap.revoke_all_now();
        let snap = heap.snapshot();
        assert!(snap.counters["cvk_alloc_mallocs_total"] >= 2);
        assert!(snap.counters["cvk_alloc_frees_total"] >= 1);
        assert!(snap.counters["cvk_service_epochs_total"] >= 1);
        assert!(snap.counters["cvk_service_foreign_sweeps_total"] >= 3);
        assert!(snap.counters["cvk_heap_epochs_total"] >= 1);
        assert!(snap.counters["cvk_sweeps_total"] >= 1);
        assert!(snap.histograms["cvk_service_pause_ns"].count() > 0);
        // The quarantine drained, so its gauge is back to zero.
        assert_eq!(snap.gauges["cvk_alloc_quarantined_bytes"], 0);
        // Lifecycle events were traced, including the cross-shard
        // handshake.
        let events = heap.telemetry().recent_events(64);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ForeignSweep { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::EpochRetired { .. })));
        // Both exporters render the service metrics.
        let prom = snap.to_prometheus();
        assert!(prom.contains("cvk_service_pause_ns_count"));
        assert!(prom.contains("cvk_service_epochs_total"));
        assert!(snap.to_json().contains("\"cvk_service_epochs_total\""));
    }

    #[test]
    fn telemetry_disabled_by_default() {
        let heap = service();
        let c = heap.malloc_on(0, 64).unwrap();
        heap.free(c).unwrap();
        heap.revoke_all_now();
        assert!(!heap.telemetry().is_enabled());
        let snap = heap.snapshot();
        assert!(snap.counters.is_empty());
        assert!(heap.telemetry().recent_events(8).is_empty());
        // ServiceStats pause accounting still works without the registry.
        assert!(heap.stats().pauses.count() > 0);
    }

    #[test]
    fn config_validation_clamps_and_rejects() {
        // Repairable: zero shards clamps to one (with a warning).
        let heap = ConcurrentHeap::new(ServiceConfig {
            shards: 0,
            ..ServiceConfig::small()
        })
        .unwrap();
        assert_eq!(heap.shards(), 1);
        drop(heap);
        // Unrepairable: a non-positive quarantine fraction is a typed error.
        let mut config = ServiceConfig::small();
        config.policy.quarantine.fraction = 0.0;
        assert!(matches!(
            ConcurrentHeap::new(config),
            Err(HeapError::InvalidConfig(_))
        ));
        let mut config = ServiceConfig::small();
        config.pacer.headroom = f64::NAN;
        assert!(matches!(
            ConcurrentHeap::new(config),
            Err(HeapError::InvalidConfig(_))
        ));
    }

    #[test]
    fn exhausted_heap_returns_typed_oom() {
        // One shard, nothing freed: the emergency sweep has nothing to
        // reclaim and the typed terminal error comes back — no panic.
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::small()
        };
        let heap = ConcurrentHeap::new(config).unwrap();
        let mut held = Vec::new();
        let err = loop {
            match heap.malloc_on(0, 64 << 10) {
                Ok(cap) => held.push(cap),
                Err(e) => break e,
            }
            assert!(held.len() < 1 << 10, "1 MiB shard never filled");
        };
        assert!(matches!(err, HeapError::OutOfMemory { .. }), "got {err:?}");
        // The service is still operational after reporting OOM.
        for cap in held {
            heap.free(cap).unwrap();
        }
        heap.revoke_all_now();
        assert!(heap.malloc_on(0, 64 << 10).is_ok());
    }

    #[test]
    fn supervisor_restarts_dead_revoker() {
        use crate::fault::{FaultInjector, FaultPlan};
        // The revoker dies on its first three wakeups, then stays up.
        let plan: FaultPlan = "revoker_death@1/1x3".parse().unwrap();
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        config.revoker_watchdog = Duration::from_millis(5);
        let heap = ConcurrentHeap::with_faults(config, FaultInjector::new(plan)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while heap.stats().revoker_restarts < 3 || !heap.revoker_alive() {
            assert!(Instant::now() < deadline, "supervisor never recovered");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Recovery is observable in telemetry, and the healed service
        // still revokes.
        let events = heap.telemetry().recent_events(64);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RevokerRestarted { cause: "death", .. })));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::FaultInjected {
                point: "revoker_death",
                ..
            }
        )));
        let victim = heap.malloc_on(0, 64).unwrap();
        let stash = heap.malloc_on(1, 16).unwrap();
        heap.store_cap(&stash, 0, &victim).unwrap();
        heap.free(victim).unwrap();
        heap.revoke_all_now();
        assert!(!heap.load_cap(&stash, 0).unwrap().tag());
    }

    #[test]
    fn supervisor_supersedes_stalled_revoker() {
        let mut config = ServiceConfig::small();
        config.telemetry = true;
        config.revoker_watchdog = Duration::from_millis(2);
        let heap = ConcurrentHeap::new(config).unwrap();
        // Wedge the revoker: its pass blocks on shard 0's lock, its
        // heartbeat goes stale, and the watchdog must fire.
        let guard = heap.inner.lock(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        // stats() takes shard locks (we hold one); probe the registry
        // counter instead.
        while heap.snapshot().counters["cvk_service_revoker_restarts_total"] == 0 {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        let events = heap.telemetry().recent_events(64);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RevokerRestarted { cause: "stall", .. })));
        // Superseded generations unwedge and retire; the service drains.
        let c = heap.malloc_on(0, 64).unwrap();
        heap.free(c).unwrap();
        heap.revoke_all_now();
        assert_eq!(heap.quarantined_bytes(), 0);
    }

    #[test]
    fn frees_route_across_clients() {
        let heap = service();
        let a = heap.handle(); // shard 0
        let b = heap.handle(); // shard 1
        let cap = a.malloc(128).unwrap();
        // The other client can free it: routing is by address, not pin.
        b.free(cap).unwrap();
        let stats = heap.stats();
        assert_eq!(stats.shards[a.shard()].frees, 1);
    }
}

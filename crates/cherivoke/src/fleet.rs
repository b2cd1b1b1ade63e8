//! Fleet-scale multi-tenant revocation service: many tenant heaps, one
//! global sweep scheduler, a shared work-stealing sweep-worker pool.
//!
//! [`crate::ConcurrentHeap`] tunes CHERIvoke's amortisation trade-off
//! (PAPER.md §4) for *one* heap; a production service hosts hundreds of
//! independent heaps under skewed traffic. [`HeapService`] is that layer:
//!
//! * **Tenants.** Each tenant owns a private [`CherivokeHeap`] in a
//!   disjoint address range (same layout rule as the service's shards:
//!   `base + tenant · stride`). Capabilities are *tenant-isolated*: a
//!   capability minted by tenant A can never be stored into tenant B's
//!   heap ([`FleetError::CrossTenantStore`]). Isolation is what replaces
//!   the service's cross-shard foreign-sweep handshake — there is no
//!   address-space overlap and no cross-tenant capability flow, so one
//!   tenant's epoch never has to sweep another tenant's memory, and a
//!   revoked capability from tenant A cannot resurrect through tenant
//!   B's reuse (their bases can never alias). In-tenant flows during an
//!   epoch are covered by the heap's own epoch barrier, exactly as for a
//!   single [`CherivokeHeap`].
//!
//! * **Global sweep scheduler.** Sweep bandwidth is arbitrated by a
//!   *debt* run queue: `debt = priority · (quarantine / heap size) /
//!   target overhead` (the policy's quarantine fraction). Workers pull
//!   the highest-debt tenant with `debt ≥ 1`; when nobody is due, a
//!   round-robin cursor picks the next tenant with any quarantine at
//!   all, so cold tenants still drain ([`FaultPoint::SchedulerSkip`]
//!   chaos-proves the fallback keeps every epoch live).
//!
//! * **Budgets and admission control.** Each tenant's
//!   [`TenantPolicy::quarantine_quota`] is a hard bound enforced in
//!   three escalating stages: past `fraction × quota` the tenant is
//!   *due* (scheduler work); past [`THROTTLE_FRACTION`] of quota,
//!   `malloc` returns the typed backpressure error
//!   [`FleetError::TenantThrottled`]; and a `free` that would cross the
//!   quota runs a synchronous drain *first*, so quarantine never
//!   exceeds the budget. A fleet-wide ceiling
//!   ([`FleetConfig::global_ceiling`]) triggers an emergency global
//!   sweep before any tenant can see an out-of-memory error.
//!
//! * **Work-stealing.** The shared worker pool executes epochs as
//!   bounded slices ([`CherivokeHeap::revoke_step`], which runs on the
//!   heap's `ParallelSweepEngine` + `SweepScratch`). A worker with no
//!   runnable tenant does not idle: it *steals* the next slice of the
//!   busiest in-flight epoch (largest remaining bytes), keeping the
//!   heaviest tenant's epoch continuously serviced even while its owner
//!   is descheduled or stalled ([`FaultPoint::TenantStall`]).
//!
//! ```
//! use cherivoke::fleet::{FleetConfig, HeapService};
//!
//! let service = HeapService::new(FleetConfig::with_tenants(4)).unwrap();
//! let a = service.client(0).unwrap();
//! let obj = a.malloc(64).unwrap();
//! a.store_u64(&obj, 0, 7).unwrap();
//! a.free(obj).unwrap();
//! service.drain_all();
//! assert_eq!(service.global_quarantined(), 0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cheri::Capability;
use faultinject::{FaultInjector, FaultPoint};
use journal::Journal;
use telemetry::{Counter, EventKind, MetricsSnapshot, Registry};

use crate::recovery::{journal_dir_from_env, warn_once, HeapImage, ImageChunkState};
use crate::stats::{PauseHistogram, PauseSnapshot};
use crate::{
    CherivokeHeap, HeapConfig, HeapError, RecoveryError, RecoveryReport, RevocationPolicy,
};

/// Hard ceiling on the tenant count — beyond this the per-free global
/// accounting and the scheduler's O(tenants) debt scan stop being
/// sensible, and the config is rejected rather than repaired.
pub const MAX_FLEET_TENANTS: usize = 4096;

/// Smallest admissible per-tenant quarantine quota. Quotas below this
/// clamp up (a quota under one sweep slice would drain on every free),
/// and the global ceiling must cover at least this much per tenant.
pub const MIN_TENANT_QUOTA: u64 = 64 << 10;

/// Fraction of a tenant's quota past which `malloc` starts returning
/// [`FleetError::TenantThrottled`] — backpressure engages *before* the
/// hard budget bound so callers can shed or self-throttle while the
/// scheduler catches up.
pub const THROTTLE_FRACTION: f64 = 0.75;

/// Per-tenant scheduling and budget policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Hard quarantine budget in bytes. Enforced synchronously: a free
    /// that would push quarantine past the quota drains the tenant
    /// first, so the bound holds at every operation boundary.
    pub quarantine_quota: u64,
    /// Scheduling weight: debt is multiplied by this, so a priority-2
    /// tenant is swept at half the relative quarantine of a priority-1
    /// tenant. Zero clamps to 1.
    pub priority: u32,
    /// Declared per-slice pause bound. Caps the slice byte budget
    /// (conservatively priced at 1 byte/ns) and is the bound the fleet
    /// `p99` pause verdict gates against.
    pub max_pause: Duration,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            quarantine_quota: 512 << 10,
            priority: 1,
            max_pause: Duration::from_millis(5),
        }
    }
}

/// Configuration for a [`HeapService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of tenant heaps.
    pub tenants: usize,
    /// Heap bytes per tenant (rounded up to CHERI-representable bounds).
    pub tenant_heap_size: u64,
    /// Fleet-wide quarantine ceiling in bytes. Crossing it triggers an
    /// emergency global sweep — memory pressure drains the whole fleet
    /// before any tenant sees an out-of-memory error.
    pub global_ceiling: u64,
    /// Shared sweep-worker pool size (threads executing epoch slices and
    /// stealing from busy tenants).
    pub workers: usize,
    /// Revocation policy template applied to every tenant heap. The
    /// quarantine fraction doubles as the scheduler's target overhead in
    /// the debt metric; kernel / `sweep_workers` / backend flow through
    /// to each tenant's sweep engine.
    pub policy: RevocationPolicy,
    /// Default per-tenant policy (overridable per tenant via
    /// [`HeapService::set_tenant_policy`]).
    pub tenant_policy: TenantPolicy,
    /// How long an idle worker parks before rescanning the run queue.
    pub scheduler_interval: Duration,
    /// Enables telemetry: fleet-aggregate counters and the fleet pause
    /// histogram, plus tenant-labelled per-tenant series
    /// (`cvk_fleet_tenant_*{tenant="N"}`), all in one shared
    /// [`telemetry::Registry`].
    pub telemetry: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        let tenant_policy = TenantPolicy::default();
        FleetConfig {
            tenants: 8,
            tenant_heap_size: 1 << 20,
            global_ceiling: 8 * tenant_policy.quarantine_quota,
            workers: 2,
            policy: RevocationPolicy::paper_default(),
            tenant_policy,
            scheduler_interval: Duration::from_micros(200),
            telemetry: false,
        }
    }
}

impl FleetConfig {
    /// The default config resized to `tenants` tenants, with the global
    /// ceiling scaled to match (`tenants × quota`).
    pub fn with_tenants(tenants: usize) -> FleetConfig {
        let mut c = FleetConfig::default();
        c.tenants = tenants;
        c.global_ceiling = tenants as u64 * c.tenant_policy.quarantine_quota;
        c
    }

    /// Validates and repairs the configuration, in the same clamp+warn
    /// idiom as [`crate::ServiceConfig::validated`]: unrepairable
    /// inconsistencies are rejected as [`HeapError::InvalidConfig`],
    /// repairable ones are clamped with a warning describing the repair.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] when the tenant count exceeds
    /// [`MAX_FLEET_TENANTS`], the tenant quota is zero, the global
    /// ceiling cannot cover [`MIN_TENANT_QUOTA`] per tenant, or the
    /// embedded [`RevocationPolicy`] is itself invalid.
    pub fn validated(mut self) -> Result<(FleetConfig, Vec<String>), HeapError> {
        let mut warnings = Vec::new();
        if self.tenants == 0 {
            warnings.push("fleet tenant count 0 raised to 1".to_string());
            self.tenants = 1;
        }
        if self.tenants > MAX_FLEET_TENANTS {
            return Err(HeapError::InvalidConfig(
                "fleet tenant count exceeds MAX_FLEET_TENANTS",
            ));
        }
        if self.tenant_heap_size < (64 << 10) {
            warnings.push(format!(
                "tenant heap size {} raised to the 64 KiB floor",
                self.tenant_heap_size
            ));
            self.tenant_heap_size = 64 << 10;
        }
        if self.workers == 0 {
            warnings.push("fleet worker pool size 0 raised to 1".to_string());
            self.workers = 1;
        }
        if self.workers > revoker::MAX_SWEEP_WORKERS {
            warnings.push(format!(
                "fleet worker pool size {} clamped to {}",
                self.workers,
                revoker::MAX_SWEEP_WORKERS
            ));
            self.workers = revoker::MAX_SWEEP_WORKERS;
        }
        if self.tenant_policy.quarantine_quota == 0 {
            return Err(HeapError::InvalidConfig(
                "tenant quarantine quota must be positive",
            ));
        }
        if self.tenant_policy.quarantine_quota < MIN_TENANT_QUOTA {
            warnings.push(format!(
                "tenant quarantine quota {} raised to the {} floor",
                self.tenant_policy.quarantine_quota, MIN_TENANT_QUOTA
            ));
            self.tenant_policy.quarantine_quota = MIN_TENANT_QUOTA;
        }
        if self.tenant_policy.quarantine_quota > self.tenant_heap_size {
            warnings.push("tenant quarantine quota clamped to the tenant heap size".to_string());
            self.tenant_policy.quarantine_quota = self.tenant_heap_size;
        }
        if self.tenant_policy.priority == 0 {
            warnings.push("tenant priority 0 raised to 1".to_string());
            self.tenant_policy.priority = 1;
        }
        if self.tenant_policy.max_pause.is_zero() {
            warnings.push("tenant max pause 0 raised to 50µs".to_string());
            self.tenant_policy.max_pause = Duration::from_micros(50);
        }
        if self.scheduler_interval.is_zero() {
            warnings.push("fleet scheduler interval 0 raised to 50µs".to_string());
            self.scheduler_interval = Duration::from_micros(50);
        }
        // The ceiling must be able to host every tenant at the minimum
        // quota — a smaller ceiling guarantees emergency sweeps in a
        // steady state, which is a misconfiguration, not a policy.
        if self.global_ceiling < self.tenants as u64 * MIN_TENANT_QUOTA {
            return Err(HeapError::InvalidConfig(
                "fleet global ceiling is below the sum of minimum tenant quotas",
            ));
        }
        let (policy, policy_warnings) = self.policy.validated()?;
        self.policy = policy;
        warnings.extend(policy_warnings);
        Ok((self, warnings))
    }
}

/// Per-tenant heap policy derived from the fleet template, shared by
/// construction and crash recovery so both build identical heaps:
/// tenants never self-trigger revocation or sweep on OOM — the fleet
/// scheduler owns both decisions. Returns the policy and the shared
/// slice byte budget.
fn fleet_heap_policy(config: &FleetConfig) -> (RevocationPolicy, u64) {
    let slice_bytes = (config.tenant_heap_size / 16).clamp(64 << 10, 1 << 20);
    let mut heap_policy = config.policy;
    heap_policy.quarantine.fraction = f64::INFINITY;
    heap_policy.strict = false;
    heap_policy.sweep_on_oom = false;
    heap_policy.incremental_slice_bytes = Some(slice_bytes);
    (heap_policy, slice_bytes)
}

/// Tenant address-space layout: `(first_base, stride, rounded_size)`.
/// Tenant `i`'s heap lives at `first_base + i·stride`, sized
/// `rounded_size`. Shared by construction and crash recovery so a
/// recovered image always lands on the extent it was captured from.
fn tenant_layout(config: &FleetConfig) -> (u64, u64, u64) {
    let rounded = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
        config.tenant_heap_size,
    ));
    let stride = rounded.next_power_of_two();
    (stride.max(0x1000_0000), stride, rounded)
}

/// Persisted crash artifacts for one tenant: the heap image written at
/// the crash point plus that tenant's epoch journal bytes (see the
/// [`crate::recovery`] module). Feed a batch to [`HeapService::recover`].
#[derive(Debug, Clone)]
pub struct TenantCrashArtifact {
    /// Which tenant the artifacts belong to. At most one artifact per
    /// tenant; when duplicates are supplied the later one wins.
    pub tenant: usize,
    /// Encoded [`HeapImage`] bytes.
    pub image: Vec<u8>,
    /// Raw journal bytes. Torn tails are tolerated — they classify as
    /// the interrupted step they tore in.
    pub journal: Vec<u8>,
}

/// Outcome of recovering one tenant in [`HeapService::recover`].
#[derive(Debug)]
pub struct TenantRecovery {
    /// The recovered tenant.
    pub tenant: usize,
    /// The debt-scheduler key its recovery order used (higher = sooner).
    pub debt: f64,
    /// The per-heap recovery report, including the safety audit.
    pub report: RecoveryReport,
}

/// The ways a fleet operation can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Typed backpressure: the tenant's quarantine crossed
    /// [`THROTTLE_FRACTION`] of its quota, so new allocations are
    /// refused until the sweep scheduler (or an explicit
    /// [`HeapService::drain_tenant`]) catches up. Retryable.
    TenantThrottled {
        /// The throttled tenant.
        tenant: usize,
        /// Its quarantine at the time of the refusal.
        quarantined: u64,
        /// Its configured quota.
        quota: u64,
    },
    /// The tenant index is outside the fleet.
    NoSuchTenant {
        /// The requested index.
        tenant: usize,
    },
    /// A capability minted by one tenant was used in another tenant's
    /// heap. Tenant isolation is the fleet's cross-tenant safety
    /// argument, so these are refused rather than swept.
    CrossTenantStore {
        /// Tenant owning the capability.
        from: usize,
        /// Tenant owning the destination memory.
        to: usize,
    },
    /// The underlying heap operation failed.
    Heap(HeapError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::TenantThrottled {
                tenant,
                quarantined,
                quota,
            } => write!(
                f,
                "tenant {tenant} throttled: quarantine {quarantined} of quota {quota}"
            ),
            FleetError::NoSuchTenant { tenant } => write!(f, "no such tenant {tenant}"),
            FleetError::CrossTenantStore { from, to } => write!(
                f,
                "cross-tenant store refused: capability of tenant {from} into tenant {to}"
            ),
            FleetError::Heap(e) => write!(f, "heap error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for FleetError {
    fn from(e: HeapError) -> FleetError {
        FleetError::Heap(e)
    }
}

/// Point-in-time statistics for one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant index.
    pub tenant: usize,
    /// Lifetime mallocs.
    pub mallocs: u64,
    /// Lifetime frees.
    pub frees: u64,
    /// Current quarantine bytes.
    pub quarantined_bytes: u64,
    /// Configured quarantine quota.
    pub quota: u64,
    /// Completed revocation epochs.
    pub epochs: u64,
    /// `malloc` refusals due to throttling.
    pub throttled: u64,
}

/// Point-in-time statistics for the whole fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-tenant rows, tenant 0 first.
    pub tenants: Vec<TenantStats>,
    /// Completed epochs across the fleet.
    pub epochs: u64,
    /// Epoch slices executed by a worker that *stole* them from another
    /// worker's in-flight epoch instead of idling.
    pub steals: u64,
    /// Scheduler picks dropped by the `scheduler_skip` fault point.
    pub scheduler_skips: u64,
    /// Total `malloc` refusals due to per-tenant throttling.
    pub throttled: u64,
    /// Emergency synchronous sweeps (quota crossings and global-ceiling
    /// crossings).
    pub emergency_sweeps: u64,
    /// Current fleet-wide quarantine bytes.
    pub global_quarantined: u64,
    /// Fleet-aggregate sweep-pause histogram (every epoch slice by every
    /// worker, stolen or not).
    pub pauses: PauseSnapshot,
}

impl FleetStats {
    /// Largest quarantine-to-quota ratio across tenants (1.0 = at
    /// budget). The budget-boundedness acceptance metric.
    pub fn max_budget_fraction(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.quarantined_bytes as f64 / t.quota.max(1) as f64)
            .fold(0.0, f64::max)
    }
}

/// One tenant heap plus its scheduling state.
struct Tenant {
    heap: Mutex<CherivokeHeap>,
    base: u64,
    size: u64,
    // Policy fields are atomics so `set_tenant_policy` never contends
    // with the hot paths (quota/priority reads on every free/schedule).
    quota: AtomicU64,
    priority: AtomicU64,
    max_pause_ns: AtomicU64,
    // Quarantine hint maintained by every lock holder; the scheduler and
    // admission control read it lock-free.
    quarantined_hint: AtomicU64,
    // Claimed by a worker running this tenant's epoch (advisory — actual
    // exclusion is the heap mutex; the flag only steers scheduling).
    sweeping: AtomicBool,
    // Remaining epoch bytes, updated after every slice: the steal
    // victim-selection key.
    remaining_hint: AtomicU64,
    mallocs: AtomicU64,
    frees: AtomicU64,
    epochs: AtomicU64,
    throttled: AtomicU64,
    t_mallocs: Counter,
    t_frees: Counter,
    t_quarantine: telemetry::Gauge,
}

impl Tenant {
    fn quota(&self) -> u64 {
        self.quota.load(Ordering::Relaxed)
    }

    /// Refreshes the lock-free quarantine hint from the locked heap and
    /// returns the new value, keeping the fleet-global total in step.
    fn sync_hints(&self, heap: &CherivokeHeap, global: &AtomicU64) -> u64 {
        let q = heap.quarantined_bytes();
        let old = self.quarantined_hint.swap(q, Ordering::Relaxed);
        // Signed delta on an unsigned atomic: wrapping arithmetic keeps
        // the sum exact as long as every update goes through here.
        global.fetch_add(q.wrapping_sub(old), Ordering::Relaxed);
        self.t_quarantine.offset(q as i64 - old as i64);
        q
    }
}

struct FleetInner {
    tenants: Vec<Tenant>,
    config: FleetConfig,
    slice_bytes: u64,
    global_quarantine: AtomicU64,
    rr_cursor: AtomicUsize,
    epochs: AtomicU64,
    steals: AtomicU64,
    scheduler_skips: AtomicU64,
    throttled: AtomicU64,
    emergency_sweeps: AtomicU64,
    pauses: PauseHistogram,
    faults: FaultInjector,
    registry: Registry,
    f_epochs: Counter,
    f_steals: Counter,
    f_throttled: Counter,
    f_emergency: Counter,
    f_skips: Counter,
    stop: AtomicBool,
    park: Mutex<bool>,
    wake: Condvar,
}

/// What a worker decided to do with one scheduling pass.
enum Task {
    /// Claimed tenant `i` (debt order or round-robin fallback): run its
    /// epoch to completion.
    Run(usize),
    /// Nothing claimable, but tenant `i` has an in-flight epoch with the
    /// most remaining bytes: steal its next slice.
    Steal(usize),
    /// Nothing to do: park until kicked or the scheduler interval.
    Idle,
}

/// Outcome of one epoch slice.
enum Slice {
    Progress,
    Done,
    Inactive,
}

impl FleetInner {
    fn lock(&self, i: usize) -> MutexGuard<'_, CherivokeHeap> {
        match self.tenants[i].heap.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn tenant_of(&self, base: u64) -> Option<usize> {
        self.tenants
            .iter()
            .position(|t| base >= t.base && base < t.base + t.size)
    }

    fn note_fault(&self, point: FaultPoint, tenant: usize) {
        self.registry.event(EventKind::FaultInjected {
            point: point.name(),
            shard: tenant,
        });
    }

    fn note_emergency(&self, tenant: usize) {
        self.emergency_sweeps.fetch_add(1, Ordering::Relaxed);
        self.f_emergency.inc();
        self.registry
            .event(EventKind::EmergencySweep { shard: tenant });
    }

    fn kick(&self) {
        let mut kicked = match self.park.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *kicked = true;
        drop(kicked);
        self.wake.notify_all();
    }

    // --- Mutator-facing operations ------------------------------------

    fn malloc(&self, tenant: usize, size: u64) -> Result<Capability, FleetError> {
        let t = self
            .tenants
            .get(tenant)
            .ok_or(FleetError::NoSuchTenant { tenant })?;
        // Admission control: typed backpressure once quarantine crosses
        // the throttle mark. The scheduler is kicked so a well-behaved
        // caller's retry finds the debt already being worked off.
        let quota = t.quota();
        let quarantined = t.quarantined_hint.load(Ordering::Relaxed);
        if (quarantined as f64) >= THROTTLE_FRACTION * quota as f64 {
            t.throttled.fetch_add(1, Ordering::Relaxed);
            self.throttled.fetch_add(1, Ordering::Relaxed);
            self.f_throttled.inc();
            self.kick();
            return Err(FleetError::TenantThrottled {
                tenant,
                quarantined,
                quota,
            });
        }
        let result = self.lock(tenant).malloc(size);
        match result {
            Ok(cap) => {
                t.mallocs.fetch_add(1, Ordering::Relaxed);
                t.t_mallocs.inc();
                Ok(cap)
            }
            Err(HeapError::OutOfMemory { .. })
                if self.global_quarantine.load(Ordering::Relaxed) > 0 =>
            {
                // Emergency global sweep before any tenant sees OOM: the
                // tenant's own quarantine is what can satisfy *this*
                // request (address ranges are disjoint), but the global
                // drain also resets fleet-wide pressure in one pass.
                self.note_emergency(tenant);
                self.drain_all();
                let cap = self.lock(tenant).malloc(size)?;
                t.mallocs.fetch_add(1, Ordering::Relaxed);
                t.t_mallocs.inc();
                Ok(cap)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn free(&self, cap: Capability) -> Result<(), FleetError> {
        let base = cap.base();
        let tenant = self
            .tenant_of(base)
            .ok_or(FleetError::Heap(HeapError::NotAnAllocation { base }))?;
        let t = &self.tenants[tenant];
        let quota = t.quota();
        // Hard budget bound, enforced *before* the quarantine grows: if
        // this free would cross the quota, drain synchronously first.
        // The freer pays for the sweep — the paper's synchronous design,
        // surfacing exactly at the configured budget.
        if t.quarantined_hint.load(Ordering::Relaxed) + cap.length() > quota {
            self.note_emergency(tenant);
            self.drain_tenant(tenant);
        }
        let quarantined = {
            let mut heap = self.lock(tenant);
            heap.free(cap)?;
            t.sync_hints(&heap, &self.global_quarantine)
        };
        t.frees.fetch_add(1, Ordering::Relaxed);
        t.t_frees.inc();
        // Global ceiling: fleet-wide memory pressure drains everyone
        // before it can turn into a tenant-visible OOM.
        if self.global_quarantine.load(Ordering::Relaxed) > self.config.global_ceiling {
            self.note_emergency(tenant);
            self.drain_all();
        } else if self.debt(tenant, quarantined) >= 1.0 {
            self.kick();
        }
        Ok(())
    }

    fn with_tenant<R>(
        &self,
        cap: &Capability,
        f: impl FnOnce(&mut CherivokeHeap) -> Result<R, HeapError>,
    ) -> Result<R, FleetError> {
        let base = cap.base();
        let tenant = self
            .tenant_of(base)
            .ok_or(FleetError::Heap(HeapError::NotAnAllocation { base }))?;
        f(&mut self.lock(tenant)).map_err(FleetError::from)
    }

    // --- Scheduling ----------------------------------------------------

    /// The debt metric: how far past its target quarantine overhead the
    /// tenant is, weighted by priority. `≥ 1.0` means due.
    fn debt(&self, tenant: usize, quarantined: u64) -> f64 {
        let t = &self.tenants[tenant];
        let target = self.config.policy.quarantine.fraction;
        if !target.is_finite() || target <= 0.0 {
            return 0.0;
        }
        t.priority.load(Ordering::Relaxed) as f64 * (quarantined as f64 / t.size as f64) / target
    }

    /// Claims tenant `i` for epoch execution (advisory flag steering the
    /// run queue; the heap mutex is the actual exclusion).
    fn claim(&self, i: usize) -> bool {
        self.tenants[i]
            .sweeping
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn unclaim(&self, i: usize) {
        self.tenants[i].sweeping.store(false, Ordering::Release);
    }

    /// One scheduling pass: debt order first, round-robin fallback for
    /// cold tenants, stealing when everything runnable is already
    /// claimed.
    fn next_task(&self) -> Task {
        // 1. Highest-debt due tenant not already claimed.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.tenants.len() {
            if self.tenants[i].sweeping.load(Ordering::Acquire) {
                continue;
            }
            let q = self.tenants[i].quarantined_hint.load(Ordering::Relaxed);
            let debt = self.debt(i, q);
            if debt >= 1.0 && best.is_none_or(|(_, d)| debt > d) {
                best = Some((i, debt));
            }
        }
        if let Some((i, _)) = best {
            if self.claim(i) {
                if self.faults.should_fire(FaultPoint::SchedulerSkip) {
                    // A buggy arbiter drops its pick. Liveness survives
                    // because the debt is still on the queue: the next
                    // pass (any worker) re-selects the tenant.
                    self.note_fault(FaultPoint::SchedulerSkip, i);
                    self.scheduler_skips.fetch_add(1, Ordering::Relaxed);
                    self.f_skips.inc();
                    self.unclaim(i);
                    return Task::Idle;
                }
                return Task::Run(i);
            }
        }
        // 2. Steal before opening a cold epoch: if an in-flight epoch
        // still holds at least a full slice of worklist, helping it
        // finish bounds the fleet pause tail better than starting a
        // tenant whose debt never even reached 1 — the due scan above
        // already guaranteed nobody urgent is waiting. Due tenants keep
        // absolute priority, so this cannot starve them; cold tenants
        // drain via the fallback below as soon as the hot epochs end.
        let n = self.tenants.len();
        let victim = (0..n)
            .filter(|&i| self.tenants[i].sweeping.load(Ordering::Acquire))
            .max_by_key(|&i| self.tenants[i].remaining_hint.load(Ordering::Relaxed));
        if let Some(i) = victim {
            if self.tenants[i].remaining_hint.load(Ordering::Relaxed) >= self.slice_bytes {
                return Task::Steal(i);
            }
        }
        // 3. Round-robin fallback: pick the next tenant (cursor order)
        // with any quarantine at all, so cold tenants drain even though
        // their debt never reaches 1.
        let start = self.rr_cursor.fetch_add(1, Ordering::Relaxed) % n;
        for off in 0..n {
            let i = (start + off) % n;
            if self.tenants[i].quarantined_hint.load(Ordering::Relaxed) == 0 {
                continue;
            }
            if self.tenants[i].sweeping.load(Ordering::Acquire) {
                continue;
            }
            if self.claim(i) {
                return Task::Run(i);
            }
        }
        // 4. Last resort: help any in-flight epoch with work left (even
        // a partial slice) rather than idling.
        match victim {
            Some(i) if self.tenants[i].remaining_hint.load(Ordering::Relaxed) > 0 => Task::Steal(i),
            _ => Task::Idle,
        }
    }

    /// Executes one bounded epoch slice on tenant `i` (owner and thief
    /// share this path). Slice size honours the tenant's declared pause
    /// bound, conservatively priced at 1 byte per nanosecond.
    fn sweep_slice(&self, i: usize) -> Slice {
        let t = &self.tenants[i];
        let budget = self
            .slice_bytes
            .min(t.max_pause_ns.load(Ordering::Relaxed).max(4 << 10));
        let t0 = Instant::now();
        let mut heap = self.lock(i);
        if !heap.revocation_active() {
            t.remaining_hint.store(0, Ordering::Relaxed);
            return Slice::Inactive;
        }
        let done = heap.revoke_step(budget);
        t.remaining_hint
            .store(heap.revocation_remaining_bytes(), Ordering::Relaxed);
        t.sync_hints(&heap, &self.global_quarantine);
        drop(heap);
        self.pauses.record_duration(t0.elapsed());
        if done.is_some() {
            Slice::Done
        } else {
            Slice::Progress
        }
    }

    /// Runs tenant `i`'s epoch to completion (claimed via the run
    /// queue). Slices release the heap lock between steps, so mutators
    /// interleave and idle workers can steal slices of this same epoch.
    fn run_epoch(&self, i: usize) {
        let t = &self.tenants[i];
        let opened = {
            let mut heap = self.lock(i);
            let opened = heap.revocation_active() || heap.begin_revocation();
            if opened {
                t.remaining_hint
                    .store(heap.revocation_remaining_bytes(), Ordering::Relaxed);
            }
            opened
        };
        if !opened {
            self.unclaim(i);
            return;
        }
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.faults.should_fire(FaultPoint::TenantStall) {
                // The owner stalls mid-epoch *without* holding the heap
                // lock: mutators keep running and thieves keep the epoch
                // advancing — the liveness the chaos test checks.
                self.note_fault(FaultPoint::TenantStall, i);
                std::thread::sleep(Duration::from_micros(500));
            }
            match self.sweep_slice(i) {
                Slice::Progress => std::thread::yield_now(),
                Slice::Done | Slice::Inactive => break,
            }
        }
        t.epochs.fetch_add(1, Ordering::Relaxed);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.f_epochs.inc();
        self.registry.event(EventKind::EpochRetired {
            shard: i,
            duration_ns: 0,
        });
        self.unclaim(i);
    }

    /// Synchronously drains tenant `i`'s quarantine to zero. Pumps an
    /// in-flight epoch rather than hijacking it; loops because a colored
    /// backend legitimately seals only part of the quarantine per epoch.
    fn drain_tenant(&self, i: usize) {
        let t = &self.tenants[i];
        loop {
            let t0 = Instant::now();
            let mut heap = self.lock(i);
            if !heap.revocation_active() {
                if heap.quarantined_bytes() == 0 {
                    t.sync_hints(&heap, &self.global_quarantine);
                    t.remaining_hint.store(0, Ordering::Relaxed);
                    return;
                }
                if !heap.begin_revocation() {
                    t.sync_hints(&heap, &self.global_quarantine);
                    return;
                }
            }
            while heap.revoke_step(u64::MAX).is_none() {}
            t.sync_hints(&heap, &self.global_quarantine);
            t.remaining_hint.store(0, Ordering::Relaxed);
            drop(heap);
            self.pauses.record_duration(t0.elapsed());
        }
    }

    fn drain_all(&self) {
        for i in 0..self.tenants.len() {
            self.drain_tenant(i);
        }
    }

    // --- Worker pool ----------------------------------------------------

    fn worker_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            match self.next_task() {
                Task::Run(i) => self.run_epoch(i),
                Task::Steal(i) => {
                    if matches!(self.sweep_slice(i), Slice::Progress | Slice::Done) {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        self.f_steals.inc();
                    }
                }
                Task::Idle => {
                    let guard = match self.park.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    let (mut guard, _) = self
                        .wake
                        .wait_timeout(guard, self.config.scheduler_interval)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    *guard = false;
                }
            }
        }
    }

    fn stats(&self) -> FleetStats {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantStats {
                tenant: i,
                mallocs: t.mallocs.load(Ordering::Relaxed),
                frees: t.frees.load(Ordering::Relaxed),
                quarantined_bytes: t.quarantined_hint.load(Ordering::Relaxed),
                quota: t.quota(),
                epochs: t.epochs.load(Ordering::Relaxed),
                throttled: t.throttled.load(Ordering::Relaxed),
            })
            .collect();
        FleetStats {
            tenants,
            epochs: self.epochs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            scheduler_skips: self.scheduler_skips.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            emergency_sweeps: self.emergency_sweeps.load(Ordering::Relaxed),
            global_quarantined: self.global_quarantine.load(Ordering::Relaxed),
            pauses: self.pauses.snapshot(),
        }
    }
}

/// A fleet of tenant heaps behind a global sweep scheduler and a shared
/// work-stealing sweep-worker pool. See the module docs for the design.
pub struct HeapService {
    inner: Arc<FleetInner>,
    workers: Vec<JoinHandle<()>>,
}

impl HeapService {
    /// Builds the fleet and spawns the shared worker pool, reading the
    /// fault plan from the environment ([`FaultInjector::from_env`]).
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidConfig`] via [`FleetConfig::validated`], or
    /// any tenant-heap construction error.
    pub fn new(config: FleetConfig) -> Result<HeapService, HeapError> {
        HeapService::with_faults(config, FaultInjector::from_env())
    }

    /// As [`HeapService::new`] with an explicit fault injector.
    ///
    /// # Errors
    ///
    /// As [`HeapService::new`].
    pub fn with_faults(
        config: FleetConfig,
        faults: FaultInjector,
    ) -> Result<HeapService, HeapError> {
        let dir = journal_dir_from_env();
        HeapService::with_journal_dir(config, faults, dir.as_deref())
    }

    /// As [`HeapService::with_faults`], with an explicit epoch-journal
    /// directory: each tenant writes its crash-consistency journal to
    /// `dir/tenant-{i}.cvj` (see [`crate::recovery`]). Pass `None` to run
    /// without journaling — the default; `with_faults` reads the
    /// `CHERIVOKE_JOURNAL` knob instead. A journal that cannot be created
    /// degrades that tenant to unjournaled operation with a
    /// once-per-process warning; construction still succeeds.
    ///
    /// # Errors
    ///
    /// As [`HeapService::new`].
    pub fn with_journal_dir(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&std::path::Path>,
    ) -> Result<HeapService, HeapError> {
        HeapService::assemble(
            config,
            faults,
            journal_dir,
            std::collections::HashMap::new(),
        )
    }

    /// Rebuilds a fleet after a crash. Each [`TenantCrashArtifact`] is
    /// replayed through [`CherivokeHeap::recover`] onto the extent the
    /// fleet layout assigns that tenant; tenants without artifacts start
    /// fresh. Recovery runs in **debt-scheduler order** — the same
    /// `priority × quarantine-fraction / target` key the epoch scheduler
    /// uses, computed from the persisted images — so the tenants furthest
    /// past their revocation target are made safe first. Every recovered
    /// tenant's quarantine hint is synced before workers start, so
    /// admission throttling engages immediately.
    ///
    /// Returns the running service plus one [`TenantRecovery`] per
    /// artifact (in recovery order). Callers should gate on
    /// [`RecoveryReport::safe`] before admitting traffic.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::UnknownTenant`] when an artifact names a tenant
    /// outside the validated fleet; otherwise as
    /// [`CherivokeHeap::recover`] and [`HeapService::new`].
    pub fn recover(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&std::path::Path>,
        artifacts: Vec<TenantCrashArtifact>,
    ) -> Result<(HeapService, Vec<TenantRecovery>), RecoveryError> {
        let (config, _) = config.validated()?;
        let (heap_policy, _) = fleet_heap_policy(&config);
        let (first_base, stride, rounded) = tenant_layout(&config);
        // Debt key per artifact, from the persisted image's quarantine
        // bytes. Priorities are uniform at construction (the config
        // default), mirroring `FleetInner::debt` on a fresh fleet.
        let target = config.policy.quarantine.fraction;
        let priority = f64::from(config.tenant_policy.priority.max(1));
        let mut ordered = Vec::with_capacity(artifacts.len());
        for art in artifacts {
            if art.tenant >= config.tenants {
                return Err(RecoveryError::UnknownTenant { tenant: art.tenant });
            }
            let image = HeapImage::decode(&art.image)?;
            let quarantined: u64 = image
                .chunks
                .iter()
                .filter(|c| {
                    matches!(
                        c.state,
                        ImageChunkState::QuarantinedOpen { .. }
                            | ImageChunkState::QuarantinedSealed
                    )
                })
                .map(|c| c.size)
                .sum();
            let fraction = quarantined as f64 / rounded as f64;
            let debt = if target.is_finite() && target > 0.0 {
                priority * fraction / target
            } else {
                fraction
            };
            ordered.push((debt, art));
        }
        ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut recovered = std::collections::HashMap::new();
        let mut reports = Vec::with_capacity(ordered.len());
        for (debt, art) in ordered {
            let base = first_base + art.tenant as u64 * stride;
            let (heap, report) = CherivokeHeap::recover(
                HeapConfig {
                    heap_base: base,
                    heap_size: rounded,
                    policy: heap_policy,
                    ..HeapConfig::default()
                },
                &art.image,
                &art.journal,
            )?;
            recovered.insert(art.tenant, heap);
            reports.push(TenantRecovery {
                tenant: art.tenant,
                debt,
                report,
            });
        }
        let service = HeapService::assemble(config, faults, journal_dir, recovered)?;
        Ok((service, reports))
    }

    fn assemble(
        config: FleetConfig,
        faults: FaultInjector,
        journal_dir: Option<&std::path::Path>,
        mut recovered: std::collections::HashMap<usize, CherivokeHeap>,
    ) -> Result<HeapService, HeapError> {
        let (config, warnings) = config.validated()?;
        for warning in &warnings {
            eprintln!("cherivoke: {warning}");
        }
        // Tenant heaps never self-trigger revocation (the fleet
        // scheduler owns that decision) and never sweep on OOM (the
        // fleet's emergency path owns that too) — the same inversion the
        // concurrent service applies to its shards.
        let (heap_policy, slice_bytes) = fleet_heap_policy(&config);
        let (first_base, stride, rounded) = tenant_layout(&config);
        let registry = if config.telemetry {
            Registry::new(512)
        } else {
            Registry::disabled()
        };
        let mut tenants = Vec::with_capacity(config.tenants);
        for i in 0..config.tenants {
            let base = first_base + i as u64 * stride;
            let mut heap = match recovered.remove(&i) {
                Some(heap) => heap,
                None => CherivokeHeap::new(HeapConfig {
                    heap_base: base,
                    heap_size: rounded,
                    policy: heap_policy,
                    ..HeapConfig::default()
                })?,
            };
            if config.telemetry {
                heap.set_telemetry_for_shard(&registry, i);
            }
            if faults.is_enabled() {
                heap.set_fault_injector(faults.clone());
            }
            if let Some(dir) = journal_dir {
                // Creation failure is degraded mode, not a constructor
                // error: the tenant runs correct-but-unjournaled, like a
                // mid-run journal write failure (DESIGN.md §20).
                let _ = std::fs::create_dir_all(dir);
                match Journal::create(dir.join(format!("tenant-{i}.cvj"))) {
                    Ok(j) => heap.set_journal(j),
                    Err(e) => {
                        warn_once(&format!(
                            "cannot create tenant {i} epoch journal in {}: {e}; \
                             tenant runs unjournaled",
                            dir.display()
                        ));
                    }
                }
            }
            let label = i.to_string();
            tenants.push(Tenant {
                heap: Mutex::new(heap),
                base,
                size: rounded,
                quota: AtomicU64::new(config.tenant_policy.quarantine_quota),
                priority: AtomicU64::new(u64::from(config.tenant_policy.priority)),
                max_pause_ns: AtomicU64::new(
                    config
                        .tenant_policy
                        .max_pause
                        .as_nanos()
                        .min(u64::MAX as u128) as u64,
                ),
                quarantined_hint: AtomicU64::new(0),
                sweeping: AtomicBool::new(false),
                remaining_hint: AtomicU64::new(0),
                mallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                epochs: AtomicU64::new(0),
                throttled: AtomicU64::new(0),
                t_mallocs: registry.counter_labeled(
                    "cvk_fleet_tenant_mallocs_total",
                    "tenant",
                    &label,
                ),
                t_frees: registry.counter_labeled("cvk_fleet_tenant_frees_total", "tenant", &label),
                t_quarantine: registry.gauge_labeled(
                    "cvk_fleet_tenant_quarantined_bytes",
                    "tenant",
                    &label,
                ),
            });
        }
        let pauses = if config.telemetry {
            registry.histogram("cvk_fleet_pause_ns")
        } else {
            PauseHistogram::new()
        };
        let inner = Arc::new(FleetInner {
            tenants,
            slice_bytes,
            global_quarantine: AtomicU64::new(0),
            rr_cursor: AtomicUsize::new(0),
            epochs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            scheduler_skips: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            emergency_sweeps: AtomicU64::new(0),
            pauses,
            faults,
            f_epochs: registry.counter("cvk_fleet_epochs_total"),
            f_steals: registry.counter("cvk_fleet_steals_total"),
            f_throttled: registry.counter("cvk_fleet_throttled_total"),
            f_emergency: registry.counter("cvk_fleet_emergency_sweeps_total"),
            f_skips: registry.counter("cvk_fleet_scheduler_skips_total"),
            registry,
            stop: AtomicBool::new(false),
            park: Mutex::new(false),
            wake: Condvar::new(),
            config,
        });
        // A recovered tenant can re-enter service still carrying
        // quarantine (the reopen-seal rollback path); sync every hint now
        // so the debt scheduler and the admission throttle see it before
        // the first free, not after.
        for i in 0..inner.tenants.len() {
            let heap = inner.lock(i);
            inner.tenants[i].sync_hints(&heap, &inner.global_quarantine);
        }
        let mut workers = Vec::with_capacity(inner.config.workers);
        for w in 0..inner.config.workers {
            let worker_inner = Arc::clone(&inner);
            // Spawn failure degrades to fewer workers (worst case zero:
            // mutators still drain inline at the budget bound) — fleet
            // construction never fails on thread exhaustion.
            if let Ok(handle) = std::thread::Builder::new()
                .name(format!("cvk-fleet-worker-{w}"))
                .spawn(move || worker_inner.worker_loop())
            {
                workers.push(handle);
            }
        }
        Ok(HeapService { inner, workers })
    }

    /// Number of tenants in the fleet.
    pub fn tenant_count(&self) -> usize {
        self.inner.tenants.len()
    }

    /// A clonable client bound to `tenant`.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`].
    pub fn client(&self, tenant: usize) -> Result<FleetClient, FleetError> {
        if tenant >= self.inner.tenants.len() {
            return Err(FleetError::NoSuchTenant { tenant });
        }
        Ok(FleetClient {
            inner: Arc::clone(&self.inner),
            tenant,
        })
    }

    /// Replaces `tenant`'s policy at runtime (quota, priority, pause
    /// bound), validated with the same arms as [`FleetConfig::validated`]
    /// minus the clamps — runtime changes are explicit, so inconsistent
    /// values are rejected rather than repaired.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`], or
    /// [`HeapError::InvalidConfig`] (as [`FleetError::Heap`]) for a zero
    /// quota, priority, or pause bound.
    pub fn set_tenant_policy(&self, tenant: usize, policy: TenantPolicy) -> Result<(), FleetError> {
        let t = self
            .inner
            .tenants
            .get(tenant)
            .ok_or(FleetError::NoSuchTenant { tenant })?;
        if policy.quarantine_quota == 0 {
            return Err(
                HeapError::InvalidConfig("tenant quarantine quota must be positive").into(),
            );
        }
        if policy.priority == 0 {
            return Err(HeapError::InvalidConfig("tenant priority must be positive").into());
        }
        if policy.max_pause.is_zero() {
            return Err(HeapError::InvalidConfig("tenant max pause must be positive").into());
        }
        t.quota.store(policy.quarantine_quota, Ordering::Relaxed);
        t.priority
            .store(u64::from(policy.priority), Ordering::Relaxed);
        t.max_pause_ns.store(
            policy.max_pause.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Allocates `size` bytes from `tenant`'s heap.
    ///
    /// # Errors
    ///
    /// [`FleetError::TenantThrottled`] past the throttle mark,
    /// [`FleetError::NoSuchTenant`], or the tenant heap's error (OOM
    /// only after an emergency global sweep failed to help).
    pub fn malloc(&self, tenant: usize, size: u64) -> Result<Capability, FleetError> {
        self.inner.malloc(tenant, size)
    }

    /// Frees `cap`, quarantining its memory in the owning tenant. If the
    /// free would push the tenant past its quarantine quota, the tenant
    /// is synchronously drained first — the budget bound holds at every
    /// operation boundary.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::free`] (wrapped in [`FleetError::Heap`]).
    pub fn free(&self, cap: Capability) -> Result<(), FleetError> {
        self.inner.free(cap)
    }

    /// Loads a `u64` through `cap` (routed to the owning tenant).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, FleetError> {
        self.inner.with_tenant(cap, |h| h.load_u64(cap, offset))
    }

    /// Stores a `u64` through `cap` (routed to the owning tenant).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), FleetError> {
        self.inner
            .with_tenant(cap, |h| h.store_u64(cap, offset, value))
    }

    /// Loads a capability through `cap` from the owning tenant's heap.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, FleetError> {
        self.inner.with_tenant(cap, |h| h.load_cap(cap, offset))
    }

    /// Stores capability `value` through `cap`. Tenant isolation is
    /// enforced here: `value` must belong to the same tenant as the
    /// destination — cross-tenant capability flow is the one thing that
    /// could defeat per-tenant sweeps, so it is refused, never swept.
    ///
    /// # Errors
    ///
    /// [`FleetError::CrossTenantStore`], or as
    /// [`CherivokeHeap::store_cap`].
    pub fn store_cap(
        &self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), FleetError> {
        let inner = &self.inner;
        let to =
            inner
                .tenant_of(cap.base())
                .ok_or(FleetError::Heap(HeapError::NotAnAllocation {
                    base: cap.base(),
                }))?;
        if value.tag() {
            let from = inner.tenant_of(value.base());
            if from != Some(to) {
                return Err(FleetError::CrossTenantStore {
                    from: from.unwrap_or(usize::MAX),
                    to,
                });
            }
        }
        inner.with_tenant(cap, |h| h.store_cap(cap, offset, value))
    }

    /// Synchronously drains one tenant's quarantine to zero (the caller
    /// pays; see [`HeapService::free`] for when the fleet does this
    /// implicitly).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`].
    pub fn drain_tenant(&self, tenant: usize) -> Result<(), FleetError> {
        if tenant >= self.inner.tenants.len() {
            return Err(FleetError::NoSuchTenant { tenant });
        }
        self.inner.drain_tenant(tenant);
        Ok(())
    }

    /// Synchronously drains every tenant (the emergency global sweep,
    /// callable explicitly).
    pub fn drain_all(&self) {
        self.inner.drain_all();
    }

    /// Wakes the worker pool now instead of at its next scheduled scan.
    pub fn kick(&self) {
        self.inner.kick();
    }

    /// Runs the full-heap safety audit ([`CherivokeHeap::audit`]) on
    /// every tenant and returns the per-tenant reports. Valid at any
    /// time, including mid-epoch. The chaos harnesses run this after a
    /// fault-injected run as the final soundness check.
    pub fn audit_all(&self) -> Vec<revoker::AuditReport> {
        (0..self.inner.tenants.len())
            .map(|i| self.inner.lock(i).audit())
            .collect()
    }

    /// Current quarantine bytes of one tenant.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoSuchTenant`].
    pub fn quarantined_bytes(&self, tenant: usize) -> Result<u64, FleetError> {
        if tenant >= self.inner.tenants.len() {
            return Err(FleetError::NoSuchTenant { tenant });
        }
        Ok(self.inner.lock(tenant).quarantined_bytes())
    }

    /// Fleet-wide quarantine bytes (the lock-free running total the
    /// global ceiling is enforced against).
    pub fn global_quarantined(&self) -> u64 {
        self.inner.global_quarantine.load(Ordering::Relaxed)
    }

    /// Point-in-time fleet statistics.
    pub fn stats(&self) -> FleetStats {
        self.inner.stats()
    }

    /// The fleet's fault injector (for test assertions on fired points).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.inner.faults
    }

    /// The shared telemetry registry (disabled unless
    /// [`FleetConfig::telemetry`] was set).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.registry
    }

    /// A snapshot of every fleet metric (empty when telemetry is off).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }
}

impl Drop for HeapService {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.kick();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A clonable handle bound to one tenant — what a tenant's threads hold.
#[derive(Clone)]
pub struct FleetClient {
    inner: Arc<FleetInner>,
    tenant: usize,
}

impl FleetClient {
    /// The tenant this client allocates from.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Allocates from this tenant.
    ///
    /// # Errors
    ///
    /// As [`HeapService::malloc`].
    pub fn malloc(&self, size: u64) -> Result<Capability, FleetError> {
        self.inner.malloc(self.tenant, size)
    }

    /// Frees `cap` (any tenant's — routing is by address).
    ///
    /// # Errors
    ///
    /// As [`HeapService::free`].
    pub fn free(&self, cap: Capability) -> Result<(), FleetError> {
        self.inner.free(cap)
    }

    /// Loads a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`HeapService::load_u64`].
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, FleetError> {
        self.inner.with_tenant(cap, |h| h.load_u64(cap, offset))
    }

    /// Stores a `u64` through `cap`.
    ///
    /// # Errors
    ///
    /// As [`HeapService::store_u64`].
    pub fn store_u64(&self, cap: &Capability, offset: u64, value: u64) -> Result<(), FleetError> {
        self.inner
            .with_tenant(cap, |h| h.store_u64(cap, offset, value))
    }

    /// Loads a capability through `cap`.
    ///
    /// # Errors
    ///
    /// As [`HeapService::load_cap`].
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, FleetError> {
        self.inner.with_tenant(cap, |h| h.load_cap(cap, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(tenants: usize) -> FleetConfig {
        let mut c = FleetConfig::with_tenants(tenants);
        c.tenant_heap_size = 256 << 10;
        c.tenant_policy.quarantine_quota = 128 << 10;
        c.global_ceiling = tenants as u64 * (128 << 10);
        c
    }

    #[test]
    fn validated_clamps_and_warns() {
        let mut c = FleetConfig {
            tenants: 0,
            workers: 0,
            tenant_heap_size: 1,
            scheduler_interval: Duration::ZERO,
            ..FleetConfig::default()
        };
        c.tenant_policy.priority = 0;
        c.tenant_policy.max_pause = Duration::ZERO;
        c.tenant_policy.quarantine_quota = 1;
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.tenants, 1);
        assert_eq!(v.workers, 1);
        assert_eq!(v.tenant_policy.priority, 1);
        assert_eq!(v.tenant_policy.quarantine_quota, MIN_TENANT_QUOTA);
        assert_eq!(v.tenant_heap_size, 64 << 10);
        assert!(!v.scheduler_interval.is_zero());
        assert!(warnings.len() >= 6, "{warnings:?}");
    }

    #[test]
    fn validated_rejects_inconsistent_configs() {
        let c = FleetConfig {
            tenants: MAX_FLEET_TENANTS + 1,
            ..FleetConfig::default()
        };
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig("fleet tenant count exceeds MAX_FLEET_TENANTS")
        );

        let mut c = FleetConfig::default();
        c.tenant_policy.quarantine_quota = 0;
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig("tenant quarantine quota must be positive")
        );

        let mut c = FleetConfig::with_tenants(16);
        c.global_ceiling = 15 * MIN_TENANT_QUOTA;
        assert_eq!(
            c.validated().unwrap_err(),
            HeapError::InvalidConfig(
                "fleet global ceiling is below the sum of minimum tenant quotas"
            )
        );

        // The embedded revocation policy's own arms still apply.
        let mut c = FleetConfig::default();
        c.policy.quarantine.fraction = f64::NAN;
        assert!(matches!(c.validated(), Err(HeapError::InvalidConfig(_))));
    }

    #[test]
    fn workers_clamp_to_engine_maximum() {
        let c = FleetConfig {
            workers: revoker::MAX_SWEEP_WORKERS + 7,
            ..FleetConfig::default()
        };
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.workers, revoker::MAX_SWEEP_WORKERS);
        assert!(warnings.iter().any(|w| w.contains("worker pool")));
    }

    #[test]
    fn quota_clamps_to_heap_size() {
        let mut c = FleetConfig {
            tenant_heap_size: 128 << 10,
            ..FleetConfig::default()
        };
        c.tenant_policy.quarantine_quota = 1 << 20;
        let (v, warnings) = c.validated().unwrap();
        assert_eq!(v.tenant_policy.quarantine_quota, 128 << 10);
        assert!(warnings.iter().any(|w| w.contains("quota")));
    }

    #[test]
    fn malloc_free_and_cross_tenant_isolation() {
        let service = HeapService::with_faults(small_config(2), FaultInjector::disabled()).unwrap();
        let a = service.client(0).unwrap();
        let b = service.client(1).unwrap();
        let slot_a = a.malloc(64).unwrap();
        let obj_a = a.malloc(64).unwrap();
        let slot_b = b.malloc(64).unwrap();
        // Same-tenant capability stores work…
        service.store_cap(&slot_a, 0, &obj_a).unwrap();
        assert_eq!(service.load_cap(&slot_a, 0).unwrap().base(), obj_a.base());
        // …cross-tenant stores are refused with the typed error.
        assert_eq!(
            service.store_cap(&slot_b, 0, &obj_a).unwrap_err(),
            FleetError::CrossTenantStore { from: 0, to: 1 }
        );
        service.free(obj_a).unwrap();
        assert!(service.quarantined_bytes(0).unwrap() > 0);
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
        // The stale pointer the drain revoked no longer loads.
        assert!(!service.load_cap(&slot_a, 0).unwrap().tag());
    }

    #[test]
    fn no_such_tenant_is_typed() {
        let service = HeapService::with_faults(small_config(1), FaultInjector::disabled()).unwrap();
        assert_eq!(
            service.malloc(9, 64).unwrap_err(),
            FleetError::NoSuchTenant { tenant: 9 }
        );
        assert!(service.client(9).is_err());
        assert!(service.drain_tenant(9).is_err());
        assert!(service.quarantined_bytes(9).is_err());
    }

    #[test]
    fn set_tenant_policy_validates() {
        let service = HeapService::with_faults(small_config(1), FaultInjector::disabled()).unwrap();
        let ok = TenantPolicy::default();
        service.set_tenant_policy(0, ok).unwrap();
        for bad in [
            TenantPolicy {
                quarantine_quota: 0,
                ..ok
            },
            TenantPolicy { priority: 0, ..ok },
            TenantPolicy {
                max_pause: Duration::ZERO,
                ..ok
            },
        ] {
            assert!(matches!(
                service.set_tenant_policy(0, bad),
                Err(FleetError::Heap(HeapError::InvalidConfig(_)))
            ));
        }
        assert!(service.set_tenant_policy(5, ok).is_err());
    }

    /// Soft-crashes a standalone heap on the extent the fleet layout
    /// assigns `tenant`, mid-epoch at `point`, and returns the persisted
    /// image + journal as a recovery artifact. The crash heap runs a
    /// self-triggering policy (the fleet's own tenants are
    /// scheduler-driven) — recovery only requires the extent to match.
    fn crash_artifact(
        config: FleetConfig,
        tenant: usize,
        point: FaultPoint,
        ballast: u64,
    ) -> TenantCrashArtifact {
        use faultinject::{silence_injected_panics, FaultPlan, FaultRule};
        silence_injected_panics();
        let (config, _) = config.validated().unwrap();
        let (first_base, stride, rounded) = tenant_layout(&config);
        // Tests run in parallel and several crash the same (tenant, point),
        // so each call gets its own directory.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cvk-fleet-crash-{}-{call}-t{tenant}-{}",
            std::process::id(),
            point.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let image_path = dir.join("heap.img");
        let journal_path = dir.join("heap.cvj");
        let mut policy = config.policy;
        policy.quarantine.fraction = 0.25;
        policy.incremental_slice_bytes = Some(16 << 10);
        let mut heap = CherivokeHeap::new(HeapConfig {
            heap_base: first_base + tenant as u64 * stride,
            heap_size: rounded,
            policy,
            ..HeapConfig::default()
        })
        .unwrap();
        heap.set_journal(Journal::create(&journal_path).unwrap());
        heap.set_crash_persist(image_path.clone(), false);
        heap.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
            FaultRule::once(point, 0),
        ])));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Live ballast raises the epoch trigger (quarantine fraction
            // is relative to live bytes), so `ballast` steers how much
            // quarantine the image holds at the crash — i.e. the debt.
            let mut live = Vec::new();
            let mut remaining = ballast;
            while remaining > 0 {
                let piece = remaining.min(32 << 10);
                live.push(heap.malloc(piece).unwrap());
                remaining -= piece;
            }
            let holder = heap.malloc(16).unwrap();
            for _ in 0..400 {
                let obj = heap.malloc(4 << 10).unwrap();
                heap.store_cap(&holder, 0, &obj).unwrap();
                heap.free(obj).unwrap();
            }
        }));
        assert!(crashed.is_err(), "{point:?} never fired");
        drop(heap);
        let artifact = TenantCrashArtifact {
            tenant,
            image: std::fs::read(&image_path).unwrap(),
            journal: std::fs::read(&journal_path).unwrap(),
        };
        let _ = std::fs::remove_dir_all(&dir);
        artifact
    }

    #[test]
    fn recover_rolls_a_crashed_tenant_forward_in_debt_order() {
        let config = small_config(3);
        // Tenant 2 crashes holding a *sealed* quarantine (reopen-seal —
        // its quarantine survives recovery) with 8× the live ballast of
        // tenant 0's mid-sweep crash: its image carries several times the
        // quarantine debt, so it must recover first despite being passed
        // last.
        let heavy = crash_artifact(config, 2, FaultPoint::CrashAfterSeal, 128 << 10);
        let light = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let (service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![light, heavy])
                .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports.iter().map(|r| r.tenant).collect::<Vec<_>>(),
            vec![2, 0],
            "recovery must run highest debt first: {reports:?}"
        );
        assert!(reports[0].debt > reports[1].debt, "{reports:?}");
        for r in &reports {
            assert!(
                r.report.safe(),
                "tenant {} unsafe: {:?}",
                r.tenant,
                r.report
            );
        }
        // Recovered tenants serve traffic again, isolated as before.
        let a = service.malloc(0, 256).unwrap();
        let b = service.malloc(2, 256).unwrap();
        assert_ne!(a.base(), b.base());
        service.free(a).unwrap();
        service.free(b).unwrap();
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
    }

    #[test]
    fn recover_rejects_unknown_tenants() {
        let config = small_config(2);
        let art = crash_artifact(config, 0, FaultPoint::CrashAfterPaint, 16 << 10);
        let bad = TenantCrashArtifact {
            tenant: 7,
            ..art.clone()
        };
        assert!(matches!(
            HeapService::recover(config, FaultInjector::disabled(), None, vec![bad]),
            Err(RecoveryError::UnknownTenant { tenant: 7 })
        ));
    }

    #[test]
    fn cross_tenant_store_is_still_refused_after_recovery() {
        let config = small_config(2);
        let art = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let (service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![art]).unwrap();
        assert!(reports[0].report.safe());
        let slot_a = service.malloc(0, 64).unwrap();
        let obj_b = service.malloc(1, 64).unwrap();
        assert_eq!(
            service.store_cap(&slot_a, 0, &obj_b).unwrap_err(),
            FleetError::CrossTenantStore { from: 1, to: 0 }
        );
        service.free(obj_b).unwrap();
    }

    #[test]
    fn tenant_throttle_is_still_enforced_after_recovery() {
        let mut config = small_config(2);
        // Park the worker pool: nothing drains behind the test's back,
        // so the throttle observation is deterministic.
        config.scheduler_interval = Duration::from_secs(30);
        // A mid-sweep crash rolls forward, so the recovered tenant comes
        // back with an empty quarantine and the (single, parked) worker
        // idles immediately — nothing drains behind the test's back.
        let art = crash_artifact(config, 0, FaultPoint::CrashMidSweep, 16 << 10);
        let (service, reports) =
            HeapService::recover(config, FaultInjector::disabled(), None, vec![art]).unwrap();
        assert!(matches!(
            reports[0].report.action,
            crate::RecoveryAction::RollForward { .. }
        ));
        assert!(reports[0].report.safe());
        service
            .set_tenant_policy(
                0,
                TenantPolicy {
                    quarantine_quota: MIN_TENANT_QUOTA,
                    ..TenantPolicy::default()
                },
            )
            .unwrap();
        // Push the recovered tenant past THROTTLE_FRACTION of the tight
        // quota. Frees in this band never reach debt 1.0, so the parked
        // scheduler is not kicked; admission reads the hint the frees
        // keep synced, and the condition re-checks actual quarantine
        // before each malloc, so every malloc in the loop stays admitted.
        while (service.quarantined_bytes(0).unwrap() as f64)
            < THROTTLE_FRACTION * MIN_TENANT_QUOTA as f64
        {
            let obj = service.malloc(0, 8 << 10).unwrap();
            service.free(obj).unwrap();
        }
        assert!(matches!(
            service.malloc(0, 64),
            Err(FleetError::TenantThrottled { tenant: 0, .. })
        ));
        // An explicit drain clears the backpressure.
        service.drain_tenant(0).unwrap();
        let c = service.malloc(0, 64).unwrap();
        service.free(c).unwrap();
    }

    #[test]
    fn journal_dir_attaches_a_journal_per_tenant() {
        let dir = std::env::temp_dir().join(format!("cvk-fleet-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service =
            HeapService::with_journal_dir(small_config(2), FaultInjector::disabled(), Some(&dir))
                .unwrap();
        for i in 0..service.tenant_count() {
            assert!(
                service.inner.lock(i).journal_active(),
                "tenant {i} journal missing"
            );
            assert!(dir.join(format!("tenant-{i}.cvj")).exists());
        }
        let obj = service.malloc(0, 256).unwrap();
        service.free(obj).unwrap();
        service.drain_all();
        assert_eq!(service.global_quarantined(), 0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Concurrent query serving: admission control, scheduling, cancellation,
//! fair memory sharing, and a plan cache.
//!
//! The [`Engine`] runs one query at a time; a [`QueryService`] wraps one
//! engine and accepts queries from many threads at once:
//!
//! - **Admission control** — a bounded priority queue. Up to
//!   `max_concurrent` queries run on a fixed worker pool; up to
//!   `queue_limit` more wait. Past that, [`QueryService::submit`] returns
//!   the typed [`EngineError::Overloaded`] immediately instead of letting
//!   latency collapse under unbounded backlog.
//! - **Scheduling** — waiting queries are served highest
//!   [`Priority`] first, FIFO within a priority class.
//! - **Cooperative cancellation** — every admitted query carries a
//!   [`CancelToken`] (deadline-armed when [`QueryOptions::deadline`] is
//!   set). Operators check it at frame boundaries, so a cancelled or
//!   expired query unwinds cleanly: memory grants released, spill
//!   directories removed, typed [`EngineError::Cancelled`] /
//!   [`EngineError::DeadlineExceeded`] returned.
//! - **Fair memory sharing** — the memory budget is split equally among
//!   the queries running at any moment, each on a private
//!   [`MemTracker`]. Shares rebalance as jobs start and finish; a share
//!   that shrinks under a running job simply makes its next grant growth
//!   fail, which is the operator's signal to spill.
//! - **Plan cache** — optimized plans are cached by normalized query
//!   text (plus the engine's rule and scan configuration). A hit skips
//!   parse → translate → optimize entirely; only physical compilation —
//!   which captures per-job scan caches — remains per-execution.
//!
//! Shutdown is graceful: dropping the service stops admission, lets the
//! workers drain the queue, and joins them.

use crate::compile::plan_cache_key;
use crate::engine::{Engine, ExecOptions, PreparedQuery, QueryResult};
use crate::error::{EngineError, Result};
use dataflow::{CancelReason, CancelToken, MemTracker, TraceBuffer};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Latency samples kept for percentile reporting: the most recent 64 Ki,
/// in a ring (the bound keeps a long-lived service from growing without
/// limit, and 64 Ki samples is plenty for stable p99s).
const LATENCY_SAMPLE_CAP: usize = 64 * 1024;

/// Serving-layer construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries executing at once (worker-pool size).
    pub max_concurrent: usize,
    /// Queries allowed to wait for a worker; submissions past this are
    /// rejected with [`EngineError::Overloaded`].
    pub queue_limit: usize,
    /// Total operator-state budget in bytes, split equally among running
    /// queries. 0 falls back to the wrapped engine's budget (which itself
    /// may come from `VXQ_MEM_BUDGET`); if that is also 0, memory is
    /// unlimited.
    pub memory_budget: usize,
    /// Optimized plans kept in the LRU plan cache. 0 disables caching.
    pub plan_cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 4,
            queue_limit: 64,
            memory_budget: 0,
            plan_cache_capacity: 64,
        }
    }
}

/// Scheduling class of a submitted query. Higher priorities dequeue
/// first; within a class, submissions run in arrival order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

/// Per-query options for [`QueryService::submit`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Time allowed from submission to completion. Counting starts at
    /// submit, so time spent waiting in the queue counts against it; an
    /// expired query is cancelled cooperatively and returns
    /// [`EngineError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Free-form label carried into metrics and traces.
    pub tag: Option<String>,
    /// Record a full lifecycle trace for this query (returned in
    /// [`ServiceResponse::trace`]).
    pub collect_trace: bool,
}

/// A completed query as the service returns it.
pub struct ServiceResponse {
    /// The engine result: rows, stats, plan, rule provenance.
    pub result: QueryResult,
    /// Whether the optimized plan came from the plan cache.
    pub cache_hit: bool,
    /// Time between submission and a worker picking the query up.
    pub queue_wait: Duration,
    /// Execution time on the worker (excludes queue wait).
    pub elapsed: Duration,
    /// The lifecycle trace, when [`QueryOptions::collect_trace`] was set.
    pub trace: Option<Arc<TraceBuffer>>,
}

// ---------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------

struct TicketState {
    slot: Mutex<Option<Result<ServiceResponse>>>,
    done: Condvar,
    cancel: Arc<CancelToken>,
}

impl TicketState {
    fn new(cancel: Arc<CancelToken>) -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            cancel,
        })
    }

    fn complete(&self, outcome: Result<ServiceResponse>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome);
        self.done.notify_all();
    }
}

/// Handle to an admitted query: wait for its result, or cancel it.
pub struct QueryTicket {
    state: Arc<TicketState>,
}

impl QueryTicket {
    /// Block until the query completes (or is cancelled / expires).
    pub fn wait(self) -> Result<ServiceResponse> {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Request cooperative cancellation. Idempotent; the query unwinds at
    /// its next frame boundary (or is dropped at dequeue if still
    /// queued) and its `wait` returns [`EngineError::Cancelled`].
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

struct QueuedJob {
    priority: Priority,
    seq: u64,
    query: String,
    options: QueryOptions,
    ticket: Arc<TicketState>,
    submitted: Instant,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then lower sequence (FIFO).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct QueueState {
    queue: BinaryHeap<QueuedJob>,
    closed: bool,
}

// ---------------------------------------------------------------------
// Fair memory shares
// ---------------------------------------------------------------------

/// Registry of the memory trackers of currently running jobs. The total
/// budget is divided equally; every admit and release rebalances all
/// active shares.
struct FairShares {
    total: usize,
    active: Mutex<Vec<Arc<MemTracker>>>,
}

impl FairShares {
    fn new(total: usize) -> Self {
        FairShares {
            total,
            active: Mutex::new(Vec::new()),
        }
    }

    fn rebalance(total: usize, active: &[Arc<MemTracker>]) {
        if total == 0 || active.is_empty() {
            for t in active {
                t.set_budget(0);
            }
            return;
        }
        let share = (total / active.len()).max(1);
        for t in active {
            t.set_budget(share);
        }
    }

    /// Register a fresh per-job tracker and rebalance everyone's share.
    fn admit(&self) -> Arc<MemTracker> {
        let tracker = MemTracker::new();
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active.push(tracker.clone());
        Self::rebalance(self.total, &active);
        tracker
    }

    /// Drop a finished job's tracker and hand its share back.
    fn release(&self, tracker: &Arc<MemTracker>) {
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active.retain(|t| !Arc::ptr_eq(t, tracker));
        Self::rebalance(self.total, &active);
    }

    fn active_count(&self) -> usize {
        self.active.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

struct CacheEntry {
    prepared: PreparedQuery,
    last_used: u64,
}

struct PlanCacheInner {
    map: HashMap<String, CacheEntry>,
    tick: u64,
}

/// LRU cache of optimized plans, keyed on normalized query text plus the
/// engine's rule and scan configuration (see
/// [`crate::compile::plan_cache_key`]).
struct PlanCache {
    capacity: usize,
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            inner: Mutex::new(PlanCacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get(&self, key: &str) -> Option<PreparedQuery> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.prepared.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: String, prepared: PreparedQuery) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            // Evict the least recently used entry. O(n), fine at cache
            // sizes measured in dozens.
            if let Some(evict) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&evict);
            }
        }
        inner.map.insert(
            key,
            CacheEntry {
                prepared,
                last_used: tick,
            },
        );
    }

    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

#[derive(Default)]
struct ServiceMetrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    running: AtomicU64,
    /// High-water mark of bytes a finished job left allocated on its
    /// tracker — 0 in a healthy service (cancellation hygiene check).
    leaked_bytes: AtomicU64,
    latency_us: Mutex<Samples>,
    queue_wait_us: Mutex<Samples>,
}

/// The most recent [`LATENCY_SAMPLE_CAP`] microsecond samples, the oldest
/// overwritten first, and how many were ever recorded.
#[derive(Default)]
struct Samples {
    ring: Vec<u64>,
    count: u64,
}

impl ServiceMetrics {
    fn record_sample(samples: &Mutex<Samples>, us: u64) {
        let mut s = samples.lock().unwrap_or_else(|e| e.into_inner());
        let at = (s.count % LATENCY_SAMPLE_CAP as u64) as usize;
        if at == s.ring.len() {
            s.ring.push(us);
        } else {
            s.ring[at] = us;
        }
        s.count += 1;
    }
}

/// Percentile summary over recorded microsecond samples: `count` counts
/// every sample, the percentiles and `max` cover the most recent 64 Ki.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// Nearest-rank percentile over a sorted sample set.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarize(samples: &Mutex<Samples>) -> LatencySummary {
    let (mut v, count) = {
        let s = samples.lock().unwrap_or_else(|e| e.into_inner());
        (s.ring.clone(), s.count)
    };
    v.sort_unstable();
    LatencySummary {
        count,
        p50_us: percentile(&v, 50.0),
        p95_us: percentile(&v, 95.0),
        p99_us: percentile(&v, 99.0),
        max_us: v.last().copied().unwrap_or(0),
    }
}

/// Point-in-time view of the service counters.
#[derive(Debug, Clone, Default)]
pub struct ServiceSnapshot {
    /// Queries ever offered to `submit`.
    pub submitted: u64,
    /// Submissions refused (queue full or service closed).
    pub rejected: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries that errored (excluding cancellations and deadlines).
    pub failed: u64,
    /// Queries cancelled by their client.
    pub cancelled: u64,
    /// Queries whose deadline fired.
    pub deadline_expired: u64,
    /// Queries executing right now.
    pub running: usize,
    /// Queries waiting for a worker right now.
    pub queue_depth: usize,
    /// Plan-cache lookups that found a prepared plan.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to prepare from scratch.
    pub plan_cache_misses: u64,
    /// Plans currently cached.
    pub plan_cache_size: usize,
    /// High-water mark of bytes any finished job left allocated (0 in a
    /// healthy service).
    pub leaked_bytes: u64,
    /// End-to-end worker-side execution latency.
    pub latency: LatencySummary,
    /// Time spent waiting in the admission queue.
    pub queue_wait: LatencySummary,
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

struct Shared {
    engine: Arc<Engine>,
    config: ServiceConfig,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    shares: FairShares,
    cache: PlanCache,
    metrics: ServiceMetrics,
    seq: AtomicU64,
}

/// A thread-safe serving front end over one [`Engine`]. See the module
/// docs for the full contract.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryService {
    /// Wrap an engine in a serving layer with `config`'s concurrency,
    /// queueing, memory, and caching policy.
    pub fn new(engine: Engine, config: ServiceConfig) -> Self {
        QueryService::with_engine(Arc::new(engine), config)
    }

    /// Like [`QueryService::new`] for an engine that is already shared.
    pub fn with_engine(engine: Arc<Engine>, config: ServiceConfig) -> Self {
        let total_budget = if config.memory_budget > 0 {
            config.memory_budget
        } else {
            engine.memory().budget()
        };
        let shared = Arc::new(Shared {
            shares: FairShares::new(total_budget),
            cache: PlanCache::new(config.plan_cache_capacity),
            metrics: ServiceMetrics::default(),
            state: Mutex::new(QueueState {
                queue: BinaryHeap::new(),
                closed: false,
            }),
            work_ready: Condvar::new(),
            seq: AtomicU64::new(0),
            engine,
            config,
        });
        let workers = (0..shared.config.max_concurrent.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("vxq-service-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn service worker")
            })
            .collect();
        QueryService { shared, workers }
    }

    /// The wrapped engine (shared with the worker pool).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Submit a query for execution. Returns immediately: either a
    /// [`QueryTicket`] to wait on, or the typed admission error
    /// ([`EngineError::Overloaded`] / [`EngineError::ServiceClosed`]).
    pub fn submit(&self, query: &str, options: QueryOptions) -> Result<QueryTicket> {
        let m = &self.shared.metrics;
        m.submitted.fetch_add(1, Ordering::Relaxed);
        let cancel = match options.deadline {
            Some(d) => CancelToken::with_deadline(Instant::now() + d),
            None => CancelToken::new(),
        };
        let ticket = TicketState::new(cancel);
        let job = QueuedJob {
            priority: options.priority,
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            query: query.to_string(),
            options,
            ticket: ticket.clone(),
            submitted: Instant::now(),
        };
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.closed {
                m.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::ServiceClosed);
            }
            if state.queue.len() >= self.shared.config.queue_limit {
                m.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded {
                    queued: state.queue.len(),
                    queue_limit: self.shared.config.queue_limit,
                });
            }
            state.queue.push(job);
        }
        self.shared.work_ready.notify_one();
        Ok(QueryTicket { state: ticket })
    }

    /// Submit and block until the result is ready: `submit(...)?.wait()`.
    pub fn execute(&self, query: &str, options: QueryOptions) -> Result<ServiceResponse> {
        self.submit(query, options)?.wait()
    }

    /// Stop admitting queries. Already-queued work still runs; workers
    /// exit once the queue drains. Idempotent; `Drop` calls this too.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.shared.work_ready.notify_all();
    }

    /// Current counters, gauges and latency percentiles.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let m = &self.shared.metrics;
        let queue_depth = self
            .shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len();
        ServiceSnapshot {
            submitted: m.submitted.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            cancelled: m.cancelled.load(Ordering::Relaxed),
            deadline_expired: m.deadline_expired.load(Ordering::Relaxed),
            running: m.running.load(Ordering::Relaxed) as usize,
            queue_depth,
            plan_cache_hits: self.shared.cache.hits.load(Ordering::Relaxed),
            plan_cache_misses: self.shared.cache.misses.load(Ordering::Relaxed),
            plan_cache_size: self.shared.cache.len(),
            leaked_bytes: m.leaked_bytes.load(Ordering::Relaxed),
            latency: summarize(&m.latency_us),
            queue_wait: summarize(&m.queue_wait_us),
        }
    }

    /// Memory trackers registered for currently running jobs (primarily
    /// for tests asserting fair-share bookkeeping).
    pub fn active_jobs(&self) -> usize {
        self.shared.shares.active_count()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn cancel_error(reason: CancelReason) -> EngineError {
    match reason {
        CancelReason::Client => EngineError::Cancelled,
        CancelReason::Deadline => EngineError::DeadlineExceeded,
    }
}

/// Fold runtime cancellation back into the service-level typed errors.
fn map_cancelled(err: EngineError) -> EngineError {
    match err {
        EngineError::Execute(dataflow::DataflowError::Cancelled(reason)) => cancel_error(reason),
        other => other,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.queue.pop() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let m = &shared.metrics;
        let queue_wait = job.submitted.elapsed();
        ServiceMetrics::record_sample(&m.queue_wait_us, queue_wait.as_micros() as u64);

        // A query cancelled (or expired) while still waiting never runs.
        if let Some(reason) = job.ticket.cancel.fired() {
            match reason {
                CancelReason::Client => m.cancelled.fetch_add(1, Ordering::Relaxed),
                CancelReason::Deadline => m.deadline_expired.fetch_add(1, Ordering::Relaxed),
            };
            job.ticket.complete(Err(cancel_error(reason)));
            continue;
        }

        m.running.fetch_add(1, Ordering::Relaxed);
        let mem = shared.shares.admit();
        let trace = job.options.collect_trace.then(|| {
            let t = Arc::new(TraceBuffer::new());
            if let Some(tag) = &job.options.tag {
                t.event("tag", "service", vec![("tag", tag.as_str().into())]);
            }
            t
        });
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_one(&shared, &job, &mem, trace.as_ref())
        }));
        let elapsed = started.elapsed();

        // Cancellation hygiene: a finished job — success, error, cancel
        // or panic — must have released every grant on its tracker.
        let leaked = mem.current() as u64;
        if leaked > 0 {
            m.leaked_bytes.fetch_max(leaked, Ordering::Relaxed);
        }
        shared.shares.release(&mem);
        m.running.fetch_sub(1, Ordering::Relaxed);

        let outcome = match outcome {
            Ok(r) => r.map_err(map_cancelled),
            Err(payload) => Err(EngineError::Execute(dataflow::DataflowError::Worker(
                format!("query task panicked: {}", panic_message(payload.as_ref())),
            ))),
        };
        match &outcome {
            Ok(_) => {
                m.completed.fetch_add(1, Ordering::Relaxed);
                ServiceMetrics::record_sample(&m.latency_us, elapsed.as_micros() as u64);
            }
            Err(EngineError::Cancelled) => {
                m.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(EngineError::DeadlineExceeded) => {
                m.deadline_expired.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                m.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        job.ticket
            .complete(outcome.map(|(result, cache_hit)| ServiceResponse {
                result,
                cache_hit,
                queue_wait,
                elapsed,
                trace,
            }));
    }
}

/// One query on a worker: plan-cache lookup, prepare on miss, execute
/// with the job's private tracker and cancellation token.
fn run_one(
    shared: &Shared,
    job: &QueuedJob,
    mem: &Arc<MemTracker>,
    trace: Option<&Arc<TraceBuffer>>,
) -> Result<(QueryResult, bool)> {
    let engine = &shared.engine;
    let key = plan_cache_key(&job.query, &engine.config().rules, &engine.config().scan);
    let (prepared, cache_hit) = match shared.cache.get(&key) {
        Some(prepared) => {
            if let Some(t) = trace {
                t.event("plan-cache-hit", "service", vec![]);
            }
            (prepared, true)
        }
        None => {
            let prepared = engine.prepare(&job.query, trace.map(Arc::as_ref))?;
            shared.cache.insert(key, prepared.clone());
            (prepared, false)
        }
    };
    let result = engine.execute_prepared(
        &prepared,
        trace,
        ExecOptions {
            mem: Some(mem.clone()),
            cancel: Some(job.ticket.cancel.clone()),
        },
    )?;
    Ok((result, cache_hit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_orders_by_priority_then_fifo() {
        let mk = |priority, seq| QueuedJob {
            priority,
            seq,
            query: String::new(),
            options: QueryOptions::default(),
            ticket: TicketState::new(CancelToken::new()),
            submitted: Instant::now(),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(Priority::Normal, 0));
        heap.push(mk(Priority::Low, 1));
        heap.push(mk(Priority::High, 2));
        heap.push(mk(Priority::High, 3));
        heap.push(mk(Priority::Normal, 4));
        let order: Vec<(Priority, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|j| (j.priority, j.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (Priority::High, 2),
                (Priority::High, 3),
                (Priority::Normal, 0),
                (Priority::Normal, 4),
                (Priority::Low, 1),
            ]
        );
    }

    #[test]
    fn plan_cache_lru_evicts_least_recent() {
        let mk = || PreparedQuery {
            plan: Arc::new(algebra::LogicalPlan::new(
                algebra::LogicalOp::EmptyTupleSource,
            )),
            explain: String::new(),
            rule_firings: Vec::new(),
        };
        let cache = PlanCache::new(2);
        cache.insert("a".into(), mk());
        cache.insert("b".into(), mk());
        assert!(cache.get("a").is_some(), "refresh a");
        cache.insert("c".into(), mk());
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some(), "a was refreshed, must survive");
        assert!(cache.get("b").is_none(), "b was LRU, must be evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 3);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn plan_cache_capacity_zero_disables() {
        let cache = PlanCache::new(0);
        cache.insert(
            "a".into(),
            PreparedQuery {
                plan: Arc::new(algebra::LogicalPlan::new(
                    algebra::LogicalOp::EmptyTupleSource,
                )),
                explain: String::new(),
                rule_firings: Vec::new(),
            },
        );
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn fair_shares_split_and_rebalance() {
        let shares = FairShares::new(900);
        let a = shares.admit();
        assert_eq!(a.budget(), 900);
        let b = shares.admit();
        let c = shares.admit();
        assert_eq!(a.budget(), 300);
        assert_eq!(b.budget(), 300);
        assert_eq!(c.budget(), 300);
        shares.release(&b);
        assert_eq!(a.budget(), 450);
        assert_eq!(c.budget(), 450);
        shares.release(&a);
        shares.release(&c);
        assert_eq!(shares.active_count(), 0);
    }

    #[test]
    fn fair_shares_zero_budget_stays_unlimited() {
        let shares = FairShares::new(0);
        let a = shares.admit();
        let b = shares.admit();
        assert_eq!(a.budget(), 0);
        assert_eq!(b.budget(), 0);
    }

    #[test]
    fn latency_percentiles_cover_the_most_recent_samples() {
        let samples = Mutex::new(Samples::default());
        // 60,000 samples of 10 us, then 10,000 larger ones (60,000..69,999).
        for i in 0..70_000u64 {
            ServiceMetrics::record_sample(&samples, if i < 60_000 { 10 } else { i });
        }
        let s = summarize(&samples);
        assert_eq!(s.count, 70_000, "count counts every sample");
        assert_eq!(s.p50_us, 10);
        // The window holds the last 65,536: 55,536 tens and all 10,000
        // larger samples; rank 64,881 is the 9,345th of those.
        assert_eq!(s.p99_us, 69_344);
        assert_eq!(s.max_us, 69_999);
        assert_eq!(samples.lock().unwrap().ring.len(), LATENCY_SAMPLE_CAP);
    }

    #[test]
    fn percentiles_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
    }
}

//! The batch execution engine: intake → annihilation → combined-pass
//! execution → fan-out.
//!
//! One [`BatchEngine`] owns an [`Hdt`] and is its only writer. Operations
//! reach the structure through two doors:
//!
//! * **the sharded single-op adapter** ([`DynamicConnectivity`]): a query
//!   never enters the intake — it is the HDT's lock-free read, run on the
//!   caller's thread, and never waits for a leader (the paper's
//!   non-blocking query). An update is published in the calling thread's
//!   private padded intake slot ([`dc_sync::IntakeArray`]) and spins;
//!   whichever waiter wins the leader lock drains *all* published updates
//!   into one batch, runs the preprocessor ([`crate::plan::UpdatePlan`]) to
//!   dedup/annihilate them, applies the compacted set through the HDT in
//!   one combined pass, and completes every slot.
//! * **the bulk door** ([`BatchConnectivity::apply_batch`]): a caller ships
//!   a whole operation slice at once. The engine splits it into maximal
//!   update runs and query runs, compacts and applies each update run as
//!   one combined pass, and answers each query run — duplicates coalesced,
//!   large runs fanned out over a scoped thread pool — against the state at
//!   that point of the batch. Answers are exactly those of sequential
//!   one-at-a-time execution.
//!
//! # Linearizability
//!
//! For the adapter: every update in a drained batch was pending (its caller
//! blocked) when the leader claimed it, so all of them are pairwise
//! concurrent and the engine may order them freely; an update submitted
//! after another completed lands in a strictly later batch. A query
//! linearizes at its own lock-free read. A read that overlaps a combined
//! pass may observe a prefix of that batch's compacted updates, which is
//! legal: every member of the batch is still pending, so the engine orders
//! the observed ones before the query and the rest after it. For the bulk
//! door the (stronger) sequential-equivalence contract of
//! [`BatchConnectivity::apply_batch`] holds by construction: updates between
//! two queries only ever collapse to their net edge set, which is the only
//! thing the next query run can observe. See `DESIGN.md` §5 for the full
//! argument.
//!
//! # Fault containment
//!
//! Batch leadership is an unwind boundary. A panic anywhere on the leader's
//! drain → plan → apply → commit-hook path (a structural invariant trip, an
//! exhausted arena mid-removal, a chaos injection from a `dc_faults`
//! schedule attached with [`BatchEngine::attach_chaos`]) does
//! *not* propagate into the other waiters' stacks or leave them spinning on
//! claimed slots: the panicking leadership transitions the engine to a
//! terminal **poisoned** state, sweeps the intake array releasing every
//! open slot with [`EngineError::Poisoned`], dumps the `dc_obs` flight
//! recorder, and only then gives up the leader lock. From that point every
//! door fails fast — the `try_*` doors with a typed error, the
//! [`DynamicConnectivity`] adapter by panicking on the caller's own thread.
//! Recovery is a *rebuild from durable state* (`dc_durable`), never an
//! in-place resume: the in-memory structure is assumed arbitrarily damaged.
//!
//! Waiting is bounded, not faith-based: an adapter update's intake wait
//! runs a spin → yield → park ladder ([`dc_sync::WaitPolicy`]) whose
//! optional deadline turns a wedged leader into [`EngineError::Timeout`] on
//! the waiter's thread — the publication is withdrawn race-free
//! ([`dc_sync::IntakeArray::retract`]) so no later batch can observe a
//! half-abandoned operation. See `DESIGN.md` §13 for the failure model.

use crate::plan::UpdatePlan;
use dc_faults::{ChaosSchedule, InjectionPoint};
use dc_graph::Edge;
use dc_obs::Counter;
use dc_sync::{waitstats, IntakeArray, RawSpinLock, WaitLadder, WaitPolicy, WaitStep};
use dynconn::{BatchConnectivity, BatchOp, DynamicConnectivity, Hdt, QueryResult};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Typed failure of the engine's fallible doors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A batch leader panicked and the engine is permanently poisoned: the
    /// in-memory structure may be arbitrarily damaged, so every subsequent
    /// operation is refused. Recover by rebuilding from durable state (the
    /// `dc_durable` layer's recovery door) — the poison message is kept in
    /// [`BatchEngine::poison_note`] for the post-mortem, and the flight
    /// recorder was dumped at the moment of the panic.
    Poisoned,
    /// The calling thread's bounded intake wait ([`WaitPolicy::max_wait`])
    /// expired before any leader resolved its operation. The operation was
    /// withdrawn and had no effect; the caller may retry. Never returned
    /// under the default (unbounded) policy.
    Timeout,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Poisoned => {
                write!(
                    f,
                    "engine poisoned by a leader panic; rebuild from durable state"
                )
            }
            EngineError::Timeout => write!(f, "bounded intake wait expired"),
        }
    }
}

impl std::error::Error for EngineError {}

const STATE_RUNNING: u8 = 0;
const STATE_POISONED: u8 = 1;

/// Best-effort text of a panic payload (`panic!` with a message covers the
/// `&str` / `String` cases; anything else stays opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// Minimum number of distinct query pairs each fanned-out thread must
/// receive: a scoped-thread spawn costs more than a few hundred lock-free
/// reads, so runs fan out only when every spawned thread gets at least this
/// much work.
const PARALLEL_QUERY_CHUNK: usize = 256;

/// A commit hook, invoked once per non-empty compacted batch, on the leader
/// thread, immediately after the batch was applied and *before* any of the
/// batch's callers are released — an update is acked only after this, so
/// this is exactly the place a write-ahead log must observe the update
/// stream (DESIGN.md §5, §9). The hook receives the structure (already
/// reflecting the batch; write-quiescent for the duration of the call — the
/// durable layer serializes checkpoints through it) and the compacted
/// `adds` / `removes` slices that were applied.
pub type CommitHook = Box<dyn Fn(&Hdt, &[Edge], &[Edge]) + Send + Sync>;

/// The engine's statistics: a point-in-time read of the engine's events in
/// its structure's [`dc_obs::Tally`] (see [`BatchEngine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Batches drained from the intake (adapter door).
    pub batches: u64,
    /// Bulk batches applied through `apply_batch`.
    pub bulk_batches: u64,
    /// Update operations submitted (before preprocessing).
    pub submitted_updates: u64,
    /// Updates that survived dedup + annihilation and were applied.
    pub applied_updates: u64,
    /// Query operations submitted through the bulk door. Adapter queries
    /// are plain lock-free reads and are not counted: a shared counter on
    /// the read path would put every reader on one cache line.
    pub submitted_queries: u64,
    /// Duplicate queries answered by one shared read (bulk door).
    pub coalesced_queries: u64,
    /// Additions the forest refused for capacity (see
    /// [`BatchEngine::drain_rejected`]).
    pub rejected_updates: u64,
    /// Adapter updates whose first try for the leader lock failed, so that
    /// they waited behind another caller's batch.
    pub queued_updates: u64,
}

impl BatchStats {
    /// Applied over submitted updates — strictly below 1.0 whenever the
    /// preprocessor cancelled work before it reached the tree.
    pub fn compaction_ratio(&self) -> f64 {
        if self.submitted_updates == 0 {
            1.0
        } else {
            self.applied_updates as f64 / self.submitted_updates as f64
        }
    }
}

/// Leader-owned scratch buffers, reused across batches. Only ever touched
/// while the leader lock is held.
#[derive(Default)]
struct Scratch {
    plan: UpdatePlan,
    update_slots: Vec<usize>,
    adds: Vec<Edge>,
    removes: Vec<Edge>,
    rejected: Vec<Edge>,
    queries: QueryScratch,
}

/// Reusable buffers of the bulk door's query-run machinery (accumulated
/// run, coalescing table, shared answers).
#[derive(Default)]
struct QueryScratch {
    run: Vec<(usize, u32, u32)>,
    unique: Vec<(u32, u32)>,
    refs: Vec<usize>,
    answers: Vec<bool>,
    pair_index: HashMap<(u32, u32), usize>,
}

/// One published update: `(add, u, v)`, `add == false` for a removal.
/// Queries never enter the intake.
type Update = (bool, u32, u32);

/// The batch-parallel dynamic connectivity engine. See the module docs.
pub struct BatchEngine {
    hdt: Hdt,
    intake: IntakeArray<Update, Result<(), EngineError>>,
    leader: RawSpinLock,
    scratch: UnsafeCell<Scratch>,
    query_threads: usize,
    commit_hook: Option<CommitHook>,
    /// `STATE_RUNNING` until a leader panics, then `STATE_POISONED` forever.
    state: AtomicU8,
    /// The first poisoning panic's message (later panics don't overwrite).
    poison_note: Mutex<Option<String>>,
    /// Capacity-rejected additions awaiting [`BatchEngine::drain_rejected`].
    rejected: Mutex<Vec<Edge>>,
    /// How adapter callers wait on their intake slots.
    wait_policy: WaitPolicy,
    /// Chaos schedule consulted by the engine's injection points; unset
    /// outside fault-injection runs (see [`BatchEngine::attach_chaos`]).
    chaos: OnceLock<Arc<ChaosSchedule>>,
    /// Edges the structure holds, kept by `flush_plan` (only touched under
    /// the leader lock) so that asking "is the structure empty?" costs one
    /// load instead of a walk over the state map's shards.
    live_edges: AtomicUsize,
}

// SAFETY: `scratch` is only accessed while `leader` is held (the bulk door
// takes it blocking, the adapter's batch loop via try_lock); everything else
// is internally synchronized (`Hdt` is Sync, the intake array orders its
// slot accesses through the state atomics).
unsafe impl Sync for BatchEngine {}
unsafe impl Send for BatchEngine {}

impl BatchEngine {
    /// Creates an engine over `n` vertices with the default intake capacity
    /// and one query-fan-out thread per host hardware thread.
    pub fn new(n: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::with_options(
            n,
            IntakeArray::<Update, Result<(), EngineError>>::DEFAULT_SLOTS,
            threads,
        )
    }

    /// Creates an engine with explicit intake capacity (max participating
    /// threads) and bulk-query fan-out width (`1` answers every query run
    /// inline).
    pub fn with_options(n: usize, intake_capacity: usize, query_threads: usize) -> Self {
        Self::from_hdt(Hdt::new(n), intake_capacity, query_threads)
    }

    /// Wraps an engine around an existing structure — the recovery door:
    /// `dc_durable` rebuilds an [`Hdt`] from a checkpoint plus the WAL tail
    /// and then hands it to the engine, which becomes its single writer.
    pub fn from_hdt(hdt: Hdt, intake_capacity: usize, query_threads: usize) -> Self {
        BatchEngine {
            live_edges: AtomicUsize::new(hdt.num_edges()),
            hdt,
            intake: IntakeArray::with_capacity(intake_capacity),
            leader: RawSpinLock::new(),
            scratch: UnsafeCell::new(Scratch::default()),
            query_threads: query_threads.max(1),
            commit_hook: None,
            state: AtomicU8::new(STATE_RUNNING),
            poison_note: Mutex::new(None),
            rejected: Mutex::new(Vec::new()),
            wait_policy: WaitPolicy::default(),
            chaos: OnceLock::new(),
        }
    }

    /// Sets how adapter callers wait on their intake slots (spin / yield
    /// budget, park backoff, optional deadline — see [`WaitPolicy`]). Takes
    /// `&mut self` like [`BatchEngine::set_commit_hook`]: the policy must be
    /// in place before the engine is shared.
    pub fn set_wait_policy(&mut self, policy: WaitPolicy) {
        self.wait_policy = policy;
    }

    /// Installs the commit hook (see [`CommitHook`]). Takes `&mut self` on
    /// purpose: the hook must be in place before the engine is shared, so
    /// no batch can ever slip past the log unobserved.
    pub fn set_commit_hook(&mut self, hook: CommitHook) {
        self.commit_hook = Some(hook);
    }

    /// Attaches a chaos schedule to this engine and to the node arena of its
    /// level-0 forest (the arena `try_link` allocates from). From then on
    /// the engine's leader-panic and intake-stall points and the arena's
    /// allocation and epoch-delay points fire on the schedule's ordinals;
    /// other engines never consult it. Takes `&self` so a schedule can be
    /// attached to a loaded store's engine. A rebuilt store gets a fresh
    /// engine with no schedule.
    ///
    /// # Panics
    ///
    /// If a schedule is already attached.
    pub fn attach_chaos(&self, schedule: Arc<ChaosSchedule>) {
        assert!(
            self.chaos.set(Arc::clone(&schedule)).is_ok(),
            "a chaos schedule is already attached to this engine"
        );
        self.hdt.forest(0).attach_chaos(schedule);
    }

    /// Whether `point` fires on the attached schedule (never, without one).
    #[inline]
    fn chaos_fires(&self, point: InjectionPoint) -> bool {
        self.chaos.get().is_some_and(|c| c.fires(point))
    }

    /// The underlying structure (tests, statistics, lock-free reads).
    pub fn hdt(&self) -> &Hdt {
        &self.hdt
    }

    /// Runs `f` with the leader lock held: the structure is write-quiescent
    /// for the duration (adapter updates and bulk batches wait it out;
    /// adapter queries, like every lock-free reader, proceed). This is the
    /// manual-checkpoint door used by `dc_durable` — and any other caller
    /// that needs a consistent walk of the live structure.
    pub fn with_exclusive<R>(&self, f: impl FnOnce(&Hdt) -> R) -> R {
        self.leader.lock();
        let result = f(&self.hdt);
        self.leader.unlock();
        result
    }

    /// The engine counters, read from the structure's tally.
    pub fn stats(&self) -> BatchStats {
        let t = self.hdt.tally();
        BatchStats {
            batches: t.get(Counter::BatchesDrained),
            bulk_batches: t.get(Counter::BatchBulkBatches),
            submitted_updates: t.get(Counter::BatchSubmittedUpdates),
            applied_updates: t.get(Counter::BatchUpdatesApplied),
            submitted_queries: t.get(Counter::BatchSubmittedQueries),
            coalesced_queries: t.get(Counter::BatchCoalescedQueries),
            rejected_updates: t.get(Counter::CapacityRejections),
            queued_updates: t.get(Counter::BatchQueuedUpdates),
        }
    }

    /// Batches led so far through either door: the leader's progress count.
    fn batches_led(&self) -> u64 {
        let t = self.hdt.tally();
        t.get(Counter::BatchesDrained) + t.get(Counter::BatchBulkBatches)
    }

    // ----- fault containment -------------------------------------------------

    /// Whether a leader panic poisoned the engine (see [`EngineError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_POISONED
    }

    /// The first poisoning panic's message, if the engine is poisoned.
    pub fn poison_note(&self) -> Option<String> {
        self.poison_note
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Drains the additions the forest refused for capacity since the last
    /// call. A rejected addition was *not* applied and *not* reported to the
    /// commit hook — callers that must not lose writes re-submit them after
    /// raising capacity (or route them elsewhere). Counted on
    /// [`Counter::CapacityRejections`], which
    /// [`BatchStats::rejected_updates`] reads.
    pub fn drain_rejected(&self) -> Vec<Edge> {
        std::mem::take(&mut *self.rejected.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Terminal transition after a leader panic. Runs under the leader lock
    /// the panicking leadership still holds: records the note, flips the
    /// state, releases every open intake slot with
    /// [`EngineError::Poisoned`], and dumps the flight recorder for the
    /// post-mortem before the caller gives up the lock.
    fn poison(&self, door: &str, payload: &(dyn std::any::Any + Send)) {
        let note = format!("{door}: {}", panic_message(payload));
        if self.state.swap(STATE_POISONED, Ordering::AcqRel) == STATE_RUNNING {
            *self.poison_note.lock().unwrap_or_else(|e| e.into_inner()) = Some(note);
        }
        // Release everyone *after* the state flip: a waiter that misses the
        // sweep (publishes later) observes the flag and retracts itself.
        let released = self.intake.sweep_open(|| Err(EngineError::Poisoned));
        self.hdt.tally().add(Counter::EnginePoisons, 1);
        dc_obs::event(
            dc_obs::EventKind::EnginePoison,
            self.batches_led(),
            released as u64,
        );
        dc_obs::auto_dump("engine-poisoned");
    }

    // ----- the single-op adapter door ----------------------------------------

    /// The checks every adapter operation passes before it touches the
    /// structure: fail fast on a poisoned engine, and cross the
    /// `IntakeStall` injection point (queries too, so a schedule's check
    /// ordinals count every adapter operation).
    fn admit(&self) -> Result<(), EngineError> {
        if self.is_poisoned() {
            return Err(EngineError::Poisoned);
        }
        if let Some(chaos) = self.chaos.get() {
            chaos.stall(InjectionPoint::IntakeStall);
        }
        Ok(())
    }

    /// Publishes one update and blocks until it is resolved, combining it
    /// with every concurrently published update; fails fast on a poisoned
    /// engine and types out an expired bounded wait.
    fn execute_update(&self, op: Update) -> Result<(), EngineError> {
        self.admit()?;
        let idx = self.intake.publish(op);
        // Time blocked in the intake (waiting for a leader to resolve the
        // slot) counts as lock-wait for the active-time-rate statistic;
        // leading a batch is work, so the timer pauses around it.
        let mut timer = waitstats::WaitTimer::start();
        let mut ladder = WaitLadder::new(self.wait_policy);
        let mut first_try = true;
        loop {
            if let Some(res) = self.intake.poll(idx) {
                timer.finish();
                return res;
            }
            if self.is_poisoned() {
                // Withdraw: either nobody ever saw the op (retract wins) or a
                // leadership claimed it, in which case the poison sweep
                // resolves the slot imminently — keep polling.
                if self.intake.retract(idx).is_some() {
                    timer.finish();
                    return Err(EngineError::Poisoned);
                }
                std::hint::spin_loop();
            } else if self.leader.try_lock() {
                first_try = false;
                timer.finish();
                self.lead_adapter_batch();
                self.leader.unlock();
                timer = waitstats::WaitTimer::start();
                // Leading was forward progress: restart the ladder's cheap
                // phase (the deadline, if any, keeps running).
                ladder.reset_phase();
            } else {
                if std::mem::take(&mut first_try) {
                    self.hdt.tally().add(Counter::BatchQueuedUpdates, 1);
                }
                if ladder.step() == WaitStep::TimedOut {
                    if self.intake.retract(idx).is_some() {
                        timer.finish();
                        self.hdt.tally().add(Counter::WaitTimeouts, 1);
                        return Err(EngineError::Timeout);
                    }
                    // A leader claimed the op after the deadline expired; it
                    // resolves the slot imminently.
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// One adapter leadership: runs the batch behind the unwind boundary,
    /// poisoning the engine if it panics. Must hold the leader lock; never
    /// unwinds.
    fn lead_adapter_batch(&self) {
        if self.is_poisoned() {
            // A previous leadership poisoned the engine; sweep anything
            // published since (late publishers also self-retract, but the
            // sweep is cheap and releases them without waiting for their
            // next poll).
            self.intake.sweep_open(|| Err(EngineError::Poisoned));
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.run_adapter_batch())) {
            self.poison("adapter batch leader panicked", payload.as_ref());
        }
    }

    /// Drains and applies one adapter batch of updates. Must hold the leader
    /// lock.
    fn run_adapter_batch(&self) {
        // SAFETY: leader lock held — exclusive access to the scratch state.
        let scratch = unsafe { &mut *self.scratch.get() };
        scratch.update_slots.clear();
        scratch.plan.clear();

        let update_slots = &mut scratch.update_slots;
        self.intake.claim_pending(|idx, _| update_slots.push(idx));
        if scratch.update_slots.is_empty() {
            return;
        }
        self.hdt.tally().add(Counter::BatchesDrained, 1);
        let claimed = scratch.update_slots.len() as u64;
        dc_obs::gauge_set(dc_obs::Gauge::IntakeDepth, claimed);
        dc_obs::event(dc_obs::EventKind::BatchBegin, claimed, 0);

        // Preprocess: move the ops out of their slots into the plan.
        for &idx in &scratch.update_slots {
            let (add, u, v) = self.intake.take(idx);
            scratch.plan.record(add, u, v);
        }
        self.flush_plan(
            &mut scratch.plan,
            &mut scratch.adds,
            &mut scratch.removes,
            &mut scratch.rejected,
        );

        // Fan out: the batch is applied, wake its callers. (A capacity-
        // rejected addition still completes with `Ok` — per-edge rejection
        // is reported out-of-band through `drain_rejected`, because the
        // owner of an annihilated duplicate can't be told apart from the
        // owner of the rejected survivor.)
        for &idx in &scratch.update_slots {
            self.intake.complete(idx, Ok(()));
        }
    }

    /// Compacts `plan` and applies the surviving updates in one combined
    /// pass. Must hold the leader lock (the single-writer role).
    ///
    /// When the structure holds no edges and the batch removes nothing, the
    /// pass is [`Hdt::bulk_build`], which links the whole spanning forest at
    /// once; otherwise each update goes through the per-edge path. Both give
    /// the same structure and reject the same additions.
    ///
    /// Additions the forest refuses for capacity land in `rejected` (and
    /// the engine's [`BatchEngine::drain_rejected`] buffer) and are filtered
    /// out of `adds` *before* the commit hook runs, so the durable log only
    /// ever records updates that actually applied. A panic anywhere in here
    /// (including the two chaos injection points) unwinds into the calling
    /// leadership's boundary and poisons the engine.
    fn flush_plan(
        &self,
        plan: &mut UpdatePlan,
        adds: &mut Vec<Edge>,
        removes: &mut Vec<Edge>,
        rejected: &mut Vec<Edge>,
    ) {
        if plan.is_empty() {
            return;
        }
        adds.clear();
        removes.clear();
        rejected.clear();
        let _span = dc_obs::span(dc_obs::SpanId::BatchFlush);
        let hdt = &self.hdt;
        let survivors = plan.compact_into(|e| hdt.has_edge(e.u(), e.v()), adds, removes);
        hdt.tally()
            .add(Counter::BatchSubmittedUpdates, plan.submitted() as u64);
        dc_obs::event(
            dc_obs::EventKind::BatchFlush,
            survivors as u64,
            (plan.submitted() - survivors) as u64,
        );
        // Chaos: die with the batch compacted but *nothing* applied — the
        // whole batch must be invisible to both the structure and the log.
        if self.chaos_fires(InjectionPoint::LeaderPanicBeforeApply) {
            panic!("chaos injection: leader panic before apply");
        }
        if removes.is_empty() && self.live_edges.load(Ordering::Relaxed) == 0 {
            self.hdt.bulk_build(adds, rejected);
        } else {
            self.hdt
                .try_apply_compacted_batch_locked(adds, removes, rejected);
        }
        if !rejected.is_empty() {
            adds.retain(|e| !rejected.contains(e));
            self.rejected
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(rejected);
        }
        // Compacted adds were all absent and removes all present, so every
        // one that was not rejected changed the edge count.
        self.live_edges.store(
            self.live_edges.load(Ordering::Relaxed) + adds.len() - removes.len(),
            Ordering::Relaxed,
        );
        let applied = survivors - rejected.len();
        hdt.tally()
            .add(Counter::BatchUpdatesApplied, applied as u64);
        // The batch is applied but none of its callers have been released:
        // the commit hook observes every batch at its linearization point,
        // with the structure quiescent. Fully annihilated (or fully
        // rejected) batches changed nothing and are invisible to recovery,
        // so they are not reported.
        if !adds.is_empty() || !removes.is_empty() {
            if let Some(hook) = &self.commit_hook {
                hook(&self.hdt, adds, removes);
            }
            // Chaos: die with the batch applied *and* logged — recovery must
            // replay it; the callers were never acked.
            if self.chaos_fires(InjectionPoint::LeaderPanicAfterCommit) {
                panic!("chaos injection: leader panic after commit hook");
            }
        }
        plan.clear();
    }

    // ----- the bulk door ------------------------------------------------------

    /// Answers one accumulated query run (`q.run`) against the current
    /// (update-quiescent) state: short runs go straight to the lock-free
    /// read, longer runs coalesce duplicates onto one shared read, and runs
    /// large enough to amortize a spawn fan out across scoped threads.
    fn answer_query_run(&self, q: &mut QueryScratch, results: &mut Vec<QueryResult>) {
        if q.run.is_empty() {
            return;
        }
        self.hdt
            .tally()
            .add(Counter::BatchSubmittedQueries, q.run.len() as u64);

        // Short runs (the common case when updates and queries alternate):
        // the coalescing table costs more than it saves, answer directly.
        const INLINE_RUN: usize = 8;
        if q.run.len() <= INLINE_RUN {
            for &(op_index, u, v) in &q.run {
                results.push(QueryResult {
                    op_index,
                    u,
                    v,
                    connected: self.hdt.connected(u, v),
                });
            }
            q.run.clear();
            return;
        }

        // Coalesce repeated pairs: one read per distinct (normalized) pair.
        q.unique.clear();
        q.refs.clear();
        q.pair_index.clear();
        let (unique, pair_index) = (&mut q.unique, &mut q.pair_index);
        q.refs.extend(q.run.iter().map(|&(_, u, v)| {
            let key = (u.min(v), u.max(v));
            *pair_index.entry(key).or_insert_with(|| {
                unique.push(key);
                unique.len() - 1
            })
        }));
        self.hdt.tally().add(
            Counter::BatchCoalescedQueries,
            (q.run.len() - q.unique.len()) as u64,
        );

        // Fan out only when every spawned thread gets a chunk big enough to
        // amortize its spawn (a scoped spawn costs more than a few hundred
        // lock-free reads).
        let fanout = self
            .query_threads
            .min(q.unique.len() / PARALLEL_QUERY_CHUNK)
            .max(1);
        if fanout > 1 {
            q.answers.clear();
            q.answers.resize(q.unique.len(), false);
            let chunk = q.unique.len().div_ceil(fanout);
            std::thread::scope(|s| {
                for (pairs, out) in q.unique.chunks(chunk).zip(q.answers.chunks_mut(chunk)) {
                    let hdt = &self.hdt;
                    s.spawn(move || {
                        // `connected_many` resolves each distinct endpoint's
                        // root once and revalidates per pair, so a chunk full
                        // of repeated hot roots never re-climbs — and the
                        // hints it installs are shared by every other chunk
                        // of this (update-quiescent) batch.
                        let mut answers = Vec::with_capacity(pairs.len());
                        hdt.connected_many(pairs, &mut answers);
                        out.copy_from_slice(&answers);
                    });
                }
            });
        } else {
            q.answers.clear();
            self.hdt.connected_many(&q.unique, &mut q.answers);
        }

        for (&(op_index, u, v), &uidx) in q.run.iter().zip(&q.refs) {
            results.push(QueryResult {
                op_index,
                u,
                v,
                connected: q.answers[uidx],
            });
        }
        q.run.clear();
    }
}

impl BatchEngine {
    // ----- the typed (fallible) doors ----------------------------------------

    /// [`DynamicConnectivity::add_edge`] with engine faults surfaced as
    /// values instead of panics.
    pub fn try_add_edge(&self, u: u32, v: u32) -> Result<(), EngineError> {
        if u == v {
            return Ok(());
        }
        self.execute_update((true, u, v))
    }

    /// [`DynamicConnectivity::remove_edge`] with engine faults surfaced as
    /// values instead of panics.
    pub fn try_remove_edge(&self, u: u32, v: u32) -> Result<(), EngineError> {
        if u == v {
            return Ok(());
        }
        self.execute_update((false, u, v))
    }

    /// [`DynamicConnectivity::connected`] with engine faults surfaced as
    /// values instead of panics. The answer is the HDT's lock-free read on
    /// the calling thread: it never enters the intake and never waits for a
    /// leader, so it never returns [`EngineError::Timeout`].
    pub fn try_connected(&self, u: u32, v: u32) -> Result<bool, EngineError> {
        if u == v {
            return Ok(true);
        }
        self.admit()?;
        Ok(self.hdt.connected(u, v))
    }

    /// [`BatchConnectivity::apply_batch`] with engine faults surfaced as
    /// values instead of panics. Never returns [`EngineError::Timeout`]:
    /// the bulk door takes the leader lock blocking.
    pub fn try_apply_batch(&self, ops: &[BatchOp]) -> Result<Vec<QueryResult>, EngineError> {
        if self.is_poisoned() {
            return Err(EngineError::Poisoned);
        }
        // The bulk door takes the same leader lock as the adapter batches —
        // one combined writer at a time. The lock is held for the *whole*
        // bulk batch, so adapter callers wait out the full batch; bulk batch
        // size is therefore also the adapter's worst-case latency knob.
        self.leader.lock();
        if self.is_poisoned() {
            // Poisoned while we queued for leadership.
            self.leader.unlock();
            return Err(EngineError::Poisoned);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run_bulk_batch(ops)));
        let result = match outcome {
            Ok(results) => Ok(results),
            Err(payload) => {
                self.poison("bulk batch leader panicked", payload.as_ref());
                Err(EngineError::Poisoned)
            }
        };
        self.leader.unlock();
        result
    }

    /// The bulk batch body; runs behind [`BatchEngine::try_apply_batch`]'s
    /// unwind boundary with the leader lock held.
    fn run_bulk_batch(&self, ops: &[BatchOp]) -> Vec<QueryResult> {
        self.hdt.tally().add(Counter::BatchBulkBatches, 1);
        // SAFETY: leader lock held — exclusive access to the scratch state.
        let scratch = unsafe { &mut *self.scratch.get() };
        scratch.plan.clear();
        scratch.queries.run.clear();
        let mut results = Vec::new();

        // Split the batch into maximal update runs and query runs: an update
        // run is compacted and applied as one combined pass before the next
        // query run is answered, which is exactly sequential equivalence.
        for (op_index, op) in ops.iter().enumerate() {
            match *op {
                BatchOp::Add(u, v) => {
                    self.answer_query_run(&mut scratch.queries, &mut results);
                    scratch.plan.record(true, u, v);
                }
                BatchOp::Remove(u, v) => {
                    self.answer_query_run(&mut scratch.queries, &mut results);
                    scratch.plan.record(false, u, v);
                }
                BatchOp::Query(u, v) => {
                    self.flush_plan(
                        &mut scratch.plan,
                        &mut scratch.adds,
                        &mut scratch.removes,
                        &mut scratch.rejected,
                    );
                    scratch.queries.run.push((op_index, u, v));
                }
            }
        }
        self.flush_plan(
            &mut scratch.plan,
            &mut scratch.adds,
            &mut scratch.removes,
            &mut scratch.rejected,
        );
        self.answer_query_run(&mut scratch.queries, &mut results);
        results
    }
}

impl BatchEngine {
    /// Spawns a [`dc_faults::Watchdog`] wired to this engine:
    ///
    /// * **`batch-leader`** — active while the leader lock is held; progress
    ///   is the batch count. A leadership that holds the lock without
    ///   finishing a batch for `stall_ticks` probe intervals flags
    ///   [`dc_obs::Gauge::WatchdogStalledProbes`] and logs a
    ///   [`dc_obs::EventKind::WatchdogStall`] flight event.
    /// * **`ett-epoch`** — active while any reader pin is outstanding;
    ///   progress is the reclamation epoch. A pin that wedges the epoch
    ///   (a parked reader blocking every grace period) flags the same way.
    ///
    /// The handle stops and joins the thread on drop. Purely observational:
    /// the watchdog never intervenes.
    pub fn spawn_watchdog(
        self: &Arc<Self>,
        interval: Duration,
        stall_ticks: u32,
    ) -> dc_faults::WatchdogHandle {
        let leader = Arc::downgrade(self);
        let epoch = Arc::downgrade(self);
        dc_faults::Watchdog::new(interval, stall_ticks)
            .probe(dc_faults::Probe::new("batch-leader", move || {
                let engine = leader.upgrade()?;
                if !engine.leader.is_locked() {
                    return None;
                }
                Some(engine.batches_led())
            }))
            .probe(dc_faults::Probe::new("ett-epoch", move || {
                let engine = epoch.upgrade()?;
                let domain = engine.hdt.forest(0).epoch_domain();
                if domain.active_pins() == 0 {
                    return None;
                }
                Some(domain.current_epoch())
            }))
            .spawn()
    }
}

impl DynamicConnectivity for BatchEngine {
    fn add_edge(&self, u: u32, v: u32) {
        if let Err(e) = self.try_add_edge(u, v) {
            panic!("BatchEngine::add_edge: {e} (use the try_* doors to handle engine faults)");
        }
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if let Err(e) = self.try_remove_edge(u, v) {
            panic!("BatchEngine::remove_edge: {e} (use the try_* doors to handle engine faults)");
        }
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        match self.try_connected(u, v) {
            Ok(answer) => answer,
            Err(e) => {
                panic!("BatchEngine::connected: {e} (use the try_* doors to handle engine faults)")
            }
        }
    }

    fn num_vertices(&self) -> usize {
        self.hdt.num_vertices()
    }

    fn tally(&self) -> Option<&dc_obs::Tally> {
        Some(self.hdt.tally())
    }

    fn set_read_hints(&self, enabled: bool) {
        self.hdt.set_read_hints(enabled);
    }
}

impl BatchConnectivity for BatchEngine {
    fn apply_batch(&self, ops: &[BatchOp]) -> Vec<QueryResult> {
        match self.try_apply_batch(ops) {
            Ok(results) => results,
            Err(e) => {
                panic!(
                    "BatchEngine::apply_batch: {e} (use try_apply_batch to handle engine faults)"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_faults::ChaosConfig;
    use dynconn::sequential_apply_batch;
    use dynconn::RecomputeOracle;

    /// One fault of `point`, scheduled on its very first check.
    fn one_shot(point: InjectionPoint) -> Arc<ChaosSchedule> {
        let mut faults = [0; InjectionPoint::COUNT];
        faults[point as usize] = 1;
        Arc::new(ChaosSchedule::from_config(ChaosConfig {
            horizon: 1,
            faults_per_point: faults,
            ..Default::default()
        }))
    }

    #[test]
    fn single_op_adapter_matches_basic_semantics() {
        let engine = BatchEngine::new(8);
        assert!(!engine.connected(0, 3));
        engine.add_edge(0, 1);
        engine.add_edge(1, 2);
        engine.add_edge(2, 3);
        assert!(engine.connected(0, 3));
        engine.remove_edge(1, 2);
        assert!(!engine.connected(0, 3));
        assert!(engine.connected(0, 1));
        engine.hdt().validate();
        let stats = engine.stats();
        assert!(stats.batches >= 4);
        assert_eq!(stats.submitted_updates, 4);
        assert_eq!(stats.applied_updates, 4);
    }

    #[test]
    fn bulk_batch_matches_sequential_reference() {
        let engine = BatchEngine::new(6);
        let oracle = RecomputeOracle::new(6);
        let ops = vec![
            BatchOp::Query(0, 2),
            BatchOp::Add(0, 1),
            BatchOp::Add(1, 2),
            BatchOp::Query(0, 2),
            BatchOp::Add(3, 4),
            BatchOp::Remove(0, 1),
            BatchOp::Query(0, 2),
            BatchOp::Query(1, 2),
            BatchOp::Add(0, 1),
            BatchOp::Remove(0, 1),
            BatchOp::Query(0, 1),
        ];
        assert_eq!(
            engine.apply_batch(&ops),
            sequential_apply_batch(&oracle, &ops)
        );
        engine.hdt().validate();
    }

    #[test]
    fn annihilation_cancels_churn_before_the_tree() {
        let engine = BatchEngine::new(4);
        // 100 add/remove pairs of the same absent edge in one batch: net
        // nothing may reach the HDT.
        let mut ops = Vec::new();
        for _ in 0..100 {
            ops.push(BatchOp::Add(0, 1));
            ops.push(BatchOp::Remove(0, 1));
        }
        let results = engine.apply_batch(&ops);
        assert!(results.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.submitted_updates, 200);
        assert_eq!(stats.applied_updates, 0);
        assert!(stats.compaction_ratio() < 1e-9);
        assert_eq!(
            engine.hdt().stats().additions,
            0,
            "the tree was never touched"
        );
    }

    #[test]
    fn repeated_queries_coalesce_in_bulk_batches() {
        let engine = BatchEngine::new(4);
        let mut ops = vec![BatchOp::Add(0, 1)];
        for _ in 0..50 {
            ops.push(BatchOp::Query(0, 1));
            ops.push(BatchOp::Query(1, 0)); // same pair, other orientation
        }
        let results = engine.apply_batch(&ops);
        assert_eq!(results.len(), 100);
        assert!(results.iter().all(|r| r.connected));
        assert_eq!(engine.stats().coalesced_queries, 99);
    }

    #[test]
    fn concurrent_adapter_threads_stay_consistent() {
        let engine = Arc::new(BatchEngine::new(64));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let base = t * 16;
                    for i in 0..15 {
                        engine.add_edge(base + i, base + i + 1);
                    }
                    assert!(engine.connected(base, base + 15));
                    engine.remove_edge(base + 7, base + 8);
                    assert!(!engine.connected(base, base + 15));
                });
            }
        });
        assert!(!engine.connected(0, 63));
        assert!(engine.connected(0, 7));
        engine.hdt().validate();
    }

    #[test]
    fn bulk_and_adapter_doors_interleave() {
        let engine = Arc::new(BatchEngine::new(32));
        std::thread::scope(|s| {
            let bulk = Arc::clone(&engine);
            s.spawn(move || {
                for _ in 0..50 {
                    let ops = vec![
                        BatchOp::Add(0, 1),
                        BatchOp::Query(0, 1),
                        BatchOp::Remove(0, 1),
                        BatchOp::Query(0, 1),
                    ];
                    let results = bulk.apply_batch(&ops);
                    assert!(results[0].connected);
                    assert!(!results[1].connected);
                }
            });
            let single = Arc::clone(&engine);
            s.spawn(move || {
                for _ in 0..50 {
                    single.add_edge(10, 11);
                    assert!(single.connected(10, 11));
                    single.remove_edge(10, 11);
                    assert!(!single.connected(10, 11));
                }
            });
        });
        engine.hdt().validate();
    }

    #[test]
    fn leader_panic_poisons_instead_of_hanging() {
        let mut engine = BatchEngine::new(8);
        engine.set_commit_hook(Box::new(|_, _, _| panic!("hook exploded")));
        let engine = Arc::new(engine);
        // The first update batch trips the hook on our own leadership; the
        // unwind boundary converts it into the typed poison.
        assert_eq!(engine.try_add_edge(0, 1), Err(EngineError::Poisoned));
        assert!(engine.is_poisoned());
        let note = engine.poison_note().expect("poison note recorded");
        assert!(note.contains("hook exploded"), "{note}");
        // Every door fails fast, from any thread.
        assert_eq!(engine.try_remove_edge(0, 1), Err(EngineError::Poisoned));
        assert_eq!(engine.try_connected(0, 1), Err(EngineError::Poisoned));
        assert_eq!(
            engine.try_apply_batch(&[BatchOp::Add(2, 3)]),
            Err(EngineError::Poisoned)
        );
        let remote = Arc::clone(&engine);
        std::thread::spawn(move || {
            assert_eq!(remote.try_add_edge(4, 5), Err(EngineError::Poisoned));
        })
        .join()
        .unwrap();
        // The infallible trait doors panic on the caller's thread instead.
        let trait_door = catch_unwind(AssertUnwindSafe(|| engine.add_edge(6, 7)));
        assert!(trait_door.is_err());
    }

    #[test]
    fn poison_releases_every_blocked_waiter() {
        let mut engine = BatchEngine::new(64);
        engine.set_commit_hook(Box::new(|_, _, _| {
            // Let waiters pile up behind this leadership before dying.
            std::thread::sleep(Duration::from_millis(50));
            panic!("hook exploded mid-batch");
        }));
        let engine = Arc::new(engine);
        let mut outcomes = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..6u32 {
                let engine = Arc::clone(&engine);
                handles.push(s.spawn(move || engine.try_add_edge(t * 2, t * 2 + 1)));
            }
            for h in handles {
                outcomes.push(h.join().unwrap());
            }
        });
        // No waiter hung (the scope joined) and no waiter was acked: the
        // first leadership panicked before completing any slot, later
        // publishers saw the poison flag or were swept.
        assert!(engine.is_poisoned());
        assert!(outcomes.iter().all(|r| *r == Err(EngineError::Poisoned)));
    }

    #[test]
    fn chaos_injection_panics_and_poisons_before_apply() {
        let engine = BatchEngine::new(8);
        engine.attach_chaos(one_shot(InjectionPoint::LeaderPanicBeforeApply));
        let result = engine.try_add_edge(0, 1);
        assert_eq!(result, Err(EngineError::Poisoned));
        assert!(engine.is_poisoned());
        let note = engine.poison_note().unwrap();
        assert!(note.contains("chaos injection"), "{note}");
        // The panic fired before the apply: the structure never saw the add.
        assert!(!engine.hdt().has_edge(0, 1));
    }

    #[test]
    fn bounded_wait_times_out_under_a_stalled_leader() {
        waitstats::set_enabled(true);
        waitstats::reset();
        let mut engine = BatchEngine::new(8);
        engine.set_wait_policy(WaitPolicy::with_deadline(Duration::from_millis(25)));
        let engine = Arc::new(engine);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let staller = Arc::clone(&engine);
            s.spawn(move || {
                staller.with_exclusive(|_| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(200));
                });
            });
            rx.recv().unwrap();
            let t0 = std::time::Instant::now();
            assert_eq!(engine.try_add_edge(0, 1), Err(EngineError::Timeout));
            assert!(
                t0.elapsed() < Duration::from_millis(190),
                "the deadline must fire while the leader is still stalled"
            );
        });
        // The parked wait was accounted (satellite: the ladder feeds the
        // waitstats active-time-rate statistic).
        assert!(waitstats::wait_events() > 0);
        assert!(waitstats::total_wait_nanos() > 0);
        waitstats::set_enabled(false);
        // The withdrawn op had no effect; the engine is healthy.
        assert!(!engine.is_poisoned());
        assert!(!engine.connected(0, 1));
    }

    /// The adapter's query door is the lock-free read: it answers while
    /// another thread holds the leader lock, instead of waiting for a
    /// leader to drain it. The wait is bounded so a blocking door fails the
    /// test rather than hanging it.
    #[test]
    fn queries_answer_while_the_leader_lock_is_held() {
        let engine = BatchEngine::new(8);
        engine.add_edge(0, 1);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (answer_tx, answer_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let engine = &engine;
            s.spawn(move || {
                engine.with_exclusive(|_| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv_timeout(Duration::from_secs(30));
                })
            });
            held_rx.recv().unwrap();
            s.spawn(move || {
                let answers = (engine.try_connected(0, 1), engine.connected(0, 2));
                answer_tx.send(answers).unwrap();
            });
            let answers = answer_rx.recv_timeout(Duration::from_secs(5));
            // Release the leader before asserting, so a blocked query
            // finishes and the scope joins either way.
            release_tx.send(()).unwrap();
            assert_eq!(
                answers,
                Ok((Ok(true), false)),
                "a query waited on the leader lock"
            );
        });
    }

    #[test]
    fn an_update_behind_a_held_leader_lock_counts_as_queued() {
        let engine = BatchEngine::new(8);
        engine.add_edge(0, 1);
        assert_eq!(engine.stats().queued_updates, 0, "it led its own batch");
        std::thread::scope(|s| {
            engine.with_exclusive(|_| {
                s.spawn(|| engine.add_edge(1, 2));
                // The update's first try for the leader lock fails while
                // this holds it; release once it has counted.
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while engine.stats().queued_updates == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        });
        assert!(engine.connected(0, 2));
        let stats = engine.stats();
        assert_eq!((stats.queued_updates, stats.submitted_updates), (1, 2));
    }

    #[test]
    fn capacity_rejected_adds_are_drained_not_applied() {
        let engine = BatchEngine::new(8);
        engine.add_edge(0, 1);
        // Cap the arena: the next spanning link's bump allocation must fail.
        engine.hdt().forest(0).set_node_limit(Some(0));
        engine.add_edge(2, 3); // trait door still acks; rejection is out-of-band
        assert!(!engine.connected(2, 3));
        assert!(
            !engine.is_poisoned(),
            "capacity is a rejection, not a fault"
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected_updates, 1);
        assert_eq!(engine.drain_rejected(), vec![dc_graph::Edge::new(2, 3)]);
        assert!(
            engine.drain_rejected().is_empty(),
            "drain empties the buffer"
        );
        // Raising the cap heals the path; nothing was poisoned or lost.
        engine.hdt().forest(0).set_node_limit(None);
        engine.add_edge(2, 3);
        assert!(engine.connected(2, 3));
    }

    #[test]
    fn rejected_adds_never_reach_the_commit_hook() {
        let logged: Arc<std::sync::Mutex<Vec<Edge>>> = Arc::default();
        let mut engine = BatchEngine::new(8);
        let sink = Arc::clone(&logged);
        engine.set_commit_hook(Box::new(move |_, adds, _| {
            sink.lock().unwrap().extend_from_slice(adds);
        }));
        engine.hdt().forest(0).set_node_limit(Some(0));
        // One rejected spanning add and one applied non-spanning no-op
        // batch: only applied updates may reach the log.
        let results = engine
            .try_apply_batch(&[BatchOp::Add(0, 1), BatchOp::Query(0, 1)])
            .unwrap();
        assert!(!results[0].connected);
        assert_eq!(engine.stats().rejected_updates, 1);
        assert!(logged.lock().unwrap().is_empty());
    }

    #[test]
    fn watchdog_flags_a_stuck_leader() {
        let engine = Arc::new(BatchEngine::new(8));
        let watchdog = engine.spawn_watchdog(Duration::from_millis(5), 3);
        engine.with_exclusive(|_| std::thread::sleep(Duration::from_millis(120)));
        let stalls = watchdog.stall_count();
        watchdog.stop();
        assert!(
            stalls >= 1,
            "holding the leader lock for 120ms against 5ms probes must flag a stall"
        );
    }

    #[test]
    fn chaos_schedule_stays_with_its_own_engine() {
        // Engine A carries a one-shot leader panic; engine B, driven at the
        // same time, carries nothing and must never see A's fault.
        let schedule = one_shot(InjectionPoint::LeaderPanicBeforeApply);
        let a = BatchEngine::new(32);
        a.attach_chaos(Arc::clone(&schedule));
        let b = BatchEngine::new(32);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (a, start) = (&a, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..8 {
                        let u = t * 16 + i;
                        if a.try_add_edge(u, u + 1) == Err(EngineError::Poisoned) {
                            break;
                        }
                    }
                });
            }
            for t in 0..2u32 {
                let (b, start) = (&b, &start);
                s.spawn(move || {
                    // Each thread owns the block 16t..16t+16, so its own
                    // oracle is a sequential reference for its answers.
                    let oracle = RecomputeOracle::new(32);
                    let base = t * 16;
                    start.wait();
                    for round in 0..20u32 {
                        let u = base + round % 15;
                        let v = base + (round * 7 + 3) % 16;
                        if round % 3 == 2 {
                            b.remove_edge(u, v);
                            oracle.remove_edge(u, v);
                        } else {
                            b.add_edge(u, v);
                            oracle.add_edge(u, v);
                        }
                        for w in base..base + 16 {
                            assert_eq!(b.connected(base, w), oracle.connected(base, w));
                        }
                    }
                });
            }
        });
        assert!(a.is_poisoned());
        let note = a.poison_note().unwrap();
        assert!(note.contains("chaos injection"), "{note}");
        assert!(!b.is_poisoned());
        b.hdt().validate();
        // Every check of the point was one of A's own batches: B never
        // consumed A's ordinals.
        let a_stats = a.stats();
        assert_eq!(
            schedule.checks(InjectionPoint::LeaderPanicBeforeApply),
            a_stats.batches + a_stats.bulk_batches
        );
        assert_eq!(schedule.fired(InjectionPoint::LeaderPanicBeforeApply), 1);
    }

    #[test]
    fn large_query_runs_fan_out_in_parallel() {
        let engine = BatchEngine::with_options(1000, 16, 4);
        let mut ops: Vec<BatchOp> = (0..999).map(|i| BatchOp::Add(i, i + 1)).collect();
        for i in 0..1000 {
            ops.push(BatchOp::Query(0, i));
        }
        let results = engine.apply_batch(&ops);
        assert_eq!(results.len(), 1000);
        assert!(results.iter().all(|r| r.connected));
    }

    /// Lock-free readers race a bulk `apply_batch` into an empty engine,
    /// which takes the bulk-build route: a pair in different final
    /// components never reads connected, a pair that read connected never
    /// reads disconnected later, and once the batch returns every answer
    /// matches the oracle.
    #[test]
    fn readers_racing_a_bulk_load_see_only_merges() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: u32 = 3000;
        for round in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(round);
            // Local edges over the first 3/4 of the vertices: long paths,
            // cycles (non-spanning edges), repeats and self-loops; the last
            // quarter stays isolated.
            let span = N * 3 / 4;
            let ops: Vec<BatchOp> = (0..2 * N)
                .map(|_| {
                    let u = rng.gen_range(0..span);
                    BatchOp::Add(u, (u + rng.gen_range(0..24u32)) % span)
                })
                .collect();
            let mut oracle = dynconn::UnionFind::new(N as usize);
            for op in &ops {
                let (u, v) = op.endpoints();
                oracle.union(u, v);
            }
            let component: Vec<u32> = (0..N).map(|v| oracle.find(v)).collect();
            let pairs: Vec<(u32, u32)> = (0..512)
                .map(|_| {
                    let u = rng.gen_range(0..N);
                    (u, (u + rng.gen_range(1..200u32)) % N)
                })
                .collect();

            let engine = BatchEngine::with_options(N as usize, 8, 1);
            let done = AtomicU8::new(0);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut seen = vec![false; pairs.len()];
                        while done.load(Ordering::Acquire) == 0 {
                            for (i, &(u, v)) in pairs.iter().enumerate() {
                                if engine.hdt().connected(u, v) {
                                    assert_eq!(
                                        component[u as usize], component[v as usize],
                                        "round {round}: ({u}, {v}) read connected across final components"
                                    );
                                    seen[i] = true;
                                } else {
                                    assert!(
                                        !seen[i],
                                        "round {round}: ({u}, {v}) read connected, then disconnected"
                                    );
                                }
                            }
                        }
                    });
                }
                engine.apply_batch(&ops);
                done.store(1, Ordering::Release);
            });
            for &(u, v) in &pairs {
                assert_eq!(
                    engine.hdt().connected(u, v),
                    component[u as usize] == component[v as usize],
                    "round {round}: ({u}, {v}) after the batch"
                );
            }
            engine.hdt().validate();
        }
    }

    /// Under an arena cap or injected allocation failures, the bulk-build
    /// route rejects exactly the adds the per-edge path rejects, and the
    /// commit hook logs only the applied ones.
    #[test]
    fn bulk_route_rejects_what_the_per_edge_path_rejects() {
        const N: u32 = 48;
        // Cliques of six, interleaved so spanning and non-spanning adds mix.
        let mut adds: Vec<Edge> = Vec::new();
        for offset in 1..6 {
            for u in 0..N {
                let v = u - u % 6 + (u % 6 + offset) % 6;
                if u < v {
                    adds.push(Edge::new(u, v));
                }
            }
        }
        let ops: Vec<BatchOp> = adds.iter().map(|e| BatchOp::Add(e.u(), e.v())).collect();
        for case in 0..6u64 {
            let logged: Arc<std::sync::Mutex<Vec<Edge>>> = Arc::default();
            let mut engine = BatchEngine::new(N as usize);
            let sink = Arc::clone(&logged);
            engine.set_commit_hook(Box::new(move |_, adds, _| {
                sink.lock().unwrap().extend_from_slice(adds);
            }));
            let reference = Hdt::new(N as usize);
            let schedule = if case < 3 {
                let limit = Some(N + 8 * case as u32 + 2);
                engine.hdt().forest(0).set_node_limit(limit);
                reference.forest(0).set_node_limit(limit);
                None
            } else {
                let mut faults = [0; InjectionPoint::COUNT];
                faults[InjectionPoint::ArenaAlloc as usize] = 3;
                let config = ChaosConfig {
                    seed: case,
                    horizon: 60,
                    faults_per_point: faults,
                    ..Default::default()
                };
                let schedule = Arc::new(ChaosSchedule::from_config(config));
                engine.attach_chaos(Arc::clone(&schedule));
                reference
                    .forest(0)
                    .attach_chaos(Arc::new(ChaosSchedule::from_config(config)));
                Some(schedule)
            };

            engine.apply_batch(&ops);
            let mut expected = Vec::new();
            reference.try_apply_compacted_batch_locked(&adds, &[], &mut expected);

            assert!(!expected.is_empty(), "case {case}: nothing was rejected");
            if let Some(schedule) = schedule {
                assert_eq!(schedule.fired(InjectionPoint::ArenaAlloc), 3, "case {case}");
            }
            assert_eq!(engine.drain_rejected(), expected, "case {case}: rejections");
            let applied: Vec<Edge> = adds
                .iter()
                .copied()
                .filter(|e| !expected.contains(e))
                .collect();
            assert_eq!(*logged.lock().unwrap(), applied, "case {case}: commit log");
            for u in 0..N {
                for v in u + 1..N {
                    assert_eq!(
                        engine.hdt().has_edge(u, v),
                        reference.has_edge(u, v),
                        "case {case}: edge ({u}, {v})"
                    );
                    assert_eq!(
                        engine.hdt().connected(u, v),
                        reference.connected(u, v),
                        "case {case}: ({u}, {v})"
                    );
                }
            }
            engine.hdt().validate();
        }
    }
}

//! A sharded MPSC intake array: per-thread, cache-line-padded publication
//! slots with a claim/complete protocol.
//!
//! This is the mechanism underneath batch-parallel execution engines (the
//! `dc_batch` crate): every thread owns one padded slot into which it
//! publishes an operation; whichever thread drives the batch (the *leader*,
//! elected by the policy layer — typically a [`crate::spinlock::RawSpinLock`])
//! claims all currently published operations at once, executes them, and
//! deposits each result with [`IntakeArray::complete`]; the owner picks it
//! up with [`IntakeArray::poll`].
//!
//! The slot state machine (all transitions are single atomic stores/CAS):
//!
//! ```text
//!            publish                claim            complete
//!   EMPTY ───────────► PENDING ───────────► CLAIMED ───────────► DONE
//!     ▲                   │ retract                                │
//!     │                   ▼                                        │
//!     ├──────────────  RETRACTING                                  │
//!     └───────────────────────────── poll ◄────────────────────────┘
//! ```
//!
//! The array fixes no execution policy: batching, annihilation, leader
//! election and result semantics all live in the caller (the batch engine
//! and `dynconn::combining` are its two users). Slots are
//! `#[repr(align(128))]` so two threads' publications never share a cache
//! line.

use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

const SLOT_EMPTY: u8 = 0;
const SLOT_PENDING: u8 = 1;
const SLOT_CLAIMED: u8 = 2;
const SLOT_DONE: u8 = 3;
/// Owner-side withdrawal in progress ([`IntakeArray::retract`]). A distinct
/// state (not `CLAIMED`) so a leader sweeping the array on the poison path
/// can tell "a leader claimed this and must resolve it" from "the owner is
/// taking it back right now" — the sweep must leave the latter alone.
const SLOT_RETRACTING: u8 = 4;

/// One padded publication slot. Two slots never share a cache line
/// (128 bytes covers the spatial-prefetcher pair on x86 and 128-byte lines
/// on apple silicon).
#[repr(align(128))]
struct Slot<Op, Res> {
    state: AtomicU8,
    op: UnsafeCell<Option<Op>>,
    res: UnsafeCell<Option<Res>>,
}

impl<Op, Res> Slot<Op, Res> {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(SLOT_EMPTY),
            op: UnsafeCell::new(None),
            res: UnsafeCell::new(None),
        }
    }
}

/// The sharded intake array. See the module documentation.
pub struct IntakeArray<Op, Res> {
    id: usize,
    slots: Box<[Slot<Op, Res>]>,
    registered: AtomicUsize,
    /// Indices returned by exited threads, available for reuse — the slot
    /// capacity bounds *concurrent* threads, not the total number of threads
    /// that ever published (a thread-per-request server cycles through
    /// thousands of short-lived threads over one long-lived array).
    free: Arc<Mutex<Vec<usize>>>,
}

/// A thread's claim on one slot of one array; dropping it (at thread exit,
/// via the thread-local registry) returns the index to the array's free
/// list. The `Weak` makes an array dropped before its publishing thread a
/// no-op.
struct SlotLease {
    idx: usize,
    free: Weak<Mutex<Vec<usize>>>,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        if let Some(free) = self.free.upgrade() {
            free.lock().push(self.idx);
        }
    }
}

// SAFETY: the op cell is written by its owning thread before the PENDING
// release-store and only read after the claiming thread's acquire CAS; the
// res cell is written by the leader before the DONE release-store and read
// by the owner after an acquire load. RETRACTING returns the op to the
// thread that wrote it (no cross-thread data movement). All cross-thread
// accesses are therefore ordered by the state variable.
unsafe impl<Op: Send, Res: Send> Sync for IntakeArray<Op, Res> {}
unsafe impl<Op: Send, Res: Send> Send for IntakeArray<Op, Res> {}

static INTAKE_IDS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Maps intake-array id -> this thread's slot lease. Leases drop (and
    /// free their indices) when the thread exits.
    static THREAD_SLOTS: RefCell<HashMap<usize, SlotLease>> = RefCell::new(HashMap::new());
}

impl<Op, Res> IntakeArray<Op, Res> {
    /// Default maximum number of participating threads.
    pub const DEFAULT_SLOTS: usize = 256;

    /// Creates an intake array with the default thread capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_SLOTS)
    }

    /// Creates an intake array with space for at most `capacity` threads.
    pub fn with_capacity(capacity: usize) -> Self {
        IntakeArray {
            id: INTAKE_IDS.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity.max(1))
                .map(|_| Slot::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            registered: AtomicUsize::new(0),
            free: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Number of slots (the thread capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot_index(&self) -> usize {
        THREAD_SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if !slots.contains_key(&self.id) {
                // First contact with this array: drop leases whose arrays are
                // gone, so a long-lived thread cycling through many engines
                // keeps its registry bounded by the number of *live* arrays.
                slots.retain(|_, lease| lease.free.strong_count() > 0);
            }
            slots
                .entry(self.id)
                .or_insert_with(|| {
                    // Prefer an index an exited thread gave back (its slot is
                    // EMPTY again: a lease only drops between operations);
                    // otherwise mint a fresh one.
                    let idx = self
                        .free
                        .lock()
                        .pop()
                        .unwrap_or_else(|| self.registered.fetch_add(1, Ordering::Relaxed));
                    assert!(
                        idx < self.slots.len(),
                        "more than {} concurrent threads used an IntakeArray",
                        self.slots.len()
                    );
                    SlotLease {
                        idx,
                        free: Arc::downgrade(&self.free),
                    }
                })
                .idx
        })
    }

    /// Publishes `op` in the calling thread's slot and returns the slot
    /// index (to pass to [`IntakeArray::poll`]).
    ///
    /// The slot must be empty, i.e. the previous publication must have been
    /// polled to completion — one outstanding operation per thread, which is
    /// exactly the blocking single-op adapter discipline.
    pub fn publish(&self, op: Op) -> usize {
        let idx = self.slot_index();
        let slot = &self.slots[idx];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_EMPTY);
        // SAFETY: this thread owns the slot and its state is EMPTY, so no
        // other thread touches `op` until the release-store below.
        unsafe { *slot.op.get() = Some(op) };
        slot.state.store(SLOT_PENDING, Ordering::Release);
        idx
    }

    /// Owner-side check of the slot published at `idx`: the result once a
    /// leader completed it (the slot is empty again), `None` while the
    /// operation is still pending or claimed.
    pub fn poll(&self, idx: usize) -> Option<Res> {
        let slot = &self.slots[idx];
        if slot.state.load(Ordering::Acquire) != SLOT_DONE {
            return None;
        }
        // SAFETY: DONE means the leader finished writing `res` (release) and
        // will not touch the slot again.
        let res = unsafe { (*slot.res.get()).take() };
        slot.state.store(SLOT_EMPTY, Ordering::Release);
        Some(res.expect("slot marked DONE without a result"))
    }

    /// Leader-side: claims every currently `PENDING` slot (CAS to `CLAIMED`)
    /// and calls `visit(idx, &op)` for each, leaving the operation in place.
    /// Returns the number of slots claimed.
    ///
    /// The caller must finish every claimed slot — [`IntakeArray::take`]
    /// then [`IntakeArray::complete`] — before its batch ends; a claimed
    /// slot's owner spins until then.
    pub fn claim_pending(&self, mut visit: impl FnMut(usize, &Op)) -> usize {
        let mut claimed = 0;
        // Scan only up to the registration high-water mark: freed indices are
        // reused below it, so no pending slot can sit above it. A stale
        // (smaller) read merely leaves a just-registered publisher for the
        // next batch — the same benign race as an op published right after
        // this scan.
        let limit = self
            .registered
            .load(Ordering::Relaxed)
            .min(self.slots.len());
        for (idx, slot) in self.slots[..limit].iter().enumerate() {
            if slot.state.load(Ordering::Relaxed) == SLOT_PENDING
                && slot
                    .state
                    .compare_exchange(
                        SLOT_PENDING,
                        SLOT_CLAIMED,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                // SAFETY: the acquire CAS synchronized with the owner's
                // PENDING release-store, so the op write is visible; CLAIMED
                // keeps every other thread (including the owner) away.
                let op = unsafe { (*slot.op.get()).as_ref() }.expect("claimed slot without an op");
                visit(idx, op);
                claimed += 1;
            }
        }
        claimed
    }

    /// Leader-side: moves the operation out of a slot previously claimed by
    /// [`IntakeArray::claim_pending`].
    pub fn take(&self, idx: usize) -> Op {
        let slot = &self.slots[idx];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_CLAIMED);
        // SAFETY: CLAIMED state; only the leader touches the cell.
        unsafe { (*slot.op.get()).take() }.expect("take on a slot without an op")
    }

    /// Leader-side: deposits `res` in a claimed slot whose operation was
    /// [`IntakeArray::take`]n, waking the owner.
    pub fn complete(&self, idx: usize, res: Res) {
        let slot = &self.slots[idx];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), SLOT_CLAIMED);
        // SAFETY: CLAIMED state; the owner reads `res` only after the DONE
        // release-store below.
        unsafe { *slot.res.get() = Some(res) };
        slot.state.store(SLOT_DONE, Ordering::Release);
    }

    /// Owner-side: attempts to withdraw this thread's still-`PENDING`
    /// publication at `idx`, returning the operation if no leader claimed it
    /// first.
    ///
    /// This is the escape hatch for bounded waits: a waiter whose deadline
    /// expired (or who observed the engine poisoned) must not simply walk
    /// away from a PENDING slot — a later leader would claim the op and
    /// deposit a result nobody ever polls, wedging the slot forever. The
    /// CAS PENDING→RETRACTING makes withdrawal race-free: either the owner
    /// wins and the op was never observed by any leader, or a leader already
    /// claimed it and the owner must keep polling (the leader resolves the
    /// slot imminently — every claim is followed by `complete` before the
    /// batch ends, even on the poison path, where
    /// [`IntakeArray::sweep_open`] finishes it).
    pub fn retract(&self, idx: usize) -> Option<Op> {
        let slot = &self.slots[idx];
        if slot
            .state
            .compare_exchange(
                SLOT_PENDING,
                SLOT_RETRACTING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return None;
        }
        // SAFETY: the CAS moved the slot to RETRACTING, which no leader ever
        // touches; the op was written by this very thread.
        let op = unsafe { (*slot.op.get()).take() };
        slot.state.store(SLOT_EMPTY, Ordering::Release);
        Some(op.expect("retracted slot without an op"))
    }

    /// Leader-side: resolves every slot the calling leadership is still
    /// responsible for — its own `CLAIMED` slots (an abandoned batch) and
    /// every `PENDING` publication — by depositing `res()` and waking the
    /// owner. Slots whose owners are concurrently retracting are left alone
    /// (they resolve themselves). Returns the number of waiters released.
    ///
    /// This is the poison path: a leader whose batch panicked must not walk
    /// away from slots it claimed (their owners would wait forever), so it
    /// sweeps the array once — under the leadership it still holds — before
    /// dropping the leader lock. Any operation still in a swept slot is
    /// discarded; it was never applied.
    ///
    /// Must only be called while holding the engine's leader election, so
    /// that every `CLAIMED` slot belongs to the caller's own abandoned batch.
    pub fn sweep_open(&self, mut res: impl FnMut() -> Res) -> usize {
        let mut released = 0;
        let limit = self
            .registered
            .load(Ordering::Relaxed)
            .min(self.slots.len());
        for slot in self.slots[..limit].iter() {
            let ours = match slot.state.load(Ordering::Acquire) {
                SLOT_PENDING => slot
                    .state
                    .compare_exchange(
                        SLOT_PENDING,
                        SLOT_CLAIMED,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok(),
                // Our own abandoned claim (see the contract above).
                SLOT_CLAIMED => true,
                _ => false,
            };
            if !ours {
                continue;
            }
            // SAFETY: CLAIMED — this thread is (or just became) the slot's
            // leader. The abandoned batch may already have taken the op;
            // drop it if still present so the slot comes back clean.
            unsafe {
                (*slot.op.get()).take();
                *slot.res.get() = Some(res());
            }
            slot.state.store(SLOT_DONE, Ordering::Release);
            released += 1;
        }
        released
    }
}

impl<Op, Res> Default for IntakeArray<Op, Res> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spinlock::RawSpinLock;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_thread_publish_complete_roundtrip() {
        let intake: IntakeArray<u32, u32> = IntakeArray::with_capacity(4);
        let idx = intake.publish(21);
        assert_eq!(intake.poll(idx), None);
        let mut seen = Vec::new();
        let claimed = intake.claim_pending(|i, op| seen.push((i, *op)));
        assert_eq!(claimed, 1);
        assert_eq!(seen, vec![(idx, 21)]);
        let op = intake.take(idx);
        intake.complete(idx, op * 2);
        assert_eq!(intake.poll(idx), Some(42));
        // The slot is reusable.
        let idx2 = intake.publish(7);
        assert_eq!(idx, idx2);
    }

    #[test]
    fn concurrent_leader_driven_batching_sums_correctly() {
        // N threads publish increments; whoever grabs the leader lock drains
        // and applies all pending increments against a shared counter.
        let intake: Arc<IntakeArray<u64, u64>> = Arc::new(IntakeArray::new());
        let leader = Arc::new(RawSpinLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let threads = 4u64;
        let per_thread = 300u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let intake = Arc::clone(&intake);
                let leader = Arc::clone(&leader);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let idx = intake.publish(t * per_thread + i);
                        loop {
                            match intake.poll(idx) {
                                Some(res) => {
                                    assert_eq!(res, t * per_thread + i + 1);
                                    break;
                                }
                                None => {
                                    if leader.try_lock() {
                                        let mut batch = Vec::new();
                                        intake.claim_pending(|idx, _| batch.push(idx));
                                        for &slot in &batch {
                                            let op = intake.take(slot);
                                            counter.fetch_add(1, Ordering::Relaxed);
                                            intake.complete(slot, op + 1);
                                        }
                                        leader.unlock();
                                    } else {
                                        std::hint::spin_loop();
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            (threads * per_thread) as usize
        );
    }

    #[test]
    fn exited_threads_free_their_slots_for_reuse() {
        // Far more threads than slots, but only one alive at a time: each
        // exiting thread's lease returns its index, so the array never runs
        // out. (Before reclamation this panicked at the third thread.)
        let intake: Arc<IntakeArray<u32, u32>> = Arc::new(IntakeArray::with_capacity(2));
        for round in 0..10u32 {
            let intake = Arc::clone(&intake);
            std::thread::spawn(move || {
                let idx = intake.publish(round);
                assert!(idx < 2, "reused indices stay in range");
                intake.claim_pending(|_, _| {});
                let op = intake.take(idx);
                intake.complete(idx, op);
                assert_eq!(intake.poll(idx), Some(round));
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn retract_withdraws_pending_but_not_claimed_ops() {
        let intake: IntakeArray<u32, u32> = IntakeArray::with_capacity(4);
        // Pending op: the owner can take it back, leaving the slot EMPTY and
        // reusable.
        let idx = intake.publish(9);
        assert_eq!(intake.retract(idx), Some(9));
        assert_eq!(intake.claim_pending(|_, _| {}), 0);
        let idx2 = intake.publish(10);
        assert_eq!(idx, idx2, "retract must leave the slot reusable");
        // Claimed op: retract loses the race and returns None; the normal
        // complete/poll path still works.
        intake.claim_pending(|_, _| {});
        assert_eq!(intake.retract(idx2), None);
        let op = intake.take(idx2);
        intake.complete(idx2, op + 1);
        assert_eq!(intake.poll(idx2), Some(11));
    }

    #[test]
    fn sweep_open_releases_claimed_and_pending_slots() {
        let intake: IntakeArray<u32, Result<u32, &'static str>> = IntakeArray::with_capacity(4);
        // An abandoned claim: the "leader" claimed the slot, took the op,
        // then its batch died. The sweep must resolve it.
        let idx = intake.publish(1);
        intake.claim_pending(|_, _| {});
        let _abandoned = intake.take(idx);
        assert_eq!(intake.sweep_open(|| Err("poisoned")), 1);
        assert_eq!(intake.poll(idx), Some(Err("poisoned")));
        // A publication no leader ever saw: the sweep claims and resolves
        // it, discarding the op.
        assert_eq!(intake.publish(2), idx);
        assert_eq!(intake.sweep_open(|| Err("poisoned")), 1);
        assert_eq!(intake.poll(idx), Some(Err("poisoned")));
        // The swept slot stays reusable, and an empty array sweeps to zero.
        assert_eq!(intake.publish(3), idx);
        assert_eq!(intake.retract(idx), Some(3));
        assert_eq!(intake.sweep_open(|| Err("poisoned")), 0);
    }

    #[test]
    fn slots_do_not_share_cache_lines() {
        assert!(std::mem::align_of::<Slot<u64, u64>>() >= 128);
        assert!(std::mem::size_of::<Slot<u64, u64>>() >= 128);
    }
}

//! Combining-based baselines: parallel combining (variant 12) and flat
//! combining with non-blocking reads (variant 13).
//!
//! Both publish operations in the per-thread slots of a
//! [`dc_sync::IntakeArray`], the batch engine's intake, and funnel updates
//! through a single *combiner* (Hendler et al.'s *flat combining*): whichever
//! waiting thread wins the combiner lock claims every pending slot and
//! applies the claimed updates to the sequential HDT structure.
//!
//! * Variant 13 publishes only updates; queries answer through the
//!   single-writer ETT's lock-free protocol — the strongest combining
//!   baseline in the paper's plots.
//! * Variant 12 publishes queries too (Aksenov et al.'s *parallel
//!   combining*). The combiner hands each claimed query except its own back
//!   to the thread that published it; those threads answer their queries in
//!   parallel, and the combiner mutates nothing until the last of them is
//!   done.

use crate::api::DynamicConnectivity;
use crate::hdt::Hdt;
use dc_sync::{waitstats, IntakeArray, RawSpinLock};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Operations published to the combiner.
#[derive(Debug, Clone, Copy)]
pub enum CombinedOp {
    /// Add the edge `(u, v)`.
    Add(u32, u32),
    /// Remove the edge `(u, v)`.
    Remove(u32, u32),
    /// Connectivity query (variant 12 only).
    Connected(u32, u32),
}

/// Results returned by the combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedRes {
    /// An update completed.
    Done,
    /// The answer of a connectivity query.
    Answer(bool),
    /// The publishing thread answers its query itself; the combiner holds
    /// off mutating until it is done.
    HandBack,
}

/// Variants 12 and 13 of the evaluation.
pub struct CombiningVariant {
    hdt: Hdt,
    intake: IntakeArray<CombinedOp, CombinedRes>,
    combiner: RawSpinLock,
    /// Handed-back queries not yet answered. Counted before the hand-back
    /// is published, so the combiner mutates only while this reads zero.
    readers: AtomicUsize,
    lock_free_reads: bool,
}

impl CombiningVariant {
    /// Creates the variant over `n` vertices.
    ///
    /// `lock_free_reads` selects variant 13's behaviour (queries bypass the
    /// combiner and use the concurrent forest); otherwise queries are
    /// published like every other operation (variant 12).
    pub fn new(n: usize, lock_free_reads: bool) -> Self {
        CombiningVariant {
            hdt: Hdt::new(n),
            intake: IntakeArray::new(),
            combiner: RawSpinLock::new(),
            readers: AtomicUsize::new(0),
            lock_free_reads,
        }
    }

    /// Access to the underlying structure (tests and statistics).
    pub fn hdt(&self) -> &Hdt {
        &self.hdt
    }

    /// Publishes `op` and waits for its result, combining whenever the
    /// combiner lock is free.
    fn execute(&self, op: CombinedOp) -> CombinedRes {
        let idx = self.intake.publish(op);
        let timer = waitstats::WaitTimer::start();
        let res = loop {
            if let Some(res) = self.intake.poll(idx) {
                break res;
            }
            if self.combiner.try_lock() {
                // Only a combiner resolves slots, so under the lock ours is
                // either still pending or was resolved since the poll above —
                // possibly handed back, by a combiner that made no mutation
                // and so did not wait for its readers. Combining then would
                // wait for this very thread before its first mutation.
                let res = self.intake.poll(idx);
                if res.is_none() {
                    self.combine(idx);
                }
                self.combiner.unlock();
                if let Some(res) = res {
                    break res;
                }
            } else {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        };
        timer.finish();
        res
    }

    /// Resolves every pending publication. Must hold the combiner lock.
    /// `own` is the combiner's own slot: it answers its own query, since it
    /// would otherwise wait for itself before its first mutation.
    fn combine(&self, own: usize) {
        let (mut hand_backs, mut applied) = (Vec::new(), Vec::new());
        self.intake.claim_pending(|idx, op| {
            if idx != own && matches!(op, CombinedOp::Connected(..)) {
                hand_backs.push(idx);
            } else {
                applied.push(idx);
            }
        });
        for idx in hand_backs {
            self.intake.take(idx);
            self.readers.fetch_add(1, Ordering::Relaxed);
            self.intake.complete(idx, CombinedRes::HandBack);
        }
        for idx in applied {
            let res = match self.intake.take(idx) {
                CombinedOp::Add(u, v) => {
                    self.await_readers();
                    self.hdt.add_edge_locked(u, v);
                    CombinedRes::Done
                }
                CombinedOp::Remove(u, v) => {
                    self.await_readers();
                    self.hdt.remove_edge_locked(u, v);
                    CombinedRes::Done
                }
                CombinedOp::Connected(u, v) => CombinedRes::Answer(self.hdt.connected_locked(u, v)),
            };
            self.intake.complete(idx, res);
        }
    }

    /// Waits until every handed-back query is answered (the parallel-read
    /// phase). Only the combiner hands queries back, so the count stays zero
    /// for the rest of its batch.
    fn await_readers(&self) {
        while self.readers.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
}

impl DynamicConnectivity for CombiningVariant {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.execute(CombinedOp::Add(u, v));
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.execute(CombinedOp::Remove(u, v));
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        if self.lock_free_reads {
            return self.hdt.connected(u, v);
        }
        match self.execute(CombinedOp::Connected(u, v)) {
            CombinedRes::Answer(b) => b,
            CombinedRes::HandBack => {
                let answer = self.hdt.connected_locked(u, v);
                self.readers.fetch_sub(1, Ordering::Release);
                answer
            }
            CombinedRes::Done => unreachable!("query returned an update result"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails unless it returns within a
    /// minute: a combiner waiting for a query it will never see answered
    /// would otherwise hang the suite.
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()).unwrap());
        rx.recv_timeout(Duration::from_secs(60))
            .expect("no result before the deadline: deadlock or panic")
    }

    #[test]
    fn parallel_combining_sequential_usage() {
        let dc = CombiningVariant::new(6, false);
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        assert!(dc.connected(0, 2));
        dc.remove_edge(1, 2);
        assert!(!dc.connected(0, 2));
        dc.hdt().validate();
    }

    #[test]
    fn flat_combining_with_lock_free_reads() {
        let dc = CombiningVariant::new(6, true);
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        dc.add_edge(0, 2);
        dc.remove_edge(0, 1);
        assert!(
            dc.connected(0, 1),
            "replacement must keep the cycle connected"
        );
        dc.hdt().validate();
    }

    #[test]
    fn single_thread_operations_work() {
        for lock_free_reads in [false, true] {
            let dc = CombiningVariant::new(4, lock_free_reads);
            dc.add_edge(0, 1);
            dc.add_edge(0, 1);
            dc.add_edge(1, 0);
            assert!(dc.connected(0, 1));
            assert!(!dc.connected(0, 2));
            assert_eq!(dc.hdt().num_edges(), 1, "duplicate adds are no-ops");
            dc.remove_edge(2, 3);
            assert_eq!(dc.hdt().num_edges(), 1, "absent removals are no-ops");
        }
    }

    #[test]
    fn combiner_answers_its_own_query_beside_an_update() {
        // A helper publishes an update and only polls; the main thread's
        // query then becomes the combiner of a batch holding both. Handing
        // its own query back would leave it waiting for itself before the
        // update.
        let dc = Arc::new(CombiningVariant::new(4, false));
        let (published_tx, published_rx) = mpsc::channel();
        let helper = {
            let dc = Arc::clone(&dc);
            std::thread::spawn(move || {
                let idx = dc.intake.publish(CombinedOp::Add(0, 1));
                published_tx.send(()).unwrap();
                loop {
                    if let Some(res) = dc.intake.poll(idx) {
                        return res;
                    }
                    std::thread::yield_now();
                }
            })
        };
        published_rx.recv().unwrap();
        let answer = within_deadline({
            let dc = Arc::clone(&dc);
            move || dc.connected(2, 3)
        });
        assert!(!answer);
        assert_eq!(helper.join().unwrap(), CombinedRes::Done);
        assert!(dc.connected(0, 1));
        dc.hdt().validate();
    }

    #[test]
    fn handed_back_queries_never_overlap_a_mutation() {
        // Two readers query the ends of a path while a writer links and cuts
        // a pendant vertex at varying points, so every answer is `true`. A
        // handed-back query that overlaps a link or cut is a locked read of
        // restructuring trees and can answer `false`; a combiner that waits
        // for its own handed-back query never returns.
        within_deadline(|| {
            const N: u32 = 400;
            let dc = CombiningVariant::new(N as usize + 1, false);
            for i in 0..N - 1 {
                dc.add_edge(i, i + 1);
            }
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while !stop.load(Ordering::Relaxed) {
                            assert!(dc.connected(0, N - 1), "a query overlapped a mutation");
                        }
                    });
                }
                s.spawn(|| {
                    for i in 0..40_000 {
                        let k = (i * 7919) % (N - 1);
                        dc.add_edge(k, N);
                        dc.remove_edge(k, N);
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            });
            dc.hdt().validate();
        });
    }

    /// Four threads, each adding its own path and querying every edge right
    /// after adding it.
    fn run_mixed_workload(lock_free_reads: bool) {
        const THREADS: u32 = 4;
        const PER_THREAD: u32 = 500;
        let dc = CombiningVariant::new((THREADS * (PER_THREAD + 1)) as usize, lock_free_reads);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let dc = &dc;
                s.spawn(move || {
                    let base = t * (PER_THREAD + 1);
                    for i in 0..PER_THREAD {
                        dc.add_edge(base + i, base + i + 1);
                        assert!(dc.connected(base + i, base + i + 1));
                    }
                });
            }
        });
        assert_eq!(dc.hdt().num_edges(), (THREADS * PER_THREAD) as usize);
        for t in 0..THREADS {
            let base = t * (PER_THREAD + 1);
            assert!(dc.connected(base, base + PER_THREAD));
            if t > 0 {
                assert!(!dc.connected(0, base), "paths of different threads merged");
            }
        }
        dc.hdt().validate();
    }

    #[test]
    fn parallel_combining_mixed_workload() {
        run_mixed_workload(false);
    }

    #[test]
    fn flat_combining_mixed_workload() {
        run_mixed_workload(true);
    }

    #[test]
    fn read_heavy_parallel_combining_is_consistent() {
        // A preloaded path 0..=100 and an isolated block 101..200; four
        // readers whose queries are mostly handed back to them.
        let dc = CombiningVariant::new(201, false);
        for i in 0..100 {
            dc.add_edge(i, i + 1);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        assert!(dc.connected(i, i + 1));
                        assert!(dc.connected(0, i));
                        assert!(!dc.connected(i, i + 101));
                    }
                });
            }
        });
        assert_eq!(dc.readers.load(Ordering::Relaxed), 0);
        dc.hdt().validate();
    }

    #[test]
    fn combined_updates_from_multiple_threads() {
        let dc = CombiningVariant::new(64, false);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let dc = &dc;
                s.spawn(move || {
                    // Each thread builds its own path of 16 vertices.
                    let base = t * 16;
                    for i in 0..15 {
                        dc.add_edge(base + i, base + i + 1);
                    }
                    assert!(dc.connected(base, base + 15));
                });
            }
        });
        // Paths of different threads stay disconnected.
        assert!(!dc.connected(0, 63));
        assert!(dc.connected(16, 31));
        dc.hdt().validate();
    }
}

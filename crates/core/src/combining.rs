//! Combining-based baselines: parallel combining (variant 12) and flat
//! combining with non-blocking reads (variant 13).
//!
//! Both baselines funnel updates through a single combiner thread operating
//! on the sequential HDT structure.  Variant 12 additionally lets waiting
//! reader threads execute their own `connected` queries in parallel while the
//! combiner pauses (Aksenov et al.'s *parallel combining*), whereas variant
//! 13 answers queries through the single-writer ETT's lock-free protocol and
//! only routes updates through the combiner — the strongest combining
//! baseline in the paper's plots.

use crate::api::DynamicConnectivity;
use crate::hdt::Hdt;
use dc_sync::{CombiningExecutor, CombiningMode, CombiningTarget};
use std::sync::Arc;

/// Operations shipped to the combiner.
#[derive(Debug, Clone, Copy)]
pub enum CombinedOp {
    /// Add the edge `(u, v)`.
    Add(u32, u32),
    /// Remove the edge `(u, v)`.
    Remove(u32, u32),
    /// Connectivity query.
    Connected(u32, u32),
}

/// Results returned by the combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedRes {
    /// An update completed.
    Done,
    /// The answer of a connectivity query.
    Answer(bool),
}

/// The sequential structure driven by the combining executor.
pub struct HdtTarget {
    hdt: Arc<Hdt>,
}

impl CombiningTarget for HdtTarget {
    type Op = CombinedOp;
    type Res = CombinedRes;

    fn is_read(op: &CombinedOp) -> bool {
        matches!(op, CombinedOp::Connected(_, _))
    }

    fn apply_mut(&mut self, op: CombinedOp) -> CombinedRes {
        match op {
            CombinedOp::Add(u, v) => {
                self.hdt.add_edge_locked(u, v);
                CombinedRes::Done
            }
            CombinedOp::Remove(u, v) => {
                self.hdt.remove_edge_locked(u, v);
                CombinedRes::Done
            }
            CombinedOp::Connected(u, v) => CombinedRes::Answer(self.hdt.connected_locked(u, v)),
        }
    }

    fn apply_read(&self, op: CombinedOp) -> CombinedRes {
        match op {
            CombinedOp::Connected(u, v) => CombinedRes::Answer(self.hdt.connected_locked(u, v)),
            _ => unreachable!("only queries are read operations"),
        }
    }
}

/// Variants 12 and 13 of the evaluation.
pub struct CombiningVariant {
    hdt: Arc<Hdt>,
    executor: CombiningExecutor<HdtTarget>,
    lock_free_reads: bool,
}

impl CombiningVariant {
    /// Creates the variant over `n` vertices.
    ///
    /// `lock_free_reads` selects variant 13's behaviour (queries bypass the
    /// combiner and use the concurrent forest); otherwise queries are
    /// combined like every other operation (variant 12).
    pub fn new(n: usize, mode: CombiningMode, lock_free_reads: bool) -> Self {
        let hdt = Arc::new(Hdt::new(n));
        let target = HdtTarget {
            hdt: Arc::clone(&hdt),
        };
        CombiningVariant {
            hdt,
            executor: CombiningExecutor::new(target, mode),
            lock_free_reads,
        }
    }

    /// Access to the underlying structure (tests and statistics).
    pub fn hdt(&self) -> &Hdt {
        &self.hdt
    }
}

impl DynamicConnectivity for CombiningVariant {
    fn add_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.executor.execute(CombinedOp::Add(u, v));
    }

    fn remove_edge(&self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.executor.execute(CombinedOp::Remove(u, v));
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        if self.lock_free_reads {
            self.hdt.connected(u, v)
        } else {
            match self.executor.execute(CombinedOp::Connected(u, v)) {
                CombinedRes::Answer(b) => b,
                CombinedRes::Done => unreachable!("query returned an update result"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_combining_sequential_usage() {
        let dc = CombiningVariant::new(6, CombiningMode::ParallelReads, false);
        dc.add_edge(0, 1);
        dc.add_edge(1, 2);
        assert!(dc.connected(0, 2));
        dc.remove_edge(1, 2);
        assert!(!dc.connected(0, 2));
        dc.hdt().validate();
    }

    #[test]
    fn flat_combining_with_lock_free_reads() {
        let dc = CombiningVariant::new(6, CombiningMode::FlatCombining, true);
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
    fn combined_updates_from_multiple_threads() {
        use std::sync::Arc;
        let dc = Arc::new(CombiningVariant::new(
            64,
            CombiningMode::ParallelReads,
            false,
        ));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let dc = Arc::clone(&dc);
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

//! Concurrency substrates used by the concurrent dynamic connectivity
//! algorithms.
//!
//! The paper's algorithm (SPAA '21) relies on a handful of concurrent
//! building blocks that its Kotlin implementation takes from the JVM
//! ecosystem.  This crate provides from-scratch Rust equivalents:
//!
//! * [`cmap::ShardedMap`] — a lock-striped concurrent hash map with
//!   linearizable `compare_exchange`, used for the edge-status table
//!   (`ConcurrentHashMap<Edge, State>` in the paper's Listing 5).
//! * [`adjacency::AdjacencyStore`] — the flat, lazily-materialized,
//!   allocation-free per-(level, vertex) multiset of neighbor ids backing
//!   the HDT level structure's hot paths.
//! * [`epoch`] — epoch-based memory reclamation (the from-scratch
//!   substitute for the JVM garbage collector the paper's lock-free reads
//!   lean on); used by the Euler Tour Tree arena to recycle retired node
//!   slots. See `DESIGN.md` §4.
//! * [`hash::FxHasher`] — the shared fast integer hasher.
//! * [`prefetch`] — the software-prefetch portability shim behind the
//!   interleaved bulk read path (`_mm_prefetch` on x86-64, no-op elsewhere).
//! * [`intake`] — the sharded MPSC intake array (padded per-thread slots
//!   with a claim/complete protocol) underneath the `dc_batch` engine's
//!   update door and the combining baselines (variants 12 and 13 of the
//!   evaluation).
//! * [`spinlock::RawSpinLock`] — a word-sized raw lock with explicit
//!   `lock`/`unlock`, used for the per-component locks in the Euler Tour
//!   Tree forest's per-vertex side table (fine-grained locking, Listing 2).
//! * [`elision::ElisionLock`] — the lock-elision ("HTM") substitution; see
//!   `DESIGN.md` §4.
//! * [`waitstats`] — global lock-wait accounting used to reproduce the
//!   "active time rate" plots (Figures 7, 8, 11, 12).
//! * [`wait`] — the bounded spin→yield→park wait ladder
//!   ([`wait::WaitPolicy`] / [`wait::WaitLadder`]) that replaced the
//!   unbounded busy-wait loops; see `DESIGN.md` §13.
//! * [`wire`] — shared LEB128-varint and FNV-1a checksum primitives, the
//!   single byte-level definition under both the `dc_workloads` trace
//!   format and the `dc_durable` WAL / checkpoint files.

pub mod adjacency;
pub mod cmap;
pub mod elision;
pub mod epoch;
pub mod hash;
pub mod intake;
pub mod prefetch;
pub mod rwspinlock;
pub mod spinlock;
pub mod wait;
pub mod waitstats;
pub mod wire;

pub use adjacency::AdjacencyStore;
pub use cmap::ShardedMap;
pub use elision::ElisionLock;
pub use epoch::{EpochDomain, EpochGuard, Limbo};
pub use hash::{FxBuildHasher, FxHasher};
pub use intake::IntakeArray;
pub use prefetch::prefetch_read;
pub use rwspinlock::RawRwLock;
pub use spinlock::RawSpinLock;
pub use wait::{WaitLadder, WaitPolicy, WaitStep};
pub use wire::Fnv64;

//! The version-validated root-hint cache behind O(1)-amortized reads.
//!
//! Every `connected(u, v)` of the baseline protocol pays two full O(depth)
//! parent-pointer climbs, each hop a dependent cache miss.  On components
//! that are not being restructured — the overwhelming majority of traffic in
//! query-dominated workloads — those climbs rediscover the same root over
//! and over.  The [`HintCache`] short-circuits them: one atomic `u64` slot
//! per vertex packs a `(root_vertex, version)` claim
//!
//! ```text
//!   bits 63..32: low 32 bits of the root's version at snapshot time
//!   bits 31..0:  vertex id of the snapshotted component root
//! ```
//!
//! A hint is a *time-independent claim*: "there was an instant at which
//! vertex `v`'s component root was `root_vertex` **and** that root's version
//! was `version`".  Readers install hints only from snapshots validated by
//! the paper's Listing-1 retry protocol (see
//! [`crate::forest::EulerForest::connected`]), so every published claim is
//! true.  Validation is then a single load: writers keep bit 0 of a root's
//! version set (busy) from before their first structural store on the
//! component until after their last, the forest never installs or accepts
//! a busy claim, and versions are monotone — so "the hinted root's current
//! version still equals the recorded, non-busy one" implies no operation
//! deposed the root since the snapshot instant, and the hinted root is
//! *still* `v`'s root, with no tree traversal at all.  The full safety
//! argument, including the linearizability sandwich for two-vertex queries
//! and the 32-bit wraparound caveat, lives in `DESIGN.md` §8.
//!
//! The cache is strictly an accelerator: a miss (empty slot, stale version,
//! or a disabled cache) falls back to the climb, and any thread may
//! overwrite any slot at any time without affecting correctness.  Slots are
//! CAS-filled — a reader only replaces the exact value it observed, so a
//! slow reader cannot clobber a fresher hint installed while it climbed.
//!
//! The cache holds no counters: the forest counts hits, misses and
//! invalidations in its `dc_obs::Tally` (the owning `Hdt`'s, for a level-0
//! forest), which `dynconn::StatsSnapshot` reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Empty-slot sentinel. A valid encoding can only collide with it for
/// `root_vertex == u32::MAX` *and* `version ≡ u32::MAX (mod 2³²)`; installs
/// that would encode to the sentinel are simply skipped (the vertex keeps
/// climbing — correctness is unaffected).
const EMPTY: u64 = u64::MAX;

/// The per-vertex root-hint table; see the module documentation.
pub struct HintCache {
    slots: Box<[AtomicU64]>,
    enabled: AtomicBool,
}

impl HintCache {
    /// Creates an all-empty, enabled cache for `n` vertices.
    pub fn new(n: usize) -> Self {
        HintCache {
            slots: (0..n).map(|_| AtomicU64::new(EMPTY)).collect(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether the fast path consults this cache at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables the fast path (hints already installed are kept;
    /// they resume validating when re-enabled).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Reads vertex `v`'s raw slot (the value to pass back to
    /// [`HintCache::install`] as `observed`).
    #[inline]
    pub fn raw(&self, v: u32) -> u64 {
        // Relaxed: the slot value is a self-contained claim whose truth does
        // not depend on when it is read; validation against the root's
        // (Acquire-loaded) version word does all the ordering work.
        self.slots[v as usize].load(Ordering::Relaxed)
    }

    /// Decodes a raw slot into `(root_vertex, version_lo32)`.
    #[inline]
    pub fn decode(raw: u64) -> Option<(u32, u32)> {
        if raw == EMPTY {
            None
        } else {
            Some((raw as u32, (raw >> 32) as u32))
        }
    }

    /// Installs the claim "`v` roots at `root` while `version` is current",
    /// replacing exactly the previously observed raw value (losing the race
    /// to a concurrent — necessarily at-least-as-fresh — install is fine).
    #[inline]
    pub fn install(&self, v: u32, observed: u64, root: u32, version: u64) {
        let encoded = ((version as u32 as u64) << 32) | root as u64;
        if encoded == EMPTY {
            return; // would collide with the empty sentinel; skip
        }
        // Relaxed CAS: claims are self-contained (see `raw`), and failure
        // just means someone installed a fresher claim first.
        let _ = self.slots[v as usize].compare_exchange(
            observed,
            encoded,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Hints the CPU to pull vertex `v`'s slot line into cache ahead of the
    /// [`HintCache::raw`] load — the bulk read path issues these a batch
    /// ahead so a run of slot loads overlaps its misses instead of paying
    /// them serially. Pure hint: no architectural effect (see
    /// `dc_sync::prefetch`).
    #[inline]
    pub fn prefetch_slot(&self, v: u32) {
        if let Some(slot) = self.slots.get(v as usize) {
            dc_sync::prefetch_read(slot as *const AtomicU64);
        }
    }
}

impl std::fmt::Debug for HintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HintCache")
            .field("vertices", &self.slots.len())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_decodes_to_none() {
        let cache = HintCache::new(4);
        assert_eq!(HintCache::decode(cache.raw(0)), None);
        assert_eq!(HintCache::decode(cache.raw(3)), None);
        // New caches start enabled; the toggle is per cache.
        assert!(cache.is_enabled());
        cache.set_enabled(false);
        assert!(!cache.is_enabled());
        assert!(HintCache::new(1).is_enabled());
    }

    #[test]
    fn install_roundtrips_root_and_truncated_version() {
        let cache = HintCache::new(2);
        let observed = cache.raw(1);
        cache.install(1, observed, 7, 0x1_2345_6789); // version > 32 bits
        assert_eq!(HintCache::decode(cache.raw(1)), Some((7, 0x2345_6789)));
    }

    #[test]
    fn install_only_replaces_the_observed_value() {
        let cache = HintCache::new(1);
        let stale = cache.raw(0);
        cache.install(0, stale, 3, 10); // wins
        cache.install(0, stale, 4, 11); // CAS fails: slot moved on
        assert_eq!(HintCache::decode(cache.raw(0)), Some((3, 10)));
    }

    #[test]
    fn sentinel_collision_is_skipped() {
        let cache = HintCache::new(1);
        cache.install(0, cache.raw(0), u32::MAX, u64::from(u32::MAX));
        assert_eq!(HintCache::decode(cache.raw(0)), None);
    }

    /// Hint hits and misses land in the forest's striped tally; resolutions
    /// from several threads all add up there.
    #[test]
    fn counters_accumulate_across_stripes() {
        let f = crate::EulerForest::with_seed(2, 0);
        f.link(0, 1);
        f.resolve_root_validated(0); // cold slot: a miss that installs
        f.resolve_root_validated(0);
        f.resolve_root_validated(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| f.resolve_root_validated(0));
            }
        });
        assert_eq!(f.read_hint_stats(), (6, 1));
    }
}

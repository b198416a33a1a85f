//! Edge status state machine (paper Section 4.4 and Appendix C).
//!
//! Every edge known to the structure has a [`EdgeState`] stored in a
//! concurrent map keyed by the normalized edge: its [`Status`] plus the level
//! it currently occupies in the Holm–de Lichtenberg–Thorup level structure.
//! The lock-free non-spanning-edge protocol advances edges through the state
//! machine with compare-and-swap operations on these values; a random tag is
//! embedded in every state so that re-inserting an edge never produces a
//! value equal to one observed before removal (the ABA guard the paper
//! obtains by pairing `INITIAL` with random bits).

use std::sync::atomic::{AtomicU64, Ordering};

/// The status part of an edge state (paper Figures 4 and 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Freshly announced by an `add_edge`; not yet part of the structure.
    Initial = 0,
    /// In the graph but not in the spanning forest; removal is non-blocking.
    NonSpanning = 1,
    /// In the spanning forest; updates must run under component locks.
    Spanning = 2,
    /// Being inserted into the spanning forest by some thread right now.
    InProgress = 3,
}

/// Status + level + ABA tag of an edge, packed into one 64-bit word: the
/// status in bits 0–1, the level in bits 2–7 and the tag in bits 8–63. The
/// `Removed` status of the paper is represented by absence from the state
/// map. Equality is word equality, so the state map's `compare_exchange`
/// compares status, level and tag at once, and a future edge table can CAS
/// the word directly.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct EdgeState(u64);

const STATUS_BITS: u32 = 2;
const LEVEL_BITS: u32 = 6;
const TAG_SHIFT: u32 = STATUS_BITS + LEVEL_BITS;
/// Exclusive upper bound of a level (`6` bits; the structure needs at most
/// `⌊log₂ n⌋ + 2 ≤ 34` levels for `u32` vertex ids).
const MAX_LEVELS: usize = 1 << LEVEL_BITS;

static TAG_COUNTER: AtomicU64 = AtomicU64::new(0x9E37_79B9);

/// A fresh 56-bit tag.
fn fresh_tag() -> u64 {
    // SplitMix64 over a global counter: unique enough for ABA protection and
    // free of thread-local RNG setup cost on the hot path. The top 8 bits
    // are dropped to make room for status and level.
    splitmix64(TAG_COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)) >> TAG_SHIFT
}

/// The SplitMix64 finaliser: a bijective mix of one 64-bit word.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EdgeState {
    fn pack(status: Status, level: u8, tag: u64) -> Self {
        assert!((level as usize) < MAX_LEVELS, "level {level} out of range");
        EdgeState(tag << TAG_SHIFT | (level as u64) << STATUS_BITS | status as u64)
    }

    /// A fresh `Initial` state with a new tag.
    pub fn initial() -> Self {
        Self::pack(Status::Initial, 0, fresh_tag())
    }

    /// Derives a new state with the given status and level, keeping the tag.
    pub fn with(self, status: Status, level: u8) -> Self {
        Self::pack(status, level, self.tag())
    }

    /// Convenience constructor for a state with an explicit status/level and
    /// a fresh tag.
    pub fn new(status: Status, level: u8) -> Self {
        Self::pack(status, level, fresh_tag())
    }

    /// Current status.
    #[inline]
    pub fn status(self) -> Status {
        match self.0 & ((1 << STATUS_BITS) - 1) {
            0 => Status::Initial,
            1 => Status::NonSpanning,
            2 => Status::Spanning,
            _ => Status::InProgress,
        }
    }

    /// Level of the edge in the HDT level structure (`0..=log2 n`).
    #[inline]
    pub fn level(self) -> u8 {
        ((self.0 >> STATUS_BITS) & ((1 << LEVEL_BITS) - 1)) as u8
    }

    /// The 56-bit tag distinguishing distinct insertions of the same edge.
    #[inline]
    pub fn tag(self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    /// `true` if the edge is currently a spanning-forest edge or about to
    /// become one, which means its removal must take locks.
    pub fn requires_locked_removal(&self) -> bool {
        matches!(self.status(), Status::Spanning | Status::InProgress)
    }
}

impl std::fmt::Debug for EdgeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeState")
            .field("status", &self.status())
            .field("level", &self.level())
            .field("tag", &self.tag())
            .finish()
    }
}

/// Marker describing an in-flight spanning-edge removal, published in a side
/// table keyed by the component's level-0 root while the removal holds the
/// component lock.
///
/// A concurrent non-blocking `add_edge` that observes this marker for the
/// component of its endpoints falls back to the blocking path, which closes
/// the race of Theorem 4.1: either the removal's replacement scan sees the
/// edge's already-published adjacency information (and helps complete the
/// addition, possibly using the edge as the replacement), or the addition
/// observes the marker and waits for the removal to finish.
#[derive(Debug, PartialEq, Eq)]
pub struct RemovalOp {
    /// The spanning edge being removed.
    pub edge: (u32, u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states_have_distinct_tags() {
        let a = EdgeState::initial();
        let b = EdgeState::initial();
        assert_eq!(a.status(), Status::Initial);
        assert_ne!(a.tag(), b.tag(), "ABA tags must differ between insertions");
        assert_ne!(a, b);
    }

    #[test]
    fn with_preserves_tag() {
        let a = EdgeState::initial();
        let b = a.with(Status::NonSpanning, 3);
        assert_eq!(b.tag(), a.tag());
        assert_eq!(b.status(), Status::NonSpanning);
        assert_eq!(b.level(), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn packed_word_round_trips_every_field() {
        assert_eq!(std::mem::size_of::<EdgeState>(), 8);
        let statuses = [
            Status::Initial,
            Status::NonSpanning,
            Status::Spanning,
            Status::InProgress,
        ];
        for tag in [0, 1, 0xAB_CDEF, (1 << 56) - 1] {
            for status in statuses {
                for level in [0u8, 1, 33, MAX_LEVELS as u8 - 1] {
                    let st = EdgeState::pack(status, level, tag);
                    assert_eq!((st.status(), st.level(), st.tag()), (status, level, tag));
                    // Re-deriving keeps the tag and touches only its fields.
                    for other in statuses {
                        let moved = st.with(other, level / 2);
                        assert_eq!((moved.status(), moved.level()), (other, level / 2));
                        assert_eq!(moved.tag(), tag);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn levels_past_the_field_width_are_rejected() {
        EdgeState::new(Status::Spanning, MAX_LEVELS as u8);
    }

    #[test]
    fn tags_stay_distinct_after_truncation() {
        // The tag keeps 56 of the generator's 64 bits; a run of fresh tags
        // must still be pairwise distinct (SplitMix64 is a bijection of the
        // counter, so a repeat would take ~2^28 draws by the birthday bound).
        let tags: std::collections::HashSet<u64> =
            (0..100_000).map(|_| EdgeState::initial().tag()).collect();
        assert_eq!(tags.len(), 100_000);
        assert!(tags.iter().all(|&t| t < 1 << 56));
        // Equal status and level never make two insertions' states equal.
        let (a, b) = (EdgeState::initial(), EdgeState::initial());
        assert_ne!(
            a.with(Status::NonSpanning, 2),
            b.with(Status::NonSpanning, 2)
        );
    }

    #[test]
    fn locked_removal_classification() {
        assert!(EdgeState::new(Status::Spanning, 0).requires_locked_removal());
        assert!(EdgeState::new(Status::InProgress, 0).requires_locked_removal());
        assert!(!EdgeState::new(Status::NonSpanning, 2).requires_locked_removal());
        assert!(!EdgeState::new(Status::Initial, 0).requires_locked_removal());
    }
}

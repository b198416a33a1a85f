//! A flat, lazy, allocation-free adjacency store for the HDT level structure.
//!
//! The HDT core keeps, for every `(level, vertex)` pair, a small multiset of
//! adjacent edges (one store for non-spanning edges, one for exact-level
//! spanning edges).  This store holds each of those edges as its **far
//! endpoint**: slot `(level, v)` stores the `u32` neighbor ids `w` of the
//! edges `{v, w}`, and the caller rebuilds the edge from the slot's own
//! vertex (implied by the slot index) and the neighbor it is handed.  The
//! layout:
//!
//! * **one flat slab** indexed by `level * n + vertex`, split into fixed
//!   pages whose pointers live in a single eagerly-allocated spine —
//!   constructing the store performs exactly **two heap allocations** (the
//!   spine and the lock stripes) regardless of `n`;
//! * **lazy page materialization** — a page is allocated by CAS on first
//!   write, so resident memory scales with the number of *touched*
//!   `(level, vertex)` pairs rather than with `n log n`;
//! * **24-byte slots** — a version, a length, a touched flag and a union of
//!   [`INLINE_CAP`] inline neighbor ids or the pointer to a spilled table.
//!   Four inline neighbors hold every slot of a sparse grid at every level
//!   and 94–96% of a power-law graph's slots (the measured per-level degree
//!   histograms are in `DESIGN.md`, "Bytes per edge"); a slot spills into a
//!   private open-addressed table past four entries and stays spilled (a
//!   vertex that was once high-degree is likely to be again);
//! * **multiplicity by repetition** — the store is a multiset, because the
//!   non-blocking insertion protocol can briefly publish a second copy of an
//!   edge's information (`scan_vertex`'s helper path). Inline, a second copy
//!   is the same neighbor id stored twice; in a spilled table, a cell is a
//!   neighbor id plus a `u32` count, 8 bytes, with two reserved ids marking
//!   empty and tombstoned cells;
//! * **striped spinlocks** ([`crate::spinlock::RawSpinLock`]) instead of one
//!   `Mutex` per slot — a slot's stripe is picked by hashing its flat index,
//!   and every slot operation is a handful of instructions under the stripe;
//! * an **allocation-free visitor API** — [`AdjacencyStore::for_each_edge`]
//!   iterates through a fixed stack buffer in chunks (releasing the stripe
//!   between chunks so callbacks may freely touch *other* slots of the same
//!   store), and [`AdjacencyStore::pop`] / [`AdjacencyStore::retain`] cover
//!   the drain-style loops, so the replacement search never clones a
//!   snapshot `Vec`.
//!
//! # Iteration semantics
//!
//! `for_each_edge` visits distinct neighbors best-effort, exactly like
//! iterating a concurrent collection on the JVM (which is what the paper's
//! implementation does): neighbors present for the whole iteration are
//! visited at least once, neighbors added or removed concurrently may or may
//! not appear, and a neighbor may be visited more than once if the slot is
//! reorganized mid-iteration (the slot version is checked per chunk and the
//! cursor restarts on reorganization, so a concurrent rehash can never cause
//! a stable neighbor to be *missed* — the failure mode that would silently
//! break the replacement search).  All HDT visitors are idempotent per
//! edge, so re-visits are harmless.
//!
//! # Deadlock discipline
//!
//! `for_each_edge` and `pop` run their callbacks / return **without** the
//! stripe held, so callbacks may call back into this store (including the
//! very slot being iterated).  [`AdjacencyStore::retain`] and the
//! quiescent walker [`AdjacencyStore::for_each_entry`] are the exceptions:
//! their callbacks run under the stripe lock and therefore must not touch
//! *this* store (other structures are fine).

use crate::hash::fx_hash_u64;
use crate::spinlock::RawSpinLock;
use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Neighbor ids (copies included) a slot holds in place before spilling.
pub const INLINE_CAP: usize = 4;
/// Slots per lazily-materialized page.
const PAGE_SLOTS: usize = 64;
/// Neighbors copied out per locked section during iteration.
const CHUNK: usize = 32;
/// Default number of lock stripes (rounded up to a power of two).
const DEFAULT_STRIPES: usize = 512;
/// Initial open-addressed table capacity after a spill.
const TABLE_MIN_CAP: usize = 16;
/// Version-restart budget of the chunked visitor before it falls back to a
/// single locked copy of the slot.
const MAX_RESTARTS: u32 = 8;
/// Neighbor id of a never-used table cell.
const EMPTY: u32 = u32::MAX;
/// Neighbor id of a table cell whose last copy was removed.
const TOMB: u32 = u32::MAX - 1;
/// `Slot::len` of a slot whose neighbors live in a spilled table.
const SPILLED: u8 = u8::MAX;

/// One open-addressed table cell: a neighbor id (or [`EMPTY`] / [`TOMB`])
/// and its multiplicity.
#[derive(Clone, Copy)]
struct Cell {
    nbr: u32,
    count: u32,
}

const EMPTY_CELL: Cell = Cell {
    nbr: EMPTY,
    count: 0,
};

/// The spilled representation: linear-probing, tombstone-based open
/// addressing. Tombstones keep cell indices stable under removal, which the
/// chunked iterator relies on; only growth rehashes (and bumps the slot
/// version).
struct Table {
    cells: Box<[Cell]>,
    /// Occupancy bitmap, one bit per cell (set = live). Lets the chunked
    /// visitor and `pop` jump between live cells instead of scanning every
    /// cell of a half-empty table.
    bits: Box<[u64]>,
    /// Live cells.
    live: u32,
    /// Live plus tombstoned cells (probe-chain length driver).
    used: u32,
}

impl Table {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(TABLE_MIN_CAP);
        Table {
            cells: vec![EMPTY_CELL; cap].into_boxed_slice(),
            bits: vec![0u64; cap.div_ceil(64)].into_boxed_slice(),
            live: 0,
            used: 0,
        }
    }

    /// Home cell of `nbr`: Fibonacci hashing on the top bits, so neighbor
    /// ids that differ by a multiple of the capacity still spread.
    #[inline]
    fn home(&self, nbr: u32) -> usize {
        let shift = 64 - self.cells.len().trailing_zeros();
        ((nbr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Smallest live cell index `>= from`, if any.
    #[inline]
    fn next_live(&self, from: usize) -> Option<usize> {
        let cap = self.cells.len();
        if from >= cap {
            return None;
        }
        let mut word_i = from / 64;
        let mut word = self.bits[word_i] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_i * 64 + word.trailing_zeros() as usize);
            }
            word_i += 1;
            if word_i * 64 >= cap {
                return None;
            }
            word = self.bits[word_i];
        }
    }

    /// Index of the cell holding `nbr`, if present.
    fn find(&self, nbr: u32) -> Option<usize> {
        if nbr >= TOMB {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut i = self.home(nbr);
        loop {
            match self.cells[i].nbr {
                EMPTY => return None,
                x if x == nbr => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Writes a new live cell at `i`.
    #[inline]
    fn occupy(&mut self, i: usize, nbr: u32, count: u32) {
        if self.cells[i].nbr == EMPTY {
            self.used += 1;
        }
        self.cells[i] = Cell { nbr, count };
        self.bits[i / 64] |= 1u64 << (i % 64);
        self.live += 1;
    }

    /// Removes `copies` copies from live cell `i`, tombstoning it with the
    /// last.
    #[inline]
    fn take(&mut self, i: usize, copies: u32) {
        self.cells[i].count -= copies;
        if self.cells[i].count == 0 {
            self.cells[i].nbr = TOMB;
            self.bits[i / 64] &= !(1u64 << (i % 64));
            self.live -= 1;
        }
    }

    /// Adds one copy of `nbr`. Returns `true` if the table was rehashed.
    fn add(&mut self, nbr: u32) -> bool {
        // Probe first: a duplicate add is a pure count bump and must never
        // trigger a rehash (which would force concurrent visitors of this
        // slot to restart). The growth check runs only when a new cell is
        // actually about to be consumed; its target lands the post-rehash
        // load factor just under 1/2, keeping probes cheap without making
        // the chunked visitor scan mostly-empty cells. Insertion keeps
        // `used <= 3/4 * capacity`, so an empty cell always exists and the
        // probe loop terminates.
        let mask = self.cells.len() - 1;
        let mut i = self.home(nbr);
        let mut first_tomb = None;
        loop {
            match self.cells[i].nbr {
                x if x == nbr => {
                    self.cells[i].count += 1;
                    return false;
                }
                TOMB => {
                    first_tomb.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                EMPTY => {
                    let grow =
                        first_tomb.is_none() && (self.used as usize + 1) * 4 > self.cells.len() * 3;
                    if grow {
                        self.rehash((self.live as usize + 1) * 2);
                        self.insert_new(nbr, 1);
                        return true;
                    }
                    self.occupy(first_tomb.unwrap_or(i), nbr, 1);
                    return false;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts absent `nbr` with an explicit multiplicity at the first free
    /// (empty or tombstoned) cell of its probe chain.
    fn insert_new(&mut self, nbr: u32, count: u32) {
        debug_assert!(self.find(nbr).is_none(), "insert_new of present neighbor");
        let mask = self.cells.len() - 1;
        let mut i = self.home(nbr);
        while self.cells[i].nbr < TOMB {
            i = (i + 1) & mask;
        }
        self.occupy(i, nbr, count);
    }

    /// Removes one copy of `nbr`. Returns `true` if a copy was present.
    fn remove(&mut self, nbr: u32) -> bool {
        match self.find(nbr) {
            Some(i) => {
                self.take(i, 1);
                true
            }
            None => false,
        }
    }

    fn rehash(&mut self, target: usize) {
        let old = std::mem::replace(self, Table::with_capacity(target));
        for cell in old.cells.iter().filter(|c| c.nbr < TOMB) {
            self.insert_new(cell.nbr, cell.count);
        }
    }
}

/// Inline neighbor ids, or the spilled table (selected by `Slot::len`).
union SlotData {
    inline: [u32; INLINE_CAP],
    table: ManuallyDrop<Box<Table>>,
}

/// One `(level, vertex)` slot.
struct Slot {
    /// Bumped on any reorganization that can move a neighbor to a smaller
    /// index (inline compaction, spill, table growth); the chunked iterator
    /// restarts when it observes a bump, so stable neighbors are never
    /// skipped.
    version: u32,
    /// Number of inline neighbor ids (copies included), or [`SPILLED`].
    len: u8,
    /// Whether this slot has ever held a neighbor (feeds the
    /// `materialized_slots` counter exactly once).
    touched: bool,
    data: SlotData,
}

// Every slot of a level-0 page is paid once per vertex per store, so the
// slot size is the adjacency's bytes per vertex.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

impl Default for Slot {
    fn default() -> Self {
        Slot {
            version: 0,
            len: 0,
            touched: false,
            data: SlotData {
                inline: [0; INLINE_CAP],
            },
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if self.len == SPILLED {
            // SAFETY: `len == SPILLED` means `table` is the active field.
            unsafe { ManuallyDrop::drop(&mut self.data.table) }
        }
    }
}

impl Slot {
    fn bump(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    fn is_spilled(&self) -> bool {
        self.len == SPILLED
    }

    /// The spilled table, if the slot has spilled.
    #[inline]
    fn table(&self) -> Option<&Table> {
        // SAFETY: `len == SPILLED` means `table` is the active field.
        self.is_spilled().then(|| unsafe { &**self.data.table })
    }

    #[inline]
    fn table_mut(&mut self) -> Option<&mut Table> {
        if self.is_spilled() {
            // SAFETY: as in `table`.
            Some(unsafe { &mut **self.data.table })
        } else {
            None
        }
    }

    /// The inline neighbor ids of an unspilled slot.
    #[inline]
    fn inline(&self) -> &[u32] {
        debug_assert!(!self.is_spilled());
        // SAFETY: `len != SPILLED` means `inline` is the active field, and
        // `len <= INLINE_CAP`.
        unsafe { &self.data.inline[..self.len as usize] }
    }

    #[inline]
    fn inline_mut(&mut self) -> &mut [u32; INLINE_CAP] {
        debug_assert!(!self.is_spilled());
        // SAFETY: as in `inline`.
        unsafe { &mut self.data.inline }
    }

    fn add(&mut self, nbr: u32) {
        if let Some(table) = self.table_mut() {
            if table.add(nbr) {
                self.bump();
            }
            return;
        }
        let len = self.len as usize;
        if len < INLINE_CAP {
            self.inline_mut()[len] = nbr;
            self.len += 1;
            return;
        }
        // Spill: fold the inline copies into counted cells.
        let mut table = Table::with_capacity(TABLE_MIN_CAP);
        for &x in self.inline().iter().chain([&nbr]) {
            table.add(x);
        }
        self.data = SlotData {
            table: ManuallyDrop::new(Box::new(table)),
        };
        self.len = SPILLED;
        self.bump();
    }

    fn remove(&mut self, nbr: u32) -> bool {
        if let Some(table) = self.table_mut() {
            return table.remove(nbr);
        }
        // Drop the last copy: when it is the last entry nothing moves.
        let Some(i) = self.inline().iter().rposition(|&x| x == nbr) else {
            return false;
        };
        let last = self.len as usize - 1;
        if i != last {
            // Swap-remove moves the last entry below an iterator's cursor —
            // bump the version so it restarts.
            let entries = self.inline_mut();
            entries[i] = entries[last];
            self.bump();
        }
        self.len -= 1;
        true
    }

    fn count(&self, nbr: u32) -> u32 {
        match self.table() {
            Some(table) => table.find(nbr).map_or(0, |i| table.cells[i].count),
            None => self.inline().iter().filter(|&&x| x == nbr).count() as u32,
        }
    }

    fn len(&self) -> usize {
        match self.table() {
            Some(table) => table
                .cells
                .iter()
                .filter(|c| c.nbr < TOMB)
                .map(|c| c.count as usize)
                .sum(),
            None => self.inline().len(),
        }
    }

    fn distinct_len(&self) -> usize {
        match self.table() {
            Some(table) => table.live as usize,
            None => {
                let inline = self.inline();
                (0..inline.len())
                    .filter(|&i| !inline[..i].contains(&inline[i]))
                    .count()
            }
        }
    }

    fn is_empty(&self) -> bool {
        match self.table() {
            Some(table) => table.live == 0,
            None => self.len == 0,
        }
    }

    fn pop(&mut self) -> Option<u32> {
        if let Some(table) = self.table_mut() {
            let i = table.next_live(0)?;
            let nbr = table.cells[i].nbr;
            table.take(i, 1);
            return Some(nbr);
        }
        // Popping the last entry moves nothing: no version bump.
        let last = self.len.checked_sub(1)?;
        let nbr = self.inline()[last as usize];
        self.len = last;
        Some(nbr)
    }

    fn retain(&mut self, mut keep: impl FnMut(u32, u32) -> bool) {
        if let Some(table) = self.table_mut() {
            let mut at = 0;
            while let Some(i) = table.next_live(at) {
                let cell = table.cells[i];
                if !keep(cell.nbr, cell.count) {
                    table.take(i, cell.count);
                }
                at = i + 1;
            }
            return;
        }
        // One verdict per distinct neighbor, asked with its multiplicity
        // and applied to every copy; survivors keep their order.
        let src = *self.inline_mut();
        let len = self.len as usize;
        let mut verdict = [false; INLINE_CAP];
        let mut kept = 0;
        for i in 0..len {
            let x = src[i];
            verdict[i] = match src[..i].iter().position(|&y| y == x) {
                Some(first) => verdict[first],
                None => keep(x, src[i..len].iter().filter(|&&y| y == x).count() as u32),
            };
            if verdict[i] {
                self.inline_mut()[kept] = x;
                kept += 1;
            }
        }
        if kept < len {
            self.len = kept as u8;
            self.bump();
        }
    }

    /// Copies up to `CHUNK` distinct neighbors starting at entry index
    /// `cursor` into `buf`; returns `(copied, next_cursor, exhausted)`.
    fn fill_chunk(&self, cursor: usize, buf: &mut [u32; CHUNK]) -> (usize, usize, bool) {
        let mut copied = 0;
        let Some(table) = self.table() else {
            // Later copies of a neighbor are skipped, so the visit is over
            // distinct neighbors like a table's.
            let inline = self.inline();
            let mut i = cursor.min(inline.len());
            while i < inline.len() && copied < CHUNK {
                if !inline[..i].contains(&inline[i]) {
                    buf[copied] = inline[i];
                    copied += 1;
                }
                i += 1;
            }
            return (copied, i, i >= inline.len());
        };
        // Walk the occupancy bitmap word by word: one load per 64 cells plus
        // one trailing_zeros per live neighbor, instead of inspecting every
        // cell of a half-empty table.
        let cap = table.cells.len();
        let mut i = cursor.min(cap);
        if i < cap {
            let mut word_i = i / 64;
            let mut word = table.bits[word_i] & (!0u64 << (i % 64));
            'chunk: while copied < CHUNK {
                while word == 0 {
                    word_i += 1;
                    if word_i * 64 >= cap {
                        i = cap;
                        break 'chunk;
                    }
                    word = table.bits[word_i];
                }
                let idx = word_i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                buf[copied] = table.cells[idx].nbr;
                copied += 1;
                i = idx + 1;
            }
        }
        (copied, i, i >= cap)
    }

    /// Calls `f` once per distinct neighbor, in entry order.
    fn for_each_distinct(&self, mut f: impl FnMut(u32)) {
        let Some(table) = self.table() else {
            let inline = self.inline();
            for (i, &x) in inline.iter().enumerate() {
                if !inline[..i].contains(&x) {
                    f(x);
                }
            }
            return;
        };
        let mut at = 0;
        while let Some(i) = table.next_live(at) {
            f(table.cells[i].nbr);
            at = i + 1;
        }
    }
}

/// A page of slots, materialized lazily. Slots are only accessed under
/// their stripe lock.
struct Page {
    slots: [UnsafeCell<Slot>; PAGE_SLOTS],
}

impl Page {
    fn boxed() -> Box<Self> {
        Box::new(Page {
            slots: std::array::from_fn(|_| UnsafeCell::new(Slot::default())),
        })
    }
}

/// The flat, lazy, striped adjacency store; see the module documentation.
pub struct AdjacencyStore {
    levels: usize,
    n: usize,
    /// Page spine: `ceil(levels * n / PAGE_SLOTS)` pointers, null until the
    /// page is materialized. This is the only per-capacity allocation.
    pages: Box<[AtomicPtr<Page>]>,
    stripes: Box<[RawSpinLock]>,
    stripe_mask: usize,
    materialized_pages: AtomicUsize,
    materialized_slots: AtomicUsize,
}

// SAFETY: the slots behind the page spine hold plain data (neighbor ids and
// owned tables) in `UnsafeCell`s, and every access to a slot is made under
// its stripe spinlock; pages are published by a successful CAS and freed
// only by `Drop`. The remaining fields are atomics, immutable sizes and the
// locks themselves.
unsafe impl Send for AdjacencyStore {}
unsafe impl Sync for AdjacencyStore {}

impl AdjacencyStore {
    /// Creates a store for `levels × n` slots with the default stripe count.
    ///
    /// Performs exactly two heap allocations regardless of `levels * n`.
    pub fn new(levels: usize, n: usize) -> Self {
        Self::with_stripes(levels, n, DEFAULT_STRIPES)
    }

    /// Creates a store with an explicit stripe count (rounded up to a power
    /// of two).
    pub fn with_stripes(levels: usize, n: usize, stripes: usize) -> Self {
        let total = levels
            .checked_mul(n)
            .expect("adjacency store dimensions overflow");
        let num_pages = total.div_ceil(PAGE_SLOTS);
        let stripe_count = stripes.next_power_of_two().max(1);
        AdjacencyStore {
            levels,
            n,
            pages: (0..num_pages)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            stripes: (0..stripe_count).map(|_| RawSpinLock::new()).collect(),
            stripe_mask: stripe_count - 1,
            materialized_pages: AtomicUsize::new(0),
            materialized_slots: AtomicUsize::new(0),
        }
    }

    /// Number of levels this store was sized for.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Number of vertices per level.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of `(level, vertex)` slots that have ever held a neighbor.
    /// `Hdt::new` must leave this at zero: adjacency memory is supposed to
    /// scale with *touched* pairs, not with `n log n`.
    pub fn materialized_slots(&self) -> usize {
        self.materialized_slots.load(Ordering::Relaxed)
    }

    /// Number of pages currently backed by real memory.
    pub fn materialized_pages(&self) -> usize {
        self.materialized_pages.load(Ordering::Relaxed)
    }

    /// Number of slots that have spilled out of the inline representation
    /// (diagnostic; quiescent reads only).
    pub fn spilled_slots(&self) -> usize {
        let mut spilled = 0;
        for (base, page, slots) in self.live_pages() {
            for si in 0..slots {
                let lock = self.stripe(base + si);
                lock.lock();
                // SAFETY: the slot's stripe is held.
                spilled += unsafe { &*page.slots[si].get() }.is_spilled() as usize;
                lock.unlock();
            }
        }
        spilled
    }

    #[inline]
    fn flat(&self, level: usize, vertex: u32) -> usize {
        // Hard asserts: with a flat index, an out-of-range vertex would
        // otherwise silently alias another level's slot in release builds.
        assert!(level < self.levels, "level {level} out of range");
        assert!((vertex as usize) < self.n, "vertex {vertex} out of range");
        level * self.n + vertex as usize
    }

    #[inline]
    fn stripe(&self, flat: usize) -> &RawSpinLock {
        &self.stripes[(fx_hash_u64(flat as u64) as usize) & self.stripe_mask]
    }

    /// The page for `flat`, if materialized.
    #[inline]
    fn page(&self, flat: usize) -> Option<&Page> {
        let ptr = self.pages[flat / PAGE_SLOTS].load(Ordering::Acquire);
        // SAFETY: a non-null spine entry points at a page published by CAS
        // that lives until the store drops.
        unsafe { ptr.as_ref() }
    }

    /// The page for `flat`, materializing it if needed. Lock-free: pages are
    /// shared by slots of different stripes, so publication races through a
    /// CAS (the loser frees its allocation).
    fn materialize(&self, flat: usize) -> &Page {
        if let Some(page) = self.page(flat) {
            return page;
        }
        let entry = &self.pages[flat / PAGE_SLOTS];
        let fresh = Box::into_raw(Page::boxed());
        match entry.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                self.materialized_pages.fetch_add(1, Ordering::Relaxed);
                // SAFETY: `fresh` is now the published page, as in `page`.
                unsafe { &*fresh }
            }
            Err(won) => {
                // SAFETY: `fresh` was never published, so this is its only
                // owner; `won` is the published page, as in `page`.
                drop(unsafe { Box::from_raw(fresh) });
                unsafe { &*won }
            }
        }
    }

    /// Runs `f` on the slot for `flat` under its stripe lock, materializing
    /// the page first.
    #[inline]
    fn with_slot_mut<R>(&self, flat: usize, f: impl FnOnce(&mut Slot) -> R) -> R {
        let lock = self.stripe(flat);
        lock.lock();
        let page = self.materialize(flat);
        // SAFETY: the slot's stripe is held until `f` returns.
        let slot = unsafe { &mut *page.slots[flat % PAGE_SLOTS].get() };
        let out = f(slot);
        lock.unlock();
        out
    }

    /// Runs `f` on the slot for `flat` under its stripe lock, or returns
    /// `default` if the page is not materialized (the slot is empty).
    #[inline]
    fn with_slot<R>(&self, flat: usize, default: R, f: impl FnOnce(&mut Slot) -> R) -> R {
        let Some(page) = self.page(flat) else {
            return default;
        };
        let lock = self.stripe(flat);
        lock.lock();
        // SAFETY: the slot's stripe is held until `f` returns.
        let slot = unsafe { &mut *page.slots[flat % PAGE_SLOTS].get() };
        let out = f(slot);
        lock.unlock();
        out
    }

    /// The materialized pages in flat-index order, as `(first flat index,
    /// page, slots in range)`.
    fn live_pages(&self) -> impl Iterator<Item = (usize, &Page, usize)> {
        let total = self.levels * self.n;
        self.pages.iter().enumerate().filter_map(move |(pi, page)| {
            // SAFETY: as in `page`.
            let page = unsafe { page.load(Ordering::Acquire).as_ref() }?;
            let base = pi * PAGE_SLOTS;
            Some((base, page, PAGE_SLOTS.min(total - base)))
        })
    }

    /// Adds one copy of neighbor `nbr` to slot `(level, vertex)`.
    ///
    /// # Panics
    /// Panics if `nbr` is one of the two ids reserved as table sentinels
    /// (`u32::MAX - 1` and `u32::MAX`).
    pub fn add(&self, level: usize, vertex: u32, nbr: u32) {
        assert!(nbr < TOMB, "neighbor id {nbr} is reserved");
        let flat = self.flat(level, vertex);
        let newly_touched = self.with_slot_mut(flat, |slot| {
            let first = !slot.touched;
            slot.touched = true;
            slot.add(nbr);
            first
        });
        if newly_touched {
            self.materialized_slots.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes one copy of `nbr` from slot `(level, vertex)`.
    /// Returns `true` if a copy was present.
    pub fn remove(&self, level: usize, vertex: u32, nbr: u32) -> bool {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, false, |slot| slot.remove(nbr))
    }

    /// Returns `true` if at least one copy of `nbr` is in the slot.
    pub fn contains(&self, level: usize, vertex: u32, nbr: u32) -> bool {
        self.count(level, vertex, nbr) > 0
    }

    /// Number of copies of `nbr` in the slot.
    pub fn count(&self, level: usize, vertex: u32, nbr: u32) -> u32 {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, 0, |slot| slot.count(nbr))
    }

    /// Total number of copies in the slot.
    pub fn len(&self, level: usize, vertex: u32) -> usize {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, 0, |slot| slot.len())
    }

    /// Number of distinct neighbors in the slot.
    pub fn distinct_len(&self, level: usize, vertex: u32) -> usize {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, 0, |slot| slot.distinct_len())
    }

    /// Returns `true` if the slot holds no neighbors.
    pub fn is_empty(&self, level: usize, vertex: u32) -> bool {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, true, |slot| slot.is_empty())
    }

    /// Removes and returns one copy of an arbitrary neighbor of the slot.
    pub fn pop(&self, level: usize, vertex: u32) -> Option<u32> {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, None, |slot| slot.pop())
    }

    /// Keeps only the distinct neighbors for which `keep(nbr, copies)`
    /// returns `true` (dropping all copies of the others).
    ///
    /// The predicate runs **under the stripe lock**: it must not call back
    /// into this store (other structures are fine).
    pub fn retain(&self, level: usize, vertex: u32, keep: impl FnMut(u32, u32) -> bool) {
        let flat = self.flat(level, vertex);
        self.with_slot(flat, (), |slot| slot.retain(keep));
    }

    /// Visits the distinct neighbors of the slot without allocating: they
    /// are copied into a fixed stack buffer in chunks, and `f` runs with the
    /// stripe lock *released* (so it may freely mutate this store, including
    /// the slot being visited).
    ///
    /// Returns `ControlFlow::Break(())` if `f` broke out early. See the
    /// module documentation for the exact iteration guarantees.
    pub fn for_each_edge(
        &self,
        level: usize,
        vertex: u32,
        mut f: impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let flat = self.flat(level, vertex);
        let Some(page) = self.page(flat) else {
            return ControlFlow::Continue(());
        };
        let lock = self.stripe(flat);
        let cell = &page.slots[flat % PAGE_SLOTS];
        let mut buf = [0u32; CHUNK];
        let mut cursor = 0usize;
        let mut version: Option<u32> = None;
        let mut restarts = 0u32;
        loop {
            lock.lock();
            // SAFETY: the slot's stripe is held while `slot` is used; it is
            // released before `f` runs.
            let slot = unsafe { &*cell.get() };
            if version != Some(slot.version) {
                // The slot was reorganized (or this is the first chunk):
                // restart so no stable neighbor hides below the cursor.
                if version.is_some() {
                    restarts += 1;
                    if restarts > MAX_RESTARTS {
                        // Pathological churn: concurrent writers keep
                        // reorganizing the slot faster than the chunked walk
                        // finishes. Fall back to one locked full copy — the
                        // only situation in which this visitor allocates.
                        let mut all = Vec::with_capacity(slot.distinct_len());
                        slot.for_each_distinct(|nbr| all.push(nbr));
                        lock.unlock();
                        for nbr in all {
                            f(nbr)?;
                        }
                        return ControlFlow::Continue(());
                    }
                }
                cursor = 0;
                version = Some(slot.version);
            }
            let (copied, next_cursor, exhausted) = slot.fill_chunk(cursor, &mut buf);
            lock.unlock();
            for &nbr in &buf[..copied] {
                f(nbr)?;
            }
            if exhausted {
                return ControlFlow::Continue(());
            }
            cursor = next_cursor;
        }
    }

    /// Visits every distinct neighbor of every materialized slot as
    /// `(level, vertex, nbr)` — the checkpoint export's walker.
    ///
    /// The walk takes every stripe lock once, in index order, holds them
    /// all while it reads the pages in flat-index order, and runs `f` on
    /// each slot's neighbors in place: nothing is copied and no lock is
    /// taken per slot. So the walk reads one atomic snapshot of the store,
    /// and slot operations on other threads wait until it ends. No slot
    /// operation waits for anything while it holds its stripe, so the
    /// ordered acquisition cannot deadlock with them. As with
    /// [`AdjacencyStore::retain`], `f` must not touch *this* store.
    ///
    /// Meant for a caller that has already stopped structural mutation
    /// (for the durable checkpoint path, the batch engine's leader lock):
    /// the walk is linear in the materialized slots, and every slot
    /// operation elsewhere stalls for that long.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, u32, u32)) {
        struct Held<'a>(&'a [RawSpinLock]);
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                self.0.iter().for_each(RawSpinLock::unlock);
            }
        }
        self.stripes.iter().for_each(RawSpinLock::lock);
        let _held = Held(&self.stripes);
        for (base, page, slots) in self.live_pages() {
            for (si, cell) in page.slots[..slots].iter().enumerate() {
                // SAFETY: every stripe is held until `_held` drops, and `f`
                // does not reenter this store.
                let slot = unsafe { &*cell.get() };
                if slot.is_empty() {
                    continue;
                }
                let flat = base + si;
                let (level, vertex) = (flat / self.n, (flat % self.n) as u32);
                slot.for_each_distinct(|nbr| f(level, vertex, nbr));
            }
        }
    }
}

impl Drop for AdjacencyStore {
    fn drop(&mut self) {
        for page in self.pages.iter() {
            let ptr = page.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !ptr.is_null() {
                // SAFETY: `&mut self` excludes every other user, and the swap
                // leaves no second pointer to the page.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

impl std::fmt::Debug for AdjacencyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdjacencyStore")
            .field("levels", &self.levels)
            .field("n", &self.n)
            .field("materialized_pages", &self.materialized_pages())
            .field("materialized_slots", &self.materialized_slots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn visit(store: &AdjacencyStore, level: usize, vertex: u32) -> Vec<u32> {
        let mut seen = Vec::new();
        let _ = store.for_each_edge(level, vertex, |x| {
            seen.push(x);
            ControlFlow::Continue(())
        });
        seen.sort_unstable();
        seen
    }

    #[test]
    fn construction_materializes_nothing() {
        let store = AdjacencyStore::new(21, 1_000_000);
        assert_eq!(store.materialized_slots(), 0);
        assert_eq!(store.materialized_pages(), 0);
        assert!(store.is_empty(20, 999_999));
        assert_eq!(store.len(0, 0), 0);
        assert!(!store.contains(3, 17, 42));
        assert_eq!(store.pop(3, 17), None);
        // Probing empty slots must not materialize pages either.
        assert_eq!(store.materialized_pages(), 0);
    }

    #[test]
    fn add_remove_count_multiset_semantics() {
        let store = AdjacencyStore::new(2, 16);
        store.add(0, 3, 7);
        store.add(0, 3, 7);
        store.add(0, 3, 9);
        assert_eq!(store.count(0, 3, 7), 2);
        assert_eq!(store.len(0, 3), 3);
        assert_eq!(store.distinct_len(0, 3), 2);
        assert!(store.remove(0, 3, 7));
        assert_eq!(store.count(0, 3, 7), 1);
        assert!(store.remove(0, 3, 7));
        assert!(!store.contains(0, 3, 7));
        assert!(!store.remove(0, 3, 7));
        assert!(store.contains(0, 3, 9));
        // The sibling slot at another level is untouched.
        assert!(store.is_empty(1, 3));
        assert_eq!(store.materialized_slots(), 1);
    }

    #[test]
    fn duplicate_neighbors_inline() {
        // Four entries, two of them copies of 5: still inline.
        let store = AdjacencyStore::new(1, 1);
        for x in [5, 6, 5, 7] {
            store.add(0, 0, x);
        }
        assert_eq!(store.spilled_slots(), 0);
        assert_eq!((store.len(0, 0), store.distinct_len(0, 0)), (4, 3));
        assert_eq!(store.count(0, 0, 5), 2);
        assert_eq!(visit(&store, 0, 0), vec![5, 6, 7], "copies visited once");
        // Removing one copy of two leaves the other.
        assert!(store.remove(0, 0, 5));
        assert_eq!(store.count(0, 0, 5), 1);
        assert_eq!(visit(&store, 0, 0), vec![5, 6, 7]);
        store.add(0, 0, 5);
        // `retain` asks once per distinct neighbor, with its multiplicity.
        let mut asked = Vec::new();
        store.retain(0, 0, |x, copies| {
            asked.push((x, copies));
            x != 6
        });
        asked.sort_unstable();
        assert_eq!(asked, vec![(5, 2), (6, 1), (7, 1)]);
        assert_eq!((store.count(0, 0, 5), store.count(0, 0, 6)), (2, 0));
        // `pop` takes one copy at a time.
        let mut popped = Vec::new();
        while let Some(x) = store.pop(0, 0) {
            popped.push(x);
        }
        popped.sort_unstable();
        assert_eq!(popped, vec![5, 5, 7]);
        assert!(store.is_empty(0, 0));
    }

    #[test]
    fn duplicate_neighbors_across_the_spill_boundary() {
        // Copies count against the inline capacity: the fifth entry spills
        // even though only three neighbors are distinct, and the table
        // folds the inline copies into counts.
        let store = AdjacencyStore::new(1, 1);
        for x in [1, 2, 1, 3] {
            store.add(0, 0, x);
        }
        assert_eq!(store.spilled_slots(), 0);
        store.add(0, 0, 1);
        assert_eq!(store.spilled_slots(), 1);
        assert_eq!(store.count(0, 0, 1), 3);
        assert_eq!((store.len(0, 0), store.distinct_len(0, 0)), (5, 3));
        assert_eq!(visit(&store, 0, 0), vec![1, 2, 3]);
        assert!(store.remove(0, 0, 1));
        assert_eq!(store.count(0, 0, 1), 2);
    }

    #[test]
    fn duplicate_neighbors_in_the_spilled_table() {
        let store = AdjacencyStore::new(1, 1);
        for x in 0..40 {
            store.add(0, 0, x);
        }
        store.add(0, 0, 17);
        store.add(0, 0, 30);
        assert_eq!(store.spilled_slots(), 1);
        assert_eq!((store.len(0, 0), store.distinct_len(0, 0)), (42, 40));
        assert_eq!(visit(&store, 0, 0), (0..40).collect::<Vec<_>>());
        // One copy of two goes, the other stays.
        assert!(store.remove(0, 0, 17));
        assert_eq!(store.count(0, 0, 17), 1);
        assert!(store.contains(0, 0, 17));
        // `retain` sees counts and drops every copy of a rejected neighbor.
        store.retain(0, 0, |x, copies| {
            assert_eq!(copies, if x == 30 { 2 } else { 1 }, "copies of {x}");
            x != 30
        });
        assert!(!store.contains(0, 0, 30));
        // `pop` drains copies one by one.
        let mut popped = 0;
        while store.pop(0, 0).is_some() {
            popped += 1;
        }
        assert_eq!(popped, 39);
        assert!(store.is_empty(0, 0));
        assert_eq!(store.len(0, 0), 0);
    }

    #[test]
    fn spill_to_table_and_back_pressure() {
        let store = AdjacencyStore::new(1, 4);
        let many = 200u32;
        for i in 0..many {
            store.add(0, 1, i);
        }
        assert_eq!(store.distinct_len(0, 1), many as usize);
        assert_eq!(store.spilled_slots(), 1);
        for i in 0..many {
            assert!(store.contains(0, 1, i), "lost {i} after spill");
        }
        for i in 0..many {
            assert!(store.remove(0, 1, i));
        }
        assert!(store.is_empty(0, 1));
        // Everything can be re-added after a full drain.
        for i in 0..many {
            store.add(0, 1, i);
        }
        assert_eq!(store.distinct_len(0, 1), many as usize);
    }

    #[test]
    fn for_each_edge_visits_every_stable_element() {
        let store = AdjacencyStore::new(1, 2);
        for count in [1u32, 3, INLINE_CAP as u32, INLINE_CAP as u32 + 1, 50, 500] {
            let mut expect = HashSet::new();
            for i in 0..count {
                store.add(0, 0, i);
                expect.insert(i);
            }
            let seen: HashSet<u32> = visit(&store, 0, 0).into_iter().collect();
            assert_eq!(seen, expect, "count={count}");
            store.retain(0, 0, |_, _| false);
            assert!(store.is_empty(0, 0));
        }
    }

    #[test]
    fn for_each_edge_break_stops_early() {
        let store = AdjacencyStore::new(1, 1);
        for i in 0..100 {
            store.add(0, 0, i);
        }
        let mut visited = 0;
        let out = store.for_each_edge(0, 0, |_| {
            visited += 1;
            if visited == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(out, ControlFlow::Break(()));
        assert_eq!(visited, 5);
    }

    #[test]
    fn for_each_entry_visits_each_distinct_neighbor_once() {
        // Slot (0, 1) stays inline with a repeated neighbor; slot (2, 3)
        // spills and then loses some neighbors to tombstones.
        let store = AdjacencyStore::new(3, 70);
        for nbr in [5, 9, 5] {
            store.add(0, 1, nbr);
        }
        for nbr in 0..40 {
            store.add(2, 3, nbr);
        }
        for nbr in 10..20 {
            store.remove(2, 3, nbr);
        }
        let mut seen = Vec::new();
        store.for_each_entry(|level, vertex, nbr| seen.push((level, vertex, nbr)));
        seen.sort_unstable();
        let mut expect = vec![(0, 1, 5), (0, 1, 9)];
        expect.extend((0..10).chain(20..40).map(|nbr| (2, 3, nbr)));
        assert_eq!(seen, expect);
    }

    #[test]
    fn callback_may_mutate_the_visited_slot() {
        // The replacement scan removes (promotes) edges from the very slot it
        // iterates; the visitor must tolerate that and still visit every
        // stable neighbor at least once.
        for total in [INLINE_CAP as u32, 40] {
            let store = AdjacencyStore::new(1, 1);
            for i in 0..total {
                store.add(0, 0, i);
            }
            let mut removed = HashSet::new();
            let mut seen = HashSet::new();
            let _ = store.for_each_edge(0, 0, |v| {
                seen.insert(v);
                if v % 2 == 0 && removed.insert(v) {
                    assert!(store.remove(0, 0, v));
                }
                ControlFlow::Continue(())
            });
            assert_eq!(seen.len(), total as usize, "every neighbor visited");
            for v in 0..total {
                assert_eq!(store.contains(0, 0, v), v % 2 == 1);
            }
        }
    }

    #[test]
    fn pop_drains_all_copies() {
        let store = AdjacencyStore::new(1, 1);
        store.add(0, 0, 5);
        store.add(0, 0, 5);
        store.add(0, 0, 6);
        let mut popped = Vec::new();
        while let Some(v) = store.pop(0, 0) {
            popped.push(v);
        }
        popped.sort_unstable();
        assert_eq!(popped, vec![5, 5, 6]);
        assert!(store.is_empty(0, 0));
    }

    #[test]
    fn retain_filters_distinct_elements() {
        let store = AdjacencyStore::new(1, 1);
        for i in 0..20 {
            store.add(0, 0, i);
            store.add(0, 0, i);
        }
        store.retain(0, 0, |v, count| {
            assert_eq!(count, 2);
            v % 3 == 0
        });
        for i in 0..20 {
            assert_eq!(store.contains(0, 0, i), i % 3 == 0, "neighbor {i}");
            if i % 3 == 0 {
                assert_eq!(store.count(0, 0, i), 2, "copies of {i} survive");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_neighbor_ids_are_rejected() {
        AdjacencyStore::new(1, 1).add(0, 0, u32::MAX);
    }

    #[test]
    fn concurrent_adds_and_removes_balance() {
        let store = Arc::new(AdjacencyStore::new(4, 64));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..2000u32 {
                        let level = (i % 4) as usize;
                        store.add(level, i % 64, t * 1_000_000 + i);
                    }
                    for i in 0..2000u32 {
                        let level = (i % 4) as usize;
                        assert!(store.remove(level, i % 64, t * 1_000_000 + i));
                    }
                });
            }
        });
        for level in 0..4 {
            for vertex in 0..64 {
                assert!(store.is_empty(level, vertex));
            }
        }
    }

    #[test]
    fn concurrent_duplicate_adds_keep_exact_counts() {
        let store = Arc::new(AdjacencyStore::new(1, 8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for _ in 0..500 {
                        store.add(0, 3, 42);
                    }
                });
            }
        });
        assert_eq!(store.count(0, 3, 42), 2000);
    }

    #[test]
    fn helper_double_insert_keeps_the_surviving_copy() {
        // The non-blocking add publishes an edge's information into both
        // endpoint slots, and a replacement scan that helps it publishes a
        // second copy; whichever loses its state CAS retracts one copy.
        // Two threads play the two publishers over edge {0, 1} while each
        // slot also holds `others` unrelated neighbors (inline, at the
        // spill boundary, spilled); the retracting side alternates. Exactly
        // one copy must survive in each slot, and a visit must see it.
        for others in [0u32, 2, 3, 8] {
            let store = AdjacencyStore::new(1, 2);
            for x in 0..others {
                store.add(0, 0, 100 + x);
                store.add(0, 1, 200 + x);
            }
            for round in 0..200u32 {
                let barrier = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    for t in 0..2u32 {
                        let (store, barrier) = (&store, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            store.add(0, 0, 1);
                            store.add(0, 1, 0);
                            barrier.wait();
                            if t == round % 2 {
                                assert!(store.remove(0, 0, 1));
                                assert!(store.remove(0, 1, 0));
                            } else {
                                assert!(visit(store, 0, 0).contains(&1));
                            }
                        });
                    }
                });
                assert_eq!((store.count(0, 0, 1), store.count(0, 1, 0)), (1, 1));
                assert!(visit(&store, 0, 0).contains(&1));
                assert!(visit(&store, 0, 1).contains(&0));
                assert_eq!(store.len(0, 0), others as usize + 1);
                // The edge's own removal takes the survivor.
                assert!(store.remove(0, 0, 1) && store.remove(0, 1, 0));
                assert_eq!(store.count(0, 0, 1) + store.count(0, 1, 0), 0);
            }
        }
    }

    #[test]
    fn concurrent_page_materialization_is_exact() {
        // Many threads hammer slots of the same fresh page; the page must be
        // materialized exactly once and no additions lost.
        let store = Arc::new(AdjacencyStore::new(1, 64));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        store.add(0, (t * 100 + i) % 64, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(store.materialized_pages(), 1);
        let total: usize = (0..64).map(|v| store.len(0, v)).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn visitor_under_concurrent_mutation_never_misses_stable_elements() {
        // Writers churn a disjoint key range while the main thread iterates;
        // the stable range must always be fully visited.
        let store = Arc::new(AdjacencyStore::new(1, 1));
        for i in 0..32u32 {
            store.add(0, 0, i); // stable neighbors
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let key = 1000 + t * 10_000 + (i % 64);
                        store.add(0, 0, key);
                        store.remove(0, 0, key);
                        i = i.wrapping_add(1);
                    }
                });
            }
            for _ in 0..200 {
                let mut seen = HashSet::new();
                let _ = store.for_each_edge(0, 0, |v| {
                    if v < 32 {
                        seen.insert(v);
                    }
                    ControlFlow::Continue(())
                });
                assert_eq!(
                    seen.len(),
                    32,
                    "missed stable neighbors {:?}",
                    (0..32u32).filter(|v| !seen.contains(v)).collect::<Vec<_>>()
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

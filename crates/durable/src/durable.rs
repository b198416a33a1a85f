//! [`DurableConnectivity`]: the batch engine with a write-ahead log under
//! it and checkpoints behind it.
//!
//! # Lifecycle
//!
//! * [`DurableConnectivity::create`] — start a fresh store in an empty
//!   directory: segment 1 is written immediately (its header carries the
//!   vertex count, so even a checkpoint-free store can boot).
//! * Operate it like any [`BatchConnectivity`]: every committed update
//!   batch is appended to the WAL *before the batch's callers are released*
//!   (the engine's commit hook runs at the batch's linearization point), so
//!   an acknowledged update is logged — and, under
//!   [`FsyncPolicy::Always`], on disk.
//! * Checkpoints happen automatically every
//!   [`DurableOptions::checkpoint_interval`] batches (and on demand via
//!   [`DurableConnectivity::checkpoint`]): the live forest is serialized
//!   under the leader lock, written-then-renamed, the log rolls to a fresh
//!   segment and fully-covered segments are pruned.
//! * [`DurableConnectivity::recover`] — after a crash: load the newest
//!   valid checkpoint, replay the WAL tail past it, truncate torn bytes off
//!   the final segment, and resume logging in a fresh segment.
//!
//! # Failure semantics
//!
//! A write failure (real or injected by the fault harness) *poisons* the
//! instance: logging stops, [`DurableConnectivity::is_poisoned`] flips, and
//! explicit durability calls ([`checkpoint`](DurableConnectivity::checkpoint),
//! [`sync`](DurableConnectivity::sync)) return [`DurableError::Poisoned`].
//! In-memory operation continues (a poisoned instance is still a correct
//! *volatile* connectivity structure), but nothing past the poison point is
//! durable — exactly the guarantee a crashed process gives. Drop it and
//! [`recover`](DurableConnectivity::recover).

use crate::checkpoint::{self, CheckpointData};
use crate::error::{DurableError, RecoveryReport};
use crate::fault::{DurableFs, RealFs};
use crate::wal::{self, SegmentWriter};
use dc_batch::BatchEngine;
use dc_obs::{Counter, Tally};
use dynconn::{BatchConnectivity, BatchOp, DynamicConnectivity, Hdt, QueryResult};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// When appended WAL records are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every committed batch: an acknowledged batch survives
    /// power loss. The strongest and slowest setting.
    Always,
    /// `fsync` every `n` committed batches: bounded loss window of at most
    /// `n - 1` acknowledged batches, most of `Off`'s throughput.
    EveryN(u32),
    /// Never `fsync`; the OS flushes when it pleases. Survives process
    /// crashes (the page cache persists) but not power loss.
    Off,
}

/// Tuning knobs for a durable instance.
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// WAL sync policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Committed batches between automatic checkpoints; `0` disables
    /// automatic checkpointing (manual calls still work).
    pub checkpoint_interval: u64,
    /// Roll to a new segment once the current one exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Delete segments fully covered by a checkpoint after it lands.
    pub prune_segments: bool,
    /// Intake capacity forwarded to [`BatchEngine::from_hdt`].
    pub intake_capacity: usize,
    /// Query fan-out threads forwarded to [`BatchEngine::from_hdt`].
    pub query_threads: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_interval: 32,
            segment_max_bytes: 8 << 20,
            prune_segments: true,
            intake_capacity: 64,
            query_threads: 1,
        }
    }
}

struct WalInner {
    segment: Option<SegmentWriter>,
    last_seq: u64,
    batches_since_sync: u32,
    batches_since_checkpoint: u64,
    poisoned: bool,
}

/// The log-side state shared between the instance and the engine's commit
/// hook. The `Mutex` serializes the (single) writer against explicit
/// `sync`/`checkpoint` calls; lock order is always leader lock → `inner`.
struct WalShared {
    dir: PathBuf,
    fs: Arc<dyn DurableFs>,
    opts: DurableOptions,
    vertices: u64,
    inner: Mutex<WalInner>,
}

impl WalShared {
    /// Marks the instance poisoned and emits a flight-recorder post-mortem:
    /// the recorder's rings hold the last structural and WAL events leading
    /// up to the failure. Best-effort — a failed (or empty) dump never
    /// masks the original error.
    fn poison(inner: &mut WalInner, why: &str) {
        inner.poisoned = true;
        let _ = dc_obs::auto_dump(why);
    }

    /// The commit hook body: append + group-commit the batch, then handle
    /// segment rolling and automatic checkpointing. Runs on the leader
    /// thread with the structure quiescent. Any failure poisons the
    /// instance instead of panicking or losing track of what is durable.
    fn on_commit(&self, hdt: &Hdt, adds: &[dc_graph::Edge], removes: &[dc_graph::Edge]) {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned {
            return;
        }
        let seq = inner.last_seq + 1;
        let bytes = wal::encode_batch(seq, adds, removes);
        let tally = hdt.tally();
        if self.append_locked(&mut inner, &bytes, tally).is_err() {
            Self::poison(&mut inner, "wal-append-failed");
            return;
        }
        inner.last_seq = seq;
        inner.batches_since_checkpoint += 1;
        tally.add(Counter::WalBatches, 1);
        tally.add(Counter::WalBytes, bytes.len() as u64);
        dc_obs::event(dc_obs::EventKind::WalCommit, seq, bytes.len() as u64);
        let auto_checkpoint = self.opts.checkpoint_interval > 0
            && inner.batches_since_checkpoint >= self.opts.checkpoint_interval;
        if auto_checkpoint {
            // Checkpointing rolls the segment itself.
            if self.checkpoint_locked(&mut inner, hdt).is_err() {
                Self::poison(&mut inner, "checkpoint-failed");
            }
            return;
        }
        let over_size = inner
            .segment
            .as_ref()
            .is_some_and(|s| s.bytes_written >= self.opts.segment_max_bytes);
        if over_size && self.roll_segment_locked(&mut inner, tally).is_err() {
            Self::poison(&mut inner, "segment-roll-failed");
        }
    }

    /// One policy-driven or forced sync, span-profiled and counted in the
    /// store's `tally`.
    fn timed_sync(segment: &mut SegmentWriter, tally: &Tally) -> io::Result<()> {
        let _span = dc_obs::span(dc_obs::SpanId::WalFsync);
        tally.add(Counter::WalFsyncs, 1);
        segment.sync()
    }

    fn append_locked(&self, inner: &mut WalInner, bytes: &[u8], tally: &Tally) -> io::Result<()> {
        let segment = inner.segment.as_mut().expect("open segment");
        segment.append(bytes)?;
        match self.opts.fsync {
            FsyncPolicy::Always => Self::timed_sync(segment, tally)?,
            FsyncPolicy::EveryN(n) => {
                inner.batches_since_sync += 1;
                if inner.batches_since_sync >= n.max(1) {
                    Self::timed_sync(segment, tally)?;
                    inner.batches_since_sync = 0;
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Writes a checkpoint covering everything committed so far, rolls to a
    /// fresh segment and prunes segments the checkpoint supersedes. Must
    /// run with the leader lock held (`hdt` quiescent).
    fn checkpoint_locked(&self, inner: &mut WalInner, hdt: &Hdt) -> io::Result<u64> {
        let covered = inner.last_seq;
        {
            let _span = dc_obs::span(dc_obs::SpanId::CheckpointWrite);
            checkpoint::write_checkpoint(self.fs.as_ref(), &self.dir, hdt, covered)?;
        }
        hdt.tally().add(Counter::Checkpoints, 1);
        dc_obs::event(dc_obs::EventKind::Checkpoint, covered, 0);
        self.roll_segment_locked(inner, hdt.tally())?;
        inner.batches_since_checkpoint = 0;
        if self.opts.prune_segments {
            let current = inner.segment.as_ref().expect("open segment").index;
            if let Ok(segments) = wal::list_segments(&self.dir) {
                for (index, path) in segments {
                    if index < current {
                        // Best-effort: a leftover covered segment is
                        // harmless (recovery skips batches ≤ covered_seq).
                        let _ = self.fs.remove(&path);
                    }
                }
            }
        }
        Ok(covered)
    }

    fn roll_segment_locked(&self, inner: &mut WalInner, tally: &Tally) -> io::Result<()> {
        // Make what the old segment claims durable before abandoning it, so
        // a crash right after the roll cannot lose pre-roll batches that a
        // lazy fsync policy had not yet flushed.
        if let Some(segment) = inner.segment.as_mut() {
            if self.opts.fsync != FsyncPolicy::Off {
                Self::timed_sync(segment, tally)?;
            }
        }
        let next_index = inner
            .segment
            .as_ref()
            .map(|s| s.index + 1)
            .expect("open segment");
        inner.segment = None; // close (drop) the old writer first
        let segment = SegmentWriter::create(
            self.fs.as_ref(),
            &self.dir,
            next_index,
            inner.last_seq + 1,
            self.vertices,
        )?;
        inner.segment = Some(segment);
        inner.batches_since_sync = 0;
        tally.add(Counter::WalSegmentRolls, 1);
        dc_obs::event(dc_obs::EventKind::WalSegmentRoll, next_index, 0);
        Ok(())
    }
}

/// A crash-safe dynamic connectivity instance: the `dc_batch` engine with
/// its update stream group-committed to a segmented WAL and periodically
/// compacted into checkpoints. See the module docs for the lifecycle.
pub struct DurableConnectivity {
    engine: BatchEngine,
    wal: Arc<WalShared>,
}

impl DurableConnectivity {
    /// Starts a fresh store over `n` vertices in `dir` (created if absent;
    /// must not already contain a store).
    pub fn create(
        dir: impl AsRef<Path>,
        n: usize,
        opts: DurableOptions,
    ) -> Result<Self, DurableError> {
        Self::create_with_fs(dir, n, opts, Arc::new(RealFs))
    }

    /// [`create`](Self::create) with an explicit filesystem — the fault
    /// harness injects [`crate::FaultFs`] here.
    pub fn create_with_fs(
        dir: impl AsRef<Path>,
        n: usize,
        opts: DurableOptions,
        fs: Arc<dyn DurableFs>,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if !wal::list_segments(&dir)?.is_empty()
            || !checkpoint::list_checkpoints(&dir)?.0.is_empty()
        {
            return Err(DurableError::Malformed(format!(
                "{} already contains a durable store (use recover)",
                dir.display()
            )));
        }
        let segment = SegmentWriter::create(fs.as_ref(), &dir, 1, 1, n as u64)?;
        let wal = Arc::new(WalShared {
            dir,
            fs,
            opts,
            vertices: n as u64,
            inner: Mutex::new(WalInner {
                segment: Some(segment),
                last_seq: 0,
                batches_since_sync: 0,
                batches_since_checkpoint: 0,
                poisoned: false,
            }),
        });
        Ok(Self::assemble(Hdt::new(n), wal, opts))
    }

    /// Recovers the store in `dir`: newest valid checkpoint + WAL-tail
    /// replay, truncating a torn final record and refusing mid-log
    /// corruption. Returns the live instance (logging resumed in a fresh
    /// segment) plus a [`RecoveryReport`] of exactly what was found.
    pub fn recover(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        Self::recover_with_fs(dir, opts, Arc::new(RealFs))
    }

    /// [`recover`](Self::recover) with an explicit filesystem for the
    /// *resumed writer*. Recovery itself always reads (and truncates) the
    /// real files via `std::fs` — injected faults shape what the crashed
    /// writer left behind, not what the reader sees.
    pub fn recover_with_fs(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        fs: Arc<dyn DurableFs>,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        match Self::recover_with_fs_inner(dir, opts, fs) {
            Err(err @ DurableError::CorruptLog { .. }) => {
                // Refusal is the one outcome an operator must investigate;
                // leave them the flight-recorder tail as a post-mortem.
                dc_obs::event(dc_obs::EventKind::RecoveryStep, 2, 0);
                let _ = dc_obs::auto_dump("recovery-refused");
                Err(err)
            }
            other => other,
        }
    }

    fn recover_with_fs_inner(
        dir: impl AsRef<Path>,
        opts: DurableOptions,
        fs: Arc<dyn DurableFs>,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let dir = dir.as_ref().to_path_buf();
        let mut report = RecoveryReport::default();

        // 1. Newest checkpoint that validates; corrupt ones are skipped.
        let (checkpoints, tmp_ignored) = checkpoint::list_checkpoints(&dir)?;
        report.tmp_checkpoints_ignored = tmp_ignored;
        let mut loaded: Option<CheckpointData> = None;
        for (_, path) in &checkpoints {
            let bytes = std::fs::read(path)?;
            match checkpoint::decode_checkpoint(&bytes) {
                Ok(data) => {
                    loaded = Some(data);
                    break;
                }
                Err(_) => report.checkpoints_skipped += 1,
            }
        }

        // 2. Scan every segment, oldest first. Damage in the final segment
        //    is a torn tail (truncate, keep going); anywhere else is fatal.
        let segments = wal::list_segments(&dir)?;
        if segments.is_empty() && loaded.is_none() {
            return Err(DurableError::Malformed(format!(
                "{} contains no WAL segments and no checkpoint",
                dir.display()
            )));
        }
        report.segments_scanned = segments.len();
        let mut vertices: Option<u64> = loaded.as_ref().map(|c| c.vertices);
        let mut scans = Vec::with_capacity(segments.len());
        let last_pos = segments.len().saturating_sub(1);
        for (pos, (index, path)) in segments.iter().enumerate() {
            let bytes = std::fs::read(path)?;
            let scan = wal::scan_segment(path, &bytes)?;
            if let Some((offset, detail)) = &scan.damage {
                if pos != last_pos {
                    return Err(DurableError::CorruptLog {
                        segment: *index,
                        offset: *offset,
                        detail: detail.clone(),
                    });
                }
                // Torn tail: cut the file back to the last committed batch
                // (drop it entirely if not even the header survived).
                report.tail_truncated = true;
                report.truncated_bytes = bytes.len() as u64 - scan.committed_end;
                if scan.committed_end == 0 {
                    std::fs::remove_file(path)?;
                } else {
                    let file = std::fs::OpenOptions::new().write(true).open(path)?;
                    file.set_len(scan.committed_end)?;
                    file.sync_data()?;
                }
            }
            if scan.committed_end > 0 {
                // Header was valid: sanity-check the sequence floor and
                // cross-check the universe size.
                if let Some(first) = scan.batches.first() {
                    if first.seq < scan.first_seq {
                        return Err(DurableError::CorruptLog {
                            segment: *index,
                            offset: 0,
                            detail: format!(
                                "batch seq {} precedes the segment's first_seq {}",
                                first.seq, scan.first_seq
                            ),
                        });
                    }
                }
                match vertices {
                    None => vertices = Some(scan.vertices),
                    Some(n) if n != scan.vertices => {
                        return Err(DurableError::Malformed(format!(
                            "segment {index} declares {} vertices, expected {n}",
                            scan.vertices
                        )));
                    }
                    Some(_) => {}
                }
            }
            scans.push((*index, scan));
        }
        let Some(vertices) = vertices else {
            return Err(DurableError::Malformed(format!(
                "{}: no checkpoint and no intact segment header to learn the vertex count from",
                dir.display()
            )));
        };

        // 3. Rebuild: checkpoint state first, then the tail, in order.
        let hdt = Hdt::new(vertices as usize);
        let covered = loaded.as_ref().map(|c| c.covered_seq).unwrap_or(0);
        if let Some(data) = &loaded {
            checkpoint::restore_into(&hdt, data);
            report.checkpoint_seq = data.covered_seq;
            dc_obs::event(dc_obs::EventKind::RecoveryStep, 0, data.covered_seq);
        }
        let mut last_seq = covered;
        for (index, scan) in &scans {
            dc_obs::event(dc_obs::EventKind::RecoveryStep, 1, *index);
            for batch in &scan.batches {
                if batch.seq <= covered {
                    continue;
                }
                if batch.seq != last_seq + 1 {
                    return Err(DurableError::CorruptLog {
                        segment: *index,
                        offset: 0,
                        detail: format!(
                            "sequence gap: expected batch {} next, found {}",
                            last_seq + 1,
                            batch.seq
                        ),
                    });
                }
                hdt.apply_compacted_batch_locked(&batch.adds, &batch.removes);
                last_seq = batch.seq;
                report.batches_replayed += 1;
            }
        }
        report.last_seq = last_seq;

        // 4. Resume logging in a fresh segment past everything on disk.
        let next_index = segments.iter().map(|(i, _)| *i).max().unwrap_or(0) + 1;
        let segment = SegmentWriter::create(fs.as_ref(), &dir, next_index, last_seq + 1, vertices)?;
        let wal = Arc::new(WalShared {
            dir,
            fs,
            opts,
            vertices,
            inner: Mutex::new(WalInner {
                segment: Some(segment),
                last_seq,
                batches_since_sync: 0,
                batches_since_checkpoint: 0,
                poisoned: false,
            }),
        });
        Ok((Self::assemble(hdt, wal, opts), report))
    }

    fn assemble(hdt: Hdt, wal: Arc<WalShared>, opts: DurableOptions) -> Self {
        let mut engine = BatchEngine::from_hdt(hdt, opts.intake_capacity, opts.query_threads);
        let hook_state = Arc::clone(&wal);
        engine.set_commit_hook(Box::new(move |hdt, adds, removes| {
            hook_state.on_commit(hdt, adds, removes)
        }));
        DurableConnectivity { engine, wal }
    }

    /// The underlying batch engine (lock-free reads, stats, bulk batches).
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// Takes a checkpoint now. Returns the covered sequence number.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        self.engine.with_exclusive(|hdt| {
            let mut inner = self.wal.inner.lock().unwrap();
            if inner.poisoned {
                return Err(DurableError::Poisoned);
            }
            match self.wal.checkpoint_locked(&mut inner, hdt) {
                Ok(covered) => Ok(covered),
                Err(e) => {
                    WalShared::poison(&mut inner, "checkpoint-failed");
                    Err(DurableError::Io(e))
                }
            }
        })
    }

    /// Forces every logged batch to stable storage regardless of the
    /// [`FsyncPolicy`].
    pub fn sync(&self) -> Result<(), DurableError> {
        let mut inner = self.wal.inner.lock().unwrap();
        if inner.poisoned {
            return Err(DurableError::Poisoned);
        }
        let result = WalShared::timed_sync(
            inner.segment.as_mut().expect("open segment"),
            self.engine.hdt().tally(),
        );
        match result {
            Ok(()) => {
                inner.batches_since_sync = 0;
                Ok(())
            }
            Err(e) => {
                WalShared::poison(&mut inner, "forced-sync-failed");
                Err(DurableError::Io(e))
            }
        }
    }

    /// Sequence number of the last batch appended to the log.
    pub fn last_seq(&self) -> u64 {
        self.wal.inner.lock().unwrap().last_seq
    }

    /// `true` once a write failure has stopped durability (see the module
    /// docs on failure semantics).
    pub fn is_poisoned(&self) -> bool {
        self.wal.inner.lock().unwrap().poisoned
    }

    /// Tears this instance down and reconstructs it from its own durable
    /// state — the recovery door out of *both* poison states: an engine
    /// poisoned by a leader panic ([`dc_batch::EngineError::Poisoned`]) and
    /// a WAL poisoned by a write failure. The in-memory structure is
    /// discarded wholesale (after a leader panic it is assumed arbitrarily
    /// damaged, never patched in place); the rebuilt instance is exactly
    /// what [`recover`](Self::recover) would produce after a crash at the
    /// last committed batch — the newest checkpoint plus the WAL tail, with
    /// logging resumed in a fresh segment. Because the commit hook runs
    /// before any caller of its batch is released, every acked update is in
    /// the log and therefore in the rebuilt structure.
    ///
    /// The segment is synced first (best-effort — on a WAL-poisoned store
    /// the tail past the failure is already gone, which is the documented
    /// contract of the fsync policy) and closed before recovery re-reads
    /// the directory.
    pub fn rebuild(self) -> Result<(Self, RecoveryReport), DurableError> {
        let dir = self.wal.dir.clone();
        let opts = self.wal.opts;
        let fs = Arc::clone(&self.wal.fs);
        {
            let mut inner = self.wal.inner.lock().unwrap();
            if let Some(segment) = inner.segment.as_mut() {
                let _ = WalShared::timed_sync(segment, self.engine.hdt().tally());
            }
            // Close the segment writer before recovery re-reads (and
            // possibly truncates) the files it wrote.
            inner.segment = None;
        }
        drop(self);
        Self::recover_with_fs(dir, opts, fs)
    }
}

impl DynamicConnectivity for DurableConnectivity {
    fn add_edge(&self, u: u32, v: u32) {
        self.engine.add_edge(u, v);
    }

    fn remove_edge(&self, u: u32, v: u32) {
        self.engine.remove_edge(u, v);
    }

    fn connected(&self, u: u32, v: u32) -> bool {
        self.engine.connected(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.engine.num_vertices()
    }

    fn tally(&self) -> Option<&Tally> {
        self.engine.tally()
    }

    fn set_read_hints(&self, enabled: bool) {
        self.engine.set_read_hints(enabled);
    }
}

impl BatchConnectivity for DurableConnectivity {
    fn apply_batch(&self, ops: &[BatchOp]) -> Vec<QueryResult> {
        self.engine.apply_batch(ops)
    }
}

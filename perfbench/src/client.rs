//! Closed-loop clients: each waits for every answer before its next op,
//! replays its own pregenerated stream and shadows the edges it owns.

use crate::door::{Door, Fail};
use crate::inputs::{Pool, Step, Stream, Update};
use dynconn::StatsSnapshot;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// When a drive ends.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    Steps(usize),
}

/// Counts of one drive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// Updates the structure applied (one commit each on a single client).
    pub updates: u64,
    pub poisoned: bool,
}

impl Tally {
    fn fail(&mut self, f: Fail) {
        self.failed += 1;
        self.poisoned |= f == Fail::Poisoned;
    }

    pub fn merge(&mut self, other: Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.updates += other.updates;
        self.poisoned |= other.poisoned;
    }
}

/// Per-op latency samples in nanoseconds. A query sample is one timed
/// group divided by the group size.
#[derive(Default)]
pub struct Samples {
    pub query: Vec<f32>,
    pub add: Vec<f32>,
    pub remove: Vec<f32>,
}

#[derive(Clone, Copy)]
pub enum OpKind {
    Query,
    Add,
    Remove,
}

impl Samples {
    pub fn of(&self, kind: OpKind) -> &[f32] {
        match kind {
            OpKind::Query => &self.query,
            OpKind::Add => &self.add,
            OpKind::Remove => &self.remove,
        }
    }
}

/// Length of the windows a p99 is taken over.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Latency samples split into consecutive [`WINDOW`]s from a client's first
/// op, so a p99 can be read per window.
#[derive(Default)]
pub struct Latencies {
    start: Option<Instant>,
    pub windows: Vec<Samples>,
}

impl Latencies {
    fn window(&mut self, now: Instant) -> &mut Samples {
        let start = *self.start.get_or_insert(now);
        let i = (now.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos()) as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Samples::default);
        }
        &mut self.windows[i]
    }

    /// Merges another client's samples window by window (clients start
    /// together at a barrier).
    pub fn merge(&mut self, other: Latencies) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Samples::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.query.extend(theirs.query);
            mine.add.extend(theirs.add);
            mine.remove.extend(theirs.remove);
        }
    }
}

/// Explicit checkpoints every `every` applied updates (the traced run of
/// `durable-service`, whose automatic checkpoints are off so each one can be
/// timed from outside).
pub struct Checkpoints {
    every: u64,
    since: u64,
    pub ms: Vec<f64>,
}

impl Checkpoints {
    pub fn new(every: u64) -> Self {
        Checkpoints {
            every,
            since: 0,
            ms: Vec::new(),
        }
    }

    /// Counts one applied update and checkpoints when the cadence is due.
    /// Returns the checkpoint's start and duration.
    fn tick<D: Door>(&mut self, door: &D, tally: &mut Tally) -> Option<(Instant, Duration)> {
        self.since += 1;
        if self.since < self.every {
            return None;
        }
        self.since = 0;
        let t0 = Instant::now();
        if let Err(f) = door.checkpoint() {
            tally.fail(f);
        }
        let dt = t0.elapsed();
        self.ms.push(dt.as_secs_f64() * 1e3);
        Some((t0, dt))
    }
}

/// What a traced call was, by the public counters it moved. Each class
/// names the layer that did its distinguishing work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    QueryHit,
    QueryMiss,
    AddNonSpanning,
    AddSpanning,
    RemoveNonSpanning,
    RemoveReplaced,
    RemoveSplit,
    Checkpoint,
}

impl Class {
    pub fn layer(self) -> &'static str {
        match self {
            Class::QueryHit | Class::QueryMiss | Class::AddSpanning => "dc_ett",
            Class::AddNonSpanning | Class::RemoveNonSpanning => "dc_sync",
            Class::RemoveReplaced | Class::RemoveSplit => "dynconn",
            Class::Checkpoint => "dc_durable",
        }
    }

    pub fn op(self) -> &'static str {
        match self {
            Class::QueryHit | Class::QueryMiss => "connected",
            Class::AddNonSpanning | Class::AddSpanning => "add_edge",
            Class::RemoveNonSpanning | Class::RemoveReplaced | Class::RemoveSplit => "remove_edge",
            Class::Checkpoint => "checkpoint",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::QueryHit => "hint_hit",
            Class::QueryMiss => "hint_miss",
            Class::AddNonSpanning | Class::RemoveNonSpanning => "non_spanning",
            Class::AddSpanning => "spanning",
            Class::RemoveReplaced => "replaced",
            Class::RemoveSplit => "split",
            Class::Checkpoint => "explicit",
        }
    }

    fn of_query(before: &StatsSnapshot, after: &StatsSnapshot) -> Class {
        let hits = after.read_hint_hits - before.read_hint_hits;
        let misses = after.read_hint_misses - before.read_hint_misses;
        if hits > 0 && misses == 0 {
            Class::QueryHit
        } else {
            Class::QueryMiss
        }
    }

    fn of_update(update: Update, before: &StatsSnapshot, after: &StatsSnapshot) -> Class {
        match update {
            Update::Add(_) if after.non_spanning_additions > before.non_spanning_additions => {
                Class::AddNonSpanning
            }
            Update::Add(_) => Class::AddSpanning,
            Update::Remove(_) if after.non_spanning_removals > before.non_spanning_removals => {
                Class::RemoveNonSpanning
            }
            Update::Remove(_) if after.replacements_found > before.replacements_found => {
                Class::RemoveReplaced
            }
            Update::Remove(_) => Class::RemoveSplit,
        }
    }
}

/// One traced call: kept in memory, written out when the run ends.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub class: Class,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Client<'a> {
    stream: &'a Stream,
    pub pool: Pool,
    /// Consecutive queries per query step.
    group: usize,
    step: usize,
    pair: usize,
}

impl<'a> Client<'a> {
    pub fn new(stream: &'a Stream, pool: Pool, group: usize) -> Self {
        Client {
            stream,
            pool,
            group,
            step: 0,
            pair: 0,
        }
    }

    fn next_step(&mut self) -> Step {
        let s = self.stream.steps[self.step];
        self.step = (self.step + 1) % self.stream.steps.len();
        s
    }

    fn next_pair(&mut self) -> (u32, u32) {
        let p = self.stream.pairs[self.pair];
        self.pair = (self.pair + 1) % self.stream.pairs.len();
        p
    }

    /// Applies one update step to the shadow and the structure; a timed-out
    /// update had no effect, so its shadow change is undone.
    fn update<D: Door>(&mut self, door: &D, step: Step) -> (Update, Result<(), Fail>) {
        let up = self.pool.take(step);
        let result = match up {
            Update::Add(e) => door.add(e.u(), e.v()),
            Update::Remove(e) => door.remove(e.u(), e.v()),
        };
        if result == Err(Fail::Timeout) {
            self.pool.undo(up);
        }
        (up, result)
    }

    /// Runs the stream until `stop`, timing every update and every query
    /// step (a group of consecutive queries).
    pub fn drive<D: Door>(
        &mut self,
        door: &D,
        stop: Stop,
        lat: &mut Latencies,
        mut checkpoints: Option<&mut Checkpoints>,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut steps = 0;
        while !tally.poisoned {
            let t0 = Instant::now();
            match stop {
                Stop::At(deadline) if t0 >= deadline => break,
                Stop::Steps(n) if steps >= n => break,
                _ => steps += 1,
            }
            match self.next_step() {
                Step::Queries => {
                    for _ in 0..self.group {
                        let (u, v) = self.next_pair();
                        match door.connected(u, v) {
                            Ok(answer) => {
                                black_box(answer);
                            }
                            Err(f) => tally.fail(f),
                        }
                    }
                    tally.ops += self.group as u64;
                    let dt = nanos(t0.elapsed()) / self.group as f32;
                    lat.window(t0).query.push(dt);
                }
                step => {
                    let (up, result) = self.update(door, step);
                    let dt = nanos(t0.elapsed());
                    tally.ops += 1;
                    match result {
                        Ok(()) => {
                            tally.updates += 1;
                            let window = lat.window(t0);
                            match up {
                                Update::Add(_) => window.add.push(dt),
                                Update::Remove(_) => window.remove.push(dt),
                            }
                            if let Some(c) = checkpoints.as_deref_mut() {
                                c.tick(door, &mut tally);
                            }
                        }
                        Err(f) => tally.fail(f),
                    }
                }
            }
        }
        tally
    }

    /// Applies the next `count` update steps of the stream, skipping its
    /// query steps.
    pub fn updates_only<D: Door>(&mut self, door: &D, count: usize) -> Tally {
        let mut tally = Tally::default();
        while tally.ops < count as u64 && !tally.poisoned {
            let step = self.next_step();
            if step == Step::Queries {
                continue;
            }
            tally.ops += 1;
            match self.update(door, step).1 {
                Ok(()) => tally.updates += 1,
                Err(f) => tally.fail(f),
            }
        }
        tally
    }

    /// Runs `steps` stream steps, timing each call on its own and classing
    /// it by the counter deltas it caused. Single-client only: with two
    /// clients the deltas would mix.
    pub fn drive_traced<D: Door>(
        &mut self,
        door: &D,
        steps: usize,
        epoch: Instant,
        spans: &mut Vec<Span>,
        mut checkpoints: Option<&mut Checkpoints>,
    ) -> Tally {
        let mut tally = Tally::default();
        let hdt = door.hdt();
        let span = |class, t0: Instant, dt: Duration| Span {
            class,
            start_ns: (t0 - epoch).as_nanos() as u64,
            dur_ns: dt.as_nanos() as u64,
        };
        for _ in 0..steps {
            if tally.poisoned {
                break;
            }
            match self.next_step() {
                Step::Queries => {
                    // Timed one by one, but the stream's grouping is kept so
                    // both kinds of run replay the same operations.
                    for _ in 0..self.group {
                        let (u, v) = self.next_pair();
                        let before = hdt.stats();
                        let t0 = Instant::now();
                        let result = door.connected(u, v);
                        let dt = t0.elapsed();
                        let after = hdt.stats();
                        tally.ops += 1;
                        match result {
                            Ok(answer) => {
                                black_box(answer);
                                spans.push(span(Class::of_query(&before, &after), t0, dt));
                            }
                            Err(f) => tally.fail(f),
                        }
                    }
                }
                step => {
                    let before = hdt.stats();
                    let t0 = Instant::now();
                    let (up, result) = self.update(door, step);
                    let dt = t0.elapsed();
                    let after = hdt.stats();
                    tally.ops += 1;
                    match result {
                        Ok(()) => {
                            tally.updates += 1;
                            spans.push(span(Class::of_update(up, &before, &after), t0, dt));
                            if let Some(c) = checkpoints.as_deref_mut() {
                                if let Some((t0, dt)) = c.tick(door, &mut tally) {
                                    spans.push(span(Class::Checkpoint, t0, dt));
                                }
                            }
                        }
                        Err(f) => tally.fail(f),
                    }
                }
            }
        }
        tally
    }
}

fn nanos(d: Duration) -> f32 {
    d.as_nanos() as f32
}

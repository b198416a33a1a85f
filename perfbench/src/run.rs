//! One run of one workload: setup, the measured (or traced) phase, the
//! end-of-run correctness check and, for the durable store, recovery.

use crate::client::{Checkpoints, Client, Latencies, OpKind, Stop, Tally};
use crate::door::{Door, PaperAlgorithm};
use crate::inputs::{Inputs, Pool, Update};
use crate::stats::{median, rss_bytes, Sorted};
use crate::trace::{share, Trace};
use crate::workload::{DoorKind, Workload};
use dc_durable::{DurableConnectivity, DurableOptions, FsyncPolicy};
use dc_graph::Edge;
use dynconn::locking::FineLocking;
use dynconn::{BatchOp, DynamicConnectivity, StatsSnapshot, UnionFind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Recoveries (reloads, for the in-memory workloads) per run; `recover_s`
/// is their median. A 1-2 s load swings by ±20% with the host from one
/// second to the next, so it takes more repetitions than the 20-s phase.
const RECOVERIES: usize = 5;
/// Committed batches between checkpoints on `durable-service`.
const CHECKPOINT_EVERY: u64 = 20_000;
/// Single-op updates committed after the final explicit checkpoint, so every
/// recovery replays the same WAL tail.
const TAIL_UPDATES: usize = 10_000;
/// Untraced and traced chunks of the traced run, in the order
/// U T T U U T T U, so a steady drift in speed cancels out of the overhead.
const TRACE_CHUNKS: usize = 8;
/// Stream steps each client of the validation twin runs.
const TWIN_STEPS: usize = 50_000;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn count(&mut self, tally: Tally) {
        self.attempted += tally.ops;
        self.failed += tally.failed;
    }

    /// Counts `attempted` checks, `failed` of which found a wrong answer.
    fn checked(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

pub struct Options<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub data_dir: PathBuf,
    pub span_file: PathBuf,
}

/// Logs a phase boundary with the time since the process started.
pub fn phase(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[{t:8.2}s] {what}");
}

pub fn run(opts: &Options) -> Report {
    phase("generating inputs");
    let inputs = Inputs::generate(opts.workload, opts.seed);
    phase("setup");
    match opts.workload.door {
        DoorKind::InMemory => run_in_memory(opts, &inputs),
        DoorKind::Durable => run_durable(opts, &inputs),
    }
}

// ----- shared phases ---------------------------------------------------------

fn clients<'a>(w: &Workload, inputs: &'a Inputs) -> Vec<Client<'a>> {
    inputs
        .streams
        .iter()
        .zip(&inputs.pools)
        .map(|(s, p)| Client::new(s, p.clone(), w.group))
        .collect()
}

enum Until {
    Elapsed(Duration),
    Steps(usize),
}

/// Runs every client on its own thread until `until`; returns the merged
/// counts, latencies and the wall time between the start barrier and the
/// last client's end. A client thread that panicked counts as one failure.
fn concurrent<D: Door>(door: &D, clients: &mut [Client], until: Until) -> (Tally, Latencies, f64) {
    let barrier = Barrier::new(clients.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                let until = &until;
                s.spawn(move || {
                    barrier.wait();
                    let stop = match *until {
                        Until::Elapsed(d) => Stop::At(Instant::now() + d),
                        Until::Steps(n) => Stop::Steps(n),
                    };
                    let mut lat = Latencies::default();
                    let tally = c.drive(door, stop, &mut lat, None);
                    (tally, lat)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut tally = Tally::default();
        let mut lat = Latencies::default();
        for h in handles {
            match h.join() {
                Ok((t, l)) => {
                    tally.merge(t);
                    lat.merge(l);
                }
                Err(_) => {
                    tally.ops += 1;
                    tally.failed += 1;
                }
            }
        }
        (tally, lat, t0.elapsed().as_secs_f64())
    })
}

fn final_edges<'a>(clients: &'a [Client]) -> impl Iterator<Item = &'a Edge> {
    clients.iter().flat_map(|c| c.pool.present.iter())
}

fn oracle(n: usize, clients: &[Client]) -> UnionFind {
    let mut uf = UnionFind::new(n);
    for e in final_edges(clients) {
        uf.union(e.u(), e.v());
    }
    uf
}

/// Checks a quiescent structure against the clients' shadows: the seeded
/// pair sample against the union-find oracle, edge presence for a sample of
/// present and absent edges, and (if `validate`) `Hdt::validate`, which
/// only a small structure can afford (see [`validate_twin`]). Returns
/// (checks attempted, checks failed); a panic anywhere fails the check.
fn check<D: Door>(
    door: &D,
    pools: &[&Pool],
    uf: &mut UnionFind,
    pairs: &[(u32, u32)],
    validate: bool,
) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for &(u, v) in pairs {
            attempted += 1;
            if door.connected(u, v) != Ok(uf.connected(u, v)) {
                failed += 1;
            }
        }
        let hdt = door.hdt();
        for pool in pools {
            for (edges, present) in [(&pool.present, true), (&pool.absent, false)] {
                let stride = (edges.len() / 1000).max(1);
                for e in edges.iter().step_by(stride) {
                    attempted += 1;
                    if hdt.has_edge(e.u(), e.v()) != present {
                        failed += 1;
                    }
                }
            }
        }
        if validate {
            attempted += 1;
            hdt.validate();
        }
    }));
    if outcome.is_err() {
        attempted += 1;
        failed += 1;
    }
    (attempted, failed)
}

/// p50 over all samples; p99 as the median over the run's windows of each
/// window's p99, so a burst of host stalls in one second moves it little.
/// Windows with fewer than ten samples beyond their p99 are skipped.
fn put_latencies(r: &mut Report, lat: &Latencies) {
    for (kind, p50, p99) in [
        (OpKind::Query, "query_p50_us", "query_p99_us"),
        (OpKind::Add, "add_p50_us", "add_p99_us"),
        (OpKind::Remove, "remove_p50_us", "remove_p99_us"),
    ] {
        let all: Vec<f32> = lat
            .windows
            .iter()
            .flat_map(|w| w.of(kind).iter().copied())
            .collect();
        r.put(p50, Sorted::from_f32(&all).median() / 1e3, "us", all.len());
        let per_window: Vec<f64> = lat
            .windows
            .iter()
            .map(|w| Sorted::from_f32(w.of(kind)).p99())
            .filter(|&p| p > 0.0)
            .collect();
        r.put(p99, median(&per_window) / 1e3, "us", all.len());
    }
}

/// The per-layer metrics every traced run reports, from the counter deltas
/// of the single-client phase, its spans and the quiescent structure.
fn put_layers<D: Door>(
    r: &mut Report,
    door: &D,
    before: &StatsSnapshot,
    trace: &Trace,
    live_edges: usize,
) {
    let hdt = door.hdt();
    let after = hdt.stats();
    let d = |f: fn(&StatsSnapshot) -> u64| f(&after) - f(before);
    let hits = d(|s| s.read_hint_hits);
    let misses = d(|s| s.read_hint_misses);
    let adds = d(|s| s.additions);
    let removes = d(|s| s.removals);
    let spanning_removes = removes - d(|s| s.non_spanning_removals);
    r.put("dc_ett.hint_hit_share", share(hits, hits + misses), "1", 1);
    let hit = trace.micros(crate::client::Class::QueryHit);
    let miss = trace.micros(crate::client::Class::QueryMiss);
    r.put("dc_ett.query_hit_p50_us", hit.median(), "us", hit.len());
    r.put("dc_ett.query_miss_p50_us", miss.median(), "us", miss.len());
    r.put("dc_ett.query_miss_p99_us", miss.p99(), "us", miss.len());
    let n = hdt.num_vertices();
    r.put(
        "dc_ett.tree_nodes_per_vertex",
        hdt.forest(0).live_node_count() as f64 / n as f64,
        "1",
        1,
    );
    r.put(
        "dynconn.spanning_add_share",
        share(adds - d(|s| s.non_spanning_additions), adds),
        "1",
        1,
    );
    r.put(
        "dynconn.spanning_remove_share",
        share(spanning_removes, removes),
        "1",
        1,
    );
    r.put(
        "dynconn.replacement_found_share",
        share(d(|s| s.replacements_found), spanning_removes),
        "1",
        1,
    );
    use crate::client::Class::*;
    for (class, p50, p99) in [
        (AddNonSpanning, "dynconn.add_nonspanning_p50_us", None),
        (AddSpanning, "dynconn.add_spanning_p50_us", None),
        (RemoveNonSpanning, "dynconn.remove_nonspanning_p50_us", None),
        (
            RemoveReplaced,
            "dynconn.remove_replaced_p50_us",
            Some("dynconn.remove_replaced_p99_us"),
        ),
        (RemoveSplit, "dynconn.remove_split_p50_us", None),
    ] {
        let s = trace.micros(class);
        r.put(p50, s.median(), "us", s.len());
        if let Some(p99) = p99 {
            r.put(p99, s.p99(), "us", s.len());
        }
    }
    r.put(
        "dynconn.levels",
        hdt.materialized_forest_levels() as f64,
        "count",
        1,
    );
    let (nontree, tree) = (hdt.nontree_store(), hdt.tree_store());
    let slots = (nontree.materialized_slots() + tree.materialized_slots()) as u64;
    let spilled = (nontree.spilled_slots() + tree.spilled_slots()) as u64;
    r.put(
        "dc_sync.adjacency_slots_per_edge",
        share(slots, live_edges as u64),
        "1",
        1,
    );
    r.put("dc_sync.spilled_slot_share", share(spilled, slots), "1", 1);
}

/// The traced run's warm-up: client 0 alone, so it stays deterministic.
fn warm_up<D: Door>(door: &D, client: &mut Client, w: &Workload) -> Tally {
    client.drive(
        door,
        Stop::Steps(w.warmup_steps),
        &mut Latencies::default(),
        None,
    )
}

/// Alternates untraced and traced chunks of client 0's stream. Returns the
/// merged counts and the traced ÷ untraced throughput − 1.
fn traced_phase<D: Door>(
    door: &D,
    client: &mut Client,
    steps: usize,
    trace: &mut Trace,
    mut checkpoints: Option<&mut Checkpoints>,
) -> (Tally, f64) {
    let mut tally = Tally::default();
    let epoch = Instant::now();
    let (mut plain, mut traced) = ((0u64, 0.0f64), (0u64, 0.0f64));
    for chunk in 0..TRACE_CHUNKS {
        let is_traced = matches!(chunk % 4, 1 | 2);
        let t0 = Instant::now();
        let t = if !is_traced {
            let mut lat = Latencies::default();
            client.drive(
                door,
                Stop::Steps(steps),
                &mut lat,
                checkpoints.as_deref_mut(),
            )
        } else {
            client.drive_traced(
                door,
                steps,
                epoch,
                &mut trace.spans,
                checkpoints.as_deref_mut(),
            )
        };
        let wall = t0.elapsed().as_secs_f64();
        let side = if is_traced { &mut traced } else { &mut plain };
        side.0 += t.ops;
        side.1 += wall;
        tally.merge(t);
    }
    let overhead = (traced.0 as f64 / traced.1) / (plain.0 as f64 / plain.1) - 1.0;
    (tally, overhead)
}

// ----- social-read and road-churn: NonBlockingVariant<FineLocking> ----------

fn load_in_memory<'a>(n: usize, edges: impl Iterator<Item = &'a Edge>) -> PaperAlgorithm {
    let dc = PaperAlgorithm::new(n, FineLocking::new());
    for e in edges {
        dc.add_edge(e.u(), e.v());
    }
    dc
}

fn run_in_memory(opts: &Options, inputs: &Inputs) -> Report {
    let w = opts.workload;
    let mut r = Report::new();
    let setups = if opts.traced { 1 } else { SETUPS };
    let rss0 = rss_bytes();
    let mut setup_s = Vec::new();
    let mut mem = 0.0;
    let mut dc = None;
    for i in 0..setups {
        drop(dc.take());
        let t0 = Instant::now();
        dc = Some(load_in_memory(inputs.n, inputs.preload.iter()));
        setup_s.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            mem = rss_bytes().saturating_sub(rss0) as f64 / inputs.preload.len() as f64;
        }
    }
    let dc = dc.expect("at least one setup");
    let mut clients = clients(w, inputs);
    phase("clients");

    if opts.traced {
        r.count(warm_up(&dc, &mut clients[0], w));
        let before = dc.hdt().stats();
        let mut trace = Trace::default();
        let (tally, overhead) = traced_phase(&dc, &mut clients[0], w.trace_steps, &mut trace, None);
        r.count(tally);
        let live = final_edges(&clients).count();
        put_layers(&mut r, &dc, &before, &trace, live);
        put_absent_layers(&mut r);
        r.put("trace.overhead_share", overhead, "1", 1);
        write_trace(&trace, &opts.span_file, &mut r);
    } else {
        let (tally, _, _) = concurrent(&dc, &mut clients, Until::Steps(w.warmup_steps));
        r.count(tally);
        phase("measure");
        let (tally, lat, wall) = concurrent(
            &dc,
            &mut clients,
            Until::Elapsed(Duration::from_secs_f64(opts.seconds)),
        );
        r.count(tally);
        r.put("throughput_ops_s", tally.ops as f64 / wall, "1/s", 1);
        put_latencies(&mut r, &lat);
        r.put("setup_s", median(&setup_s), "s", setup_s.len());
    }

    phase("check");
    let mut uf = oracle(inputs.n, &clients);
    let pools: Vec<&Pool> = clients.iter().map(|c| &c.pool).collect();
    let (a, f) = check(&dc, &pools, &mut uf, &inputs.check_pairs, false);
    r.checked(a, f);
    phase("recover");

    if !opts.traced {
        // No durable state: recovery is a reload of the final edge set,
        // sorted like the preload, through the same single-op door as setup.
        // The live structure is dropped only afterwards: reloading into the
        // memory it freed made the reload time swing between two levels
        // from run to run.
        let mut edges: Vec<Edge> = final_edges(&clients).copied().collect();
        edges.sort_unstable();
        let mut recover_s = Vec::new();
        for _ in 0..RECOVERIES {
            let t0 = Instant::now();
            let rebuilt = load_in_memory(inputs.n, edges.iter());
            recover_s.push(t0.elapsed().as_secs_f64());
            let (a, f) = check(&rebuilt, &pools, &mut uf, &inputs.check_pairs, false);
            r.checked(a, f);
        }
        r.put("recover_s", median(&recover_s), "s", recover_s.len());
        r.put("mem_bytes_per_edge", mem, "B/edge", 1);
    }
    drop(dc);
    phase("validation twin");
    if let Err(e) = validate_twin(opts, &mut r) {
        eprintln!("{}: validation twin: {e}", w.name);
        r.checked(1, 1);
    }
    r
}

/// Layers an in-memory workload never reaches report 0.
fn put_absent_layers(r: &mut Report) {
    for (name, unit) in [
        ("dc_batch.ops_per_batch", "1"),
        ("dc_batch.compaction_ratio", "1"),
        ("dc_durable.commits_per_op", "1"),
        ("dc_durable.wal_bytes_per_update", "B"),
        ("dc_durable.checkpoint_p50_ms", "ms"),
        ("dc_durable.checkpoint_share", "1"),
        ("dc_durable.checkpoint_bytes", "B"),
        ("dc_durable.recover_replayed_batches", "count"),
        ("dc_durable.load_apply_s", "s"),
        ("dc_durable.load_checkpoint_s", "s"),
    ] {
        r.put(name, 0.0, unit, 0);
    }
}

fn write_trace(trace: &Trace, path: &Path, r: &mut Report) {
    r.attempted += 1;
    if let Err(e) = trace.write(path) {
        eprintln!("writing spans to {}: {e}", path.display());
        r.failed += 1;
    }
}

// ----- durable-service: DurableConnectivity ---------------------------------

fn durable_options(auto_checkpoints: bool) -> DurableOptions {
    DurableOptions {
        // The shared disk's fsync latency measures the host, not the store.
        fsync: FsyncPolicy::Off,
        checkpoint_interval: if auto_checkpoints {
            CHECKPOINT_EVERY
        } else {
            0
        },
        intake_capacity: 64,
        // Answer bulk queries inline: no thread beyond the two clients.
        query_threads: 1,
        ..DurableOptions::default()
    }
}

/// Creates a store in `dir`, bulk-loads `edges` through `apply_batch` and
/// takes the first checkpoint. Returns the store and the two times.
fn load_durable(
    dir: &Path,
    n: usize,
    edges: &[Edge],
    opts: DurableOptions,
) -> Result<(DurableConnectivity, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let ops: Vec<BatchOp> = edges.iter().map(|e| BatchOp::Add(e.u(), e.v())).collect();
    let t0 = Instant::now();
    let store = DurableConnectivity::create(dir, n, opts).map_err(|e| e.to_string())?;
    store
        .engine()
        .try_apply_batch(&ops)
        .map_err(|e| e.to_string())?;
    let apply = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    store.checkpoint().map_err(|e| e.to_string())?;
    Ok((store, apply, t1.elapsed().as_secs_f64()))
}

/// Sizes of the files in `dir` with extension `ext`, by file name.
fn sizes_with_ext(dir: &Path, ext: &str) -> Vec<(PathBuf, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(PathBuf, u64)> = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == ext))
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.len())))
        .collect();
    files.sort();
    files
}

fn bytes_with_ext(dir: &Path, ext: &str) -> u64 {
    sizes_with_ext(dir, ext).iter().map(|f| f.1).sum()
}

/// WAL segments and checkpoints, by the store's on-disk file names.
const WAL_EXT: &str = "dcw";
const CHECKPOINT_EXT: &str = "dcc";

fn run_durable(opts: &Options, inputs: &Inputs) -> Report {
    let mut r = Report::new();
    match durable_phases(opts, inputs, &mut r) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("durable-service: {e}");
            r.attempted += 1;
            r.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    r
}

fn durable_phases(opts: &Options, inputs: &Inputs, r: &mut Report) -> Result<(), String> {
    let w = opts.workload;
    let store_opts = durable_options(!opts.traced);
    let dir = opts.data_dir.join("store");
    let rss0 = rss_bytes();
    let (mut apply_s, mut checkpoint_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut mem = 0.0;
    let mut store = None;
    for i in 0..SETUPS {
        drop(store.take());
        let (s, apply, ck) = load_durable(&dir, inputs.n, &inputs.preload, store_opts)?;
        apply_s.push(apply);
        checkpoint_s.push(ck);
        setup_s.push(apply + ck);
        if i == 0 {
            mem = rss_bytes().saturating_sub(rss0) as f64 / inputs.preload.len() as f64;
        }
        store = Some(s);
    }
    let store = store.expect("at least one setup");
    let mut clients = clients(w, inputs);
    phase("clients");
    let mut trace = Trace::default();

    if opts.traced {
        r.count(warm_up(&store, &mut clients[0], w));
        let wall_start = Instant::now();
        let before = store.hdt().stats();
        let seq0 = store.last_seq();
        let mut checkpoints = Checkpoints::new(CHECKPOINT_EVERY);
        let (tally, overhead) = traced_phase(
            &store,
            &mut clients[0],
            w.trace_steps,
            &mut trace,
            Some(&mut checkpoints),
        );
        let phase_wall = wall_start.elapsed().as_secs_f64();
        r.count(tally);
        let live = final_edges(&clients).count();
        put_layers(r, &store, &before, &trace, live);
        r.put("trace.overhead_share", overhead, "1", 1);
        r.put(
            "dc_durable.commits_per_op",
            share(store.last_seq() - seq0, tally.ops),
            "1",
            1,
        );
        let ck_ms = Sorted::new(checkpoints.ms.clone());
        r.put(
            "dc_durable.checkpoint_p50_ms",
            ck_ms.median(),
            "ms",
            ck_ms.len(),
        );
        r.put(
            "dc_durable.checkpoint_share",
            checkpoints.ms.iter().sum::<f64>() / 1e3 / phase_wall,
            "1",
            1,
        );
        // Batching needs the workload's real client count.
        let stats0 = store.engine().stats();
        let (tally, _, _) = concurrent(&store, &mut clients, Until::Steps(w.trace_steps));
        r.count(tally);
        let stats1 = store.engine().stats();
        let submitted = (stats1.submitted_updates - stats0.submitted_updates)
            + (stats1.submitted_queries - stats0.submitted_queries);
        r.put(
            "dc_batch.ops_per_batch",
            share(submitted, stats1.batches - stats0.batches),
            "1",
            1,
        );
        r.put(
            "dc_batch.compaction_ratio",
            share(
                stats1.applied_updates - stats0.applied_updates,
                stats1.submitted_updates - stats0.submitted_updates,
            ),
            "1",
            1,
        );
    } else {
        let (tally, _, _) = concurrent(&store, &mut clients, Until::Steps(w.warmup_steps));
        r.count(tally);
        phase("measure");
        let (tally, lat, wall) = concurrent(
            &store,
            &mut clients,
            Until::Elapsed(Duration::from_secs_f64(opts.seconds)),
        );
        r.count(tally);
        r.put("throughput_ops_s", tally.ops as f64 / wall, "1/s", 1);
        put_latencies(r, &lat);
        r.put("setup_s", median(&setup_s), "s", setup_s.len());
    }

    phase("tail");
    // Capacity rejections were never applied: they are failures, and the
    // shadow gives the edge back.
    for e in store.engine().drain_rejected() {
        r.checked(1, 1);
        for c in clients.iter_mut() {
            c.pool.undo(Update::Add(e));
        }
    }
    if store.is_poisoned() {
        r.checked(1, 1);
        return Err("the store is poisoned".into());
    }

    // A fixed WAL tail after one explicit checkpoint, so every recovery
    // replays the same number of batches.
    store.checkpoint().map_err(|e| e.to_string())?;
    let wal0 = bytes_with_ext(&dir, WAL_EXT);
    let tally = clients[0].updates_only(&store, TAIL_UPDATES);
    r.count(tally);
    store.sync().map_err(|e| e.to_string())?;
    let wal_bytes = bytes_with_ext(&dir, WAL_EXT) - wal0;
    let last_seq = store.last_seq();

    phase("check");
    let mut uf = oracle(inputs.n, &clients);
    let pools: Vec<&Pool> = clients.iter().map(|c| &c.pool).collect();
    let (a, f) = check(&store, &pools, &mut uf, &inputs.check_pairs, false);
    r.checked(a, f);
    drop(store);
    phase("recover");

    let recoveries = if opts.traced { 1 } else { RECOVERIES };
    let mut recover_s = Vec::new();
    let mut replayed = 0;
    for _ in 0..recoveries {
        let t0 = Instant::now();
        let (recovered, report) =
            DurableConnectivity::recover(&dir, store_opts).map_err(|e| e.to_string())?;
        recover_s.push(t0.elapsed().as_secs_f64());
        replayed = report.batches_replayed;
        r.checked(1, u64::from(report.last_seq != last_seq));
        let (a, f) = check(&recovered, &pools, &mut uf, &inputs.check_pairs, false);
        r.checked(a, f);
    }

    if opts.traced {
        r.put(
            "dc_durable.wal_bytes_per_update",
            share(wal_bytes, tally.updates),
            "B",
            1,
        );
        r.put(
            "dc_durable.checkpoint_bytes",
            // Names carry the covered sequence number: the last is newest.
            sizes_with_ext(&dir, CHECKPOINT_EXT)
                .last()
                .map_or(0, |f| f.1) as f64,
            "B",
            1,
        );
        r.put(
            "dc_durable.recover_replayed_batches",
            replayed as f64,
            "count",
            1,
        );
        r.put(
            "dc_durable.load_apply_s",
            median(&apply_s),
            "s",
            apply_s.len(),
        );
        r.put(
            "dc_durable.load_checkpoint_s",
            median(&checkpoint_s),
            "s",
            checkpoint_s.len(),
        );
        write_trace(&trace, &opts.span_file, r);
    } else {
        r.put("recover_s", median(&recover_s), "s", recover_s.len());
        r.put("mem_bytes_per_edge", mem, "B/edge", 1);
    }
    phase("validation twin");
    validate_twin(opts, r)
}

/// `Hdt::validate` checks every Euler tour in time quadratic in its tree's
/// size, far beyond a run's budget at full scale, so full-scale structures
/// get the linear checks above. The twin replays the same door, client
/// count, op mix and seed on a shrunk graph and gets `validate` as well,
/// after its clients stop and, for the durable store, after recovery.
fn validate_twin(opts: &Options, r: &mut Report) -> Result<(), String> {
    let w = opts.workload.twin();
    let inputs = Inputs::generate(&w, opts.seed);
    let mut clients = clients(&w, &inputs);
    let until = || Until::Steps(TWIN_STEPS);
    match w.door {
        DoorKind::InMemory => {
            let dc = load_in_memory(inputs.n, inputs.preload.iter());
            let (tally, _, _) = concurrent(&dc, &mut clients, until());
            r.count(tally);
            let mut uf = oracle(inputs.n, &clients);
            let pools: Vec<&Pool> = clients.iter().map(|c| &c.pool).collect();
            let (a, f) = check(&dc, &pools, &mut uf, &inputs.check_pairs, true);
            r.checked(a, f);
        }
        DoorKind::Durable => {
            let dir = opts.data_dir.join("twin");
            let store_opts = durable_options(true);
            let (store, _, _) = load_durable(&dir, inputs.n, &inputs.preload, store_opts)?;
            let (tally, _, _) = concurrent(&store, &mut clients, until());
            r.count(tally);
            let last_seq = store.last_seq();
            let mut uf = oracle(inputs.n, &clients);
            let pools: Vec<&Pool> = clients.iter().map(|c| &c.pool).collect();
            let (a, f) = check(&store, &pools, &mut uf, &inputs.check_pairs, true);
            r.checked(a, f);
            drop(store);
            let (recovered, report) =
                DurableConnectivity::recover(&dir, store_opts).map_err(|e| e.to_string())?;
            r.checked(1, u64::from(report.last_seq != last_seq));
            let (a, f) = check(&recovered, &pools, &mut uf, &inputs.check_pairs, true);
            r.checked(a, f);
        }
    }
    Ok(())
}

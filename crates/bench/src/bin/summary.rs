//! Reproduces the paper's headline claim (Section 1 / abstract): the most
//! efficient variant improves on coarse-grained locking by up to ~6x on
//! realistic scenarios and up to ~30x when connectivity queries dominate.
//!
//! This binary measures the speedup of the full algorithm (variants 9 and
//! 10) over the coarse-grained baseline (variant 1) across the small graphs
//! at the highest measured thread count, for the 80%- and 99%-read random
//! scenarios, and prints the per-graph factors plus the average and maximum.

use dc_batch::Variant;
use dc_bench::runner::run_adjacency_baseline;
use dc_bench::{
    run_batch_bench, run_durability_bench, run_ett_bench, run_faults_bench, run_latency_bench,
    run_obs_bench, run_read_bench, run_throughput, run_workload_bench, BatchBenchConfig,
    BenchConfig, DurabilityBenchConfig, EttBenchConfig, FaultsBenchConfig, LatencyBenchConfig,
    ObsBenchConfig, ReadBenchConfig, Scenario, Workload, WorkloadBenchConfig,
};
use dc_graph::GraphSpec;

fn main() {
    let config = BenchConfig::from_env();
    if std::env::var("DC_BENCH_ETT_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_ett_baseline();
        return;
    }
    if std::env::var("DC_BENCH_ADJACENCY_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_adjacency_baseline(&config);
        return;
    }
    if std::env::var("DC_BENCH_BATCH_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_batch_baseline();
        return;
    }
    if std::env::var("DC_BENCH_WORKLOADS_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_workload_baseline();
        return;
    }
    if std::env::var("DC_BENCH_READS_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_read_baseline();
        return;
    }
    if std::env::var("DC_BENCH_DURABILITY_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_durability_baseline();
        return;
    }
    if std::env::var("DC_BENCH_LATENCY_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_latency_baseline();
        return;
    }
    if std::env::var("DC_BENCH_OBS_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_obs_baseline();
        return;
    }
    if std::env::var("DC_BENCH_FAULTS_ONLY")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        emit_faults_baseline();
        return;
    }
    let threads = *config.thread_counts.last().unwrap_or(&1);
    let catalog = config.catalog();
    for read_percent in [80u32, 99u32] {
        println!("== Speedup over (1) coarse-grained, random scenario, {read_percent}% reads, {threads} threads ==");
        println!(
            "{:<28}{:>16}{:>16}{:>18}",
            "graph", "(9) vs (1)", "(10) vs (1)", "best variant"
        );
        let mut best_factors = Vec::new();
        for &spec in GraphSpec::table1() {
            let graph = catalog.build(spec);
            let workload = Workload::generate(
                &graph,
                Scenario::RandomSubset { read_percent },
                threads,
                config.ops_per_thread,
                config.seed,
            );
            let measure = |variant: Variant| {
                let structure = variant.build(graph.num_vertices());
                run_throughput(structure.as_ref(), &workload).ops_per_ms
            };
            let base = measure(Variant::CoarseGrained).max(1e-9);
            let ours_fine = measure(Variant::OurAlgorithm);
            let ours_coarse = measure(Variant::OurAlgorithmCoarse);
            let best = ours_fine.max(ours_coarse);
            best_factors.push(best / base);
            println!(
                "{:<28}{:>15.2}x{:>15.2}x{:>17.2}x",
                spec.name(),
                ours_fine / base,
                ours_coarse / base,
                best / base
            );
        }
        let avg: f64 = best_factors.iter().sum::<f64>() / best_factors.len() as f64;
        let max = best_factors.iter().cloned().fold(0.0, f64::max);
        println!("average speedup: {avg:.2}x   maximum speedup: {max:.2}x\n");
    }
    emit_adjacency_baseline(&config);
    emit_ett_baseline();
    emit_batch_baseline();
    emit_workload_baseline();
    emit_read_baseline();
    emit_durability_baseline();
    emit_latency_baseline();
    emit_obs_baseline();
    emit_faults_baseline();
}

/// Measures the fault-harness tier (the batch-engine adapter workload with
/// chaos injection uninstalled, armed and disabled again, plus the
/// recovery-from-poison latency of `DurableConnectivity::rebuild`), writes
/// `BENCH_faults.json` and gates on the harness's core promise: disabled
/// injection checks cost at most 3% of adapter throughput.
fn emit_faults_baseline() {
    let config = FaultsBenchConfig::from_env();
    let baseline = run_faults_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_faults.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("faults baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    if baseline.gate_passes() {
        println!(
            "gate: disabled injection checks cost {:.2}% of adapter throughput (ceiling {:.1}%)",
            baseline.disabled_overhead_percent,
            dc_bench::faultsbench::GATE_MAX_DISABLED_OVERHEAD_PERCENT
        );
    } else {
        eprintln!(
            "gate FAILED: disabled injection checks cost {:.2}% of adapter throughput, \
             ceiling is {:.1}%",
            baseline.disabled_overhead_percent,
            dc_bench::faultsbench::GATE_MAX_DISABLED_OVERHEAD_PERCENT
        );
        std::process::exit(1);
    }
}

/// Measures the observability tier (the read-storm workload with `dc_obs`
/// disabled, metrics-only and metrics+tracing against an untouched
/// baseline), writes `BENCH_obs.json` and gates on the crate's core
/// promise: switched off, the compiled-in instrumentation costs at most
/// 3% of read-storm throughput.
fn emit_obs_baseline() {
    let config = ObsBenchConfig::from_env();
    let baseline = run_obs_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_obs.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("obs baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    if baseline.gate_passes() {
        println!(
            "gate: disabled observability costs {:.2}% of read-storm throughput (ceiling {:.1}%)",
            baseline.disabled_overhead_percent,
            dc_bench::obsbench::GATE_MAX_DISABLED_OVERHEAD_PERCENT
        );
    } else {
        eprintln!(
            "gate FAILED: disabled observability costs {:.2}% of read-storm throughput, \
             ceiling is {:.1}%",
            baseline.disabled_overhead_percent,
            dc_bench::obsbench::GATE_MAX_DISABLED_OVERHEAD_PERCENT
        );
        std::process::exit(1);
    }
}

/// Measures the huge-graph latency tier (interleaved bulk reads across walk
/// widths, hints on/off, read-storm and zipf-read mixes), writes
/// `BENCH_latency.json` and gates on the point of the interleaved engine:
/// at full scale (n >= 10M) the best wider cold-read cell must beat width 1
/// by at least the 1.3x speedup floor; at smaller scales (quick/CI runs)
/// the differential agreement pass inside the run and the presence of both
/// sides of the comparison are what is checked.
fn emit_latency_baseline() {
    let config = LatencyBenchConfig::from_env();
    let baseline = run_latency_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_latency.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("latency baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    let speedup = baseline.read_storm_cold_speedup();
    if baseline.gate_passes() {
        println!(
            "gate: cold-read speedup {:.2}x (floor {:.1}x, {})",
            speedup.unwrap_or(0.0),
            dc_bench::latencybench::GATE_SPEEDUP_FLOOR,
            if baseline.gate_applies() {
                "binding at full scale"
            } else {
                "not binding below 10M vertices"
            }
        );
    } else {
        eprintln!(
            "gate FAILED: cold-read speedup {:.2}x below the {:.1}x floor at n={}",
            speedup.unwrap_or(0.0),
            dc_bench::latencybench::GATE_SPEEDUP_FLOOR,
            baseline.vertices
        );
        std::process::exit(1);
    }
}

/// Measures the durability tier (WAL overhead per fsync policy, recovery
/// time across a checkpoint-interval sweep), writes `BENCH_durability.json`
/// and gates on the point of checkpoints: at the default interval,
/// checkpoint-load + tail-replay must recover at least 5x faster than
/// replaying the whole log from scratch.
fn emit_durability_baseline() {
    let config = DurabilityBenchConfig::from_env();
    let baseline = run_durability_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_durability.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("durability baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    let Some(cell) = baseline.default_interval_cell() else {
        eprintln!(
            "gate FAILED: default checkpoint interval {} missing from the recovery sweep",
            config.default_checkpoint_interval
        );
        std::process::exit(1);
    };
    if cell.speedup_vs_full_replay >= 5.0 {
        println!(
            "gate: checkpoint + tail replay at interval {} is {:.1}x faster than full replay \
             ({:.2} ms vs {:.2} ms)",
            cell.checkpoint_interval,
            cell.speedup_vs_full_replay,
            cell.recover_ms,
            baseline.full_replay_ms
        );
    } else {
        eprintln!(
            "gate FAILED: checkpoint + tail replay at interval {} is only {:.1}x faster than \
             full replay ({:.2} ms vs {:.2} ms), need >= 5x",
            cell.checkpoint_interval,
            cell.speedup_vs_full_replay,
            cell.recover_ms,
            baseline.full_replay_ms
        );
        std::process::exit(1);
    }
}

/// Measures the read-path tier (read-storm, zipf-read, mixed-churn — all
/// fourteen variants with the root-hint cache on and off), writes
/// `BENCH_reads.json`, and gates on the hint cache actually working: the
/// read-storm scenario must show a non-zero hit rate on the lock-free-read
/// variants, in particular fine-grained + non-blocking reads (8) and the
/// paper's full algorithm (9).
fn emit_read_baseline() {
    let config = ReadBenchConfig::from_env();
    let baseline = run_read_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_reads.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("read baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    let storm = baseline
        .scenario("read-storm")
        .expect("read-storm scenario must be measured");
    let mut failed = false;
    for number in [8u8, 9u8] {
        match storm.run(number) {
            Some(run) if run.hints_on.hint_hits > 0 => {
                println!(
                    "gate: variant {number} read-storm hint hit rate {:.1}% ({} hits)",
                    run.hints_on.hit_rate_percent(),
                    run.hints_on.hint_hits
                );
            }
            Some(run) => {
                eprintln!(
                    "gate FAILED: variant {number} saw no hint hits on the read storm \
                     ({} misses)",
                    run.hints_on.hint_misses
                );
                failed = true;
            }
            None => {
                eprintln!("gate FAILED: variant {number} missing from the read-storm scenario");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Measures the workload-subsystem scenarios (power-law + Zipf, phased
/// lifecycle, sliding window, trace replay — all fourteen variants, with
/// per-phase waitstats) and writes `BENCH_workloads.json`.
fn emit_workload_baseline() {
    let config = WorkloadBenchConfig::from_env();
    let baseline = run_workload_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_workloads.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("workload baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

/// Measures the batch-engine scenarios (burst vs every single-op variant,
/// bulk load, batch-size/compaction sweep, adapter-on-existing-scenarios)
/// and writes `BENCH_batch.json`.
fn emit_batch_baseline() {
    let config = BatchBenchConfig::from_env();
    let baseline = run_batch_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_batch.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("batch baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

/// Measures the ETT node-layer scenarios (incremental, decremental, churn,
/// churn with readers) and writes `BENCH_ett.json` — current numbers plus
/// the frozen PR 1 baseline — so the node-layer perf trajectory is tracked
/// alongside the adjacency layer's.
fn emit_ett_baseline() {
    let config = EttBenchConfig::from_env();
    let baseline = run_ett_bench(&config);
    print!("{}", baseline.render_text());
    let path = "BENCH_ett.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("ETT baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

/// Measures the adjacency-layer perf baseline (random-subset 50% reads,
/// incremental, decremental — at 1 and 8 threads) and writes the
/// machine-readable `BENCH_adjacency.json` so future PRs can track the
/// trajectory of the hot adjacency paths.
fn emit_adjacency_baseline(config: &BenchConfig) {
    let catalog = config.catalog();
    let graph = catalog.build(GraphSpec::RandomDense);
    // The tracked baseline is 1 and 8 threads; an explicit DC_BENCH_THREADS
    // overrides it like everywhere else in the harness.
    let threads: Vec<usize> = if std::env::var("DC_BENCH_THREADS").is_ok() {
        config.thread_counts.clone()
    } else {
        vec![1, 8]
    };
    let baseline = run_adjacency_baseline(
        &graph,
        GraphSpec::RandomDense.name(),
        &threads,
        config.ops_per_thread,
        config.seed,
    );
    println!("== Adjacency-layer baseline ({}) ==", baseline.graph);
    println!(
        "{:<24}{:>9}{:>16}{:>16}",
        "scenario", "threads", "coarse ops/s", "ours ops/s"
    );
    let mut keys: Vec<(String, usize)> = baseline
        .cells
        .iter()
        .map(|c| (c.scenario.clone(), c.threads))
        .collect();
    keys.dedup();
    for (scenario, threads) in keys {
        let get = |variant: &str| {
            baseline
                .cells
                .iter()
                .find(|c| c.scenario == scenario && c.threads == threads && c.variant == variant)
                .map(|c| c.ops_per_sec)
                .unwrap_or(0.0)
        };
        println!(
            "{:<24}{:>9}{:>16.0}{:>16.0}",
            scenario,
            threads,
            get("coarse"),
            get("ours")
        );
    }
    let path = "BENCH_adjacency.json";
    match std::fs::write(path, baseline.to_json()) {
        Ok(()) => println!("baseline written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

//! Reproduces the paper's headline claim (Section 1 / abstract): the most
//! efficient variant improves on coarse-grained locking by up to ~6x on
//! realistic scenarios and up to ~30x when connectivity queries dominate.
//!
//! Without `DC_BENCH`, this binary measures the speedup of the full
//! algorithm (variants 9 and 10) over the coarse-grained baseline
//! (variant 1) across the small graphs at the highest measured thread
//! count, for the 80%- and 99%-read random scenarios, prints the per-graph
//! factors plus the average and maximum, and then runs every tier of
//! [`TIERS`]. `DC_BENCH=batch,obs,...` runs only the named tiers. Each tier
//! prints its table and writes its `BENCH_<name>.json` artifact to the
//! working directory; the binary exits non-zero if an artifact cannot be
//! written or a tier's gate fails.

use dc_batch::Variant;
use dc_bench::{
    run_batch_bench, run_ett_bench, run_latency_bench, run_obs_bench, run_throughput,
    BatchBenchConfig, BenchConfig, EttBenchConfig, LatencyBenchConfig, ObsBenchConfig, Scenario,
    Workload,
};
use dc_graph::GraphSpec;

/// What one tier run produced.
struct Outcome {
    /// The human-readable table.
    text: String,
    /// The artifact's contents.
    json: String,
    /// Why the tier's gate failed, for the one tier that has a gate.
    failure: Option<String>,
}

impl Outcome {
    fn report(text: String, json: String) -> Self {
        Outcome {
            text,
            json,
            failure: None,
        }
    }
}

/// One benchmark tier of this binary.
struct Tier {
    /// The name `DC_BENCH` selects it by.
    name: &'static str,
    /// The artifact it writes.
    artifact: &'static str,
    /// Measures the tier at its `from_env` configuration.
    run: fn() -> Outcome,
}

const TIERS: &[Tier] = &[
    Tier {
        name: "batch",
        artifact: "BENCH_batch.json",
        run: || {
            let b = run_batch_bench(&BatchBenchConfig::from_env());
            Outcome::report(b.render_text(), b.to_json())
        },
    },
    Tier {
        name: "ett",
        artifact: "BENCH_ett.json",
        run: || {
            let b = run_ett_bench(&EttBenchConfig::from_env());
            Outcome::report(b.render_text(), b.to_json())
        },
    },
    Tier {
        name: "latency",
        artifact: "BENCH_latency.json",
        run: latency_tier,
    },
    Tier {
        name: "obs",
        artifact: "BENCH_obs.json",
        run: || {
            let b = run_obs_bench(&ObsBenchConfig::from_env());
            Outcome::report(b.render_text(), b.to_json())
        },
    },
];

/// The latency tier and its gate: at full scale (n >= 10M) the best wider
/// cold-read cell must beat width 1 by the 1.3x speedup floor; below full
/// scale (quick/CI runs) the run must have produced both sides of the
/// comparison (the differential agreement pass inside the run panics on
/// any disagreement).
fn latency_tier() -> Outcome {
    use dc_bench::latencybench::GATE_SPEEDUP_FLOOR;
    let b = run_latency_bench(&LatencyBenchConfig::from_env());
    let speedup = b.read_storm_cold_speedup().unwrap_or(0.0);
    let mut outcome = Outcome::report(b.render_text(), b.to_json());
    if b.gate_passes() {
        let binding = if b.gate_applies() {
            "binding at full scale"
        } else {
            "not binding below 10M vertices"
        };
        outcome.text.push_str(&format!(
            "gate: cold-read speedup {speedup:.2}x (floor {GATE_SPEEDUP_FLOOR:.1}x, {binding})\n"
        ));
    } else {
        outcome.failure = Some(format!(
            "cold-read speedup {speedup:.2}x below the {GATE_SPEEDUP_FLOOR:.1}x floor at n={}",
            b.vertices
        ));
    }
    outcome
}

fn main() {
    let tiers: Vec<&Tier> = match std::env::var("DC_BENCH") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|name| {
                let name = name.trim();
                TIERS.iter().find(|t| t.name == name).unwrap_or_else(|| {
                    let known: Vec<&str> = TIERS.iter().map(|t| t.name).collect();
                    eprintln!("unknown DC_BENCH tier {name:?}; known: {}", known.join(","));
                    std::process::exit(2);
                })
            })
            .collect(),
        _ => {
            print_headline_speedups(&BenchConfig::from_env());
            TIERS.iter().collect()
        }
    };
    let mut failed = false;
    for tier in tiers {
        let outcome = (tier.run)();
        print!("{}", outcome.text);
        match std::fs::write(tier.artifact, &outcome.json) {
            Ok(()) => println!("{} written to {}\n", tier.name, tier.artifact),
            Err(err) => {
                eprintln!("could not write {}: {err}", tier.artifact);
                failed = true;
            }
        }
        if let Some(failure) = outcome.failure {
            eprintln!("gate FAILED ({}): {failure}", tier.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The headline table: variants 9 and 10 over variant 1 on every small
/// graph, for the 80%- and 99%-read random scenarios.
fn print_headline_speedups(config: &BenchConfig) {
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
}

//! Probe — graph-level scheduling: tune a whole network under one
//! global trial budget.
//!
//! Four phases, each over its own temporary [`TuneDb`] unless noted:
//!
//! 1. **Greedy** — [`tune_graph`] on the chosen network with the
//!    marginal-utility planner.
//! 2. **Uniform** — the same network, budget, and seed with the
//!    uniform-split ablation baseline. Under `--strict 1` (the
//!    default, used by CI for the committed configuration) the probe
//!    asserts the greedy network latency is no worse; at smoke-sized
//!    budgets the gap between policies is seed-dependent, so pass
//!    `--strict 0` when exploring other configurations.
//! 3. **Determinism** — the greedy run repeated with a different
//!    worker count; every modeled field must agree bit-for-bit.
//! 4. **Reuse** — the greedy run repeated over phase 1's database;
//!    every task must answer as a hit and spend zero trials.
//!
//! Everything written to the CSV is deterministic (modeled seconds,
//! integer allocations, classification counts), so CI diffs the output
//! against the committed `results/probe_graph.csv`.
//!
//! Flags: `--network shuffle|yolo` (default `shuffle`), `--batch N`
//! (default 1), `--budget N` (default 48), `--rounds N` (default 2),
//! `--pilot N` (default 2), `--chunk N` (default 2), `--workers N`
//! (default 4), `--seed N` (default 2024), `--strict 0|1` (default 1),
//! `--out PATH` (default `results/probe_graph.csv`), `--fixture PATH`
//! (also write a replay fixture: a recorded search trace carrying the
//! run's `graph_plan` / `graph_round` events).

use std::sync::Arc;

use flextensor::OptimizeOptions;
use flextensor_bench::harness::arg;
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_graph::plan::Allocation;
use flextensor_graph::tune::{tune_graph, GraphTuneOptions, GraphTuneReport};
use flextensor_ir::ops;
use flextensor_nn::network::{shufflenet_like, yolo_tiny, Network};
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use flextensor_telemetry::json::write_f64;
use flextensor_telemetry::{MemorySink, Telemetry, TraceEvent};
use flextensor_tunedb::{testutil, TuneDb};

fn open_db(tag: &str) -> (Arc<TuneDb>, std::path::PathBuf) {
    let dir = testutil::temp_dir(tag);
    let (db, _) = TuneDb::open(&dir).expect("open temp db");
    (Arc::new(db), dir)
}

fn base_opts(seed: u64) -> OptimizeOptions {
    let mut base = OptimizeOptions::quick();
    base.search.seed = seed;
    base.search.starts = 2;
    base.search.initial_samples = 6;
    base
}

fn secs(v: f64) -> String {
    let mut s = String::new();
    write_f64(&mut s, v);
    s
}

fn summary_row(csv: &mut String, phase: &str, r: &GraphTuneReport) {
    csv.push_str(&format!(
        "{phase},{},{},{},{},{},{},{},{}\n",
        r.network,
        r.occurrences,
        r.tasks.len(),
        r.hits,
        r.coalesced,
        r.budget,
        r.spent,
        secs(r.network_seconds)
    ));
}

fn main() {
    flextensor_bench::harness::declare_flags(&[
        "network", "batch", "budget", "rounds", "pilot", "chunk", "workers", "seed", "out",
        "fixture", "strict",
    ]);
    let network: String = arg("network", "shuffle".to_string());
    let batch: i64 = arg("batch", 1);
    let budget: usize = arg("budget", 48);
    let rounds: usize = arg("rounds", 2);
    let pilot: usize = arg("pilot", 2);
    let chunk: usize = arg("chunk", 2);
    let workers: usize = arg("workers", 4);
    let seed: u64 = arg("seed", 2024);
    let out: String = arg("out", "results/probe_graph.csv".to_string());
    let fixture: String = arg("fixture", String::new());
    let strict: usize = arg("strict", 1);

    let net: Network = match network.as_str() {
        "yolo" => yolo_tiny(batch),
        _ => shufflenet_like(batch),
    };
    let dev = Device::Gpu(v100());
    let opts = |allocation, workers, telemetry| GraphTuneOptions {
        base: base_opts(seed),
        workers,
        budget,
        rounds,
        pilot,
        chunk,
        allocation,
        commit: "probe-graph".to_string(),
        telemetry,
    };

    println!(
        "== Probe: graph tuning ({}, budget {budget}, rounds {rounds}, \
         pilot {pilot}, workers {workers}, seed {seed}) ==\n",
        net.name
    );

    // Phase 1: greedy, with graph telemetry captured for the fixture.
    let sink = Arc::new(MemorySink::new());
    let (db_g, dir_g) = open_db("probe-graph-greedy");
    let greedy = tune_graph(
        &db_g,
        &net,
        &dev,
        &opts(Allocation::Greedy, workers, Telemetry::new(sink.clone())),
    )
    .expect("greedy run");
    println!(
        "greedy : {} tasks from {} occurrences, spent {}/{} trials, \
         network {} s",
        greedy.tasks.len(),
        greedy.occurrences,
        greedy.spent,
        greedy.budget,
        secs(greedy.network_seconds)
    );

    // Phase 2: uniform ablation at the same budget on a fresh store.
    let (db_u, dir_u) = open_db("probe-graph-uniform");
    let uniform = tune_graph(
        &db_u,
        &net,
        &dev,
        &opts(Allocation::Uniform, workers, Telemetry::null()),
    )
    .expect("uniform run");
    let _ = std::fs::remove_dir_all(&dir_u);
    println!("uniform: network {} s", secs(uniform.network_seconds));
    if greedy.network_seconds <= uniform.network_seconds + 1e-15 {
        println!("ablation: greedy <= uniform at equal budget");
    } else if strict != 0 {
        panic!(
            "greedy must not lose to uniform at equal budget: {} > {}",
            greedy.network_seconds, uniform.network_seconds
        );
    } else {
        println!("ablation: greedy > uniform for this configuration (non-strict)");
    }

    // Phase 3: determinism across worker counts.
    let (db_d, dir_d) = open_db("probe-graph-det");
    let other_workers = if workers == 1 { 4 } else { 1 };
    let det = tune_graph(
        &db_d,
        &net,
        &dev,
        &opts(Allocation::Greedy, other_workers, Telemetry::null()),
    )
    .expect("determinism run");
    let _ = std::fs::remove_dir_all(&dir_d);
    assert_eq!(
        det.network_seconds.to_bits(),
        greedy.network_seconds.to_bits(),
        "worker count must not change the modeled outcome"
    );
    for (a, b) in greedy.rounds.iter().zip(&det.rounds) {
        assert_eq!(a.allocations, b.allocations, "allocation plans must agree");
        assert_eq!(
            a.network_seconds.to_bits(),
            b.network_seconds.to_bits(),
            "round trajectories must agree"
        );
    }
    println!("determinism: workers {other_workers} reproduces workers {workers} bit-for-bit");

    // Phase 4: a second pass over the same store answers entirely from it.
    let rerun = tune_graph(
        &db_g,
        &net,
        &dev,
        &opts(Allocation::Greedy, workers, Telemetry::null()),
    )
    .expect("rerun");
    let _ = std::fs::remove_dir_all(&dir_g);
    assert_eq!(rerun.spent, 0, "second pass must spend nothing");
    assert_eq!(
        rerun.hits, rerun.occurrences,
        "second pass must be all hits"
    );
    println!(
        "reuse  : second pass answered {} occurrences from the store\n",
        rerun.occurrences
    );

    // Deterministic CSV: run summaries, per-round trajectories for both
    // policies, then the greedy per-task breakdown.
    let mut csv = String::from(
        "phase,network,occurrences,tasks,hits,coalesced,budget,spent,network_seconds\n",
    );
    summary_row(&mut csv, "greedy", &greedy);
    summary_row(&mut csv, "uniform", &uniform);
    summary_row(&mut csv, "rerun", &rerun);
    csv.push_str("round,policy,allocated,network_seconds\n");
    for r in &greedy.rounds {
        csv.push_str(&format!(
            "{},greedy,{},{}\n",
            r.round,
            r.allocated,
            secs(r.network_seconds)
        ));
    }
    for r in &uniform.rounds {
        csv.push_str(&format!(
            "{},uniform,{},{}\n",
            r.round,
            r.allocated,
            secs(r.network_seconds)
        ));
    }
    csv.push_str("task,key,uses,trials,seconds\n");
    for t in &greedy.tasks {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            t.label,
            t.key.flat(),
            t.uses,
            t.trials,
            secs(t.seconds)
        ));
    }

    print!("{csv}");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("warning: cannot create {}: {e}", parent.display());
        }
    }
    match std::fs::write(&out, &csv) {
        Ok(()) => println!("\n(saved {out})"),
        Err(e) => eprintln!("warning: cannot write {out}: {e}"),
    }

    if !fixture.is_empty() {
        write_fixture(&fixture, seed, &sink.events());
    }
}

/// Writes a replayable trace fixture: a recorded single-search run with
/// this probe's `graph_plan` / `graph_round` events spliced in before
/// the `run_summary`, proving the replayer tolerates (and surfaces)
/// graph events inside an ordinary trace.
fn write_fixture(path: &str, seed: u64, graph_events: &[TraceEvent]) {
    let g = ops::gemm(64, 64, 64);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let sink = Arc::new(MemorySink::new());
    let sopts = SearchOptions {
        trials: 6,
        starts: 2,
        initial_samples: 6,
        seed,
        telemetry: Telemetry::new(sink.clone()),
        ..SearchOptions::default()
    };
    search(&g, &ev, Method::QMethod, &sopts).expect("fixture search");
    let mut events = sink.events();
    let summary = events.pop().expect("run_summary");
    events.extend(graph_events.iter().cloned());
    events.push(summary);
    let mut text = String::new();
    for e in &events {
        text.push_str(&e.to_jsonl());
        text.push('\n');
    }
    match std::fs::write(path, &text) {
        Ok(()) => println!("(saved fixture {path}: {} events)", events.len()),
        Err(e) => eprintln!("warning: cannot write fixture {path}: {e}"),
    }
}

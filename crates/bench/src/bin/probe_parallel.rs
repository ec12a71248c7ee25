//! Probe — parallel batched evaluation speedup and determinism.
//!
//! Runs the same GPU conv2d search twice, serial (`1` worker) and
//! parallel (`--workers`, default 8), and reports:
//!
//! * the real wall-clock each run spent inside batched evaluation and
//!   the resulting speedup (the paper's §5.2 parallel back-end argument);
//! * that both runs return the *identical* best cost and configuration
//!   (the pool reduces results in fixed candidate order, so the worker
//!   count can change wall-clock only);
//! * the memo-cache hit rate (repeat visits cost zero modeled time).
//!
//! Flags: `--trials N` (default 200), `--starts N` (default 32),
//! `--workers N` (parallel run's workers, default 8; 0 = all cores),
//! `--layer NAME` (YOLO conv2d layer, default C6), `--method M`
//! (`p`, `q`, or `walk`; default `p` — the P-method evaluates every
//! applicable direction, so its batches are the widest).
//!
//! The pool evaluates template-path batches of up to 1024 fresh
//! candidates on the coordinator, since fan-out costs more than it saves
//! below that. The defaults (32 starts, 64 initial samples, C6, P-method)
//! give batches of over a thousand fresh candidates, so the parallel run
//! really uses its workers.

use flextensor_bench::harness::{arg, eval_summary, fmt_time, save_csv, Table};
use flextensor_explore::methods::{search, Method, SearchOptions, SearchResult};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "starts", "workers", "layer", "method"]);
    let trials: usize = arg("trials", 200);
    let starts: usize = arg("starts", 32);
    let workers: usize = arg("workers", 8);
    let layer: String = arg("layer", "C6".to_string());
    let method = match arg("method", "p".to_string()).as_str() {
        "q" => Method::QMethod,
        "walk" => Method::RandomWalk,
        _ => Method::PMethod,
    };

    let g = yolo_layer(&layer).expect("known YOLO layer").graph(1);
    let ev = Evaluator::new(Device::Gpu(v100()));
    println!(
        "== Probe: parallel batched evaluation ({method}, {layer}, {trials} trials, {starts} starts) ==\n"
    );

    let run = |eval_workers: usize| -> SearchResult {
        let opts = SearchOptions {
            trials,
            starts,
            initial_samples: 64,
            eval_workers,
            ..SearchOptions::default()
        };
        search(&g, &ev, method, &opts).expect("search")
    };

    let serial = run(1);
    let parallel = run(workers);

    let mut t = Table::new(&["workers", "eval wall", "speedup", "best GFLOPS", "hit rate"]);
    let speedup = serial.eval_stats.wall_clock_s / parallel.eval_stats.wall_clock_s.max(1e-12);
    for (r, s) in [(&serial, 1.0), (&parallel, speedup)] {
        t.row(vec![
            r.eval_stats.workers.to_string(),
            fmt_time(r.eval_stats.wall_clock_s),
            format!("{s:.2}x"),
            format!("{:.0}", r.best_cost.gflops()),
            format!("{:.1}%", 100.0 * r.eval_stats.hit_rate()),
        ]);
    }
    println!("{}", t.render());
    save_csv("probe_parallel", &t);

    println!("serial:   {}", eval_summary(&serial.eval_stats));
    println!("parallel: {}", eval_summary(&parallel.eval_stats));

    let identical = serial.best.encode() == parallel.best.encode()
        && serial.best_cost.seconds == parallel.best_cost.seconds
        && serial.measurements == parallel.measurements;
    println!(
        "\nresults identical across worker counts: {}",
        if identical {
            "yes"
        } else {
            "NO — determinism bug!"
        }
    );
    println!(
        "cache hit rate > 0: {}",
        if parallel.eval_stats.hit_rate() > 0.0 {
            "yes"
        } else {
            "no"
        }
    );
    println!(
        "evaluation speedup with {} workers: {speedup:.2}x {}",
        parallel.eval_stats.workers,
        if speedup >= 2.0 { "(>= 2x)" } else { "(< 2x)" }
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if speedup < 2.0 && cores < parallel.eval_stats.workers {
        println!(
            "note: this host exposes only {cores} core{} — thread-level speedup \
             is bounded by the hardware, not by the evaluation pool",
            if cores == 1 { "" } else { "s" }
        );
    }
    if !identical {
        std::process::exit(1);
    }
}

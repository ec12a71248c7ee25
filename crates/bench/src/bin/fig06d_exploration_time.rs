//! Figure 6(d) — exploration-time comparison of AutoTVM, P-method and
//! Q-method on the 15 YOLO-v1 layers (V100).
//!
//! Protocol (§6.5): run AutoTVM until it converges to a stable
//! performance, then run P-method and Q-method until each reaches a
//! similar performance, and report the (modeled) exploration time of all
//! three. On average the paper measures Q-method at 27.6% of P-method's
//! time and 52.9% of AutoTVM's.
//!
//! Flags: `--rounds N` (AutoTVM rounds, default 16), `--max-trials N`
//! (P/Q trial cap, default 400), `--layers N` (first N layers, default 15),
//! `--workers N` (evaluation threads, default 1; 0 = all cores — results
//! are identical, only wall-clock changes).

use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_bench::harness::{arg, eval_summary, fmt_time, save_csv, Table};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_explore::pool::EvalStats;
use flextensor_ir::yolo::YOLO_LAYERS;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["rounds", "max-trials", "layers", "workers"]);
    let rounds: usize = arg("rounds", 16);
    let max_trials: usize = arg("max-trials", 400);
    let nlayers: usize = arg("layers", 15);
    let workers: usize = arg("workers", 1);
    let ev = Evaluator::new(Device::Gpu(v100()));
    println!("== Figure 6(d): exploration time to reach AutoTVM's converged performance ==\n");
    let mut t = Table::new(&[
        "layer",
        "AutoTVM(s)",
        "P-method(s)",
        "Q-method(s)",
        "Q/P",
        "Q/AutoTVM",
    ]);
    let (mut qp, mut qa) = (Vec::new(), Vec::new());
    let mut pool_stats = EvalStats::default();
    let mut add_stats = |s: &EvalStats| {
        pool_stats.evaluated += s.evaluated;
        pool_stats.cache_hits += s.cache_hits;
        pool_stats.cache_misses += s.cache_misses;
        pool_stats.workers = s.workers;
        pool_stats.wall_clock_s += s.wall_clock_s;
    };
    for layer in YOLO_LAYERS.iter().take(nlayers) {
        let g = layer.graph(1);
        let at = tune(
            &g,
            &ev,
            &TuneOptions {
                rounds,
                batch: 64,
                eval_workers: workers,
                ..TuneOptions::default()
            },
        )
        .expect("autotvm");
        add_stats(&at.eval_stats);
        let target = at.best_cost.seconds;
        let run = |m: Method| {
            let opts = SearchOptions {
                trials: max_trials,
                starts: if m == Method::PMethod { 2 } else { 8 },
                initial_samples: 16,
                stop_when_seconds: Some(target),
                eval_workers: workers,
                ..SearchOptions::default()
            };
            search(&g, &ev, m, &opts).expect("search")
        };
        let p = run(Method::PMethod);
        let q = run(Method::QMethod);
        add_stats(&p.eval_stats);
        add_stats(&q.eval_stats);
        let reached =
            |r: &flextensor_explore::methods::SearchResult| r.best_cost.seconds <= target * 1.001;
        let note = |ok: bool, t: f64| {
            if ok {
                format!("{t:.0}")
            } else {
                format!("{t:.0}*") // * = budget exhausted before target
            }
        };
        qp.push(q.exploration_time_s / p.exploration_time_s);
        qa.push(q.exploration_time_s / at.exploration_time_s);
        t.row(vec![
            layer.name.to_string(),
            format!("{:.0}", at.exploration_time_s),
            note(reached(&p), p.exploration_time_s),
            note(reached(&q), q.exploration_time_s),
            format!("{:.2}", q.exploration_time_s / p.exploration_time_s),
            format!("{:.2}", q.exploration_time_s / at.exploration_time_s),
        ]);
    }
    // Geometric mean: these are ratios, and a single lucky/unlucky run
    // would dominate an arithmetic mean.
    let avg = |v: &[f64]| flextensor_bench::harness::geomean(v);
    t.row(vec![
        "AVG".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{:.2}", avg(&qp)),
        format!("{:.2}", avg(&qa)),
    ]);
    println!("{}", t.render());
    save_csv("fig06d", &t);
    println!(
        "\nQ-method needs {:.1}% of P-method's time and {:.1}% of AutoTVM's (paper: 27.6% / 52.9%)",
        100.0 * avg(&qp),
        100.0 * avg(&qa)
    );
    println!("Evaluation layer: {}", eval_summary(&pool_stats));
    println!(
        "(modeled exploration above; real evaluation wall-clock was {} — rerun with a different --workers to compare)",
        fmt_time(pool_stats.wall_clock_s)
    );
}

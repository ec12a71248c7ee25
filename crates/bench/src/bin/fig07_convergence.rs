//! Figure 7 — performance vs exploration time for test cases C1, C6, C8
//! and C9 (V100): the convergence curves of P-method, Q-method and
//! AutoTVM.
//!
//! Flags: `--trials N` (P/Q trials, default 150), `--rounds N` (AutoTVM
//! rounds, default 16), `--points N` (rows per curve, default 12),
//! `--workers N` (evaluation threads, default 1; 0 = all cores — the
//! curves are identical, only real wall-clock changes).

use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_bench::harness::{arg, ascii_plot, eval_summary, save_csv, Table};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

/// Downsamples a (time, gflops) series to ~n rows.
fn downsample(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if series.len() <= n {
        return series.to_vec();
    }
    let step = series.len() as f64 / n as f64;
    (0..n)
        .map(|i| series[((i as f64 + 1.0) * step - 1.0) as usize])
        .collect()
}

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "rounds", "points", "workers"]);
    let trials: usize = arg("trials", 150);
    let rounds: usize = arg("rounds", 16);
    let points: usize = arg("points", 12);
    let workers: usize = arg("workers", 1);
    let ev = Evaluator::new(Device::Gpu(v100()));
    for name in ["C1", "C6", "C8", "C9"] {
        let g = yolo_layer(name).unwrap().graph(1);
        println!("== Figure 7 ({name}): performance (GFLOPS) vs exploration time (s) ==\n");

        let run = |m: Method| {
            let opts = SearchOptions {
                trials,
                starts: if m == Method::PMethod { 2 } else { 8 },
                initial_samples: 16,
                eval_workers: workers,
                ..SearchOptions::default()
            };
            let r = search(&g, &ev, m, &opts).expect("search");
            println!("  [{m}] {}", eval_summary(&r.eval_stats));
            r.trace
                .iter()
                .map(|p| (p.exploration_time_s, p.best_gflops))
                .collect::<Vec<_>>()
        };
        let p_curve = downsample(&run(Method::PMethod), points);
        let q_curve = downsample(&run(Method::QMethod), points);
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
        println!("  [AutoTVM] {}\n", eval_summary(&at.eval_stats));
        let a_curve = downsample(
            &at.trace
                .iter()
                .map(|p| (p.exploration_time_s, p.best_gflops))
                .collect::<Vec<_>>(),
            points,
        );

        let mut t = Table::new(&["P time", "P GF", "Q time", "Q GF", "AT time", "AT GF"]);
        let rows = p_curve.len().max(q_curve.len()).max(a_curve.len());
        let cell = |c: Option<&(f64, f64)>, which: usize| {
            c.map(|(t, g)| {
                if which == 0 {
                    format!("{t:.0}")
                } else {
                    format!("{g:.0}")
                }
            })
            .unwrap_or_default()
        };
        for i in 0..rows {
            t.row(vec![
                cell(p_curve.get(i), 0),
                cell(p_curve.get(i), 1),
                cell(q_curve.get(i), 0),
                cell(q_curve.get(i), 1),
                cell(a_curve.get(i), 0),
                cell(a_curve.get(i), 1),
            ]);
        }
        println!("{}", t.render());
        save_csv(&format!("fig07_{name}"), &t);
        println!(
            "{}",
            ascii_plot(
                &[
                    ("P-method", p_curve.clone()),
                    ("Q-method", q_curve.clone()),
                    ("AutoTVM", a_curve.clone()),
                ],
                64,
                14,
            )
        );
    }
    println!(
        "Q-method converges to good performance in a short time; P-method and AutoTVM take longer."
    );
}

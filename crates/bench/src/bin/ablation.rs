//! Ablation studies of the design choices DESIGN.md calls out (§4.2/§5.1):
//!
//! 1. **Starting-point rule** — SA temperature sweep: γ=0 (uniform over
//!    `H`), the default γ, and γ=50 (effectively greedy best-only).
//! 2. **Direction selection** — Q-method vs P-method vs random walk at an
//!    equal measurement budget.
//! 3. **Producer placement** — the best schedule with padding inlined vs
//!    forced materialization.
//! 4. **Shared-memory caching** — best-found schedule with the cache
//!    primitive enabled vs disabled (GPU).
//!
//! Flags: `--trials N` (default 100), `--layer NAME` (default C9).

use flextensor_bench::harness::{arg, save_csv, Table};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "layer"]);
    let trials: usize = arg("trials", 100);
    let layer: String = arg("layer", "C9".to_string());
    let g = yolo_layer(&layer).expect("known layer").graph(1);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let base = SearchOptions {
        trials,
        starts: 8,
        initial_samples: 16,
        ..SearchOptions::default()
    };

    println!("== Ablation 1: SA starting-point temperature (γ), {layer} ==\n");
    let mut t1 = Table::new(&["gamma", "best GFLOPS", "measurements"]);
    for gamma in [0.0, 2.0, 50.0] {
        let r = search(
            &g,
            &ev,
            Method::RandomWalk,
            &SearchOptions {
                gamma,
                ..base.clone()
            },
        )
        .unwrap();
        t1.row(vec![
            format!("{gamma}"),
            format!("{:.0}", r.best_cost.gflops()),
            r.measurements.to_string(),
        ]);
    }
    println!("{}", t1.render());
    save_csv("ablation_gamma", &t1);

    println!("\n== Ablation 2: direction selection at equal trial budget, {layer} ==\n");
    let mut t2 = Table::new(&["method", "best GFLOPS", "measurements", "time(s)"]);
    for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
        let r = search(&g, &ev, m, &base).unwrap();
        t2.row(vec![
            m.to_string(),
            format!("{:.0}", r.best_cost.gflops()),
            r.measurements.to_string(),
            format!("{:.0}", r.exploration_time_s),
        ]);
    }
    println!("{}", t2.render());
    save_csv("ablation_method", &t2);

    println!("\n== Ablation 3 & 4: inline and cache primitives on the found schedule ==\n");
    let best = search(&g, &ev, Method::RandomWalk, &base).unwrap().best;
    let mut t3 = Table::new(&["variant", "GFLOPS"]);
    let flops = g.flops() as f64;
    let eval = |cfg: &flextensor_schedule::config::NodeConfig| {
        ev.evaluate(&g, cfg)
            .map(|c| flops / c.seconds / 1e9)
            .unwrap_or(0.0)
    };
    t3.row(vec!["found schedule".into(), format!("{:.0}", eval(&best))]);
    let mut materialized = best.clone();
    materialized.inline_data = false;
    t3.row(vec![
        "padding materialized".into(),
        format!("{:.0}", eval(&materialized)),
    ]);
    let mut flipped_cache = best.clone();
    flipped_cache.cache_shared = !flipped_cache.cache_shared;
    t3.row(vec![
        format!(
            "cache_shared = {}",
            if flipped_cache.cache_shared {
                "on"
            } else {
                "off"
            }
        ),
        format!("{:.0}", eval(&flipped_cache)),
    ]);
    println!("{}", t3.render());
    save_csv("ablation_primitives", &t3);
}

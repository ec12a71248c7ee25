//! Calibration probe: Q-method vs random-walk across seeds and layers.

use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let ev = Evaluator::new(Device::Gpu(v100()));
    for name in ["C6", "C9", "C13"] {
        let g = yolo_layer(name).unwrap().graph(1);
        for m in [Method::QMethod, Method::RandomWalk] {
            let mut results = Vec::new();
            for seed in [1u64, 2, 3] {
                let opts = SearchOptions {
                    trials,
                    starts: 8,
                    initial_samples: 16,
                    seed,
                    ..SearchOptions::default()
                };
                let r = search(&g, &ev, m, &opts).unwrap();
                results.push(r.best_cost.gflops());
            }
            let avg = results.iter().sum::<f64>() / results.len() as f64;
            println!(
                "{name} {m:<12} trials={trials}: {:?} avg={avg:.0}",
                results.iter().map(|v| *v as i64).collect::<Vec<_>>()
            );
        }
    }
}

//! Calibration probe (not a paper figure): how close do the three search
//! methods get to the best-known schedule on a hard layer, per budget?

use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::library;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    let layer = std::env::args().nth(1).unwrap_or_else(|| "C13".into());
    let l = yolo_layer(&layer).expect("known layer");
    let g = l.graph(1);
    let flops = g.flops() as f64;
    let gpu = v100();
    let ev = Evaluator::new(Device::Gpu(gpu.clone()));
    let expert = library::hand_tuned_gpu_time(&g, &gpu).unwrap();
    println!(
        "{layer}: expert-generic config at generated quality: {:.0} GFLOPS",
        flops / expert / 1e9
    );
    for trials in [30, 60, 120, 240] {
        for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
            let opts = SearchOptions {
                trials,
                starts: 8,
                initial_samples: 16,
                ..SearchOptions::default()
            };
            let r = search(&g, &ev, m, &opts).unwrap();
            println!(
                "  trials={trials:<4} {m:<12} best={:>6.0} GFLOPS  meas={:<5} time={:.0}s",
                r.best_cost.gflops(),
                r.measurements,
                r.exploration_time_s
            );
        }
    }
}

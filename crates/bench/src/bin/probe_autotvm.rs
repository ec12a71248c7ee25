//! Calibration probe: AutoTVM converged performance vs FlexTensor methods.

use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::yolo::yolo_layer;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    let ev = Evaluator::new(Device::Gpu(v100()));
    for name in ["C1", "C6", "C8", "C9", "C13"] {
        let g = yolo_layer(name).unwrap().graph(1);
        let at = tune(
            &g,
            &ev,
            &TuneOptions {
                rounds: 16,
                batch: 64,
                ..TuneOptions::default()
            },
        )
        .unwrap();
        let q = search(
            &g,
            &ev,
            Method::QMethod,
            &SearchOptions {
                trials: 150,
                starts: 8,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        println!(
            "{name}: autotvm={:>5.0} GF ({} meas, {:.0}s)  q={:>5.0} GF ({} meas, {:.0}s)  q/at={:.2}",
            at.best_cost.gflops(),
            at.measurements,
            at.exploration_time_s,
            q.best_cost.gflops(),
            q.measurements,
            q.exploration_time_s,
            q.best_cost.gflops() / at.best_cost.gflops()
        );
    }
}

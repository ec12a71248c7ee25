//! Calibration harness (not a paper figure): prints FlexTensor vs the
//! simulated libraries on the Fig. 6a workload so model constants can be
//! sanity-checked quickly. Run with `--trials N` to change the search
//! budget.

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, Table};
use flextensor_ir::suite::OperatorKind;
use flextensor_ir::yolo::YOLO_LAYERS;
use flextensor_sim::library;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials"]);
    let trials: usize = arg("trials", 60);
    let gpu = v100();
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    let mut table = Table::new(&[
        "layer",
        "pytorch",
        "cudnn",
        "flextensor",
        "ft/cudnn",
        "measurements",
    ]);
    let mut speedups = Vec::new();
    for layer in &YOLO_LAYERS {
        let g = layer.graph(1);
        let flops = g.flops() as f64;
        let native = library::pytorch_gpu_time(&g, &gpu).map(|t| flops / t / 1e9);
        let cudnn = library::cudnn_time(OperatorKind::Conv2d, &g, &gpu).map(|t| flops / t / 1e9);
        let task = Task::new(g, Device::Gpu(gpu.clone()));
        let ft = optimize(&task, &opts).expect("optimize");
        let ratio = cudnn.map(|c| ft.gflops() / c).unwrap_or(f64::NAN);
        speedups.push(ratio);
        table.row(vec![
            layer.name.to_string(),
            format!("{:.0}", native.unwrap_or(0.0)),
            format!("{:.0}", cudnn.unwrap_or(0.0)),
            format!("{:.0}", ft.gflops()),
            format!("{ratio:.2}"),
            format!("{}", ft.measurements),
        ]);
    }
    println!("{}", table.render());
    println!(
        "geomean FlexTensor/cuDNN speedup: {:.2}x",
        geomean(&speedups)
    );
}

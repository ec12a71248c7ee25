//! Figure 6(a) — absolute GFLOPS of PyTorch (native), cuDNN and
//! FlexTensor for the 15 YOLO-v1 convolution layers on V100.
//!
//! Flags: `--trials N` (default 120).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_ir::suite::OperatorKind;
use flextensor_ir::yolo::YOLO_LAYERS;
use flextensor_sim::library;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials"]);
    let trials: usize = arg("trials", 120);
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
    println!("== Figure 6(a): C2D on V100, GFLOPS ==\n");
    let mut t = Table::new(&["layer", "PyTorch", "cuDNN", "FlexTensor", "FT/cuDNN"]);
    let (mut py, mut cu, mut ft, mut sp) = (vec![], vec![], vec![], vec![]);
    for layer in &YOLO_LAYERS {
        let g = layer.graph(1);
        let flops = g.flops() as f64;
        let to_gf = |t: f64| flops / t / 1e9;
        let native = library::pytorch_gpu_time(&g, &gpu)
            .map(to_gf)
            .unwrap_or(0.0);
        let cudnn = library::cudnn_time(OperatorKind::Conv2d, &g, &gpu)
            .map(to_gf)
            .unwrap_or(0.0);
        let task = Task::new(g, Device::Gpu(gpu.clone()));
        let flex = optimize(&task, &opts).expect("optimize").gflops();
        py.push(native);
        cu.push(cudnn);
        ft.push(flex);
        sp.push(flex / cudnn);
        t.row(vec![
            layer.name.to_string(),
            format!("{native:.0}"),
            format!("{cudnn:.0}"),
            format!("{flex:.0}"),
            format!("{:.2}", flex / cudnn),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        format!("{:.0}", py.iter().sum::<f64>() / py.len() as f64),
        format!("{:.0}", cu.iter().sum::<f64>() / cu.len() as f64),
        format!("{:.0}", ft.iter().sum::<f64>() / ft.len() as f64),
        format!("{:.2}", geomean(&sp)),
    ]);
    println!("{}", t.render());
    save_csv("fig06a", &t);
    println!(
        "\ngeomean speedup vs cuDNN: {:.2}x, vs PyTorch: {:.2}x (paper: 1.5x / 1.56x)",
        geomean(&sp),
        geomean(&ft.iter().zip(&py).map(|(f, p)| f / p).collect::<Vec<_>>())
    );
}

//! Figure 6(b) — absolute GFLOPS of PyTorch (MKL-DNN backend) and
//! FlexTensor for the 15 YOLO-v1 convolution layers on the Xeon E5-2699
//! v4 CPU. FlexTensor decides the vectorization length itself; the paper
//! observes it always chooses 8 (AVX2) — the harness reports the chosen
//! lengths to verify.
//!
//! Flags: `--trials N` (default 120).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_ir::yolo::YOLO_LAYERS;
use flextensor_sim::library;
use flextensor_sim::spec::{xeon_e5_2699_v4, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials"]);
    let trials: usize = arg("trials", 120);
    let cpu = xeon_e5_2699_v4();
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    println!("== Figure 6(b): C2D on Xeon E5-2699 v4, GFLOPS ==\n");
    let mut t = Table::new(&[
        "layer",
        "PyTorch(MKL-DNN)",
        "FlexTensor",
        "speedup",
        "veclen",
    ]);
    let (mut mk, mut ft, mut sp) = (vec![], vec![], vec![]);
    for layer in &YOLO_LAYERS {
        let g = layer.graph(1);
        let flops = g.flops() as f64;
        let mkl = library::mkldnn_time(&g, &cpu)
            .map(|t| flops / t / 1e9)
            .unwrap_or(0.0);
        let task = Task::new(g, Device::Cpu(cpu.clone()));
        let r = optimize(&task, &opts).expect("optimize");
        let flex = r.gflops();
        mk.push(mkl);
        ft.push(flex);
        sp.push(flex / mkl);
        t.row(vec![
            layer.name.to_string(),
            format!("{mkl:.0}"),
            format!("{flex:.0}"),
            format!("{:.2}", flex / mkl),
            r.kernel.features.vector_len.to_string(),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        format!("{:.0}", mk.iter().sum::<f64>() / mk.len() as f64),
        format!("{:.0}", ft.iter().sum::<f64>() / ft.len() as f64),
        format!("{:.2}", geomean(&sp)),
        "".into(),
    ]);
    println!("{}", t.render());
    save_csv("fig06b", &t);
    println!(
        "\ngeomean speedup vs MKL-DNN: {:.2}x (paper: 1.72x)",
        geomean(&sp)
    );
}

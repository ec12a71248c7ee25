//! Figure 6(c) — absolute GFLOPS of the hand-optimized OpenCL baseline
//! (the Zhang et al. FPGA'15 design point) and FlexTensor for the 15
//! YOLO-v1 convolution layers on the Xilinx VU9P FPGA, both evaluated with
//! the §5.2 analytical pipeline model.
//!
//! Flags: `--trials N` (default 120).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_ir::yolo::YOLO_LAYERS;
use flextensor_sim::library;
use flextensor_sim::spec::{vu9p, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials"]);
    let trials: usize = arg("trials", 120);
    let fpga = vu9p();
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    println!("== Figure 6(c): C2D on VU9P, GFLOPS ==\n");
    let mut t = Table::new(&[
        "layer",
        "Hand-Optimized",
        "FlexTensor",
        "speedup",
        "#PE",
        "pipeline",
    ]);
    let (mut ho, mut ft, mut sp) = (vec![], vec![], vec![]);
    for layer in &YOLO_LAYERS {
        let g = layer.graph(1);
        let flops = g.flops() as f64;
        let hand = library::opencl_fpga_time(&g, &fpga)
            .map(|t| flops / t / 1e9)
            .unwrap_or(0.0);
        let task = Task::new(g, Device::Fpga(fpga.clone()));
        let r = optimize(&task, &opts).expect("optimize");
        let flex = r.gflops();
        let (pe, pipe) = r
            .kernel
            .features
            .fpga
            .as_ref()
            .map(|f| (f.pe, f.pipeline))
            .unwrap_or((0, 0));
        ho.push(hand);
        ft.push(flex);
        sp.push(flex / hand);
        t.row(vec![
            layer.name.to_string(),
            format!("{hand:.0}"),
            format!("{flex:.0}"),
            format!("{:.2}", flex / hand),
            pe.to_string(),
            pipe.to_string(),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        format!("{:.0}", ho.iter().sum::<f64>() / ho.len() as f64),
        format!("{:.0}", ft.iter().sum::<f64>() / ft.len() as f64),
        format!("{:.2}", geomean(&sp)),
        "".into(),
        "".into(),
    ]);
    println!("{}", t.render());
    save_csv("fig06c", &t);
    println!(
        "\ngeomean speedup vs hand-optimized OpenCL: {:.2}x (paper: 1.5x)",
        geomean(&sp)
    );
}

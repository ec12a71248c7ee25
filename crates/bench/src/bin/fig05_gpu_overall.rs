//! Figure 5 — normalized performance of native PyTorch, cuDNN/cuBLAS and
//! FlexTensor for all 12 operators on V100, P100 and Titan X.
//!
//! For each (operator, GPU) the geometric-mean throughput over the
//! operator's Table 3 test cases is computed for each system and the three
//! bars are normalized to the best. The paper's headline (1.83x average
//! speedup over cuDNN on V100) is reported as the geomean of per-case
//! FlexTensor/library speedups.
//!
//! Flags: `--trials N` (search budget per case, default 60),
//! `--cases N` (max test cases per operator, default all).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_ir::suite::{test_cases, OperatorKind};
use flextensor_sim::library;
use flextensor_sim::spec::{p100, titan_x, v100, Device, GpuSpec};

fn library_time(kind: OperatorKind, g: &flextensor_ir::graph::Graph, gpu: &GpuSpec) -> Option<f64> {
    match kind {
        OperatorKind::Gemv | OperatorKind::Gemm | OperatorKind::Bilinear => {
            Some(library::cublas_time(g, gpu))
        }
        _ => library::cudnn_time(kind, g, gpu),
    }
}

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "cases"]);
    let trials: usize = arg("trials", 60);
    let max_cases: usize = arg("cases", usize::MAX);
    let gpus = [v100(), p100(), titan_x()];
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };

    for gpu in &gpus {
        println!("== Figure 5 ({}): normalized performance ==\n", gpu.name);
        let mut t = Table::new(&["op", "PyTorch", "cuDNN", "FlexTensor", "FT/lib"]);
        let mut speedups_all = Vec::new();
        let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
        for kind in OperatorKind::table3() {
            let cases: Vec<_> = test_cases(kind).into_iter().take(max_cases).collect();
            let mut native_g = Vec::new();
            let mut lib_g = Vec::new();
            let mut ft_g = Vec::new();
            let mut speedups = Vec::new();
            for g in &cases {
                let flops = g.flops() as f64;
                let to_gf = |t: f64| flops / t / 1e9;
                let native = library::pytorch_gpu_time(g, gpu).map(to_gf);
                let lib = library_time(kind, g, gpu).map(to_gf);
                let task = Task::new(g.clone(), Device::Gpu(gpu.clone()));
                let ft = optimize(&task, &opts).expect("optimize").gflops();
                if let Some(n) = native {
                    native_g.push(n);
                }
                if let Some(l) = lib {
                    lib_g.push(l);
                }
                ft_g.push(ft);
                // Per the paper, DEP compares against native PyTorch (cuDNN
                // support is poor); everything else against the library.
                let baseline = match kind {
                    OperatorKind::Depthwise => native,
                    _ => lib.or(native),
                };
                if let Some(b) = baseline {
                    if ft > 0.0 && b > 0.0 {
                        speedups.push(ft / b);
                    }
                }
            }
            let (n, l, f) = (geomean(&native_g), geomean(&lib_g), geomean(&ft_g));
            rows.push((kind.abbr().to_string(), n, l, f, geomean(&speedups)));
            speedups_all.extend(speedups);
        }
        // Normalize each row to its best system.
        for (name, n, l, f, sp) in &rows {
            let m = n.max(*l).max(*f).max(1e-30);
            t.row(vec![
                name.clone(),
                format!("{:.2}", n / m),
                format!("{:.2}", l / m),
                format!("{:.2}", f / m),
                format!("{sp:.2}"),
            ]);
        }
        let overall = geomean(&speedups_all);
        t.row(vec![
            "GEOMEAN".into(),
            "".into(),
            "".into(),
            "".into(),
            format!("{overall:.2}"),
        ]);
        println!("{}", t.render());
        println!(
            "average FlexTensor speedup over the vendor library on {}: {overall:.2}x\n",
            gpu.name
        );
        save_csv(&format!("fig05_{}", gpu.name.to_lowercase()), &t);
    }
}
